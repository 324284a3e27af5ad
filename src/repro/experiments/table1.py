"""Table 1 — Codes Comparison.

Derived exactly from the code implementations: MDS property, average
single-failure read-traffic ratio, storage overhead, and sub-packetization.
Paper values: RS(10,4) 10 / 140% / 1; LRC(10,2,2) 5.71 / 140% / 1;
Clay(10,4) 3.25 / 140% / 256.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codes import ClayCode, LRCCode, RSCode
from repro.experiments.common import format_table
from repro.runner import ExperimentResult, Scenario, rows_of, scenario, typed_rows


@dataclass(frozen=True)
class CodeRow:
    name: str
    is_mds: bool
    read_traffic: float
    storage_percent: float
    sub_packetization: int


def compute(k: int, r: int, lrc_locals: int) -> dict:
    """Scenario compute: the code-comparison rows (deterministic)."""
    codes = [RSCode(k, r), LRCCode(k, lrc_locals, r - lrc_locals), ClayCode(k, r)]
    rows = []
    for code in codes:
        rows.append(CodeRow(
            name=code.name,
            is_mds=code.is_mds,
            read_traffic=code.average_repair_read_ratio(code.alpha * 4),
            storage_percent=100.0 * code.storage_overhead,
            sub_packetization=code.alpha,
        ))
    return {"rows": rows_of(rows)}


def scenarios(k: int = 10, r: int = 4, lrc_locals: int = 2) -> list[Scenario]:
    return [scenario(compute, name="codes", seeded=False,
                     k=k, r=r, lrc_locals=lrc_locals)]


def render(results: list[ExperimentResult]) -> str:
    """Paper-style table, one row per code."""
    return format_table(
        ["Code", "MDS", "Read traffic", "Storage", "Sub-packetization"],
        [[r.name, "Yes" if r.is_mds else "No", round(r.read_traffic, 2),
          f"{r.storage_percent:.0f}%", r.sub_packetization]
         for r in typed_rows(results, CodeRow)])

