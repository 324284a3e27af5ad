"""Figure 14 — average chunk size under different common ratios q.

Average chunk size (partitioned bytes / chunk count, §6.3) of Geo-4M on W1
and Geo-128K on W2 for q = 1..10.  The paper finds the peak at q = 2 or 3,
motivating the default q = 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.tuning import evaluate_candidate
from repro.experiments.common import (
    format_table,
    sample_workload,
    setting_by_name,
)
from repro.runner import ExperimentResult, Scenario, rows_of, scenario, typed_rows

KB = 1 << 10
MB = 1 << 20


#: The common ratios swept.
QS = tuple(range(1, 11))


@dataclass(frozen=True)
class QPoint:
    q: int
    average_chunk_size: float


def compute(setting: str, n_objects: int, seed: int = 0) -> dict:
    """Scenario compute: the q sweep of the setting's default Geometric s0."""
    st = setting_by_name(setting)
    sizes = sample_workload(st, n_objects, seed).tolist()
    if sizes:
        points = [QPoint(q, evaluate_candidate(
            sizes, st.geo_default_s0, q, st.max_chunk_size).average_chunk_size)
            for q in QS]
    else:  # an explicit zero scale: no chunks to average
        points = [QPoint(q, 0.0) for q in QS]
    return {"rows": rows_of(points), "meta": {"setting": setting}}


def best_q(points: list[QPoint]) -> int:
    """The q maximising average chunk size."""
    return max(points, key=lambda p: p.average_chunk_size).q


def scenarios(setting: str = "W1",
              n_objects: int | None = None) -> list[Scenario]:
    return [scenario(compute, name="q-sweep", setting=setting,
                     n_objects=n_objects if n_objects is not None else 5000)]


def render(results: list[ExperimentResult]) -> str:
    """Paper-style table; chunk sizes in MB on W1 and KB on W2."""
    unit, label = ((MB, "MB") if results[0].meta["setting"] == "W1"
                   else (KB, "KB"))
    points = typed_rows(results, QPoint)
    table = format_table(
        ["q", f"Average chunk size ({label})"],
        [[p.q, round(p.average_chunk_size / unit, 1)] for p in points])
    return table + f"\n\nPeak at q={best_q(points)} (paper: 2 or 3)"
