"""Figure 2 — Repair patterns of a chunk for Clay(10,4).

For each failed disk, the sub-chunks read from every helper form q**y
contiguous runs of q**(t-1-y) sub-chunks (cases 1-4: blocks of 64/16/4/1).
Regenerated directly from the code's byte-exact repair plans.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codes import ClayCode
from repro.experiments.common import format_table
from repro.runner import ExperimentResult, Scenario, rows_of, scenario, typed_rows


@dataclass(frozen=True)
class CaseRow:
    case: int
    failed_nodes: list[int]
    runs_per_helper: int
    run_length_subchunks: int
    subchunks_read_per_helper: int
    read_fraction: float


def compute(k: int, r: int) -> dict:
    """Scenario compute: the Clay repair-pattern cases (deterministic)."""
    code = ClayCode(k, r)
    chunk = code.alpha  # one byte per sub-chunk
    rows = []
    for case in range(code.t):
        nodes = [n for n in range(code.n) if code.slot_xy(n)[1] == case]
        if not nodes:
            continue
        plan = code.repair_plan(nodes[0], chunk).coalesced()
        helper = plan.helper_nodes[0]
        segs = plan.segments_for_node(helper)
        rows.append(CaseRow(
            case=case + 1,
            failed_nodes=nodes,
            runs_per_helper=len(segs),
            run_length_subchunks=segs[0].length,
            subchunks_read_per_helper=sum(s.length for s in segs),
            read_fraction=sum(s.length for s in segs) / code.alpha,
        ))
    return {"rows": rows_of(rows)}


def scenarios(k: int = 10, r: int = 4) -> list[Scenario]:
    return [scenario(compute, name="repair-patterns", seeded=False, k=k, r=r)]


def render(results: list[ExperimentResult]) -> str:
    """Paper-style table, one row per repair case."""
    def node_names(nodes):
        return ",".join(f"D{n + 1}" if n < 10 else f"P{n - 9}" for n in nodes)

    return format_table(
        ["Case", "Failed disks", "Runs/helper", "Run length", "Read/helper",
         "Fraction"],
        [[r.case, node_names(r.failed_nodes), r.runs_per_helper,
          r.run_length_subchunks, r.subchunks_read_per_helper,
          round(r.read_fraction, 3)] for r in typed_rows(results, CaseRow)])

