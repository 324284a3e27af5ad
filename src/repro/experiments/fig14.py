"""Figure 14 — average chunk size under different common ratios q.

Average chunk size (partitioned bytes / chunk count, §6.3) of Geo-4M on W1
and Geo-128K on W2 for q = 1..10.  The paper finds the peak at q = 2 or 3,
motivating the default q = 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.tuning import evaluate_candidate
from repro.experiments.common import (
    W1_SETTING,
    WorkloadSetting,
    format_table,
    sample_workload,
    setting_by_name,
)
from repro.runner import ExperimentResult, Scenario, rows_of, scenario, typed_rows

KB = 1 << 10
MB = 1 << 20


@dataclass(frozen=True)
class QPoint:
    q: int
    average_chunk_size: float


def run(setting: WorkloadSetting = W1_SETTING, s0: int | None = None,
        qs: tuple[int, ...] = tuple(range(1, 11)),
        n_objects: int = 4000, seed: int = 0) -> list[QPoint]:
    """Run the experiment; returns its result rows."""
    s0 = s0 or setting.geo_default_s0
    sizes = sample_workload(setting, n_objects, seed).tolist()
    if not sizes:  # an explicit zero scale: no chunks to average
        return [QPoint(q, 0.0) for q in qs]
    return [QPoint(q, evaluate_candidate(sizes, s0, q, setting.max_chunk_size
                                         ).average_chunk_size)
            for q in qs]


def best_q(points: list[QPoint]) -> int:
    """The q maximising average chunk size."""
    return max(points, key=lambda p: p.average_chunk_size).q


def to_text(points: list[QPoint], setting: WorkloadSetting = W1_SETTING) -> str:
    """Render the result as a paper-style text table."""
    unit, label = (MB, "MB") if setting.name == "W1" else (KB, "KB")
    table = format_table(
        ["q", f"Average chunk size ({label})"],
        [[p.q, round(p.average_chunk_size / unit, 1)] for p in points])
    return table + f"\n\nPeak at q={best_q(points)} (paper: 2 or 3)"


def compute(setting: str = "W1", n_objects: int = 4000, seed: int = 0) -> dict:
    """Scenario compute: the q sweep for one workload setting."""
    points = run(setting_by_name(setting), n_objects=n_objects, seed=seed)
    return {"rows": rows_of(points), "meta": {"setting": setting}}


def scenarios(setting: str = "W1",
              n_objects: int | None = None) -> list[Scenario]:
    return [scenario(compute, name="q-sweep", setting=setting,
                     n_objects=n_objects if n_objects is not None else 5000)]


def render(results: list[ExperimentResult]) -> str:
    setting = setting_by_name(results[0].meta["setting"])
    return to_text(typed_rows(results, QPoint), setting)
