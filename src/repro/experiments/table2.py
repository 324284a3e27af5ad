"""Table 2 — workload descriptions.

Regenerates the W1/W2 summary statistics from the synthetic samplers and
reports them against the published values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import W1_SETTING, W2_SETTING, format_table
from repro.runner import ExperimentResult, Scenario, rows_of, scenario, typed_rows
from repro.trace import RequestSampler

KB = 1 << 10
MB = 1 << 20
GB = 1 << 30


@dataclass(frozen=True)
class WorkloadRow:
    name: str
    min_size: int
    max_size: int
    mean_object_size: float
    mean_request_size: float
    n_objects: int
    total_capacity: float
    paper_mean_object: float
    paper_mean_request: float


def compute(n_objects: int, seed: int = 0) -> dict:
    """Scenario compute: the Table 2 workload statistics."""
    rows = []
    for setting in (W1_SETTING, W2_SETTING):
        w = setting.workload
        sizes = w.sample_sizes(np.random.default_rng(seed), n_objects)
        sampler = RequestSampler(sizes.astype(np.float64), w.mean_request_size)
        rows.append(WorkloadRow(
            name=w.name,
            min_size=int(sizes.min()), max_size=int(sizes.max()),
            mean_object_size=float(sizes.mean()),
            mean_request_size=sampler.mean_request_size,
            n_objects=n_objects,
            total_capacity=float(sizes.sum()),
            paper_mean_object=w.mean_object_size,
            paper_mean_request=w.mean_request_size,
        ))
    return {"rows": rows_of(rows)}


def scenarios(n_objects: int | None = None) -> list[Scenario]:
    return [scenario(compute, name="workloads",
                     n_objects=n_objects if n_objects is not None else 30_000)]


def render(results: list[ExperimentResult]) -> str:
    """Paper-style table, one row per workload."""
    def fmt(x):
        if x >= GB:
            return f"{x / GB:.1f}GB"
        if x >= MB:
            return f"{x / MB:.1f}MB"
        return f"{x / KB:.1f}KB"

    return format_table(
        ["Workload", "Size range", "Avg object (paper)", "Avg request (paper)",
         "#Objects", "Capacity"],
        [[r.name, f"{fmt(r.min_size)}~{fmt(r.max_size)}",
          f"{fmt(r.mean_object_size)} ({fmt(r.paper_mean_object)})",
          f"{fmt(r.mean_request_size)} ({fmt(r.paper_mean_request)})",
          r.n_objects, fmt(r.total_capacity)]
         for r in typed_rows(results, WorkloadRow)])
