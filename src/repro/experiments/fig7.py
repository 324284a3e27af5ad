"""Figure 7 — trace byte-CDFs (capacity and read traffic).

Generated from the synthetic Alibaba-like trace model; the published
anchors are checked: capacity is dominated by objects above 4 MB (>97.7%),
and read traffic skews right of capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import format_table
from repro.runner import ExperimentResult, Scenario, scenario
from repro.trace import AliTraceModel, RequestSampler, byte_cdf

KB = 1 << 10
MB = 1 << 20
GB = 1 << 30


@dataclass
class TraceCdfs:
    grid: np.ndarray
    capacity_cdf: np.ndarray
    read_traffic_cdf: np.ndarray
    capacity_above_4mb: float


def compute(n_objects: int, points: int = 21, seed: int = 0) -> dict:
    """Scenario compute: the byte-CDF grid as one row per grid point."""
    model = AliTraceModel()
    sizes = model.sample_sizes(np.random.default_rng(seed), n_objects)
    grid = np.geomspace(4 * KB, 4 * GB, points)
    _, capacity = byte_cdf(sizes, grid=grid)
    # Read traffic: weight each object's bytes by its request rate.
    sampler = RequestSampler(sizes.astype(np.float64), theta=0.25)
    weights = sampler._weights * len(sizes)
    _, traffic = byte_cdf(sizes, grid=grid, weights=weights)
    rows = [{"size": float(g), "capacity_cdf": float(c),
             "read_traffic_cdf": float(t)}
            for g, c, t in zip(grid, capacity, traffic)]
    return {"rows": rows,
            "meta": {"capacity_above_4mb":
                     model.capacity_share_above(sizes, 4 * MB)}}


def scenarios(n_objects: int | None = None) -> list[Scenario]:
    return [scenario(compute, name="trace-cdf",
                     n_objects=n_objects if n_objects is not None else 60_000)]


def from_results(results: list[ExperimentResult]) -> TraceCdfs:
    """The CDFs as arrays, from the trace-cdf unit's rows."""
    rows = [row for r in results for row in r.rows]
    return TraceCdfs(
        grid=np.array([r["size"] for r in rows]),
        capacity_cdf=np.array([r["capacity_cdf"] for r in rows]),
        read_traffic_cdf=np.array([r["read_traffic_cdf"] for r in rows]),
        capacity_above_4mb=results[0].meta["capacity_above_4mb"])


def render(results: list[ExperimentResult]) -> str:
    """Paper-style table of both CDFs on the size grid."""
    def fmt_size(x):
        if x >= GB:
            return f"{x / GB:.0f}G"
        if x >= MB:
            return f"{x / MB:.0f}M"
        return f"{x / KB:.0f}K"

    result = from_results(results)
    rows = [[fmt_size(g), f"{c * 100:.1f}%", f"{t * 100:.1f}%"]
            for g, c, t in zip(result.grid, result.capacity_cdf,
                               result.read_traffic_cdf)]
    table = format_table(["Object size", "Capacity CDF", "Read traffic CDF"], rows)
    return (table + f"\n\nCapacity in objects > 4MB: "
            f"{result.capacity_above_4mb * 100:.1f}% (paper: > 97.7%)")
