"""§6.3 "Degraded Read Time for Range Access" (and Table 4's measurements).

Random offset, uniformly-distributed length (mean = half the object), on
degraded objects.  Paper: Geo-4M range reads take 67.6% of Con-16M's time
and 55.3% of Stripe-Max's on W1; 68.1% / 66.2% on W2 (for Geo-128K vs
Con-128K / Stripe-Max).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import (
    WorkloadSetting,
    _label,
    build_system,
    cluster_config,
    nearest_candidates,
    request_size_targets,
    sample_workload,
    format_table,
    setting_by_name,
)
from repro.runner import ExperimentResult, Scenario, canonical_json, scenario


@dataclass(frozen=True)
class RangeRow:
    scheme: str
    mean_range_ms: float
    ratio_to_geo: float
    mean_range_ms_busy: float
    ratio_to_geo_busy: float


def default_schemes(setting: WorkloadSetting) -> list[str]:
    """The scheme labels this experiment compares: the default Geometric
    scheme (the ratios' baseline) first, then the smallest contiguous chunk
    size and Stripe-Max."""
    return [setting.geo_default,
            f"Con-{_label(setting.contiguous_variants[0])}", "Stripe-Max"]


def compute_scheme(setting: str, scheme: str, n_objects: int,
                   n_requests: int = 30, seed: int = 0) -> dict:
    """Scenario compute: one scheme's mean idle and busy range degraded-read
    times (seconds).

    The range sample depends only on (setting, n_objects, n_requests,
    seed), so every scheme reads the same ranges.  Ratios against the Geo
    baseline are cross-unit and therefore computed in
    :func:`from_results`, not here.
    """
    st = setting_by_name(setting)
    sizes = sample_workload(st, n_objects, seed)
    targets = request_size_targets(st, sizes, n_requests, seed + 1)
    rng = np.random.default_rng(seed + 2)
    range_fracs = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in targets]
    system = build_system(scheme, st, cluster_config(st, n_objects))
    system.ingest(sizes)
    requests = nearest_candidates(system.catalog.objects, targets)
    ranges = []
    for obj, (f_len, f_off) in zip(requests, range_fracs):
        length = max(1, int(f_len * obj.size))
        offset = int(f_off * (obj.size - length))
        ranges.append((offset, length))
    idle = system.measure_degraded_reads(requests, None, ranges=ranges)
    busy = system.measure_degraded_reads(requests, None, ranges=ranges,
                                         busy=True, seed=seed + 3)
    return {"rows": [{"scheme": scheme,
                      "mean_s": float(np.mean([r.total_time for r in idle])),
                      "mean_busy_s": float(np.mean(
                          [r.total_time for r in busy]))}]}


def scenarios(setting: str = "W1", n_objects: int | None = None,
              schemes: list[str] | None = None) -> list[Scenario]:
    names = schemes or default_schemes(setting_by_name(setting))
    n = n_objects if n_objects is not None else 1200
    group = canonical_json(["range_access", setting, n])
    return [scenario(compute_scheme, name=s, seed_group=group,
                     setting=setting, scheme=s, n_objects=n)
            for s in names]


def from_results(results: list[ExperimentResult]) -> list[RangeRow]:
    """One row per unit, with its ratios to the first unit's scheme (the
    Geo baseline)."""
    means = [r.rows[0] for r in results]
    geo = means[0]
    return [RangeRow(m["scheme"], 1000 * m["mean_s"],
                     geo["mean_s"] / m["mean_s"], 1000 * m["mean_busy_s"],
                     geo["mean_busy_s"] / m["mean_busy_s"]) for m in means]


def render(results: list[ExperimentResult]) -> str:
    """Paper-style table of the range reads and their ratios to Geo."""
    return format_table(
        ["Scheme", "Idle (ms)", "Geo as % (idle)", "Busy (ms)",
         "Geo as % (busy)"],
        [[r.scheme, round(r.mean_range_ms, 2), f"{r.ratio_to_geo * 100:.1f}%",
          round(r.mean_range_ms_busy, 2), f"{r.ratio_to_geo_busy * 100:.1f}%"]
         for r in from_results(results)])
