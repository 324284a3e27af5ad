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
    W1_SETTING,
    WorkloadSetting,
    build_system,
    cluster_config,
    nearest_candidates,
    request_size_targets,
    sample_workload,
    format_table,
    setting_by_name,
)
from repro.runner import ExperimentResult, Scenario, canonical_json, scenario

MB = 1 << 20


@dataclass(frozen=True)
class RangeRow:
    scheme: str
    mean_range_ms: float
    ratio_to_geo: float
    mean_range_ms_busy: float
    ratio_to_geo_busy: float


def default_schemes(setting: WorkloadSetting) -> list[str]:
    """The scheme labels this experiment compares."""
    geo = setting.geo_default
    con = f"Con-{'16M' if setting.name == 'W1' else '128K'}"
    return [geo, con, "Stripe-Max"]


def _measure_scheme(scheme: str, setting: WorkloadSetting, n_objects: int,
                    n_requests: int, seed: int) -> tuple[float, float]:
    """Mean idle/busy range degraded-read time (s) for one scheme.

    The range sample depends only on (setting, n_objects, n_requests,
    seed), so per-scheme units reproduce the monolithic loop exactly.
    """
    sizes = sample_workload(setting, n_objects, seed)
    config = cluster_config(setting, n_objects)
    targets = request_size_targets(setting, sizes, n_requests, seed + 1)
    rng = np.random.default_rng(seed + 2)
    range_fracs = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in targets]
    system = build_system(scheme, setting, config)
    system.ingest(sizes)
    requests = nearest_candidates(system.catalog.objects, targets)
    ranges = []
    for obj, (f_len, f_off) in zip(requests, range_fracs):
        length = max(1, int(f_len * obj.size))
        offset = int(f_off * (obj.size - length))
        ranges.append((offset, length))
    results = system.measure_degraded_reads(requests, None, ranges=ranges)
    busy = system.measure_degraded_reads(requests, None, ranges=ranges,
                                         busy=True, seed=seed + 3)
    return (float(np.mean([r.total_time for r in results])),
            float(np.mean([r.total_time for r in busy])))


def _rows_from_means(schemes: list[str], means: dict[str, float],
                     means_busy: dict[str, float]) -> list[RangeRow]:
    geo = schemes[0]
    return [RangeRow(s, 1000 * means[s], means[geo] / means[s],
                     1000 * means_busy[s], means_busy[geo] / means_busy[s])
            for s in schemes]


def run(setting: WorkloadSetting = W1_SETTING,
        schemes: list[str] | None = None, n_objects: int = 1500,
        n_requests: int = 30, seed: int = 0) -> list[RangeRow]:
    """Run the experiment; returns its result rows."""
    schemes = schemes or default_schemes(setting)
    means: dict[str, float] = {}
    means_busy: dict[str, float] = {}
    for scheme in schemes:
        means[scheme], means_busy[scheme] = _measure_scheme(
            scheme, setting, n_objects, n_requests, seed)
    return _rows_from_means(schemes, means, means_busy)


def to_text(rows: list[RangeRow]) -> str:
    """Render the result as a paper-style text table."""
    return format_table(
        ["Scheme", "Idle (ms)", "Geo as % (idle)", "Busy (ms)",
         "Geo as % (busy)"],
        [[r.scheme, round(r.mean_range_ms, 2), f"{r.ratio_to_geo * 100:.1f}%",
          round(r.mean_range_ms_busy, 2), f"{r.ratio_to_geo_busy * 100:.1f}%"]
         for r in rows])


def compute_scheme(setting: str, scheme: str, n_objects: int = 1500,
                   n_requests: int = 30, seed: int = 0) -> dict:
    """Scenario compute: one scheme's raw idle/busy means (seconds).

    Ratios against the Geo baseline are cross-unit and therefore computed
    in :func:`render`, not here.
    """
    mean, mean_busy = _measure_scheme(scheme, setting_by_name(setting),
                                      n_objects, n_requests, seed)
    return {"rows": [{"scheme": scheme, "mean_s": mean,
                      "mean_busy_s": mean_busy}]}


def scenarios(setting: str = "W1", n_objects: int | None = None,
              schemes: list[str] | None = None) -> list[Scenario]:
    names = schemes or default_schemes(setting_by_name(setting))
    n = n_objects if n_objects is not None else 1200
    group = canonical_json(["range_access", setting, n])
    return [scenario(compute_scheme, name=s, seed_group=group,
                     setting=setting, scheme=s, n_objects=n)
            for s in names]


def render(results: list[ExperimentResult]) -> str:
    schemes = [r.rows[0]["scheme"] for r in results]
    means = {r.rows[0]["scheme"]: r.rows[0]["mean_s"] for r in results}
    means_busy = {r.rows[0]["scheme"]: r.rows[0]["mean_busy_s"]
                  for r in results}
    return to_text(_rows_from_means(schemes, means, means_busy))
