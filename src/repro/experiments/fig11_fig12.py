"""Figures 11 and 12 — degraded read latency percentiles by object size.

For each target object size (8/32/128 MB on W1; 256 KB/1 MB on W2) a batch
of equal-sized probe objects is ingested alongside the workload, and their
degraded reads are measured per scheme; we report the 5th/median/95th
percentiles as the paper's error bars do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import (
    WorkloadSetting,
    _label,
    build_system,
    cluster_config,
    format_table,
    sample_workload,
    setting_by_name,
)
from repro.runner import (
    ExperimentResult,
    Scenario,
    canonical_json,
    rows_of,
    scenario,
    typed_rows,
)

KB = 1 << 10
MB = 1 << 20

W1_TARGET_SIZES = (8 * MB, 32 * MB, 128 * MB)
W2_TARGET_SIZES = (256 * KB, 1 * MB)


@dataclass(frozen=True)
class LatencyRow:
    scheme: str
    object_size: int
    p5_ms: float
    p50_ms: float
    p95_ms: float


def default_schemes(setting: WorkloadSetting) -> list[str]:
    """The scheme labels this experiment compares: the smallest and the
    largest Geometric s0, every contiguous chunk size, and both stripes."""
    geo = (setting.geo_s0_variants[0], setting.geo_s0_variants[-1])
    return ([f"Geo-{_label(s0)}" for s0 in geo]
            + [f"Con-{_label(c)}" for c in setting.contiguous_variants]
            + ["Stripe", "Stripe-Max"])


def compute_scheme(setting: str, scheme: str, n_objects: int,
                   n_probes: int = 24, busy: bool = False,
                   seed: int = 0) -> dict:
    """Scenario compute: one scheme's latency rows (all target sizes).

    ``n_probes`` equal-sized probe objects per target size are ingested
    after the background workload, then each size's probes are read
    degraded.
    """
    st = setting_by_name(setting)
    target_sizes = W1_TARGET_SIZES if st.name == "W1" else W2_TARGET_SIZES
    system = build_system(scheme, st, cluster_config(st, n_objects))
    system.ingest(sample_workload(st, n_objects, seed))
    probes_by_size = {size: system.ingest([size] * n_probes)
                      for size in target_sizes}
    rows = []
    for size, probes in probes_by_size.items():
        results = system.measure_degraded_reads(probes, None, busy=busy,
                                                seed=seed + 1)
        times = np.array([r.total_time for r in results]) * 1000
        rows.append(LatencyRow(scheme, size,
                               float(np.percentile(times, 5)),
                               float(np.percentile(times, 50)),
                               float(np.percentile(times, 95))))
    return {"rows": rows_of(rows)}


def scenarios(setting: str, n_objects: int | None = None,
              schemes: list[str] | None = None) -> list[Scenario]:
    """One unit per scheme; each measures every target object size."""
    st = setting_by_name(setting)
    names = schemes or default_schemes(st)
    if n_objects is None:
        n_objects = 1500 if st.name == "W1" else 8000
    group = canonical_json(["fig11_fig12", setting, n_objects])
    return [scenario(compute_scheme, name=s, seed_group=group,
                     setting=setting, scheme=s, n_objects=n_objects)
            for s in names]


def render(results: list[ExperimentResult]) -> str:
    """Paper-style table of every unit's latency percentiles."""
    def fmt_size(x):
        return f"{x // MB}MB" if x >= MB else f"{x // KB}KB"

    return format_table(
        ["Scheme", "Object size", "p5 (ms)", "p50 (ms)", "p95 (ms)"],
        [[r.scheme, fmt_size(r.object_size), round(r.p5_ms, 2),
          round(r.p50_ms, 2), round(r.p95_ms, 2)]
         for r in typed_rows(results, LatencyRow)])
