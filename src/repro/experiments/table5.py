"""Table 5 — layout comparison summary.

The paper's closing table, regenerated from measurements: chunk-size class,
pipelining efficiency (measured on degraded reads), read amplification
(from placements), and recovery disk throughput class (from the tradeoff
runs).
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
    nearest_candidates,
    request_size_targets,
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

MB = 1 << 20


@dataclass(frozen=True)
class LayoutSummaryRow:
    layout: str
    chunk_size_class: str
    pipelining_efficiency: float
    read_amplification: float
    recovery_disk_bandwidth: float


def _scheme_for(layout_name: str, setting: WorkloadSetting) -> str:
    return {
        "Geometric": setting.geo_default,
        "Stripe": "Stripe",
        "Contiguous": f"Con-{_label(setting.contiguous_variants[1])}",
    }[layout_name]


LAYOUT_NAMES = ("Geometric", "Stripe", "Contiguous")


def compute_layout(layout: str, setting: str, n_objects: int,
                   n_requests: int = 15, seed: int = 0) -> dict:
    """Scenario compute: one layout's summary row.

    The workload sample and request targets depend only on (setting,
    n_objects, n_requests, seed), so every layout reads the same requests.
    """
    st = setting_by_name(setting)
    sizes = sample_workload(st, n_objects, seed)
    targets = request_size_targets(st, sizes, n_requests, seed + 1)
    system = build_system(_scheme_for(layout, st), st,
                          cluster_config(st, n_objects))
    system.ingest(sizes)
    requests = nearest_candidates(system.catalog.objects, targets)
    degraded = system.measure_degraded_reads(requests, None)
    efficiency = float(np.mean(
        [1.0 - r.total_time / (r.repair_time + r.transfer_time)
         for r in degraded if r.repair_time + r.transfer_time > 0]))
    amplification = float(np.mean(
        [system.catalog.placement_of(o, 0).read_amplification
         for o in requests]))
    report = system.run_recovery(0)
    if layout == "Geometric":
        chunk_class = "Small -> Large"
    elif layout == "Stripe":
        chunk_class = "Small"
    else:
        chunk_class = "Large"
    row = LayoutSummaryRow(
        layout=layout,
        chunk_size_class=chunk_class,
        pipelining_efficiency=efficiency,
        read_amplification=amplification,
        recovery_disk_bandwidth=report.disk_bandwidth,
    )
    return {"rows": rows_of([row])}


def scenarios(setting: str = "W1",
              n_objects: int | None = None) -> list[Scenario]:
    n = n_objects if n_objects is not None else 1200
    group = canonical_json(["table5", setting, n])
    return [scenario(compute_layout, name=name.lower(), seed_group=group,
                     layout=name, setting=setting, n_objects=n)
            for name in LAYOUT_NAMES]


def render(results: list[ExperimentResult]) -> str:
    """Paper-style table, one row per layout."""
    rows = typed_rows(results, LayoutSummaryRow)

    def pipe_label(e):
        return "Efficient" if e > 0.2 else ("Medium" if e > 0.05 else
                                            "Not efficient")

    def amp_label(a):
        return "No" if a < 1.05 else ("Medium" if a < 2 else "Severe")

    bw_values = sorted(r.recovery_disk_bandwidth for r in rows)

    def bw_label(b):
        if b >= bw_values[-1] * 0.99:
            return "High"
        if b <= bw_values[0] * 1.01:
            return "Low"
        return "Medium"

    return format_table(
        ["Layout", "Chunk size", "Pipelining", "Read amplification",
         "Disk throughput for recovery"],
        [[r.layout, r.chunk_size_class,
          f"{pipe_label(r.pipelining_efficiency)} ({r.pipelining_efficiency * 100:.0f}%)",
          f"{amp_label(r.read_amplification)} ({r.read_amplification:.2f}x)",
          f"{bw_label(r.recovery_disk_bandwidth)} "
          f"({r.recovery_disk_bandwidth / MB:.0f} MB/s)"] for r in rows])

