"""Figure 13 — pipelining benefit by client bandwidth.

Average transfer, repair, and degraded-read time of the default Geometric
scheme at 1/2/4 Gbps client links.  The degraded read time should track the
transfer time when the client link is slow and the repair time when it is
fast, with pipelining saving 23.4-35.9% versus unpipelined repair+transfer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import (
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


@dataclass(frozen=True)
class BandwidthRow:
    client_gbps: float
    transfer_ms: float
    repair_ms: float
    degraded_ms: float
    pipelining_saving: float  # 1 - degraded / (repair + transfer)


def compute_bandwidth(setting: str, gbps: float, n_objects: int,
                      n_requests: int = 25, seed: int = 0) -> dict:
    """Scenario compute: the default Geometric scheme's degraded reads at
    one client bandwidth."""
    st = setting_by_name(setting)
    sizes = sample_workload(st, n_objects, seed)
    targets = request_size_targets(st, sizes, n_requests, seed + 1)
    config = cluster_config(st, n_objects, client_gbps=gbps)
    system = build_system(st.geo_default, st, config)
    system.ingest(sizes)
    requests = nearest_candidates(system.catalog.objects, targets)
    results = system.measure_degraded_reads(requests, None)
    transfer = float(np.mean([r.transfer_time for r in results]))
    repair = float(np.mean([r.repair_time for r in results]))
    total = float(np.mean([r.total_time for r in results]))
    row = BandwidthRow(
        client_gbps=gbps,
        transfer_ms=1000 * transfer,
        repair_ms=1000 * repair,
        degraded_ms=1000 * total,
        pipelining_saving=1.0 - total / (repair + transfer)
        if repair + transfer else 0.0,
    )
    return {"rows": rows_of([row])}


def scenarios(setting: str = "W1", n_objects: int | None = None,
              bandwidths: tuple[float, ...] = (1.0, 2.0, 4.0)) -> list[Scenario]:
    n = n_objects if n_objects is not None else 1500
    group = canonical_json(["fig13", setting, n])
    return [scenario(compute_bandwidth, name=f"{gbps:.0f}gbps",
                     seed_group=group, setting=setting, gbps=gbps, n_objects=n)
            for gbps in bandwidths]


def render(results: list[ExperimentResult]) -> str:
    """Paper-style table, one row per client bandwidth."""
    return format_table(
        ["Client bw", "Transfer (ms)", "Repair (ms)", "Degraded (ms)",
         "Pipelining saving"],
        [[f"{r.client_gbps:.0f}Gbps", round(r.transfer_ms), round(r.repair_ms),
          round(r.degraded_ms), f"{r.pipelining_saving * 100:.1f}%"]
         for r in typed_rows(results, BandwidthRow)])
