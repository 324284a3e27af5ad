"""Figures 9 and 10 — recovery time vs degraded read time, all schemes.

The paper's central result: for each scheme, one recovery run (turn off a
disk, recover every affected PG at maximal concurrency) and a batch of
degraded reads sampled from the request distribution, idle and busy.
Figure 9 is the W1 grid of :func:`scenarios`; Figure 10 the W2 grid.
Table 3's disk/network bandwidths and the §6.2 headline ratios are derived
from the same results (:mod:`repro.experiments.table3`,
:mod:`repro.experiments.headline`).

Capacity is scaled down for tractability; recovery times are reported both
as simulated and rescaled to the paper's per-disk capacity (recovery time
is linear in per-disk bytes at fixed task concurrency).
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
    scale_to_paper,
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


@dataclass
class SchemeResult:
    """One point of the Figure 9/10 scatter plus its Table 3 row."""

    scheme: str
    recovery_time: float
    recovery_time_busy: float | None
    recovery_time_paper_scale: float
    recovery_rate: float
    repaired_bytes: int
    degraded_ms: float
    degraded_ms_busy: float | None
    normal_ms: float
    disk_bandwidth: float
    network_bandwidth: float


@dataclass
class TradeoffResult:
    setting_name: str
    n_objects: int
    total_bytes: int
    results: list[SchemeResult]

    def by_scheme(self, name: str) -> SchemeResult:
        """Result row for one scheme label; raises KeyError if absent."""
        for r in self.results:
            if r.scheme == name:
                return r
        raise KeyError(name)


def compute_scheme(setting: str, scheme: str, n_objects: int | None,
                   n_requests: int, include_busy: bool,
                   failed_disk: int = 0, seed: int = 0) -> dict:
    """Scenario compute: one scheme's grid point as JSON-safe rows.

    ``n_objects=None`` is the setting's own scale.  The workload sample
    and request targets depend only on (setting, n_objects, n_requests,
    seed), so every scheme of a grid measures the same objects and
    requests.
    """
    st = setting_by_name(setting)
    if n_objects is None:
        n_objects = 4000 if st.name == "W1" else 60_000
    sizes = sample_workload(st, n_objects, seed)
    targets = request_size_targets(st, sizes, n_requests, seed + 2)
    system = build_system(scheme, st, cluster_config(st, n_objects))
    system.ingest(sizes)
    report = system.run_recovery(failed_disk)
    busy_report = (system.run_recovery(failed_disk, busy=True, seed=seed + 1)
                   if include_busy else None)
    # Sample requests over the whole population and fail each target's
    # own disk: size-unbiased at any scale (see measure_degraded_reads).
    requests = nearest_candidates(system.catalog.objects, targets)
    degraded = system.measure_degraded_reads(requests, None)
    degraded_busy = (system.measure_degraded_reads(
        requests, None, busy=True, seed=seed + 3)
        if include_busy else None)
    normal = system.measure_normal_reads(requests)
    row = SchemeResult(
        scheme=scheme,
        recovery_time=report.makespan,
        recovery_time_busy=busy_report.makespan if busy_report else None,
        recovery_time_paper_scale=scale_to_paper(
            report.makespan, st, report.repaired_bytes),
        recovery_rate=report.recovery_rate,
        repaired_bytes=report.repaired_bytes,
        degraded_ms=1000 * float(np.mean([r.total_time for r in degraded])),
        degraded_ms_busy=(1000 * float(np.mean(
            [r.total_time for r in degraded_busy]))
            if degraded_busy else None),
        normal_ms=1000 * float(np.mean(normal)),
        disk_bandwidth=report.disk_bandwidth,
        network_bandwidth=report.network_bandwidth,
    )
    return {"rows": rows_of([row]),
            "meta": {"setting": st.name, "n_objects": n_objects,
                     "total_bytes": int(sizes.sum())}}


def scenarios(setting: str, n_objects: int | None = None,
              n_requests: int = 30, schemes: list[str] | None = None,
              include_busy: bool = True) -> list[Scenario]:
    """One scenario unit per scheme of the Figure 9/10 grid.

    All units share a seed group: every scheme must draw the *same*
    workload sample and request targets to be comparable, and the group
    id never mentions the scheme list, so adding a scheme leaves every
    other scheme's rows untouched.
    """
    names = schemes or setting_by_name(setting).scheme_names
    group = canonical_json(["tradeoff", setting, n_objects, n_requests])
    return [scenario(compute_scheme, name=s, seed_group=group,
                     setting=setting, scheme=s,
                     n_objects=n_objects, n_requests=n_requests,
                     include_busy=include_busy)
            for s in names]


def from_results(results: list[ExperimentResult]) -> TradeoffResult:
    """Rebuild the typed result from per-scheme runner rows."""
    if not results:
        raise ValueError("no tradeoff results to combine")
    meta = results[0].meta
    return TradeoffResult(meta["setting"], meta["n_objects"],
                          meta["total_bytes"],
                          typed_rows(results, SchemeResult))


def render(results: list[ExperimentResult]) -> str:
    """Paper-style text table of per-scheme runner results."""
    result = from_results(results)
    headers = ["Scheme", "Recovery(s)", "Recovery@paper(s)", "Degraded(ms)",
               "Normal(ms)", "Rate(MB/s)"]
    include_busy = any(r.recovery_time_busy is not None for r in result.results)
    if include_busy:
        headers[2:2] = ["RecoveryBusy(s)"]
        headers.insert(5, "DegradedBusy(ms)")
    rows = []
    for r in result.results:
        row = [r.scheme, round(r.recovery_time, 1)]
        if include_busy:
            row.append(round(r.recovery_time_busy, 1))
        row += [round(r.recovery_time_paper_scale), round(r.degraded_ms)]
        if include_busy:
            row.append(round(r.degraded_ms_busy))
        row += [round(r.normal_ms), round(r.recovery_rate / MB)]
        rows.append(row)
    title = f"[{result.setting_name}] {result.n_objects} objects, " \
            f"{result.total_bytes / (1 << 30):.1f} GiB"
    return title + "\n" + format_table(headers, rows)
