"""Ablations of the design decisions DESIGN.md calls out.

Each function isolates one mechanism the paper argues for:

* :func:`two_pass_vs_greedy` — Algorithm 1's second pass vs naive
  largest-first partitioning (§4.3: bounded adjacent-chunk ratios enable
  pipelining),
* :func:`front_cut_ablation` — RS-coded small-size-buckets vs padding the
  front into a regenerating chunk (§4.1: read amplification),
* :func:`io_priority_ablation` — §5.1's priority lanes: degraded-read
  latency while recovery runs, with recovery at background vs foreground
  priority,
* :func:`global_weight_sweep` — §5.1's weighted recovery admission,
* :func:`pg_count_sweep` — recovery parallelism from placement groups,
* :func:`ecpipe_network_model` — ECPipe's pipelined-repair speedup in a
  network-bound regime (§7, Li et al. ATC'17).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.cluster.disk import BACKGROUND, FOREGROUND
from repro.core.ecpipe import ecpipe_repair_time, speedup, star_repair_time
from repro.core.layouts import GeometricLayout
from repro.core.partitioning import GeometricPartitioner, greedy_partition
from repro.core.pipeline import PipelineStep, degraded_read_time
from repro.experiments.common import (
    W1_SETTING,
    WorkloadSetting,
    build_system,
    cluster_config,
    format_table,
    nearest_candidates,
    request_size_targets,
    sample_workload,
    setting_by_name,
)
from repro.runner import ExperimentResult, Scenario, rows_of, scenario, typed_rows

KB = 1 << 10
MB = 1 << 20


# ----------------------------------------------------------------------
# 1. Algorithm 1's two-pass scan vs greedy largest-first
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PartitioningAblation:
    mean_adjacent_ratio_two_pass: float
    mean_adjacent_ratio_greedy: float
    mean_degraded_ms_two_pass: float
    mean_degraded_ms_greedy: float
    mean_chunks_two_pass: float
    mean_chunks_greedy: float


def _pipeline_time(part, repair_bw: float, client_bw: float) -> float:
    steps = []
    if part.front:
        steps.append(PipelineStep(part.front / repair_bw,
                                  part.front / client_bw))
    steps += [PipelineStep(c.size / repair_bw, c.size / client_bw)
              for c in part.chunks()]
    return degraded_read_time(steps)


def two_pass_vs_greedy(setting: WorkloadSetting = W1_SETTING,
                       n_objects: int = 2000, repair_bw: float = 90 * MB,
                       client_bw: float = 125 * MB,
                       seed: int = 0) -> PartitioningAblation:
    s0 = setting.geo_default_s0
    sizes = sample_workload(setting, n_objects, seed)
    partitioner = GeometricPartitioner(s0, 2, setting.max_chunk_size)
    ratios_tp, ratios_gr, times_tp, times_gr = [], [], [], []
    chunks_tp = chunks_gr = 0
    for size in sizes:
        two_pass = partitioner.partition(int(size))
        greedy = greedy_partition(int(size), s0, 2, setting.max_chunk_size)
        ratios_tp.append(two_pass.max_adjacent_ratio)
        ratios_gr.append(greedy.max_adjacent_ratio)
        times_tp.append(_pipeline_time(two_pass, repair_bw, client_bw))
        times_gr.append(_pipeline_time(greedy, repair_bw, client_bw))
        chunks_tp += two_pass.n_chunks
        chunks_gr += greedy.n_chunks
    return PartitioningAblation(
        float(np.mean(ratios_tp)), float(np.mean(ratios_gr)),
        1000 * float(np.mean(times_tp)), 1000 * float(np.mean(times_gr)),
        chunks_tp / n_objects, chunks_gr / n_objects)


# ----------------------------------------------------------------------
# 2. Front cut vs padding
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FrontCutAblation:
    read_amplification_with_cut: float
    read_amplification_without_cut: float
    capacity_overhead_without_cut: float  # padded bytes / data bytes


def front_cut_ablation(setting: WorkloadSetting = W1_SETTING,
                       n_objects: int = 2000, seed: int = 0) -> FrontCutAblation:
    s0 = setting.geo_default_s0
    sizes = sample_workload(setting, n_objects, seed)
    with_cut = GeometricLayout(s0, 2, setting.max_chunk_size, front_cut=True)
    without = GeometricLayout(s0, 2, setting.max_chunk_size, front_cut=False)
    amp_with, amp_without, stored, data = [], [], 0, 0
    for size in sizes:
        size = int(size)
        amp_with.append(with_cut.place(size).read_amplification)
        placement = without.place(size)
        amp_without.append(placement.read_amplification)
        stored += sum(c.stored_bytes for c in placement.chunks)
        data += size
    return FrontCutAblation(float(np.mean(amp_with)),
                            float(np.mean(amp_without)),
                            stored / data - 1.0)


# ----------------------------------------------------------------------
# 3. IO priority lanes during recovery
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PriorityAblation:
    degraded_ms_with_priority: float
    degraded_ms_without_priority: float
    recovery_s_with_priority: float
    recovery_s_without_priority: float


def io_priority_ablation(setting: WorkloadSetting = W1_SETTING,
                         n_objects: int = 1200, n_requests: int = 12,
                         scheme: str | None = None,
                         seed: int = 0) -> PriorityAblation:
    scheme = scheme or setting.geo_default
    sizes = sample_workload(setting, n_objects, seed)
    config = cluster_config(setting, n_objects)
    system = build_system(scheme, setting, config)
    system.ingest(sizes)
    targets = request_size_targets(setting, sizes, n_requests, seed + 1)
    requests = nearest_candidates(system.catalog.objects, targets)
    with_prio, rep_bg = system.measure_degraded_reads_during_recovery(
        requests, failed_disk=0, recovery_priority=BACKGROUND, seed=seed)
    without, rep_fg = system.measure_degraded_reads_during_recovery(
        requests, failed_disk=0, recovery_priority=FOREGROUND, seed=seed)
    return PriorityAblation(
        1000 * float(np.mean([r.total_time for r in with_prio])),
        1000 * float(np.mean([r.total_time for r in without])),
        rep_bg.makespan, rep_fg.makespan)


# ----------------------------------------------------------------------
# 4. Global recovery weight sweep
# ----------------------------------------------------------------------
def global_weight_sweep(setting: WorkloadSetting = W1_SETTING,
                        weights: tuple[int, ...] = (16, 64, 256, 512, 1024),
                        n_objects: int = 1500, scheme: str | None = None,
                        seed: int = 0) -> list[tuple[int, float]]:
    """(weight_limit, recovery makespan) pairs — concurrency saturates."""
    scheme = scheme or setting.geo_default
    sizes = sample_workload(setting, n_objects, seed)
    config = cluster_config(setting, n_objects)
    system = build_system(scheme, setting, config)
    system.ingest(sizes)
    return [(w, system.run_recovery(0, weight_limit=w).makespan)
            for w in weights]


# ----------------------------------------------------------------------
# 5. Placement-group count sweep
# ----------------------------------------------------------------------
def pg_count_sweep(setting: WorkloadSetting = W1_SETTING,
                   pg_counts: tuple[int, ...] = (8, 32, 96, 160),
                   n_objects: int = 1500, scheme: str | None = None,
                   seed: int = 0) -> list[tuple[int, float]]:
    """(n_pgs, recovery rate) — more PGs recruit more disks (§5.1)."""
    scheme = scheme or setting.geo_default
    sizes = sample_workload(setting, n_objects, seed)
    out = []
    for n_pgs in pg_counts:
        config = replace(cluster_config(setting, n_objects), n_pgs=n_pgs)
        system = build_system(scheme, setting, config)
        system.ingest(sizes)
        report = system.run_recovery(0)
        out.append((n_pgs, report.recovery_rate))
    return out


# ----------------------------------------------------------------------
# 6. MSR vs MBR: the regenerating-code trade-off behind choosing Clay
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegeneratingTradeoffRow:
    code: str
    storage_overhead: float
    repair_traffic_per_lost_byte: float
    sub_packetization: int


def msr_vs_mbr_tradeoff(k: int = 10, r: int = 4) -> list[RegeneratingTradeoffRow]:
    """Why the paper picks an MSR code (§2.2, §7): MBR repairs with
    minimum bandwidth but pays >n/k storage; MSR (Clay) keeps MDS storage
    with near-minimum repair; RS pays k× repair."""
    from repro.codes import ClayCode, ProductMatrixMBR, RSCode

    n = k + r
    rs = RSCode(k, r)
    clay = ClayCode(k, r)
    mbr = ProductMatrixMBR(n, k, n - 1)
    return [
        RegeneratingTradeoffRow(rs.name, rs.storage_overhead,
                                rs.average_repair_read_ratio(64), rs.alpha),
        RegeneratingTradeoffRow(clay.name, clay.storage_overhead,
                                clay.average_repair_read_ratio(clay.alpha),
                                clay.alpha),
        RegeneratingTradeoffRow(mbr.name, mbr.storage_overhead,
                                mbr.repair_traffic_symbols / mbr.alpha,
                                mbr.alpha),
    ]


# ----------------------------------------------------------------------
# 7. ECPipe network model
# ----------------------------------------------------------------------
def ecpipe_network_model(strip_size: int = 64 * MB, k: int = 10,
                         link_gbps: float = 1.0,
                         packet_sizes: tuple[int, ...] = (32 * KB, 256 * KB,
                                                          4 * MB, 64 * MB),
                         ) -> list[tuple[int, float, float, float]]:
    """(packet, star_s, ecpipe_s, speedup) rows in a network-bound regime."""
    bw = link_gbps * 125 * MB
    rows = []
    for packet in packet_sizes:
        rows.append((packet,
                     star_repair_time(strip_size, k, bw),
                     ecpipe_repair_time(strip_size, k, bw, packet),
                     speedup(strip_size, k, bw, packet)))
    return rows


def compute_partitioning(setting: str, n_objects: int, seed: int = 0) -> dict:
    """Scenario compute: the two-pass vs greedy comparison."""
    row = two_pass_vs_greedy(setting_by_name(setting), n_objects=n_objects,
                             seed=seed)
    return {"rows": rows_of([row])}


def compute_front_cut(setting: str, n_objects: int, seed: int = 0) -> dict:
    """Scenario compute: front cut vs padded front."""
    row = front_cut_ablation(setting_by_name(setting), n_objects=n_objects,
                             seed=seed)
    return {"rows": rows_of([row])}


def compute_ecpipe() -> dict:
    """Scenario compute: the analytic ECPipe network model."""
    return {"rows": [{"packet": p, "star_s": s, "ecpipe_s": e, "speedup": sp}
                     for p, s, e, sp in ecpipe_network_model()]}


def compute_msr_mbr() -> dict:
    """Scenario compute: the MSR/MBR/RS storage-repair trade-off."""
    return {"rows": rows_of(msr_vs_mbr_tradeoff())}


def compute_io_priority(setting: str, n_objects: int, seed: int = 0) -> dict:
    """Scenario compute: degraded reads during recovery, both lanes."""
    row = io_priority_ablation(setting_by_name(setting), n_objects=n_objects,
                               seed=seed)
    return {"rows": rows_of([row])}


def scenarios(setting: str = "W1",
              n_objects: int | None = None) -> list[Scenario]:
    """One unit per ablation (the DES one dominates the wall-clock)."""
    return [
        scenario(compute_partitioning, name="two-pass", setting=setting,
                 n_objects=n_objects if n_objects is not None else 600),
        scenario(compute_front_cut, name="front-cut", setting=setting,
                 n_objects=n_objects if n_objects is not None else 600),
        scenario(compute_ecpipe, name="ecpipe", seeded=False),
        scenario(compute_msr_mbr, name="msr-mbr", seeded=False),
        scenario(compute_io_priority, name="io-priority", setting=setting,
                 n_objects=n_objects if n_objects is not None else 1000),
    ]


def render(results: list[ExperimentResult]) -> str:
    """The combined ablation report, one table per unit."""
    by_name = {r.name.rsplit("/", 1)[-1]: r for r in results}
    part = typed_rows([by_name["two-pass"]], PartitioningAblation)[0]
    front = typed_rows([by_name["front-cut"]], FrontCutAblation)[0]
    msr = typed_rows([by_name["msr-mbr"]], RegeneratingTradeoffRow)
    prio = typed_rows([by_name["io-priority"]], PriorityAblation)[0]
    sections = [
        "Two-pass scan vs greedy partitioning:",
        format_table(
            ["Variant", "Max adj. ratio", "Degraded (ms)", "Chunks/obj"],
            [["Algorithm 1", round(part.mean_adjacent_ratio_two_pass, 2),
              round(part.mean_degraded_ms_two_pass), round(part.mean_chunks_two_pass, 1)],
             ["Greedy", round(part.mean_adjacent_ratio_greedy, 2),
              round(part.mean_degraded_ms_greedy), round(part.mean_chunks_greedy, 1)]]),
        "\nFront cut vs padding:",
        format_table(
            ["Variant", "Read amplification", "Capacity overhead"],
            [["RS front cut", round(front.read_amplification_with_cut, 3), "0%"],
             ["Padded front", round(front.read_amplification_without_cut, 3),
              f"{front.capacity_overhead_without_cut * 100:.1f}%"]]),
        "\nECPipe at 1 Gbps links (64 MB strip, k=10):",
        format_table(
            ["Packet", "Star (s)", "ECPipe (s)", "Speedup"],
            [[f"{r['packet'] // KB}KB" if r['packet'] < MB
              else f"{r['packet'] // MB}MB",
              round(r['star_s'], 2), round(r['ecpipe_s'], 2),
              f"{r['speedup']:.1f}x"] for r in by_name["ecpipe"].rows]),
        "\nRegenerating-code trade-off (why the paper picks MSR):",
        format_table(
            ["Code", "Storage", "Repair traffic / lost byte", "alpha"],
            [[t.code, f"{t.storage_overhead * 100:.0f}%",
              round(t.repair_traffic_per_lost_byte, 2), t.sub_packetization]
             for t in msr]),
        "\nIO priority lanes during recovery:",
        format_table(
            ["Recovery priority", "Degraded (ms)"],
            [["background (RCStor)", round(prio.degraded_ms_with_priority)],
             ["foreground (ablated)", round(prio.degraded_ms_without_priority)]]),
    ]
    return "\n".join(sections)


def local_regeneration_tradeoff() -> list[RegeneratingTradeoffRow]:
    """§8: composing LRC over Clay buys locality at a storage premium."""
    from repro.codes import ClayCode, LocalRegeneratingCode

    flat = ClayCode(8, 2)
    local = LocalRegeneratingCode(k=8, l=2, local_r=2, g=2)
    chunk_flat = flat.alpha
    chunk_local = local.alpha
    return [
        RegeneratingTradeoffRow(flat.name, flat.storage_overhead,
                                flat.average_repair_read_ratio(chunk_flat),
                                flat.alpha),
        RegeneratingTradeoffRow(
            local.name, local.storage_overhead,
            float(sum(local.repair_plan(f, chunk_local).read_traffic_ratio()
                      for f in range(local.k)) / local.k),
            local.alpha),
    ]
