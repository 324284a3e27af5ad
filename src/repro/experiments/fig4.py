"""Figure 4 — the chunk-size dilemma (analytic).

For Clay(10,4) on one HDD and a 1 Gbps client:

* *recovery bandwidth*: harmonic mean, over the four Figure 2 repair cases,
  of the effective per-disk read bandwidth of repairing chunks of size C;
* *degraded read time*: average time to read a 64 MB object when the store
  encodes at chunk size C — pipelined repair/transfer (Figure 3), with the
  whole trailing chunk repaired (read amplification) when C > 64 MB.

Paper anchors: ~700 ms and ~40 MB/s at 4 MB chunks; >1300 ms and ~170 MB/s
at 256 MB chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import DEFAULT_CODEC, HDD, ProfileCache
from repro.cluster.disk import DiskModel
from repro.cluster.rcstor import REPAIR_RPC_OVERHEAD
from repro.codes import ClayCode
from repro.core.pipeline import PipelineStep, degraded_read_time
from repro.experiments.common import format_table
from repro.runner import ExperimentResult, Scenario, rows_of, scenario, typed_rows

MB = 1 << 20
CLIENT_BW = 125 * MB  # 1 Gbps


@dataclass(frozen=True)
class ChunkSizePoint:
    chunk_size: int
    recovery_bandwidth: float       # bytes/s per disk (harmonic mean of cases)
    degraded_read_time: float       # seconds, 64 MB object, 1 Gbps client


def _case_nodes(code: ClayCode) -> list[int]:
    """One failed node per Figure 2 case (column of the grid)."""
    return [next(n for n in range(code.n) if code.slot_xy(n)[1] == y)
            for y in range(code.t)]


def recovery_bandwidth(chunk_size: int, code: ClayCode | None = None,
                       disk: DiskModel = HDD) -> float:
    """Harmonic-mean effective disk read bandwidth over the repair cases."""
    code = code or ClayCode(10, 4)
    cache = ProfileCache(code)
    inv_sum = 0.0
    cases = _case_nodes(code)
    for failed in cases:
        helper = cache.get(failed, chunk_size).helpers[0]
        time = disk.read_time(helper.n_ios, helper.nbytes, span=helper.span)
        inv_sum += time / helper.nbytes
    return len(cases) / inv_sum * 1.0 if inv_sum else 0.0


#: Datacenter NIC goodput used for the repair gather step.
NIC_BW = 50 * 125 * MB


def chunk_repair_time(chunk_size: int, failed: int, code: ClayCode,
                      cache: ProfileCache, disk: DiskModel) -> float:
    """Repair latency of one chunk: parallel helper reads, gather over the
    server NIC, regeneration, and the fixed per-repair software cost."""
    profile = cache.get(failed, chunk_size)
    read = max(disk.read_time(h.n_ios, h.nbytes, span=h.span)
               for h in profile.helpers)
    gather = profile.total_read_bytes / NIC_BW
    return (read + gather + DEFAULT_CODEC.regenerate_time(profile.output_bytes)
            + REPAIR_RPC_OVERHEAD)


def degraded_read_64mb(chunk_size: int, code: ClayCode | None = None,
                       disk: DiskModel = HDD,
                       object_size: int = 64 * MB,
                       client_bw: float = CLIENT_BW) -> float:
    """Mean (over the repair cases) pipelined degraded read time."""
    code = code or ClayCode(10, 4)
    cache = ProfileCache(code)
    times = []
    for failed in _case_nodes(code):
        steps = []
        remaining = object_size
        while remaining > 0:
            data = min(chunk_size, remaining)
            # The whole chunk is always repaired; only `data` is sent.
            repair = chunk_repair_time(chunk_size, failed, code, cache, disk)
            steps.append(PipelineStep(repair, data / client_bw))
            remaining -= data
        times.append(degraded_read_time(steps))
    return sum(times) / len(times)


#: The chunk sizes the curve sweeps.
CHUNK_SIZES = (4 * MB, 8 * MB, 16 * MB, 32 * MB, 64 * MB, 128 * MB, 256 * MB)


def compute() -> dict:
    """Scenario compute: the analytic chunk-size dilemma curve."""
    code = ClayCode(10, 4)
    return {"rows": rows_of([ChunkSizePoint(c, recovery_bandwidth(c, code),
                                            degraded_read_64mb(c, code))
                             for c in CHUNK_SIZES])}


def scenarios() -> list[Scenario]:
    return [scenario(compute, name="chunk-size", seeded=False)]


def render(results: list[ExperimentResult]) -> str:
    """Paper-style table, one row per chunk size."""
    return format_table(
        ["Chunk size", "Degraded read (ms)", "Recovery disk bw (MB/s)"],
        [[f"{p.chunk_size // MB}MB", round(p.degraded_read_time * 1000),
          round(p.recovery_bandwidth / MB, 1)]
         for p in typed_rows(results, ChunkSizePoint)])


def scenarios_with_calibration() -> list[Scenario]:
    """The CLI's ``fig4``: the curve plus the calibration anchors it pins."""
    from repro.experiments import calibration  # imports this module

    return scenarios() + calibration.scenarios()


def render_with_calibration(results: list[ExperimentResult]) -> str:
    from repro.experiments import calibration

    curve, anchors = results  # in scenarios_with_calibration() order
    return render([curve]) + "\n\n" + calibration.render([anchors])
