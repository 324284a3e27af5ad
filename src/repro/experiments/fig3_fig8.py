"""Figures 3 and 8 — the pipelining illustrations, computed.

Figure 3 contrasts RS (byte-granular repair: transfer starts immediately)
with a regenerating code at one large chunk (transfer blocked by the whole
repair).  Figure 8 shows Geometric Partitioning's two regimes: repair
faster than transfer (perfect overlap) and repair slower (bounded
blocking).  Both are rendered from the same pipeline model the simulator
uses, so the illustrations are *measured*, not drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.partitioning import GeometricPartitioner
from repro.core.pipeline import (
    PipelineStep,
    StepTimeline,
    degraded_read_time,
    pipeline_timeline,
    unpipelined_read_time,
)
from repro.runner import ExperimentResult, Scenario, rows_of, scenario, typed_rows

MB = 1 << 20
CLIENT_BW = 125 * MB


@dataclass(frozen=True)
class PipelineCase:
    name: str
    chunk_sizes: list[int]
    repair_bw: float
    total_ms: float
    serial_ms: float
    saving: float
    timeline: list  # StepTimeline rows, as dicts once run


def _case(name: str, chunk_sizes: list[int], repair_bw: float) -> PipelineCase:
    steps = [PipelineStep(size / repair_bw, size / CLIENT_BW,
                          f"{size // MB}MB") for size in chunk_sizes]
    total = degraded_read_time(steps)
    serial = unpipelined_read_time(steps)
    return PipelineCase(name, chunk_sizes, repair_bw, 1000 * total,
                        1000 * serial, 1.0 - total / serial,
                        pipeline_timeline(steps))


def compute(object_size: int = 64 * MB, s0: int = 4 * MB) -> dict:
    """Scenario compute: the four illustrated cases (deterministic)."""
    geometric = [c.size for c in
                 GeometricPartitioner(s0, 2).partition(object_size).chunks()]
    fine = [256 * 1024] * (object_size // (256 * 1024))
    return {"rows": rows_of([
        # Figure 3: RS repairs at byte/strip granularity vs one huge chunk.
        _case("Fig3: RS (fine-grained)", fine, 200 * MB),
        _case("Fig3: regenerating, one chunk", [object_size], 200 * MB),
        # Figure 8: geometric chunks, repair faster / slower than transfer.
        _case("Fig8 case 1: repair outpaces transfer", geometric, 250 * MB),
        _case("Fig8 case 2: transfer blocked by repair", geometric, 80 * MB),
    ])}


def scenarios() -> list[Scenario]:
    return [scenario(compute, name="pipelining", seeded=False)]


def render(results: list[ExperimentResult]) -> str:
    """Each case's times, with a bar per chunk where there are few."""
    cases = typed_rows(results, PipelineCase)
    scale = max(c.total_ms for c in cases)
    blocks = []
    for case in cases:
        lines = [f"{case.name}: {case.total_ms:.0f} ms "
                 f"(unpipelined {case.serial_ms:.0f} ms, "
                 f"saves {case.saving * 100:.0f}%)"]
        if len(case.timeline) <= 8:
            for step in (StepTimeline(**s) for s in case.timeline):
                r0 = int(50 * step.repair_start * 1000 / scale)
                r1 = max(r0 + 1, int(50 * step.repair_end * 1000 / scale))
                t1 = max(r1 + 1, int(50 * step.transfer_end * 1000 / scale))
                bar = " " * r0 + "R" * (r1 - r0) + "t" * (t1 - r1)
                lines.append(f"    {step.label:>6s} |{bar}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
