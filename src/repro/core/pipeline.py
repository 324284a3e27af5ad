"""The degraded-read pipelining model (Figures 3 and 8).

A degraded read walks the object's chunks in transfer order.  Repairs of
successive chunks serialize (they compete for the same helper disks), while
each repaired chunk's transfer to the client overlaps the next repair:

    repair_done[i]   = repair_done[i-1] + repair[i]
    transfer_done[i] = max(transfer_done[i-1], repair_done[i]) + transfer[i]

Degraded read time is ``transfer_done[n]``.  Chunks that need no repair
(available strips of a striped layout, cached data) carry ``repair == 0``.

The model makes the paper's core claims computable: with chunk sizes in a
geometric sequence of ratio q, each repair can *predate* the transfer of
the previous chunk whenever per-byte repair is at most q/(q-1) times slower
than per-byte transfer of the previous (q-times-smaller) chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class PipelineStep:
    """One chunk's timing contribution."""

    repair_time: float
    transfer_time: float
    label: str = ""

    def __post_init__(self):
        if self.repair_time < 0 or self.transfer_time < 0:
            raise ValueError("times must be non-negative")


@dataclass(frozen=True)
class StepTimeline:
    label: str
    repair_start: float
    repair_end: float
    transfer_start: float
    transfer_end: float


def pipeline_timeline(steps: Sequence[PipelineStep]) -> list[StepTimeline]:
    """Full schedule of the repair/transfer pipeline."""
    out: list[StepTimeline] = []
    repair_done = 0.0
    transfer_done = 0.0
    for step in steps:
        repair_start = repair_done
        repair_done += step.repair_time
        transfer_start = max(transfer_done, repair_done)
        transfer_done = transfer_start + step.transfer_time
        out.append(StepTimeline(step.label, repair_start, repair_done,
                                transfer_start, transfer_done))
    return out


def degraded_read_time(steps: Iterable[PipelineStep]) -> float:
    """Completion time of the pipelined degraded read."""
    repair_done = 0.0
    transfer_done = 0.0
    for step in steps:
        repair_done += step.repair_time
        transfer_done = max(transfer_done, repair_done) + step.transfer_time
    return transfer_done


def unpipelined_read_time(steps: Iterable[PipelineStep]) -> float:
    """Repair everything, then transfer everything (no overlap) — the
    baseline pipelining is compared against in Figure 13."""
    steps = list(steps)
    return (sum(s.repair_time for s in steps)
            + sum(s.transfer_time for s in steps))


def transfer_time(steps: Iterable[PipelineStep]) -> float:
    """Serialisation time of nbytes through this pipe."""
    return sum(s.transfer_time for s in steps)


def repair_time(steps: Iterable[PipelineStep]) -> float:
    return sum(s.repair_time for s in steps)
