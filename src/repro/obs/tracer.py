"""A sim-time span tracer.

Spans are closed intervals of *simulated* time attached to a ``(process,
track)`` pair — in Chrome trace-event terms a (pid, tid).  Each measurement
(one :class:`~repro.sim.Environment`) registers itself as a process so its
sim clock, which restarts at zero, gets its own timeline; tracks within a
process separate logically concurrent activities (the repair chain, the
client transfer, each recovery server).

The simulation is single-threaded but logically concurrent, so spans carry
explicit timestamps instead of relying on a thread-local stack: each is
recorded finished, with :meth:`Tracer.complete`.  Nesting is by time
containment on a track, which is exactly how Perfetto renders same-track
"X" events.
"""

from __future__ import annotations

from typing import Any


class Span:
    """One finished span: a named interval on a (process, track) pair."""

    __slots__ = ("name", "pid", "tid", "start", "duration", "args")

    def __init__(self, name: str, pid: int, tid: int, start: float,
                 duration: float, args: dict[str, Any]):
        self.name = name
        self.pid = pid
        self.tid = tid
        self.start = start
        self.duration = duration
        self.args = args

    @property
    def end(self) -> float:
        return self.start + self.duration

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, pid={self.pid}, tid={self.tid}, "
                f"start={self.start:.6g}, dur={self.duration:.6g})")


class Tracer:
    """Collects spans across measurements."""

    def __init__(self):
        self.spans: list[Span] = []
        #: pid -> human-readable label, in registration order.
        self.processes: list[str] = []
        #: (pid, tid, track name) in registration order.
        self.tracks: list[tuple[int, int, str]] = []
        self._track_ids: dict[tuple[int, str], int] = {}
        self._tracks_per_pid: dict[int, int] = {}

    # ------------------------------------------------------------------
    def process(self, label: str) -> int:
        """Register a new process (one per measurement); returns its pid."""
        self.processes.append(label)
        return len(self.processes) - 1

    def track(self, pid: int, name: str) -> int:
        """The tid of the named track within ``pid`` (created if new)."""
        key = (pid, name)
        tid = self._track_ids.get(key)
        if tid is None:
            tid = self._tracks_per_pid.get(pid, 0)
            self._tracks_per_pid[pid] = tid + 1
            self._track_ids[key] = tid
            self.tracks.append((pid, tid, name))
        return tid

    # ------------------------------------------------------------------
    def complete(self, name: str, pid: int, tid: int, start: float,
                 end: float, **args) -> Span:
        """Record a finished span over ``[start, end]`` sim seconds."""
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        span = Span(name, pid, tid, start, end - start, args)
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    def spans_named(self, name: str, pid: int | None = None) -> list[Span]:
        """All spans of the given name (optionally within one process)."""
        return [s for s in self.spans
                if s.name == name and (pid is None or s.pid == pid)]
