"""Flight recorder: a bounded ring of recent engine activity, dumped as a
postmortem bundle when something goes wrong.

A failing simulation usually dies *after* the interesting part: the
invariant fires, the repair ladder abandons, or the compute function
raises — and the end-of-run snapshot (if it even gets written) shows only
totals.  The :class:`FlightRecorder` keeps the last-N scheduled engine
events in a ring buffer (via the observer's ``on_schedule`` engine hook,
bound only while a recorder is attached), accumulates *incidents*
(explicit "this went wrong" records from the repair ladder, the invariant
checker's raise, or the runner's exception handler) and the latest
fault-injection state, and on demand serializes a JSON bundle: the event
tail, the tail of recorded spans, a full metric snapshot, the fault state,
and the unit's seed/provenance — enough to replay and to see what the
engine was doing in its final simulated moments.

The recorder is duck-typed from below (``getattr(obs, "flightrec",
None)``), so the ``faults`` and ``cluster`` layers feed it without import
edges; the runner (:mod:`repro.runner.executor`) arms it per unit with
:func:`attach_flightrec` and dumps on exception or when incidents
accumulated.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from collections import deque
from typing import Any

#: Flight-recorder bundle schema identifier.
FLIGHTREC_SCHEMA = "repro.flightrec/1"

#: Default ring capacity (events kept).
DEFAULT_CAPACITY = 512

#: Spans from the tail of the tracer included in a bundle.
SPAN_TAIL = 64

_SEGMENT_RE = re.compile(r"[^A-Za-z0-9._-]+")


class FlightRecorder:
    """Bounded event ring + incident log + fault state, bundled on demand."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        #: (sim time, event type name) ring of recently scheduled events.
        self.events: deque[tuple[float, str]] = deque(maxlen=capacity)
        self.n_seen = 0
        self.incidents: list[dict[str, Any]] = []
        self.fault_state: dict[str, Any] | None = None
        #: Unit identity (scenario name/hash, seeds, version) — set by the
        #: runner so a bundle is replayable on its own.
        self.provenance: dict[str, Any] = {}

    # ------------------------------------------------------------------
    def on_schedule(self, when: float, event) -> None:
        """Engine hook: record one scheduled event in the ring."""
        self.n_seen += 1
        self.events.append((when, type(event).__name__))

    def incident(self, kind: str, **args: Any) -> None:
        """Record one "something went wrong" occurrence."""
        self.incidents.append({"kind": kind, **args})

    def note_fault_state(self, state: dict[str, Any]) -> None:
        """Record the injector's latest state (replaces the previous)."""
        self.fault_state = state

    # ------------------------------------------------------------------
    def bundle(self, obs=None) -> dict[str, Any]:
        """The JSON-safe postmortem document."""
        doc: dict[str, Any] = {
            "schema": FLIGHTREC_SCHEMA,
            "provenance": dict(self.provenance),
            "incidents": list(self.incidents),
            "events_seen": self.n_seen,
            "events_kept": len(self.events),
            "event_tail": [{"t": when, "event": name}
                           for when, name in self.events],
            "fault_state": self.fault_state,
        }
        if obs is not None:
            from repro.obs.snapshot import snapshot

            doc["metrics"] = snapshot(obs)
            spans = obs.tracer.spans[-SPAN_TAIL:]
            doc["span_tail"] = [
                {"name": s.name, "pid": s.pid, "tid": s.tid,
                 "start": s.start, "duration": s.duration,
                 "args": dict(s.args)}
                for s in spans]
        return doc

    def dump(self, path: str, obs=None) -> str:
        """Atomically write the bundle to ``path``; returns the path."""
        parent = os.path.dirname(path) or "."
        os.makedirs(parent, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(self.bundle(obs), fh, indent=2, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def dump_to(self, out_dir: str, unit: str, obs=None) -> str:
        """Write the bundle under ``out_dir`` named after the unit."""
        leaf = _SEGMENT_RE.sub("-", unit).strip("-") or "unit"
        return self.dump(os.path.join(out_dir, f"{leaf}.flightrec.json"),
                         obs=obs)


def attach_flightrec(obs, capacity: int = DEFAULT_CAPACITY) -> FlightRecorder:
    """Create a :class:`FlightRecorder` and hook it into an observer.

    Every event the engine schedules under ``obs`` afterwards lands in the
    ring; instrumented code reaches the recorder via ``obs.flightrec``
    (duck-typed, so lower layers need no obs import).
    """
    recorder = FlightRecorder(capacity)
    obs.flightrec = recorder
    return recorder
