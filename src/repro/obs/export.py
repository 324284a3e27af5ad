"""Chrome / Perfetto trace-event JSON export.

Converts a :class:`~repro.obs.tracer.Tracer` into the `trace event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
understood by ``chrome://tracing`` and https://ui.perfetto.dev: complete
("X") events for spans and metadata ("M") events naming each
measurement's process and tracks.  Units convert their tracers to events
(:func:`chrome_trace_events`); :func:`write_chrome_trace` writes any list
of them, one unit's or a run's merged list, as one trace file.

Sim time is in seconds; trace timestamps are microseconds, so one simulated
second renders as one second on the Perfetto timeline.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.tracer import Tracer

_US = 1e6  # sim seconds -> trace microseconds


def chrome_trace_events(tracer: Tracer) -> list[dict[str, Any]]:
    """The tracer's contents as a list of trace-event dicts."""
    events: list[dict[str, Any]] = []
    for pid, label in enumerate(tracer.processes):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": label}})
        events.append({"ph": "M", "name": "process_sort_index", "pid": pid,
                       "tid": 0, "args": {"sort_index": pid}})
    for pid, tid, name in tracer.tracks:
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": tid, "args": {"name": name}})
        events.append({"ph": "M", "name": "thread_sort_index", "pid": pid,
                       "tid": tid, "args": {"sort_index": tid}})
    for span in tracer.spans:
        event: dict[str, Any] = {
            "ph": "X", "name": span.name, "cat": "sim",
            "pid": span.pid, "tid": span.tid,
            "ts": span.start * _US, "dur": span.duration * _US,
        }
        if span.args:
            event["args"] = span.args
        events.append(event)
    return events


def write_chrome_trace(events: list[dict[str, Any]], path: str) -> None:
    """Write trace ``events`` to ``path`` as a trace-event JSON object."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
