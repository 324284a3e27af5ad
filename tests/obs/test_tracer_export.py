"""Tests for the span tracer and the Chrome/Perfetto exporter."""

import json

import pytest

from repro.obs import (
    Observer,
    Tracer,
    chrome_trace,
    chrome_trace_events,
    observed,
    write_chrome_trace,
)
from repro.obs.observer import get_default_observer


def test_process_and_track_registration():
    t = Tracer()
    p0 = t.process("run-a")
    p1 = t.process("run-b")
    assert (p0, p1) == (0, 1)
    assert t.track(p0, "repair") == 0
    assert t.track(p0, "transfer") == 1
    assert t.track(p0, "repair") == 0       # cached
    assert t.track(p1, "repair") == 0       # tids are per-process
    assert (p0, 1, "transfer") in t.tracks


def test_complete_span_records_interval():
    t = Tracer()
    pid = t.process("run")
    tid = t.track(pid, "work")
    span = t.complete("decode", pid, tid, 1.0, 3.5, nbytes=42)
    assert span.duration == pytest.approx(2.5)
    assert span.end == pytest.approx(3.5)
    assert span.args == {"nbytes": 42}
    assert t.spans_named("decode") == [span]


def test_begin_end_span():
    t = Tracer()
    pid = t.process("run")
    handle = t.begin("read", pid, t.track(pid, "io"), 2.0, disk=3)
    span = handle.end(5.0, nbytes=7)
    assert span.start == 2.0 and span.duration == pytest.approx(3.0)
    assert span.args == {"disk": 3, "nbytes": 7}
    assert len(t) == 1


def test_span_cannot_end_before_start():
    t = Tracer()
    with pytest.raises(ValueError):
        t.complete("bad", 0, 0, 5.0, 4.0)


def test_chrome_trace_structure():
    t = Tracer()
    pid = t.process("Geo-4M/degraded")
    tid = t.track(pid, "repair")
    t.complete("helper_reads", pid, tid, 0.25, 0.75, nbytes=10)
    t.counter(pid, "queue_depth", 0.5, 3)
    doc = chrome_trace(t)
    events = doc["traceEvents"]
    assert doc["displayTimeUnit"] == "ms"
    meta = [e for e in events if e["ph"] == "M"]
    names = {(e["name"], e["args"].get("name")) for e in meta}
    assert ("process_name", "Geo-4M/degraded") in names
    assert ("thread_name", "repair") in names
    (x,) = [e for e in events if e["ph"] == "X"]
    assert x["name"] == "helper_reads"
    assert x["ts"] == pytest.approx(0.25e6)      # sim seconds -> us
    assert x["dur"] == pytest.approx(0.5e6)
    assert x["args"] == {"nbytes": 10}
    (c,) = [e for e in events if e["ph"] == "C"]
    assert c["args"] == {"queue_depth": 3}


def test_write_chrome_trace_roundtrip(tmp_path):
    t = Tracer()
    pid = t.process("run")
    t.complete("span", pid, t.track(pid, "t"), 0.0, 1.0)
    out = tmp_path / "trace.json"
    assert write_chrome_trace(t, str(out)) == 1
    loaded = json.loads(out.read_text())
    assert isinstance(loaded["traceEvents"], list)
    assert any(e.get("ph") == "X" for e in loaded["traceEvents"])


def test_chrome_trace_of_empty_tracer():
    # No processes, tracks or spans: a valid, empty-but-loadable document.
    doc = chrome_trace(Tracer())
    assert doc["traceEvents"] == []
    assert json.loads(json.dumps(doc)) == doc


def test_unclosed_span_handle_is_not_exported():
    t = Tracer()
    pid = t.process("run")
    tid = t.track(pid, "t")
    handle = t.begin("open", pid, tid, 1.0)
    t.complete("closed", pid, tid, 0.0, 0.5)
    # The open handle never called .end(): it must not leak into the
    # span list or the export.
    assert len(t) == 1
    events = chrome_trace_events(t)
    assert [e["name"] for e in events if e["ph"] == "X"] == ["closed"]
    # Closing it afterwards records it with the handle's stored start.
    span = handle.end(2.0, reason="late")
    assert span.start == 1.0 and span.duration == 1.0
    assert span.args == {"reason": "late"}
    assert len(t) == 2


def test_nested_same_track_spans_roundtrip(tmp_path):
    # Nesting is by time containment on one track; Perfetto renders the
    # inner "X" event inside the outer one.  The export must preserve the
    # exact containment after a JSON round-trip.
    t = Tracer()
    pid = t.process("run")
    tid = t.track(pid, "repair")
    t.complete("outer", pid, tid, 0.0, 10.0)
    t.complete("inner", pid, tid, 2.0, 4.0)
    out = tmp_path / "nested.json"
    assert write_chrome_trace(t, str(out)) == 2
    loaded = json.loads(out.read_text(encoding="utf-8"))
    spans = {e["name"]: e for e in loaded["traceEvents"]
             if e["ph"] == "X"}
    outer, inner = spans["outer"], spans["inner"]
    assert outer["pid"] == inner["pid"] and outer["tid"] == inner["tid"]
    assert outer["ts"] <= inner["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]


def test_write_chrome_trace_is_perfetto_loadable(tmp_path):
    # The minimal contract the Perfetto JSON importer requires: a
    # traceEvents list whose entries carry ph/pid/tid, numeric ts/dur on
    # "X" events, and name metadata args on "M" events.
    t = Tracer()
    pid = t.process("Geo-4M/degraded")
    t.complete("read", pid, t.track(pid, "client"), 0.0, 0.125, nbytes=4096)
    t.counter(pid, "depth", 0.1, 2)
    out = tmp_path / "trace.json"
    write_chrome_trace(t, str(out))
    loaded = json.loads(out.read_text(encoding="utf-8"))
    assert set(loaded) == {"traceEvents", "displayTimeUnit"}
    for event in loaded["traceEvents"]:
        assert event["ph"] in {"M", "X", "C"}
        assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
        if event["ph"] == "X":
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float) and event["dur"] >= 0
        if event["ph"] == "M":
            assert event["name"].endswith(("_name", "_sort_index"))
            assert "args" in event


def test_default_observer_context():
    assert get_default_observer() is None
    with observed() as obs:
        assert isinstance(obs, Observer)
        assert get_default_observer() is obs
        with observed(Observer()) as inner:
            assert get_default_observer() is inner
        assert get_default_observer() is obs
    assert get_default_observer() is None


def test_engine_hooks_count_into_registry():
    from repro.sim import Environment

    obs = Observer()
    env = Environment(trace_hooks=obs.engine_hooks)

    def proc():
        yield env.timeout(1)
        yield env.timeout(2)

    env.run(env.process(proc()))
    assert obs.metrics.counter("engine.events_scheduled").value > 0
    assert obs.metrics.counter("engine.process_resumes").value >= 2
