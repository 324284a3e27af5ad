"""Tests for the flight recorder (repro.obs.flightrec)."""

import json

import pytest

from repro.obs import FlightRecorder, Observer, attach_flightrec
from repro.obs.flightrec import FLIGHTREC_SCHEMA
from repro.sim import Environment


def _run_ticks(obs, n=10):
    env = Environment(trace_hooks=obs)

    def worker():
        for _ in range(n):
            yield env.timeout(1.0)

    env.run(env.process(worker()))
    return env


def test_ring_keeps_only_the_tail():
    obs = Observer()
    recorder = attach_flightrec(obs, capacity=4)
    _run_ticks(obs, n=10)
    assert recorder.n_seen > 4
    assert len(recorder.events) == 4
    bundle = recorder.bundle()
    assert bundle["schema"] == FLIGHTREC_SCHEMA
    assert bundle["events_kept"] == 4
    assert bundle["events_seen"] == recorder.n_seen
    # The tail is the *most recent* events, in schedule order.
    times = [e["t"] for e in bundle["event_tail"]]
    assert times == sorted(times) and times[-1] >= 9.0


def test_incidents_and_fault_state_land_in_the_bundle():
    recorder = FlightRecorder(capacity=8)
    recorder.incident("repair_task_abandoned", sim_time=3.5, weight=2)
    recorder.note_fault_state({"injected": 1, "failed_disks": [4]})
    recorder.note_fault_state({"injected": 2, "failed_disks": [4, 7]})
    bundle = recorder.bundle()
    assert bundle["incidents"] == [
        {"kind": "repair_task_abandoned", "sim_time": 3.5, "weight": 2}]
    assert bundle["fault_state"] == {"injected": 2, "failed_disks": [4, 7]}


def test_bundle_with_observer_includes_metrics_and_span_tail():
    obs = Observer()
    recorder = attach_flightrec(obs)
    obs.metrics.counter("work.done").inc(3)
    pid = obs.tracer.process("run")
    obs.tracer.complete("repair", pid, obs.tracer.track(pid, "t"), 0.0, 2.0)
    _run_ticks(obs, n=3)
    bundle = recorder.bundle(obs)
    assert bundle["metrics"]["counters"]["work.done"] == 3
    (span,) = bundle["span_tail"]
    assert span["name"] == "repair" and span["duration"] == 2.0


def test_dump_writes_valid_json_atomically(tmp_path):
    obs = Observer()
    recorder = attach_flightrec(obs)
    recorder.provenance = {"scenario": "fig13/1Gbps", "seed": 42}
    _run_ticks(obs, n=2)
    path = recorder.dump_to(str(tmp_path / "deep"), "fig13/1Gbps unit",
                            obs=obs)
    assert path.endswith("fig13-1Gbps-unit.flightrec.json")
    doc = json.loads(open(path, encoding="utf-8").read())
    assert doc["schema"] == FLIGHTREC_SCHEMA
    assert doc["provenance"]["seed"] == 42
    assert not list(tmp_path.glob("**/*.tmp"))  # no temp file left behind


def test_capacity_validation():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)
