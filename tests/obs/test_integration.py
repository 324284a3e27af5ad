"""End-to-end observability tests: spans, metrics and trace export from a
real RCStor measurement, plus the CLI ``--trace`` / ``--metrics`` flags."""

import json

import numpy as np
import pytest

from repro.cluster import ClusterConfig, RCStor
from repro.codes import ClayCode
from repro.core import GeometricLayout, StripeLayout
from repro.obs import (
    Observer, chrome_trace_events, observed, snapshot, summarize,
    write_chrome_trace)

MB = 1 << 20


def _geo_system(obs=None, n_objects=60):
    config = ClusterConfig(n_pgs=32)
    system = RCStor(config, GeometricLayout(4 * MB, 2, max_chunk_size=256 * MB),
                    ClayCode(10, 4), obs=obs)
    rng = np.random.default_rng(7)
    system.ingest(rng.integers(4 * MB, 64 * MB, size=n_objects))
    return system


def test_no_observer_records_nothing():
    system = _geo_system()
    assert system.obs is None
    objs = system.catalog.objects[:2]
    system.measure_degraded_reads(objs, None)  # must run clean without obs


def test_degraded_read_spans_decompose():
    """The acceptance check: every degraded read produces a top-level span
    whose duration matches the reported total, with repair/transfer child
    phases reproducing the result's breakdown within 1%."""
    obs = Observer()
    system = _geo_system(obs)
    objs = system.catalog.objects[:5]
    results = system.measure_degraded_reads(objs, None)

    tops = obs.tracer.spans_named("degraded_read")
    assert len(tops) == len(results)
    repairs = obs.tracer.spans_named("repair")
    assert len(repairs) == len(results)
    transfers = obs.tracer.spans_named("transfer")
    assert transfers, "no transfer spans recorded"

    for top, repair, result in zip(tops, repairs, results):
        assert top.duration == pytest.approx(result.total_time, rel=0.01)
        assert repair.duration == pytest.approx(result.repair_time, rel=0.01)
        xfers = [s for s in transfers
                 if top.start <= s.start and s.end <= top.end + 1e-9]
        assert sum(s.duration for s in xfers) == pytest.approx(
            result.transfer_time, rel=0.01)
        # The phases cover the read: nothing ends after the top span.
        assert repair.end <= top.end + 1e-9


def test_repair_span_nests_phase_children():
    obs = Observer()
    system = _geo_system(obs)
    objs = system.catalog.objects[:3]
    system.measure_degraded_reads(objs, None)
    repairs = obs.tracer.spans_named("repair")
    for phase in ("helper_reads", "gather", "decode", "locate"):
        children = obs.tracer.spans_named(phase)
        assert children, f"no {phase} spans"
        for child in children:
            parent = next(r for r in repairs
                          if r.start - 1e-9 <= child.start
                          and child.end <= r.end + 1e-9)
            assert parent is not None


def test_striped_scheme_also_traced():
    obs = Observer()
    config = ClusterConfig(n_pgs=32)
    system = RCStor(config, StripeLayout(256 * 1024, 10), ClayCode(10, 4),
                    obs=obs)
    rng = np.random.default_rng(11)
    system.ingest(rng.integers(4 * MB, 32 * MB, size=40))
    objs = system.catalog.objects[:3]
    results = system.measure_degraded_reads(objs, None)
    tops = obs.tracer.spans_named("degraded_read")
    assert len(tops) == len(results)
    for top, result in zip(tops, results):
        assert top.duration == pytest.approx(result.total_time, rel=0.01)


def test_recovery_tasks_traced():
    obs = Observer()
    system = _geo_system(obs)
    disk = system.catalog.disk_of(system.catalog.objects[0])
    report = system.run_recovery(disk)
    tasks = obs.tracer.spans_named("recovery_task")
    assert len(tasks) == report.n_tasks
    writes = obs.tracer.spans_named("write")
    assert len(writes) == report.n_tasks
    # Tasks land on per-server tracks.
    track_names = {name for _pid, _tid, name in obs.tracer.tracks}
    assert any(name.startswith("server-") for name in track_names)


def test_resource_metrics_recorded():
    obs = Observer()
    system = _geo_system(obs)
    disk = system.catalog.disk_of(system.catalog.objects[0])
    system.run_recovery(disk)
    metrics = obs.metrics
    # Per-priority-lane wait histograms (recovery runs in the background
    # lane) and per-disk / per-NIC utilization gauges.
    waits = [key for key, _m in metrics if key.startswith("disk.queue_wait")]
    assert waits
    utils = [m for key, m in metrics if key.startswith("disk.utilization")]
    assert utils and all(0.0 <= g.value <= 1.0 for g in utils)
    nic_utils = [m for key, m in metrics if key.startswith("nic.utilization")]
    assert nic_utils
    summary = summarize(snapshot(obs))
    assert "disk.utilization" in summary
    assert "disk.queue_wait" in summary and "p99" in summary
    assert metrics.counter("engine.events_scheduled").value > 0


def test_trace_export_is_valid_chrome_json(tmp_path):
    obs = Observer()
    system = _geo_system(obs)
    objs = system.catalog.objects[:3]
    system.measure_degraded_reads(objs, None)
    out = tmp_path / "trace.json"
    write_chrome_trace(chrome_trace_events(obs.tracer), str(out))
    n = len(obs.tracer.spans)
    assert n > 0
    doc = json.loads(out.read_text())
    events = doc["traceEvents"]
    span_events = [e for e in events if e.get("ph") == "X"]
    assert len(span_events) == n
    for e in span_events:
        assert {"name", "pid", "tid", "ts", "dur"} <= set(e)
        assert e["dur"] >= 0


def test_default_observer_picked_up_by_new_systems():
    with observed() as obs:
        system = _geo_system()
        assert system.obs is obs
        system.measure_degraded_reads(system.catalog.objects[:2], None)
        assert obs.tracer.spans_named("degraded_read")
    assert _geo_system().obs is None


def test_cli_trace_and_metrics_flags(tmp_path, capsys):
    from repro.experiments.__main__ import main

    out = tmp_path / "trace.json"
    assert main(["fig13", "--n-objects", "200",
                 "--trace", str(out), "--metrics",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    printed = capsys.readouterr().out
    assert "Pipelining saving" in printed
    assert "disk.utilization" in printed
    assert "queue_wait" in printed
    doc = json.loads(out.read_text())
    names = {e.get("name") for e in doc["traceEvents"]}
    assert "degraded_read" in names
    # One trace process per simulated bandwidth point.
    from repro.obs import get_default_observer
    assert get_default_observer() is None  # CLI cleaned up after itself
