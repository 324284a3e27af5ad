"""Tests for sim-time telemetry timelines (repro.obs.timeline)."""

import pytest

from repro.obs import Observer, attach_timeline, merge_timelines, snapshot
from repro.obs.timeline import TIMELINE_SCHEMA, MAX_SAMPLES, Timeline
from repro.sim import Environment


def _run_workload(obs, n=20, pitch=0.5, label=None):
    env = Environment(trace_hooks=obs)
    if label is not None:
        obs.timeline.set_label(env, label)
    done = obs.metrics.counter("work.done")
    depth = obs.metrics.gauge("work.depth")
    wait = obs.metrics.histogram("work.wait")

    def worker():
        for i in range(n):
            yield env.timeout(pitch)
            done.inc()
            depth.set(i % 4, env.now)
            wait.observe(0.1 * (i % 5))

    env.process(worker())
    env.run()
    return env


def test_samples_land_on_the_interval_grid():
    obs = Observer()
    attach_timeline(obs, sample_interval=1.0)
    _run_workload(obs, n=10, pitch=0.5)  # runs to t=5.0
    doc = obs.timeline.timeline_doc()
    assert doc["schema"] == TIMELINE_SCHEMA
    (seg,) = doc["segments"]
    assert seg["t"] == [1.0, 2.0, 3.0, 4.0, 5.0]
    # At tick t the sampler sees the state *before* events at t run:
    # 2 ticks of work per sim second, so t=1.0 shows one completed tick.
    assert seg["counters"]["work.done"] == [1, 3, 5, 7, 9]


def test_histogram_series_ship_count_and_percentiles():
    obs = Observer()
    attach_timeline(obs, sample_interval=1.0)
    _run_workload(obs, n=10, pitch=0.5)
    (seg,) = obs.timeline.timeline_doc()["segments"]
    series = seg["histograms"]["work.wait"]
    assert set(series) == {"count", "p50", "p95", "p99"}
    assert series["count"][-1] == 9.0
    assert all(len(col) == len(seg["t"]) for col in series.values())


def test_labelled_counters_aggregate_by_base_name():
    obs = Observer()
    attach_timeline(obs, sample_interval=1.0)
    env = Environment(trace_hooks=obs)
    a = obs.metrics.counter("disk.reads", disk=0)
    b = obs.metrics.counter("disk.reads", disk=1)

    def worker():
        for _ in range(4):
            yield env.timeout(1.0)
            a.inc(2)
            b.inc(3)

    env.process(worker())
    env.run()
    (seg,) = obs.timeline.timeline_doc()["segments"]
    assert "disk.reads" in seg["counters"]
    assert not any("{" in key for key in seg["counters"])
    assert seg["counters"]["disk.reads"][-1] == 15  # 3 ticks * (2+3)


def test_metric_born_mid_run_is_zero_backfilled():
    obs = Observer()
    attach_timeline(obs, sample_interval=1.0)
    env = Environment(trace_hooks=obs)

    def worker():
        yield env.timeout(3.0)
        late = obs.metrics.counter("late.metric")
        late.inc(7)
        yield env.timeout(2.0)

    env.process(worker())
    env.run()
    (seg,) = obs.timeline.timeline_doc()["segments"]
    col = seg["counters"]["late.metric"]
    assert len(col) == len(seg["t"])
    assert col[:3] == [0.0, 0.0, 0.0] and col[-1] == 7


def test_auto_interval_decimates_and_stays_bounded():
    obs = Observer()
    attach_timeline(obs)  # auto-scale
    env = Environment(trace_hooks=obs)
    c = obs.metrics.counter("n")

    def worker():
        for _ in range(4 * MAX_SAMPLES):
            yield env.timeout(1.0)
            c.inc()

    env.process(worker())
    env.run()
    (seg,) = obs.timeline.timeline_doc()["segments"]
    assert len(seg["t"]) <= MAX_SAMPLES
    assert seg["interval"] > 1.0  # doubled at least once
    # Monotone grid, counter still monotone after decimation.
    assert seg["t"] == sorted(seg["t"])
    col = seg["counters"]["n"]
    assert col == sorted(col)


def test_timeline_is_deterministic_across_runs():
    def run():
        obs = Observer()
        attach_timeline(obs, sample_interval=0.75)
        _run_workload(obs, n=30, pitch=0.4, label="det")
        return obs.timeline.timeline_doc()

    assert run() == run()


def test_marks_record_at_sim_time():
    obs = Observer()
    attach_timeline(obs, sample_interval=1.0)
    env = _run_workload(obs, n=4, pitch=1.0)
    obs.timeline.mark(env, "fault:disk_crash", disk=3)
    (seg,) = obs.timeline.timeline_doc()["segments"]
    (mark,) = seg["marks"]
    assert mark["name"] == "fault:disk_crash"
    assert mark["t"] == env.now
    assert mark["args"] == {"disk": 3}
    # Marks for unknown environments are dropped, not an error.
    obs.timeline.mark(object(), "ignored")


def test_each_environment_gets_its_own_segment():
    obs = Observer()
    attach_timeline(obs, sample_interval=1.0)
    _run_workload(obs, n=4, pitch=1.0, label="first")
    _run_workload(obs, n=4, pitch=1.0, label="second")
    doc = obs.timeline.timeline_doc()
    assert [seg["label"] for seg in doc["segments"]] == ["first", "second"]
    assert obs.timeline.n_segments == 2


def test_merge_is_ordered_concatenation():
    def doc_for(label):
        obs = Observer()
        attach_timeline(obs, sample_interval=1.0)
        _run_workload(obs, n=4, pitch=1.0, label=label)
        return obs.timeline.timeline_doc()

    a, b = doc_for("a"), doc_for("b")
    merged = merge_timelines([a, None, b])
    assert merged["schema"] == TIMELINE_SCHEMA
    assert [seg["label"] for seg in merged["segments"]] == ["a", "b"]
    assert merged["segments"][0] == a["segments"][0]
    assert merge_timelines([]) == {
        "schema": TIMELINE_SCHEMA, "sample_interval": None, "segments": []}


def test_snapshot_carries_timeline_only_when_armed():
    plain = Observer()
    Environment(trace_hooks=plain).run()
    assert "timeline" not in snapshot(plain)

    armed = Observer()
    attach_timeline(armed, sample_interval=1.0)
    _run_workload(armed, n=4, pitch=1.0)
    snap = snapshot(armed)
    assert snap["timeline"]["schema"] == TIMELINE_SCHEMA


def test_unattached_timeline_refuses_to_bind():
    timeline = Timeline()
    with pytest.raises(RuntimeError, match="attach_timeline"):
        timeline.bind(object())


def test_invalid_sample_interval_rejected():
    with pytest.raises(ValueError):
        Timeline(sample_interval=0.0)
    with pytest.raises(ValueError):
        Timeline(sample_interval=-1.0)
