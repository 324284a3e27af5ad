"""Snapshot/merge semantics: what workers ship back to the runner."""

import json

from repro.obs import Observer, merge_snapshots, merge_trace_events, snapshot, summarize
from repro.obs.snapshot import RESERVOIR_SHIP_CAP


def _observer(counter=0, gauge=None, hist=(), spans=()):
    obs = Observer()
    if counter:
        obs.metrics.counter("events").inc(counter)
    if gauge is not None:
        g = obs.metrics.gauge("level")
        for now, value in gauge:
            g.set(value, now=now)
    h = obs.metrics.histogram("wait") if hist else None
    for value in hist:
        h.observe(value)
    pid = obs.tracer.process("run") if spans else None
    for start, end in spans:
        obs.tracer.complete("work", pid, 0, start, end)
    return obs


def test_snapshot_is_json_safe_and_structured():
    obs = _observer(counter=3, gauge=[(0.0, 1.0), (2.0, 5.0)],
                    hist=[1.0, 2.0, 3.0], spans=[(0.0, 2.5)])
    snap = snapshot(obs)
    json.dumps(snap)  # must serialize as-is for the cache
    assert snap["counters"]["events"] == 3
    assert snap["gauges"]["level"]["max"] == 5.0
    assert snap["histograms"]["wait"]["count"] == 3
    assert snap["histograms"]["wait"]["total"] == 6.0
    assert snap["n_spans"] == 1
    assert snap["sim_time_s"] == 2.5
    assert "trace_events" not in snap


def test_snapshot_trace_events_only_on_request():
    obs = _observer(spans=[(0.0, 1.0)])
    snap = snapshot(obs, include_trace=True)
    assert any(e.get("ph") == "X" for e in snap["trace_events"])


def test_snapshot_reservoir_is_capped_and_deterministic():
    obs = Observer()
    h = obs.metrics.histogram("wait")
    for i in range(10 * RESERVOIR_SHIP_CAP):
        h.observe(float(i % 997))
    first = snapshot(obs)["histograms"]["wait"]["reservoir"]
    second = snapshot(obs)["histograms"]["wait"]["reservoir"]
    assert first == second
    assert len(first) <= RESERVOIR_SHIP_CAP
    assert first == sorted(first)


def test_merge_sums_counters_and_histograms_exactly():
    a = snapshot(_observer(counter=2, hist=[1.0, 3.0]))
    b = snapshot(_observer(counter=5, hist=[2.0, 10.0]))
    merged = merge_snapshots([a, b])
    assert merged["counters"]["events"] == 7
    wait = merged["histograms"]["wait"]
    assert wait["count"] == 4
    assert wait["total"] == 16.0
    assert wait["min"] == 1.0 and wait["max"] == 10.0
    assert wait["reservoir"] == [1.0, 2.0, 3.0, 10.0]


def test_merge_gauges_bounds_exact_mean_approximate():
    a = snapshot(_observer(gauge=[(0.0, 2.0), (1.0, 2.0)]))
    b = snapshot(_observer(gauge=[(0.0, 6.0), (1.0, 6.0)]))
    merged = merge_snapshots([a, b])
    level = merged["gauges"]["level"]
    assert level["min"] == 2.0 and level["max"] == 6.0
    assert level["mean"] == 4.0  # mean of per-unit means


def test_merge_accumulates_sim_time_and_spans():
    a = snapshot(_observer(spans=[(0.0, 2.0)]))
    b = snapshot(_observer(spans=[(0.0, 3.0), (3.0, 4.0)]))
    merged = merge_snapshots([a, b, {}, None])
    assert merged["n_spans"] == 3
    assert merged["sim_time_s"] == 6.0


def test_merge_is_order_insensitive_for_exact_fields():
    snaps = [snapshot(_observer(counter=i + 1, hist=[float(i)]))
             for i in range(3)]
    forward = merge_snapshots(snaps)
    backward = merge_snapshots(list(reversed(snaps)))
    assert forward["counters"] == backward["counters"]
    assert forward["histograms"]["wait"]["count"] == \
        backward["histograms"]["wait"]["count"]
    assert forward["histograms"]["wait"]["reservoir"] == \
        backward["histograms"]["wait"]["reservoir"]


def test_summarize_renders_all_sections():
    obs = _observer(counter=1, gauge=[(0.0, 1.0)], hist=[1.0, 2.0])
    text = summarize(merge_snapshots([snapshot(obs)]))
    assert "== counters ==" in text
    assert "== gauges" in text
    assert "== histograms ==" in text
    assert "p99" in text
    assert summarize(merge_snapshots([])) == "(no metrics recorded)"


def test_summarize_deterministically_sorted():
    def build(keys):
        obs = Observer()
        for key in keys:
            obs.metrics.counter(key).inc()
        obs.metrics.gauge("g.depth").set(2, now=1.0)
        obs.metrics.histogram("h.wait").observe(0.5)
        return summarize(snapshot(obs))

    a = build(["z.last", "a.first", "m.mid"])
    b = build(["m.mid", "z.last", "a.first"])
    assert a == b  # registration order is invisible
    assert a.index("a.first") < a.index("m.mid") < a.index("z.last")


def test_a_fresh_observer_reports_the_engine_counters_at_zero():
    # Registered when the observer is built, so a unit that builds no
    # environment still lists them.
    snap = snapshot(Observer())
    assert snap["counters"] == {"engine.events_scheduled": 0,
                                "engine.process_resumes": 0}
    text = summarize(snap)
    assert "engine.events_scheduled" in text
    assert "engine.process_resumes" in text


def test_merge_trace_events_rebases_pids_disjointly():
    unit_a = [{"ph": "X", "name": "w", "pid": 0, "tid": 0},
              {"ph": "X", "name": "w", "pid": 1, "tid": 0}]
    unit_b = [{"ph": "X", "name": "w", "pid": 0, "tid": 0}]
    merged = merge_trace_events([unit_a, [], unit_b])
    assert [e["pid"] for e in merged] == [0, 1, 2]
    # Inputs are not mutated.
    assert unit_b[0]["pid"] == 0
