"""Attaching a per-event tool must not move what the engine counts.

The environment always counts natively: ``_seq`` numbers every enqueue and
a tally counts resumes, both added into the engine counters when ``run()``
returns, before each timeline sample and in ``close()``.  A flight
recorder, invariant checker or profiler only gets the per-event hooks
bound.  A busy W2 degraded-read measurement must report the same rows and
engine counters with each tool alone, and with all three, as with none;
its foreground generators are closed at finalize, so the events their
cleanup schedules count too.  Each tool also counts what it saw itself,
an independent reference for the engine's counts.
"""

import pytest

from repro.analysis import attach_invariant_checker
from repro.experiments.common import (
    W2_SETTING, build_system, cluster_config, sample_workload)
from repro.obs import (
    Observer, attach_flightrec, attach_profiler, attach_timeline, observed)

ENGINE = ("engine.events_scheduled", "engine.process_resumes")

TOOLS = {"invariants": attach_invariant_checker,
         "flightrec": attach_flightrec,
         "profiler": attach_profiler}


def _measure(*attach):
    obs = Observer()
    for fn in attach:
        fn(obs)
    with observed(obs):
        system = build_system("Geo-128K", W2_SETTING,
                              cluster_config(W2_SETTING, 100))
        system.ingest(sample_workload(W2_SETTING, 100, seed=3))
        rows = system.measure_degraded_reads(
            system.catalog.objects[:6], None, busy=True, seed=5,
            warmup=0.05)
    counts = tuple(obs.metrics.counter(name).value for name in ENGINE)
    return obs, rows, counts


@pytest.fixture(scope="module")
def native():
    obs, rows, counts = _measure()
    assert obs.event_hooks() == (None, None)
    assert counts[0] > 1000 and counts[1] > 0
    return rows, counts


@pytest.mark.parametrize("tools", [("invariants",), ("flightrec",),
                                   ("profiler",), tuple(TOOLS)],
                         ids="+".join)
def test_per_event_tools_leave_the_counts_unchanged(native, tools):
    obs, rows, counts = _measure(*(TOOLS[name] for name in tools))
    assert (rows, counts) == native
    # The attached tools saw every event themselves.
    if obs.invariants is not None:
        assert obs.invariants.stats["schedule_checks"] == counts[0]
    if obs.flightrec is not None:
        assert obs.flightrec.n_seen == counts[0]
    if obs.profiler is not None:
        resumes = sum(row["resumes"]
                      for row in obs.profiler.profile_doc()["sites"])
        assert resumes == counts[1]


def test_timeline_samples_flushed_counts(native):
    timed = []
    for attach in ((attach_timeline,), (attach_timeline, attach_flightrec)):
        obs, rows, counts = _measure(*attach)
        assert (rows, counts) == native
        [segment] = obs.timeline.timeline_doc()["segments"]
        timed.append({name: segment["counters"][name] for name in ENGINE})
    plain, hooked = timed
    assert len(plain["engine.events_scheduled"]) > 10
    assert plain == hooked
