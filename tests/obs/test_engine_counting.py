"""Differential oracle for the engine's two counting paths.

A counting-only observer lets the environment count natively: ``_seq``
numbers every enqueue and a tally counts resumes, both added into the
engine counters when ``run()`` returns, before each timeline sample and in
``close()``.  A flight recorder, invariant checker or profiler binds the
per-event hooks instead.  A busy W2 degraded-read measurement must report
the same rows and engine counters either way; its foreground generators
are closed at finalize, so the events their cleanup schedules count too.
"""

import pytest

from repro.analysis import attach_invariant_checker
from repro.experiments.common import (
    W2_SETTING, build_system, cluster_config, sample_workload)
from repro.obs import (
    Observer, attach_flightrec, attach_profiler, attach_timeline, observed)

ENGINE = ("engine.events_scheduled", "engine.process_resumes")


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
    assert obs.engine_hooks.native_counters() is not None
    assert counts[0] > 1000 and counts[1] > 0
    return rows, counts


def test_per_event_hooks_count_what_native_counting_counts(native):
    obs, rows, counts = _measure(attach_invariant_checker, attach_flightrec,
                                 attach_profiler)
    assert obs.engine_hooks.native_counters() is None
    assert (rows, counts) == native
    # The attached tools saw every event themselves.
    assert obs.invariants.stats["schedule_checks"] == counts[0]
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
