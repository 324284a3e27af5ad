"""Smoke tests: every benchmark body runs and returns a sane value.

The timing harness is tested in ``test_harness.py``; here each spec's
callable is invoked once (no repeats, no timing) so a broken benchmark
fails the suite rather than silently reporting garbage to the CI gate.
The heavy macros (fig13/tradeoff at bench scale) are exercised through a
cheaper equivalent: the shared ``_run`` helper with the fig4 units.
"""

import numpy as np
import pytest

from repro.bench import macro, micro


@pytest.mark.parametrize("spec", micro.specs(), ids=lambda s: s.name)
def test_micro_spec_bodies_run(spec):
    value = spec.fn()
    assert value is not None
    assert spec.units >= 1


def test_micro_engine_benchmarks_advance_the_clock():
    assert micro._event_throughput() == float(micro._N_EVENTS)
    assert micro._ready_lane() == 0.0  # zero-delay storm never moves time
    assert micro._process_churn() == 2.0 * micro._N_PROCS


def test_micro_warmup_kernel_covers_its_events():
    assert micro._warmup_kernel() == micro._WARMUP_EVENTS


def test_micro_wait_replay_replays_every_wait():
    assert len(micro._warmup_waits()) == micro._WARMUP_WAITS
    assert micro._wait_replay() == \
        4096 + micro._REPLAYS * micro._WARMUP_WAITS


def test_micro_profiles_cold_build_covers_every_role_and_size():
    assert micro._N_PROFILES == 560
    # Clay(10,4) reads 13/4 chunks per repaired chunk.
    chunks = sum(-(-size // 256) * 256 for size in micro._PROFILE_SIZES)
    assert micro._profiles_cold_build() == 14 * chunks * 13 // 4


def test_micro_contention_reports_utilization():
    util = micro._contention()
    assert 0.0 < util <= 1.0


def test_macro_fig4_runs_real_scenarios():
    rows = macro._fig4()
    assert rows > 0


def test_macro_specs_shapes():
    specs = macro.specs()
    assert [s.group for s in specs] == ["macro"] * len(specs)
    assert all(s.repeats == 2 for s in specs)


def test_micro_stripe_fixture_is_consistent():
    """The module-level RS stripe used by decode benches is decodable."""
    erased = micro._ERASED
    decoded = micro._RS.decode(micro._AVAILABLE, erased, micro._CHUNK)
    for node in erased:
        assert np.array_equal(decoded[node], micro._STRIPE[node])


def test_reliability_spec_bodies_run():
    from repro.bench import reliability

    assert reliability._markov_sweep() > 0
    assert reliability._fleet_topology() == reliability._CONFIG.n_pgs
    assert reliability._fleet_topology_flat() \
        == reliability._FLAT_CONFIG.n_pgs == 5_120
    assert reliability._fleet_trial() >= 0
    specs = reliability.specs()
    assert [s.group for s in specs] == ["reliability"] * 4
    assert all(s.units > 1 for s in specs)


def test_fabric_spec_bodies_run():
    from repro.bench import fabric

    hops = fabric._route_resolution()
    assert fabric._N_ROUTES < hops <= 5 * fabric._N_ROUTES
    assert fabric._intra_rack_transfers() > 0
    assert fabric._cross_rack_gather() > 0
    specs = fabric.specs()
    assert [s.group for s in specs] == ["fabric"] * 3
    assert all(s.units > 1 for s in specs)


def test_traffic_spec_bodies_run():
    from repro.bench import traffic

    expected = traffic._RATE * traffic._DURATION
    assert abs(traffic._schedule_build() - expected) < 5 * expected ** 0.5
    assert 0 <= traffic._zipf_sample() < traffic._N_OBJECTS
    drain = traffic._open_loop_serve()
    _system, _objects, schedule, _failed = traffic._SERVE_STATE
    assert drain > schedule.times[-1]  # the last request was served
    specs = traffic.specs()
    assert [s.group for s in specs] == ["traffic"] * 3
    assert all(s.units >= 1 for s in specs)
