"""Fleet Monte-Carlo durability engine: cross-validation against the
Markov chain, determinism, and the fault-model mechanics."""

import gc
import math

import numpy as np
import pytest

from repro.cluster.placement import POLICIES, get_policy
from repro.cluster.topology import ClusterConfig
from repro.experiments.durability_frontier import fleet_config
from repro.obs import Observer
from repro.reliability import (
    FleetParams,
    FleetSim,
    ReliabilityParams,
    estimate_mttdl,
    independent_pgs,
    mds_fatal_probabilities,
    system_mttdl,
)
from repro.reliability.markov import HOURS_PER_YEAR
from tests.cluster.test_placement import pgs_by_loop


def simple_params(**overrides):
    base = dict(fatal_probabilities=(0.0, 1.0), years=2.0, afr=0.5,
                repair_hours=24.0, lse_rate=0.0, scrub_interval_hours=0.0)
    base.update(overrides)
    return FleetParams(**base)


# ----------------------------------------------------------------------
# The acceptance test: MC vs Markov under the chain's own assumptions
# ----------------------------------------------------------------------
def test_mc_mttdl_matches_markov_within_95ci():
    """With independent groups, exponential lifetimes, fixed repair time
    and no latent errors — exactly the Markov chain's world — the
    simulated MTTDL must bracket the analytic one."""
    n_groups, group_size = 150, 8
    afr, repair_hours = 0.6, 30.0
    q = (0.0, 1.0)
    sim = FleetSim(independent_pgs(n_groups, group_size),
                   n_groups * group_size)
    params = FleetParams(fatal_probabilities=q, years=10.0, afr=afr,
                         repair_hours=repair_hours, lse_rate=0.0,
                         scrub_interval_hours=0.0)
    results = sim.run_trials(params, seed=12345, n_trials=10)
    est = estimate_mttdl([r.n_losses for r in results],
                         [r.years for r in results])
    assert est.n_losses > 100, "the regime must actually observe losses"
    markov = system_mttdl(
        ReliabilityParams(group_size, afr, repair_hours, q), n_groups)
    assert est.contains(markov), \
        f"MC [{est.lo_hours:.0f}, {est.hi_hours:.0f}] excludes {markov:.0f}"


def test_trials_are_deterministic_per_seed():
    sim = FleetSim(independent_pgs(20, 4), 80)
    params = simple_params()
    a = sim.run_trial(params, 42)
    b = sim.run_trial(params, 42)
    c = sim.run_trial(params, 43)
    assert a == b
    assert a != c


def test_every_failure_fatal_counts_each_group_hit():
    """q = (1.0,): the first failure in a PG always loses data, so losses
    equal the group-hits of disk failures and nothing stays damaged."""
    sim = FleetSim(independent_pgs(10, 4), 40)
    r = sim.run_trial(simple_params(fatal_probabilities=(1.0,)), 5)
    assert r.disk_failures > 0
    assert r.n_losses == r.disk_failures  # disjoint PGs: one hit each
    assert r.peak_damaged_pgs == 0
    assert r.first_loss_hours == pytest.approx(min(r.loss_hours))


def test_scrubbing_clears_latent_errors():
    sim = FleetSim(independent_pgs(25, 4), 100)
    on = sim.run_trial(simple_params(afr=0.05, lse_rate=2.0,
                                     scrub_interval_hours=168.0), 9)
    off = sim.run_trial(simple_params(afr=0.05, lse_rate=2.0,
                                      scrub_interval_hours=0.0), 9)
    assert on.lse_arrivals > 0
    assert on.lse_scrubbed > 0
    assert on.lse_scrubbed <= on.lse_arrivals
    assert off.lse_scrubbed == 0


def test_correlated_faults_require_a_rack_map():
    sim = FleetSim(independent_pgs(4, 4), 16)
    with pytest.raises(ValueError, match="multi-rack"):
        sim.run_trial(simple_params(rack_burst_rate=1.0), 0)
    with pytest.raises(ValueError, match="multi-rack"):
        sim.run_trial(simple_params(tor_outage_rate=1.0), 0)


def test_from_cluster_runs_bursts_and_outages():
    config = ClusterConfig(n_nodes=16, disks_per_node=4, n_racks=2,
                           nodes_per_rack=8, n_pgs=32,
                           placement="rack_aware", pg_seed=3)
    sim = FleetSim.from_cluster(config)
    assert sim.n_disks == 64 and sim.n_pgs == 32
    assert sim.disk_racks is not None
    r = sim.run_trial(simple_params(
        afr=0.05, rack_burst_rate=3.0, burst_node_fraction=0.5,
        tor_outage_rate=3.0, tor_outage_hours=48.0, node_afr=0.1,
        repair_streams=4, years=4.0), 21)
    assert r.rack_bursts > 0
    assert r.tor_outages > 0
    assert r.node_failures > 0
    assert r.disk_failures > 0


def test_risk_aware_and_fifo_queues_both_drain():
    """Throttled repair must complete rebuilds in both orderings, and a
    saturated queue accumulates wait time."""
    sim = FleetSim(independent_pgs(30, 4), 120)
    for risk_aware in (True, False):
        r = sim.run_trial(simple_params(
            afr=1.5, repair_hours=200.0, repair_streams=2,
            risk_aware=risk_aware, years=3.0), 11)
        assert r.repairs_completed > 0
        assert r.repair_wait_hours > 0


def test_weibull_wearout_matches_exponential_mean_failure_count():
    """Shape 3 wear-out keeps mean lifetime 1/afr, so the failure count
    stays in the same ballpark as the memoryless draw."""
    sim = FleetSim(independent_pgs(50, 4), 200)
    exp = sim.run_trial(simple_params(afr=0.4, years=10.0), 3)
    wei = sim.run_trial(simple_params(afr=0.4, years=10.0,
                                      weibull_shape=3.0), 3)
    assert wei.disk_failures > 0
    assert 0.5 < wei.disk_failures / exp.disk_failures < 2.0


def test_observer_sees_losses_and_incidents():
    obs = Observer()
    sim = FleetSim(independent_pgs(10, 4), 40, obs=obs)
    r = sim.run_trial(simple_params(fatal_probabilities=(1.0,), afr=1.0), 2)
    assert r.n_losses > 0
    assert obs.metrics.counter("fleet.data_losses").value == r.n_losses
    assert obs.metrics.counter("fleet.disk_failures").value \
        == r.disk_failures


# ----------------------------------------------------------------------
# Parameters and topology plumbing
# ----------------------------------------------------------------------
def test_params_doc_round_trip():
    params = simple_params(weibull_shape=2.0, repair_streams=8,
                           risk_aware=False)
    doc = params.to_doc()
    assert doc["fatal_probabilities"] == [0.0, 1.0]
    assert FleetParams.from_doc(doc) == params


def test_params_validation():
    with pytest.raises(ValueError, match="end at 1.0"):
        simple_params(fatal_probabilities=(0.0, 0.5))
    with pytest.raises(ValueError, match="must be positive"):
        simple_params(years=0.0)
    with pytest.raises(ValueError, match="weibull_shape"):
        simple_params(weibull_shape=-1.0)
    with pytest.raises(ValueError, match=">= 0"):
        simple_params(lse_rate=-0.1)
    with pytest.raises(ValueError, match="burst_node_fraction"):
        simple_params(burst_node_fraction=0.0)
    with pytest.raises(ValueError, match="tor_repair_factor"):
        simple_params(tor_repair_factor=0.5)


def test_independent_pgs_are_disjoint():
    pgs = independent_pgs(5, 3)
    flat = [d for pg in pgs for d in pg]
    assert len(flat) == len(set(flat)) == 15
    with pytest.raises(ValueError):
        independent_pgs(0, 3)
    with pytest.raises(ValueError):
        independent_pgs(3, 1)


def test_fleet_sim_rejects_bad_topology():
    with pytest.raises(ValueError, match="at least two disks"):
        FleetSim([(0, 1)], 1)
    with pytest.raises(ValueError, match="at least one placement group"):
        FleetSim([], 4)
    with pytest.raises(ValueError, match="outside the fleet"):
        FleetSim([(0, 9)], 4)


def loop_indexes(pgs, n_disks: int, config: ClusterConfig) -> tuple:
    """``FleetSim``'s topology indexes built PG by PG and disk by disk,
    as the constructor did before it sorted and counted: ``pg_members``,
    ``pgs_of_disk``, ``surface_prob`` and ``disk_racks``."""
    pg_members = tuple(tuple(int(d) for d in pg) for pg in pgs)
    pgs_of_disk: list[list[int]] = [[] for _ in range(n_disks)]
    for p, members in enumerate(pg_members):
        for d in members:
            pgs_of_disk[d].append(p)
    surface_prob = tuple(1.0 / len(ps) if ps else 0.0 for ps in pgs_of_disk)
    rack_of = [config.rack_of(config.node_of(d)) for d in range(n_disks)]
    spans = [{rack_of[d] for d in members} for members in pg_members]
    disk_racks = tuple(tuple(sorted(set().union(*[spans[p] for p in ps])))
                       for ps in pgs_of_disk)
    return (pg_members, tuple(tuple(ps) for ps in pgs_of_disk),
            surface_prob, disk_racks)


#: The golden trials' 4-rack fleet, CI's 640-disk durability smoke and
#: the benchmark's 10,240-disk fleet.
_SHAPES = {
    "golden": lambda policy: ClusterConfig(
        n_nodes=24, disks_per_node=4, n_racks=4, nodes_per_rack=6,
        n_pgs=48, k=6, r=3, placement=policy, pg_seed=5),
    "fleet640": lambda policy: fleet_config(640, policy, 1),
    "fleet10240": lambda policy: fleet_config(10_240, policy, 1),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_from_cluster_equals_the_per_pg_construction(policy, shape):
    """The fleet built from the placement's disk array, indexed with
    sorts and counts, is the fleet that picking each disk one call at a
    time and indexing PG by PG builds."""
    config = _SHAPES[shape](policy)
    sim = FleetSim.from_cluster(config)
    pgs = pgs_by_loop(config, get_policy(policy).node_picks(config))
    got = (sim.pg_members, sim.pgs_of_disk, sim.surface_prob,
           sim.disk_racks)
    assert got == loop_indexes(pgs, config.n_disks, config)
    assert all(type(x) is int for x in sim.pgs_of_disk[0])
    assert all(type(x) is float for x in sim.surface_prob)


def test_fleet_sim_rejects_a_disk_named_twice():
    """A PG naming a disk twice would count one failure of that disk as
    two concurrent failures: a lone wear-out could lose data."""
    with pytest.raises(ValueError, match="PG 0 names disk 0 twice"):
        FleetSim([(0, 0, 1)], 2)
    with pytest.raises(ValueError, match="PG 1 names disk 3 twice"):
        FleetSim([(0, 1, 2), (3, 4, 3)], 6)


# ----------------------------------------------------------------------
# Work only for events that can happen before the horizon
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", [1.0, 2.5])
def test_vector_lifetime_draw_equals_scalar_draws(shape):
    """A trial draws all initial lifetimes as one vector; that must be the
    scalar draws, bit for bit, leaving the generator where they do."""
    mean_h = HOURS_PER_YEAR / 0.15
    scale_h = mean_h / math.gamma(1.0 + 1.0 / shape)
    vec, one = np.random.default_rng(5), np.random.default_rng(5)
    if shape == 1.0:
        drawn = vec.exponential(mean_h, 1000).tolist()
        scalar = [float(one.exponential(mean_h)) for _ in range(1000)]
    else:
        drawn = (vec.weibull(shape, 1000) * scale_h).tolist()
        scalar = [float(one.weibull(shape)) * scale_h for _ in range(1000)]
    assert drawn == scalar
    assert vec.bit_generator.state == one.bit_generator.state


class _ScheduleRecorder(Observer):
    """An observer whose engine hooks keep each scheduled event's time."""

    def __init__(self):
        super().__init__()
        self.whens: list[float] = []
        self.env = None

    def event_hooks(self):
        return self.on_schedule, self.on_resume

    def on_schedule(self, when, event):
        self.whens.append(when)
        self.env = event.env

    def on_resume(self, process, trigger):
        raise AssertionError("a fleet trial runs no processes")


#: Every mechanism on, on a 4-rack fleet whose disks mostly outlive a
#: one-year trial.
_RACKED = ClusterConfig(n_nodes=24, disks_per_node=4, n_racks=4,
                        nodes_per_rack=6, n_pgs=48, k=6, r=3,
                        placement="rack_aware", pg_seed=5)
_ALL_ON = dict(afr=0.4, node_afr=0.3, lse_rate=1.5,
               scrub_interval_hours=200.0, repair_streams=3,
               rack_burst_rate=1.5, burst_node_fraction=0.5,
               burst_spread_hours=2.0, tor_outage_rate=3.0,
               tor_outage_hours=48.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_no_timer_is_scheduled_past_the_horizon(seed):
    recorder = _ScheduleRecorder()
    sim = FleetSim.from_cluster(_RACKED, obs=recorder)
    params = simple_params(years=1.0, **_ALL_ON)
    r = sim.run_trial(params, seed)
    assert r.disk_failures > 0 and r.rack_bursts + r.tor_outages > 0
    assert max(recorder.whens) <= params.years * HOURS_PER_YEAR
    # Nothing is left pending: every scheduled timer fired.
    assert not recorder.env._queue and not recorder.env._ready


def test_trial_leaves_almost_no_cyclic_garbage():
    """A finished trial is freed by reference counting.  Arming every
    wear-out left ~2.1k never-popped timers, each with its closure, in a
    cycle with the environment (19k objects here); the trial's nested
    callbacks, which name each other, left 107 more until the trial
    unbound them on return."""
    config = ClusterConfig(n_nodes=320, disks_per_node=8, n_racks=8,
                           nodes_per_rack=40, n_pgs=1280,
                           placement="rack_aware", pg_seed=1)
    sim = FleetSim.from_cluster(config)
    params = FleetParams(
        fatal_probabilities=mds_fatal_probabilities(4), years=2.0, afr=0.1,
        node_afr=0.05, lse_rate=0.2, repair_hours=12.0, repair_streams=64,
        rack_burst_rate=1.0, tor_outage_rate=2.0)
    gc.collect()
    gc.disable()
    try:
        sim.run_trial(params, 7)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def test_mds_fatal_probabilities():
    assert mds_fatal_probabilities(4) == (0.0, 0.0, 0.0, 0.0, 1.0)
    assert mds_fatal_probabilities(1) == (0.0, 1.0)
    with pytest.raises(ValueError):
        mds_fatal_probabilities(0)


def test_reliability_params_for_code_uses_exact_q():
    from repro.codes import RSCode

    p = ReliabilityParams.for_code(RSCode(10, 4), n_disks=14, afr=0.02,
                                   repair_hours=24.0)
    assert p.fatal_probabilities == (0.0, 0.0, 0.0, 0.0, 1.0)
    assert p.n_disks == 14
