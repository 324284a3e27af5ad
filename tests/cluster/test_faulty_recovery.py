"""Failure-aware repair paths: hedged reads, fallback ladder, requeue,
second-failure escalation, and the task-conservation invariant."""

import numpy as np
import pytest

from repro.analysis import attach_invariant_checker
from repro.cluster import ClusterConfig, RCStor
from repro.codes import ClayCode, LRCCode, RSCode
from repro.core import ContiguousLayout, GeometricLayout, StripeLayout
from repro.faults import FaultEvent, FaultPlan
from repro.obs import Observer, snapshot, summarize

MB = 1 << 20


@pytest.fixture(scope="module")
def config():
    return ClusterConfig(n_pgs=48)


@pytest.fixture(scope="module")
def sizes():
    rng = np.random.default_rng(3)
    return rng.integers(4 * MB, 64 * MB, size=400)


def _geo_clay(config, sizes, obs=None):
    system = RCStor(config, GeometricLayout(4 * MB, 2, max_chunk_size=256 * MB),
                    ClayCode(10, 4), obs=obs)
    system.ingest(sizes)
    return system


def _pg_buddy(system, disk):
    """A disk sharing a placement group with ``disk``."""
    return next(d for pg in system.cluster.pgs if disk in pg
                for d in pg.disk_ids if d != disk)


#: A plan that builds an injector but never changes a device: its only
#: event fires at 100% recovery progress and slows a disk by a factor of 1.
IDLE_PLAN = FaultPlan((FaultEvent("disk_slow", at_progress=1.0, disk=0,
                                  factor=1.0),))

ORACLE_SCHEMES = {
    "Geo-4M/Clay": lambda: (GeometricLayout(4 * MB, 2,
                                            max_chunk_size=256 * MB),
                            ClayCode(10, 4)),
    "Stripe/Clay": lambda: (StripeLayout(256 * 1024, 10), ClayCode(10, 4)),
    "RS": lambda: (StripeLayout(256 * 1024, 10), RSCode(10, 4)),
    "LRC": lambda: (StripeLayout(256 * 1024, 10), LRCCode(10, 2, 2)),
}


def _degraded_fixed(system, faults):
    objs = system.degraded_read_candidates(0)[:3]
    return system.measure_degraded_reads(objs, 0, seed=5, faults=faults)


def _degraded_own_disk(system, faults):
    objs = system.degraded_read_candidates(0)[:3]
    return system.measure_degraded_reads(objs, None, seed=5, faults=faults)


def _recovery(system, faults):
    return system.run_recovery(0, seed=3, faults=faults)


def _multi_failure(system, faults):
    return system.run_multi_failure_recovery(
        [0, _pg_buddy(system, 0)], seed=3, faults=faults)


def _degraded_during_recovery(system, faults):
    objs = system.degraded_read_candidates(0)[:3]
    return system.measure_degraded_reads_during_recovery(
        objs, 0, seed=4, faults=faults)


ORACLE_ENTRY_POINTS = {
    "degraded-fixed-disk": _degraded_fixed,
    "degraded-own-disk": _degraded_own_disk,
    "recovery": _recovery,
    "multi-failure": _multi_failure,
    "degraded-during-recovery": _degraded_during_recovery,
}


@pytest.fixture(scope="module")
def oracle_sizes():
    return np.random.default_rng(7).integers(4 * MB, 64 * MB, size=40)


class TestEmptyPlanIdentity:
    """Differential oracle: a plan that never changes a device must give
    exactly the results *and* the engine event sequence of no plan."""

    @pytest.mark.parametrize("plan", [FaultPlan(), IDLE_PLAN],
                             ids=["empty-plan", "idle-injector"])
    @pytest.mark.parametrize("entry", sorted(ORACLE_ENTRY_POINTS))
    @pytest.mark.parametrize("scheme", sorted(ORACLE_SCHEMES))
    def test_idle_plan_matches_no_plan(self, scheme, entry, plan,
                                       oracle_sizes):
        config = ClusterConfig(n_pgs=32)
        outcomes, summaries = [], []
        for faults in (None, plan):
            obs = Observer()
            layout, code = ORACLE_SCHEMES[scheme]()
            system = RCStor(config, layout, code, obs=obs)
            system.ingest(oracle_sizes)
            result = ORACLE_ENTRY_POINTS[entry](system, faults)
            metrics = obs.metrics
            outcomes.append((
                result,
                metrics.counter("engine.events_scheduled").value,
                metrics.counter("engine.process_resumes").value))
            summaries.append(summarize(snapshot(obs)))
        assert outcomes[0][1] > 0
        assert outcomes[1] == outcomes[0]
        if not plan:
            # An empty plan must not even register a fault metric.
            assert summaries[1] == summaries[0]

    def test_recovery_bit_identical_with_empty_plan(self, config, sizes):
        base = _geo_clay(config, sizes).run_recovery(0, seed=3)
        faulted = _geo_clay(config, sizes).run_recovery(
            0, seed=3, faults=FaultPlan())
        assert faulted.makespan == base.makespan
        assert faulted.repaired_bytes == base.repaired_bytes
        assert faulted.tasks_requeued == 0
        assert faulted.tasks_abandoned == 0

    def test_degraded_reads_bit_identical_with_empty_plan(self, config, sizes):
        system = _geo_clay(config, sizes)
        objs = system.degraded_read_candidates(0)
        base = system.measure_degraded_reads(objs, 0, seed=5)
        faulted = system.measure_degraded_reads(objs, 0, seed=5,
                                                faults=FaultPlan())
        assert [r.total_time for r in base] \
            == [r.total_time for r in faulted]


class TestStragglerHedging:
    def test_straggler_triggers_hedged_retries(self, config, sizes):
        plan = FaultPlan.stragglers([5], factor=8.0).with_timeout(0.05)
        report = _geo_clay(config, sizes).run_recovery(0, seed=3, faults=plan)
        assert report.hedged_retries > 0
        assert report.tasks_abandoned == 0

    def test_faulted_run_is_deterministic(self, config, sizes):
        plan = FaultPlan.stragglers([5], factor=8.0).with_timeout(0.05)
        a = _geo_clay(config, sizes).run_recovery(0, seed=3, faults=plan)
        b = _geo_clay(config, sizes).run_recovery(0, seed=3, faults=plan)
        assert (a.makespan, a.hedged_retries, a.tasks_requeued) \
            == (b.makespan, b.hedged_retries, b.tasks_requeued)

    def test_degraded_read_hedges_around_straggler(self, config, sizes):
        system = RCStor(config, StripeLayout(256 * 1024, 10), RSCode(10, 4))
        system.ingest(np.random.default_rng(3).integers(
            4 * MB, 64 * MB, size=60))
        objs = system.degraded_read_candidates(0)[:4]
        assert objs
        slow = system.measure_degraded_reads(
            objs, 0, seed=5,
            faults=FaultPlan.stragglers([1], factor=50.0))
        hedged = system.measure_degraded_reads(
            objs, 0, seed=5,
            faults=FaultPlan.stragglers([1], factor=50.0).with_timeout(0.02))
        assert len(slow) == len(hedged) == len(objs)


class TestCrashFallbacks:
    def test_striped_regenerating_read_decodes_after_escalation(self, config,
                                                                sizes):
        """A dead helper drops a striped Clay read below the regenerating
        threshold: the read escalates to RS-style decode, so its codec time
        must be the decode cost, not the regeneration cost."""
        obs = Observer()
        system = RCStor(config, StripeLayout(256 * 1024, 10),
                        ClayCode(10, 4), obs=obs)
        system.ingest(sizes[:60])
        obj = system.degraded_read_candidates(0)[0]
        parity_disk = system.cluster.pgs[obj.pg_id].disk_ids[config.k]
        plan = FaultPlan((FaultEvent("disk_crash", at=0.0,
                                     disk=parity_disk),))
        system.measure_degraded_reads([obj], 0, seed=5, faults=plan)
        decodes = obs.tracer.spans_named("decode")
        assert len(decodes) == 1
        nbytes = decodes[0].args["nbytes"]
        assert decodes[0].duration == pytest.approx(
            system.codec.decode_time(nbytes))
        assert decodes[0].duration != pytest.approx(
            system.codec.regenerate_time(nbytes))

    def test_second_failure_escalates_and_conserves_tasks(self, config, sizes):
        obs = Observer()
        inv = attach_invariant_checker(obs)
        system = _geo_clay(config, sizes, obs=obs)
        buddy = _pg_buddy(system, 0)
        plan = FaultPlan.second_failure(buddy, at_progress=0.5)
        report = system.run_recovery(0, seed=3, faults=plan)
        base = _geo_clay(config, sizes).run_recovery(0, seed=3)
        assert report.tasks_escalated > 0
        assert report.makespan > base.makespan
        assert inv.stats["task_conservation_checks"] == 1
        assert "0 lost tasks" in inv.report()

    def test_timed_helper_crash_falls_back_to_decode(self, config, sizes):
        system = _geo_clay(config, sizes)
        buddy = _pg_buddy(system, 0)
        plan = FaultPlan(events=(
            FaultEvent("disk_crash", at=0.001, disk=buddy),))
        report = system.run_recovery(0, seed=3, faults=plan)
        assert report.tasks_escalated > 0
        assert report.tasks_abandoned == 0

    def test_replacement_write_crash_requeues(self, config, sizes):
        # Crash many non-PG disks mid-run: some in-flight replacement
        # writes land on freshly dead disks and must requeue, not vanish.
        obs = Observer()
        attach_invariant_checker(obs)
        system = _geo_clay(config, sizes, obs=obs)
        pg_disks = {d for pg in system.cluster.pgs if 0 in pg
                    for d in pg.disk_ids}
        outsiders = [d for d in range(config.n_disks)
                     if d not in pg_disks][:3]
        if not outsiders:
            pytest.skip("every disk shares a PG with disk 0")
        plan = FaultPlan(events=tuple(
            FaultEvent("disk_crash", at=0.01 * (i + 1), disk=d)
            for i, d in enumerate(outsiders)))
        report = system.run_recovery(0, seed=3, faults=plan)
        # Conservation held (checker did not raise); requeues are possible
        # but not guaranteed — the books must balance either way.
        assert report.n_tasks > 0

    def test_multi_failure_recovery_absorbs_extra_crash(self, config, sizes):
        obs = Observer()
        inv = attach_invariant_checker(obs)
        system = _geo_clay(config, sizes, obs=obs)
        plan = FaultPlan(events=(
            FaultEvent("disk_crash", at=0.001, disk=_pg_buddy(system, 0)),))
        report = system.run_multi_failure_recovery([0, 20], seed=9,
                                                   faults=plan)
        assert report.n_tasks > 0
        assert inv.stats["task_conservation_checks"] == 1

    def test_scalar_code_repicks_helpers(self, config, sizes):
        system = RCStor(config, ContiguousLayout(64 * MB), RSCode(10, 4))
        system.ingest(sizes)
        buddy = _pg_buddy(system, 0)
        plan = FaultPlan(events=(
            FaultEvent("disk_crash", at=0.001, disk=buddy),))
        report = system.run_recovery(0, seed=3, faults=plan)
        # Any-k re-pick: no escalation to decode needed, nothing lost.
        assert report.tasks_abandoned == 0


class TestGrantHygieneUnderTimeouts:
    def test_no_leaked_grants_under_injected_timeouts(self, config, sizes):
        """Satellite regression: a hedged retry that abandons queued helper
        reads must cancel the requests — the end-of-run audit stays clean."""
        obs = Observer()
        inv = attach_invariant_checker(obs)
        system = _geo_clay(config, sizes, obs=obs)
        plan = FaultPlan.stragglers([5, 17], factor=16.0).with_timeout(0.02)
        report = system.run_recovery(0, seed=3, faults=plan)
        assert report.hedged_retries > 0  # timeouts actually fired
        assert inv.stats["resources_audited"] > 0
        assert "0 leaked grants" in inv.report()

    def test_degraded_reads_under_timeouts_audit_clean(self, config, sizes):
        obs = Observer()
        inv = attach_invariant_checker(obs)
        system = _geo_clay(config, sizes, obs=obs)
        objs = system.degraded_read_candidates(0)
        plan = FaultPlan.stragglers([5], factor=16.0).with_timeout(0.02)
        system.measure_degraded_reads(objs, 0, seed=5, faults=plan)
        assert inv.stats["resources_audited"] > 0
        assert "0 leaked grants" in inv.report()


class TestDegradedDuringRecoveryFaults:
    def test_second_failure_during_mixed_run(self, config, sizes):
        obs = Observer()
        inv = attach_invariant_checker(obs)
        system = _geo_clay(config, sizes, obs=obs)
        objs = system.degraded_read_candidates(0)
        plan = FaultPlan.second_failure(_pg_buddy(system, 0),
                                        at_progress=0.5)
        results, report = system.measure_degraded_reads_during_recovery(
            objs, 0, seed=7, faults=plan)
        assert len(results) == len(objs)
        assert all(r.total_time > 0 for r in results)
        assert inv.stats["task_conservation_checks"] == 1
