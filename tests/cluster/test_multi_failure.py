"""Multi-failure recovery tests (§2.2: rare but required for reliability)."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, RCStor
from repro.cluster.rcstor import _Runtime
from repro.codes import ClayCode, RSCode
from repro.core import GeometricLayout, StripeLayout

MB = 1 << 20


@pytest.fixture(scope="module")
def system():
    config = ClusterConfig(n_pgs=64)
    s = RCStor(config, GeometricLayout(4 * MB, 2, max_chunk_size=256 * MB),
               ClayCode(10, 4))
    rng = np.random.default_rng(1)
    s.ingest(rng.integers(8 * MB, 150 * MB, size=1000))
    return s


def _shared_pg_disks(system):
    """Two failed disks on different nodes sharing at least one PG."""
    pg = system.cluster.pgs[0]
    return pg.disk_ids[0], pg.disk_ids[1]


def _planned(system, failed_disks):
    """The recovery queue planned for ``failed_disks``, before any run."""
    return list(system._plan_recovery(_Runtime(system.config, 0),
                                      failed_disks))


def _shared_pg_tasks(system, failed_disks):
    """Planned tasks of PGs that lost more than one chunk."""
    return [t for t in _planned(system, failed_disks)
            if sum(d in t.pg for d in failed_disks) > 1]


def test_validation(system):
    with pytest.raises(ValueError):
        system.run_multi_failure_recovery([])
    with pytest.raises(ValueError):
        system.run_multi_failure_recovery([0, 6, 12, 18, 24])  # > r


@pytest.fixture(scope="module")
def stripe_rs():
    s = RCStor(ClusterConfig(n_pgs=32), StripeLayout(256 * 1024, 10),
               RSCode(10, 4))
    rng = np.random.default_rng(2)
    s.ingest(rng.integers(8 * MB, 64 * MB, size=400))
    return s


def test_single_failure_equivalence(system, stripe_rs):
    """A one-element failure list is exactly run_recovery."""
    for s in (system, stripe_rs):
        assert s.run_multi_failure_recovery([0]) == s.run_recovery(0)


def test_repeated_disk_is_recovered_once(system):
    assert system.run_multi_failure_recovery([0, 0]) == system.run_recovery(0)


def test_out_of_range_disks_raise(system):
    assert system.config.n_disks == 96
    for bad in (96, 999, -1):
        with pytest.raises(ValueError, match="out of range"):
            system.run_recovery(bad)
        with pytest.raises(ValueError, match="out of range"):
            system.run_multi_failure_recovery([0, bad])
        with pytest.raises(ValueError, match="out of range"):
            system.measure_degraded_reads_during_recovery([], bad)


def test_double_failure_repairs_both_disks(system):
    d1, d2 = _shared_pg_disks(system)
    double = system.run_multi_failure_recovery([d1, d2])
    s1 = system.run_recovery(d1)
    s2 = system.run_recovery(d2)
    assert double.repaired_bytes == pytest.approx(
        s1.repaired_bytes + s2.repaired_bytes, rel=0.15)
    assert double.makespan > 0


def test_shared_pgs_fall_back_to_full_decode(system):
    """PGs hit twice must read full chunks (no sub-chunking) from k
    helpers: the bottom rung of the fault ladder."""
    d1, d2 = _shared_pg_disks(system)
    tasks = _shared_pg_tasks(system, (d1, d2))
    assert tasks, "the two disks share a PG, so decode tasks must exist"
    for task in tasks:
        assert task.profile.decode  # full decode, not regenerating repair
        assert len(task.profile.helpers) == system.config.k
        for helper in task.profile.helpers:
            assert helper.nbytes == task.profile.output_bytes  # full chunks


def test_multi_failure_helpers_avoid_failed_disks(system):
    d1, d2 = _shared_pg_disks(system)
    tasks = _planned(system, [d1, d2])
    assert _shared_pg_tasks(system, (d1, d2))
    for task in tasks:
        failed_roles = {task.pg.role_of(d) for d in (d1, d2) if d in task.pg}
        for helper in task.profile.helpers:
            assert helper.role not in failed_roles


def test_shared_pg_decode_sets_rebuild_lost_chunks(system):
    """The k helpers of a shared-PG task decode the PG's lost chunks with
    the byte-exact Clay decoder, erasures padded to r."""
    code = system.code
    d1, d2 = _shared_pg_disks(system)
    patterns = {}
    for task in _shared_pg_tasks(system, (d1, d2)):
        helpers = tuple(sorted(h.role for h in task.profile.helpers))
        patterns.setdefault(helpers, {task.pg.role_of(d1),
                                      task.pg.role_of(d2)})
    assert len(patterns) >= 3
    rng = np.random.default_rng(0)
    chunk = code.alpha
    data = [rng.integers(0, 256, chunk, dtype=np.uint8)
            for _ in range(code.k)]
    stripe = data + code.encode(data)
    for helpers, lost in sorted(patterns.items())[:3]:
        erased = [r for r in range(code.n) if r not in helpers]
        assert len(erased) == code.r and lost <= set(erased)
        decoded = code.decode({r: stripe[r] for r in helpers}, erased, chunk)
        for role in lost:
            assert np.array_equal(decoded[role], stripe[role])


def test_disjoint_double_failure_is_two_singles(system):
    """Disks on the same node never share a PG: planning changes no
    task."""
    assert _planned(system, [0, 1]) == (_planned(system, [0])
                                        + _planned(system, [1]))
    report = system.run_multi_failure_recovery([0, 1])
    assert report.repaired_bytes > 0


def test_shared_pg_report(system, stripe_rs):
    """A shared-PG double failure repairs exactly the two disks'
    single-failure work, with no escalation."""
    d1, d2 = _shared_pg_disks(system)
    report = system.run_multi_failure_recovery([d1, d2])
    assert (report.n_tasks, report.repaired_bytes) == (176, 2_564_615_509)
    singles = [system.run_recovery(d) for d in (d1, d2)]
    assert report.n_tasks == sum(s.n_tasks for s in singles)
    assert report.repaired_bytes == sum(s.repaired_bytes for s in singles)
    assert report.tasks_escalated == 0
    pg = stripe_rs.cluster.pgs[0]
    report = stripe_rs.run_multi_failure_recovery([pg.disk_ids[0],
                                                   pg.disk_ids[5]])
    assert (report.n_tasks, report.repaired_bytes) == (130, 464_585_006)
    assert report.tasks_escalated == 0


def test_multi_failure_with_rs_stripe(stripe_rs):
    s = stripe_rs
    pg = s.cluster.pgs[0]
    report = s.run_multi_failure_recovery([pg.disk_ids[0], pg.disk_ids[5]])
    assert report.repaired_bytes > 0
    assert report.recovery_rate > 0
