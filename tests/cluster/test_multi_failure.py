"""Multi-failure recovery tests (§2.2: rare but required for reliability)."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, RCStor
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
    """PGs hit twice must read full survivor chunks (no sub-chunking)."""
    d1, d2 = _shared_pg_disks(system)
    tasks = system._build_multi_failure_tasks([d1, d2])
    assert tasks, "the two disks share a PG, so decode tasks must exist"
    for task in tasks:
        assert task.is_rs  # full decode path, not regenerating repair
        for helper in task.profile.helpers:
            assert helper.nbytes == task.profile.output_bytes  # full chunks


def test_multi_failure_helpers_avoid_failed_disks(system):
    d1, d2 = _shared_pg_disks(system)
    tasks = system._build_multi_failure_tasks([d1, d2])
    for task in tasks:
        failed_roles = {task.pg.role_of(d) for d in (d1, d2) if d in task.pg}
        for helper in task.profile.helpers:
            assert helper.role not in failed_roles


def test_disjoint_double_failure_is_two_singles(system):
    """Disks on the same node never share a PG: no decode tasks."""
    assert system._build_multi_failure_tasks([0, 1]) == []
    report = system.run_multi_failure_recovery([0, 1])
    assert report.repaired_bytes > 0


def test_multi_failure_with_rs_stripe(stripe_rs):
    s = stripe_rs
    pg = s.cluster.pgs[0]
    report = s.run_multi_failure_recovery([pg.disk_ids[0], pg.disk_ids[5]])
    assert report.repaired_bytes > 0
    assert report.recovery_rate > 0


def test_node_recovery(system):
    """A whole node fails: each PG loses one disk, so work is 6 optimal
    single-disk recoveries sharing the cluster."""
    report = system.run_node_recovery(0)
    singles = [system.run_recovery(d) for d in range(6)]
    assert report.repaired_bytes == sum(s.repaired_bytes for s in singles)
    # Parallelism: the node recovery beats running the six serially.
    assert report.makespan < sum(s.makespan for s in singles)
    # But it cannot beat the slowest single-disk recovery.
    assert report.makespan >= max(s.makespan for s in singles) * 0.9


def test_node_recovery_validation(system):
    with pytest.raises(ValueError):
        system.run_node_recovery(99)
