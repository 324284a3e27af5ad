"""Cluster topology / placement-group tests."""

from collections import Counter

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.rcstor import RECOVERY_GLOBAL_WEIGHT, RECOVERY_WEIGHT_UNIT


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(n_nodes=8)  # < k + r
    with pytest.raises(ValueError):
        ClusterConfig(disks_per_node=0)
    with pytest.raises(ValueError):
        ClusterConfig(n_pgs=0)


def test_config_defaults_match_paper():
    c = ClusterConfig()
    assert c.n_nodes == 16 and c.disks_per_node == 6
    assert c.k == 10 and c.r == 4 and c.n == 14
    assert c.n_disks == 96
    assert RECOVERY_GLOBAL_WEIGHT == 512
    assert RECOVERY_WEIGHT_UNIT == 4 * (1 << 20)


def test_node_of():
    c = ClusterConfig()
    assert c.node_of(0) == 0
    assert c.node_of(5) == 0
    assert c.node_of(6) == 1
    assert c.node_of(95) == 15


def test_pgs_have_distinct_nodes():
    cluster = Cluster(ClusterConfig(n_pgs=200))
    for pg in cluster.pgs:
        assert len(pg.disk_ids) == 14
        nodes = {cluster.config.node_of(d) for d in pg.disk_ids}
        assert len(nodes) == 14


def test_pg_membership_balanced():
    config = ClusterConfig(n_pgs=480)
    cluster = Cluster(config)
    membership = Counter()
    for pg in cluster.pgs:
        membership.update(pg.disk_ids)
    counts = [membership[d] for d in range(config.n_disks)]
    expected = 480 * 14 / 96
    assert min(counts) >= 0.7 * expected
    assert max(counts) <= 1.3 * expected


def test_roles_rotate_across_pgs():
    """Each disk should play many different roles (Clay's 4 repair cases)."""
    cluster = Cluster(ClusterConfig(n_pgs=480))
    roles_of_disk0 = {pg.role_of(0) for pg in cluster.pgs_of_disk(0)}
    assert len(roles_of_disk0) >= 8


def test_pgs_of_disk_consistent():
    cluster = Cluster(ClusterConfig(n_pgs=100))
    for disk in (0, 50, 95):
        for pg in cluster.pgs_of_disk(disk):
            assert disk in pg


def test_pg_construction_deterministic():
    a = Cluster(ClusterConfig(n_pgs=50))
    b = Cluster(ClusterConfig(n_pgs=50))
    assert [pg.disk_ids for pg in a.pgs] == [pg.disk_ids for pg in b.pgs]
    c = Cluster(ClusterConfig(n_pgs=50, pg_seed=7))
    assert [pg.disk_ids for pg in a.pgs] != [pg.disk_ids for pg in c.pgs]


def test_role_of_raises_for_non_member():
    cluster = Cluster(ClusterConfig(n_pgs=4))
    pg = cluster.pgs[0]
    outsider = next(d for d in range(96) if d not in pg)
    with pytest.raises(ValueError):
        pg.role_of(outsider)


# ----------------------------------------------------------------------
# Rack hierarchy
# ----------------------------------------------------------------------
def test_default_config_is_flat():
    c = ClusterConfig()
    assert c.n_racks == 1
    assert c.rack_size == 16
    assert c.rack_of(0) == c.rack_of(15) == 0


def test_rack_of_and_nodes_in_rack():
    c = ClusterConfig(n_nodes=16, n_racks=4, nodes_per_rack=4)
    assert c.rack_size == 4
    assert c.rack_of(0) == 0 and c.rack_of(3) == 0
    assert c.rack_of(4) == 1 and c.rack_of(15) == 3
    assert list(c.nodes_in_rack(2)) == [8, 9, 10, 11]


def test_derived_rack_size_and_short_last_rack():
    c = ClusterConfig(n_nodes=14, n_racks=4)  # ceil(14/4) = 4 per rack
    assert c.rack_size == 4
    assert list(c.nodes_in_rack(3)) == [12, 13]  # last rack is short
    assert c.rack_of(13) == 3


def test_rack_validation():
    with pytest.raises(ValueError):
        ClusterConfig(n_racks=0)
    with pytest.raises(ValueError):
        ClusterConfig(n_nodes=16, n_racks=2, nodes_per_rack=4)  # 8 < 16
    with pytest.raises(ValueError):
        ClusterConfig(n_nodes=16, n_racks=4, tor_gbps=0.0)
    with pytest.raises(ValueError):
        ClusterConfig(n_nodes=16, n_racks=4, oversubscription=0.5)


def test_rack_span():
    config = ClusterConfig(n_nodes=16, n_racks=4, nodes_per_rack=4,
                           n_pgs=32)
    cluster = Cluster(config)
    for pg in cluster.pgs:
        span = cluster.rack_span(pg)
        assert 4 <= span <= 4  # 14 nodes of 16 must touch all 4 racks
