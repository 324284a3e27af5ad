"""Placement-policy tests: registry, flat_random invariants, rack_aware
span packing, copyset pool reuse, and the shared pick-to-disk step
against the per-PG loop it replaced."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig, get_policy, policy_names
from repro.cluster.placement import POLICIES, pg_disks

#: 32 nodes in 8 racks of 4 — the placement-matrix testbed shape.
TIERED = dict(n_nodes=32, n_racks=8, nodes_per_rack=4)


def tiered_config(policy: str, n_pgs: int = 64) -> ClusterConfig:
    return ClusterConfig(n_pgs=n_pgs, placement=policy, **TIERED)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_knows_all_policies():
    assert set(policy_names()) == {"flat_random", "rack_aware", "copyset"}
    for name in policy_names():
        assert get_policy(name).name == name


def test_unknown_policy_is_an_error():
    with pytest.raises(ValueError, match="flat_random"):
        get_policy("round_robin")
    with pytest.raises(ValueError):
        Cluster(ClusterConfig(placement="nope"))


# ----------------------------------------------------------------------
# Invariants every policy must honour
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_pgs_use_distinct_nodes(name):
    cluster = Cluster(tiered_config(name))
    config = cluster.config
    for pg in cluster.pgs:
        assert len(pg.disk_ids) == config.n
        assert len({config.node_of(d) for d in pg.disk_ids}) == config.n


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_roles_rotate(name):
    """Role rotation must survive every policy: a disk that appears in
    many PGs plays many roles (Clay's four repair cases need this)."""
    cluster = Cluster(tiered_config(name, n_pgs=256))
    by_disk: dict[int, set[int]] = {}
    for pg in cluster.pgs:
        for disk in pg.disk_ids:
            by_disk.setdefault(disk, set()).add(pg.role_of(disk))
    # Disks in >= 8 PGs must have been handed >= 4 distinct roles.
    for disk, roles in by_disk.items():
        if len(cluster.pgs_of_disk(disk)) >= 8:
            assert len(roles) >= 4


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_per_node_disk_load_spread(name):
    """Within any node, PG membership across its disks differs by <= 1
    (the least_loaded_disk guarantee)."""
    cluster = Cluster(tiered_config(name, n_pgs=128))
    config = cluster.config
    load = Counter()
    for pg in cluster.pgs:
        load.update(pg.disk_ids)
    for node in range(config.n_nodes):
        counts = [load[d] for d in range(node * config.disks_per_node,
                                         (node + 1) * config.disks_per_node)]
        assert max(counts) - min(counts) <= 1, f"node {node}: {counts}"


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_seeded_determinism(name):
    a = Cluster(tiered_config(name))
    b = Cluster(tiered_config(name))
    assert [pg.disk_ids for pg in a.pgs] == [pg.disk_ids for pg in b.pgs]
    c = Cluster(ClusterConfig(n_pgs=64, placement=name, pg_seed=9, **TIERED))
    assert [pg.disk_ids for pg in a.pgs] != [pg.disk_ids for pg in c.pgs]


# ----------------------------------------------------------------------
# flat_random: byte-compatible with the historical builder
# ----------------------------------------------------------------------
def test_flat_random_matches_default_cluster():
    """``flat_random`` IS the default builder — same rng stream, same
    PGs (the expected_all_300 fixture depends on this)."""
    explicit = Cluster(ClusterConfig(n_pgs=50, placement="flat_random"))
    default = Cluster(ClusterConfig(n_pgs=50))
    assert [pg.disk_ids for pg in explicit.pgs] \
        == [pg.disk_ids for pg in default.pgs]


# ----------------------------------------------------------------------
# rack_aware: minimal span under the per-rack cap
# ----------------------------------------------------------------------
def test_rack_aware_minimises_span():
    """On 8 racks of 4 nodes with k+r=14 and cap=max(r, ceil(n/racks))=4,
    every PG fits in exactly ceil(14/4)=4 racks; flat_random scatters
    over 5-8."""
    aware = Cluster(tiered_config("rack_aware", n_pgs=128))
    spans = {aware.rack_span(pg) for pg in aware.pgs}
    assert spans == {4}
    flat = Cluster(tiered_config("flat_random", n_pgs=128))
    flat_spans = [flat.rack_span(pg) for pg in flat.pgs]
    assert min(flat_spans) >= 5


def test_rack_aware_respects_per_rack_cap():
    cluster = Cluster(tiered_config("rack_aware", n_pgs=128))
    config = cluster.config
    cap = max(min(config.r, config.rack_size),
              -(-config.n // config.n_racks))
    for pg in cluster.pgs:
        racks = Counter(config.rack_of(config.node_of(d))
                        for d in pg.disk_ids)
        assert max(racks.values()) <= cap


def test_rack_aware_balances_rack_load():
    cluster = Cluster(tiered_config("rack_aware", n_pgs=160))
    config = cluster.config
    per_rack = Counter()
    for pg in cluster.pgs:
        for d in pg.disk_ids:
            per_rack[config.rack_of(config.node_of(d))] += 1
    counts = [per_rack[r] for r in range(config.n_racks)]
    assert max(counts) <= 1.3 * min(counts)


def test_rack_aware_needs_enough_capacity():
    # 16 nodes in 16 racks of 1, cap=1: a 14-wide stripe fits (one chunk
    # per rack) — but 8 racks of 1 node... can't even build the config.
    one_per_rack = ClusterConfig(n_nodes=16, n_racks=16, nodes_per_rack=1,
                                 placement="rack_aware", n_pgs=8)
    cluster = Cluster(one_per_rack)
    assert all(cluster.rack_span(pg) == 14 for pg in cluster.pgs)


# ----------------------------------------------------------------------
# copyset: PGs drawn from a small pool of node sets
# ----------------------------------------------------------------------
def test_copyset_reuses_a_small_pool():
    cluster = Cluster(tiered_config("copyset", n_pgs=128))
    config = cluster.config
    node_sets = {frozenset(config.node_of(d) for d in pg.disk_ids)
                 for pg in cluster.pgs}
    # 2 permutations of 32 nodes chopped into 14-wide sets -> 2*2=4 sets,
    # versus ~128 distinct sets for flat_random.
    assert len(node_sets) <= 4
    flat = Cluster(tiered_config("flat_random", n_pgs=128))
    flat_sets = {frozenset(config.node_of(d) for d in pg.disk_ids)
                 for pg in flat.pgs}
    assert len(flat_sets) > 100


def test_copyset_rejects_tiny_clusters():
    # 14 nodes yield 1 set per permutation — fine; the error needs
    # n_nodes < n which ClusterConfig already rejects, so exercise the
    # smallest legal cluster instead.
    cluster = Cluster(ClusterConfig(n_nodes=14, placement="copyset", n_pgs=8))
    assert len(cluster.pgs) == 8


# ----------------------------------------------------------------------
# The shared step against the per-PG loop it replaced
# ----------------------------------------------------------------------
def least_loaded_disk(config: ClusterConfig, node: int,
                      picks: list[int]) -> int:
    """The reference round robin: the node's pick count ``picks[node]``
    names its disk, and the pick is counted in."""
    count = picks[node]
    picks[node] = count + 1
    return node * config.disks_per_node + count % config.disks_per_node


def min_scan_pick(config: ClusterConfig, node: int, load: list[int]) -> int:
    """The reference pick: scan the node's disks for the least PG-loaded
    one, lowest id on ties, and account the pick into per-disk ``load``."""
    first = node * config.disks_per_node
    candidates = range(first, first + config.disks_per_node)
    best = min(candidates, key=lambda d: (load[d], d))
    load[best] += 1
    return best


def rotated(disks: list[int], pg_id: int, n: int) -> tuple[int, ...]:
    """The reference role rotation: shift the disk order by ``pg_id % n``."""
    rotation = pg_id % n
    return tuple(disks[rotation:] + disks[:rotation])


def pgs_by_loop(config: ClusterConfig, nodes: np.ndarray,
                pick=least_loaded_disk) -> list[tuple[int, ...]]:
    """Each PG's disks built one pick at a time from the policy's node
    picks, then rotated: the per-PG construction the shared numpy step
    replaced.  ``pick`` is :func:`least_loaded_disk` (per-node counts)
    or :func:`min_scan_pick` (per-disk loads)."""
    state = [0] * (config.n_nodes if pick is least_loaded_disk
                   else config.n_disks)
    return [rotated([pick(config, node, state) for node in row], p, config.n)
            for p, row in enumerate(nodes.tolist())]


def test_rotated_covers_all_phases():
    disks = list(range(14))
    assert rotated(disks, 0, 14) == tuple(disks)
    seen = {rotated(disks, pg, 14)[0] for pg in range(14)}
    assert seen == set(range(14))


def test_least_loaded_disk_prefers_cold_disks():
    config = ClusterConfig()
    load = Counter()
    first = least_loaded_disk(config, 3, load)
    assert config.node_of(first) == 3
    second = least_loaded_disk(config, 3, load)
    assert second != first  # the first pick is now warmer


@st.composite
def cluster_shapes(draw) -> ClusterConfig:
    k = draw(st.integers(1, 6))
    r = draw(st.integers(1, 4))
    n_nodes = draw(st.integers(k + r, 3 * (k + r)))
    n_racks = draw(st.integers(1, min(n_nodes, 6)))
    return ClusterConfig(
        n_nodes=n_nodes, disks_per_node=draw(st.integers(1, 7)), k=k, r=r,
        n_racks=n_racks, n_pgs=draw(st.integers(1, 80)),
        placement=draw(st.sampled_from(sorted(POLICIES))),
        pg_seed=draw(st.integers(0, 2**31 - 1)))


@settings(max_examples=60, deadline=None)
@given(config=cluster_shapes())
def test_round_robin_pick_equals_the_min_scan(config):
    """For every policy and shape, the shared step gives the PGs the
    per-PG loop gives: each node pick takes the node's least-loaded
    disk, one call at a time, and each row is then rotated.  The loop
    gives the same PGs whether it scans the node's loads or counts its
    picks round robin."""
    try:
        nodes = get_policy(config.placement).node_picks(config)
    except ValueError as exc:       # rack_aware: the stripe cannot fit
        assert config.placement == "rack_aware"
        assert "cannot place" in str(exc)
        return
    assert nodes.shape == (config.n_pgs, config.n)
    want = pgs_by_loop(config, nodes, min_scan_pick)
    assert pgs_by_loop(config, nodes) == want
    assert [tuple(row) for row in pg_disks(config).tolist()] == want
