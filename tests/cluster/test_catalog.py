"""Catalog / directory-server placement tests."""

from collections import Counter

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.catalog import Catalog
from repro.core import (
    ContiguousLayout,
    GeometricLayout,
    StripeLayout,
    StripeMaxLayout,
)

KB = 1 << 10
MB = 1 << 20


@pytest.fixture
def cluster():
    return Cluster(ClusterConfig(n_pgs=32))


def geo_catalog(cluster, sizes):
    cat = Catalog(cluster, GeometricLayout(4 * MB, 2, max_chunk_size=256 * MB))
    cat.ingest(sizes)
    return cat


def test_ingest_assigns_objects(cluster):
    cat = geo_catalog(cluster, [10 * MB, 20 * MB, 30 * MB])
    assert len(cat.objects) == 3
    assert [o.object_id for o in cat.objects] == [0, 1, 2]
    for obj in cat.objects:
        assert obj.role is not None and 0 <= obj.role < 10


def test_total_bytes(cluster):
    cat = geo_catalog(cluster, [10 * MB, 30 * MB])
    assert cat.total_bytes == 40 * MB


def test_small_bucket_share(cluster):
    """Fronts (size mod s0) land in small-size-buckets."""
    cat = geo_catalog(cluster, [int(5.5 * MB), 3 * MB])
    # 5.5 MB -> front 1.5 MB; 3 MB object entirely in the small bucket.
    assert cat.small_bucket_bytes == int(1.5 * MB) + 3 * MB
    assert cat.small_bucket_share == pytest.approx((4.5 * MB) / (8.5 * MB))


def test_chunk_counts_match_partitioning(cluster):
    cat = geo_catalog(cluster, [32 * MB])
    obj = cat.objects[0]
    counter = cat.chunk_counts[(obj.pg_id, obj.role)]
    assert counter == {4 * MB: 2, 8 * MB: 1, 16 * MB: 1}


def test_balancing_prefers_least_filled_role(cluster):
    cat = geo_catalog(cluster, [100 * MB] * 40)
    # Objects in the same PG should spread across data roles.
    by_pg = {}
    for obj in cat.objects:
        by_pg.setdefault(obj.pg_id, []).append(obj.role)
    for roles in by_pg.values():
        assert len(set(roles)) == len(roles) or len(roles) > 10


def test_disk_of_and_objects_on_disk(cluster):
    cat = geo_catalog(cluster, [50 * MB] * 20)
    obj = cat.objects[0]
    disk = cat.disk_of(obj)
    assert obj in cat.objects_on_disk(disk)


def test_striped_objects_have_no_role(cluster):
    cat = Catalog(cluster, StripeLayout(256 * 1024, 10))
    cat.ingest([10 * MB])
    obj = cat.objects[0]
    assert obj.role is None
    assert cat.disk_of(obj) is None
    pg = cluster.pgs[obj.pg_id]
    assert obj in cat.objects_on_disk(pg.disk_ids[0])
    # Disk at a parity role does not make the object degraded.
    assert obj not in cat.objects_on_disk(pg.disk_ids[13])


def test_recovery_inventory_data_role(cluster):
    cat = geo_catalog(cluster, [32 * MB])
    obj = cat.objects[0]
    disk = cat.disk_of(obj)
    inventory = cat.recovery_inventory(disk)
    entries = [e for e in inventory if e[0].pg_id == obj.pg_id]
    assert len(entries) == 1
    _pg, role, chunks, _small = entries[0]
    assert role == obj.role
    assert chunks == {4 * MB: 2, 8 * MB: 1, 16 * MB: 1}


def test_recovery_inventory_bytes_conservation():
    """Summed over all disks, recovery inventories must cover ~1.4x the
    ingested data (parities included, estimation error small)."""
    cluster = Cluster(ClusterConfig(n_pgs=16))
    rng = np.random.default_rng(0)
    sizes = rng.integers(4 * MB, 200 * MB, size=300)
    cat = geo_catalog(cluster, sizes)
    total = 0
    for disk in range(cluster.config.n_disks):
        for _pg, _role, chunks, small in cat.recovery_inventory(disk):
            total += small + sum(s * c for s, c in chunks.items())
    expected = cat.total_bytes * 1.4
    assert total == pytest.approx(expected, rel=0.1)


def test_contiguous_inventory_from_fill():
    cluster = Cluster(ClusterConfig(n_pgs=4))
    cat = Catalog(cluster, ContiguousLayout(16 * MB))
    cat.ingest([10 * MB, 10 * MB, 10 * MB])  # may share chunks
    total_chunks = 0
    seen_pgs = set()
    for disk in range(cluster.config.n_disks):
        for pg, role, chunks, _small in cat.recovery_inventory(disk):
            if role < 10 and (pg.pg_id, role) not in seen_pgs:
                seen_pgs.add((pg.pg_id, role))
                total_chunks += sum(chunks.values())
    # 30 MB of data in 16 MB chunks: 2 chunks if packed together, up to 3
    # if spread over distinct buckets — never 6 (per-object double count).
    assert total_chunks <= 3


def test_average_chunk_size(cluster):
    cat = geo_catalog(cluster, [32 * MB])
    assert cat.average_chunk_size == pytest.approx(8 * MB)


def test_placement_of_striped_marks_failed_strips(cluster):
    cat = Catalog(cluster, StripeLayout(1 * MB, 10))
    cat.ingest([10 * MB])
    obj = cat.objects[0]
    placement = cat.placement_of(obj, failed_role=3)
    needing = [c for c in placement.chunks if c.needs_repair]
    assert all(c.disk_index == 3 for c in needing)


# ----------------------------------------------------------------------
# Striped ingest in closed form, and the per-disk candidate index
# ----------------------------------------------------------------------
#: Tails, objects below one strip, fewer strips than k, exact multiples
#: and many-strip objects, on few PGs so every (PG, role) sees many.
STRIPED_SIZES = [1, 100 * KB, 256 * KB, 512 * KB, 700 * KB, 2 * MB + 5,
                 2560 * KB, 10 * MB, 33 * MB + 3 * KB, 96 * KB,
                 *np.random.default_rng(5).integers(1, 64 * MB, size=40)]


def _per_strip_reference(cluster, layout, sizes):
    """The ingest loop the closed form replaced: one ``place()`` per
    object and one accounting step per strip."""
    k = cluster.config.k
    role_bytes: dict = {}
    chunk_counts: dict = {}
    for object_id, size in enumerate(sizes):
        pg = cluster.pgs[object_id % len(cluster.pgs)]
        if isinstance(layout, StripeLayout):
            placement = layout.place(int(size), start_role=object_id % k)
        else:
            placement = layout.place(int(size))
        for chunk in placement.chunks:
            key = (pg.pg_id, chunk.disk_index)
            role_bytes[key] = role_bytes.get(key, 0) + chunk.data_bytes
            counts = chunk_counts.setdefault(key, Counter())
            counts[chunk.stored_bytes] += 1
    return role_bytes, chunk_counts


@pytest.mark.parametrize("layout", [StripeLayout(256 * KB, 10),
                                    StripeLayout(32 * KB, 10),
                                    StripeMaxLayout(10)],
                         ids=lambda layout: layout.name)
def test_striped_ingest_equals_per_strip_reference(layout):
    """Same byte counts and histograms, and the same insertion order of
    every dict and Counter: recovery tasks are built by iterating them,
    and task order is event order."""
    cluster = Cluster(ClusterConfig(n_pgs=4))
    cat = Catalog(cluster, layout)
    cat.ingest(STRIPED_SIZES)
    role_bytes, chunk_counts = _per_strip_reference(cluster, layout,
                                                    STRIPED_SIZES)
    assert list(cat.role_bytes.items()) == list(role_bytes.items())
    assert list(cat.chunk_counts) == list(chunk_counts)
    for key, counts in chunk_counts.items():
        assert list(cat.chunk_counts[key].items()) == list(counts.items())
    assert cat.small_bytes == {}


def _disks_holding(cat, obj):
    if obj.role is not None:
        return {cat.disk_of(obj)}
    pg = cat.cluster.pgs[obj.pg_id]
    return {pg.disk_ids[c.disk_index] for c in cat.placement_of(obj).chunks}


@pytest.mark.parametrize("layout", [
    GeometricLayout(4 * MB, 2, max_chunk_size=256 * MB),
    ContiguousLayout(16 * MB),
    StripeLayout(256 * KB, 10),
    StripeMaxLayout(10),
], ids=lambda layout: layout.name)
def test_candidate_index_equals_brute_force_scan(layout):
    cluster = Cluster(ClusterConfig(n_pgs=8))
    cat = Catalog(cluster, layout)
    cat.ingest(STRIPED_SIZES)
    for disk in range(cluster.config.n_disks):
        expected = [obj for obj in cat.objects
                    if disk in _disks_holding(cat, obj)]
        assert cat.objects_on_disk(disk) == expected
