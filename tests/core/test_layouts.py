"""Layout placement tests (Geometric / Contiguous / Stripe / Stripe-Max)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ContiguousLayout,
    GeometricLayout,
    StripeLayout,
    StripeMaxLayout,
)
from repro.core.layouts import REGENERATING_KIND, RS_KIND, PlacedChunk

MB = 1 << 20
KB = 1 << 10


# ----------------------------------------------------------------------
# PlacedChunk / ObjectPlacement invariants
# ----------------------------------------------------------------------
def test_placed_chunk_validation():
    with pytest.raises(ValueError):
        PlacedChunk(0, 4)
    with pytest.raises(ValueError):
        PlacedChunk(8, 4)  # stored < data
    with pytest.raises(ValueError):
        PlacedChunk(4, 4, code_kind="bogus")


def test_placement_byte_coverage_enforced():
    from repro.core import ObjectPlacement

    with pytest.raises(ValueError):
        ObjectPlacement("x", 10, [PlacedChunk(4, 4)])


# ----------------------------------------------------------------------
# Geometric layout
# ----------------------------------------------------------------------
def test_geometric_front_is_rs_coded():
    layout = GeometricLayout(4 * MB, 2)
    placement = layout.place(int(73.5 * MB))
    assert placement.chunks[0].code_kind == RS_KIND
    assert placement.chunks[0].data_bytes == int(1.5 * MB)
    assert all(c.code_kind == REGENERATING_KIND for c in placement.chunks[1:])


def test_geometric_no_read_amplification():
    layout = GeometricLayout(4 * MB, 2)
    for size in (5 * MB, 32 * MB, int(73.5 * MB), 999 * MB):
        assert layout.place(size).read_amplification == pytest.approx(1.0)


def test_geometric_single_disk():
    layout = GeometricLayout(4 * MB, 2)
    placement = layout.place(32 * MB)
    assert not layout.spans_disks
    assert all(c.disk_index == 0 for c in placement.chunks)


def test_geometric_name_labels():
    assert GeometricLayout(4 * MB, 2).name == "Geo-4M"
    assert GeometricLayout(128 * KB, 2).name == "Geo-128K"
    assert GeometricLayout(1 * MB, 3).name == "Geo-1M-q3"


def test_geometric_chunk_sizes_ascend():
    layout = GeometricLayout(1 * MB, 2)
    sizes = [c.stored_bytes for c in layout.place(100 * MB).chunks[1:]]
    assert sizes == sorted(sizes)


# ----------------------------------------------------------------------
# Contiguous layout
# ----------------------------------------------------------------------
def test_contiguous_aligned_object_exact():
    layout = ContiguousLayout(16 * MB)
    placement = layout.place(64 * MB, start_offset=0)
    assert placement.n_chunks == 4
    assert placement.read_amplification == pytest.approx(1.0)


def test_contiguous_small_object_amplifies():
    """A 1 MB object inside a 16 MB chunk repairs the whole chunk (§3.2)."""
    layout = ContiguousLayout(16 * MB)
    placement = layout.place(1 * MB, start_offset=3 * MB)
    assert placement.n_chunks == 1
    assert placement.repaired_bytes == 16 * MB
    assert placement.read_amplification == pytest.approx(16.0)


def test_contiguous_unaligned_object_spans_extra_chunk():
    layout = ContiguousLayout(16 * MB)
    placement = layout.place(16 * MB, start_offset=8 * MB)
    assert placement.n_chunks == 2
    assert placement.repaired_bytes == 32 * MB


def test_contiguous_chunk_data_bytes_sum():
    layout = ContiguousLayout(4 * MB)
    placement = layout.place(10 * MB, start_offset=1 * MB)
    assert sum(c.data_bytes for c in placement.chunks) == 10 * MB
    assert placement.chunks[0].data_bytes == 3 * MB


def test_contiguous_validation():
    with pytest.raises(ValueError):
        ContiguousLayout(0)
    with pytest.raises(ValueError):
        ContiguousLayout(4 * MB).place(0)


# ----------------------------------------------------------------------
# Stripe layouts
# ----------------------------------------------------------------------
def test_stripe_round_robin():
    layout = StripeLayout(256 * KB, k=10)
    placement = layout.place(5 * MB)
    assert layout.spans_disks
    assert placement.n_chunks == 20
    disks = [c.disk_index for c in placement.chunks]
    assert disks[:10] == list(range(10))


def test_stripe_only_failed_disk_strips_need_repair():
    layout = StripeLayout(256 * KB, k=10)
    placement = layout.place(5 * MB, failed_disk=3)
    needing = [c for c in placement.chunks if c.needs_repair]
    assert all(c.disk_index == 3 for c in needing)
    assert len(needing) == 2


def test_stripe_partial_last_strip():
    layout = StripeLayout(1 * MB, k=4)
    placement = layout.place(int(2.5 * MB))
    assert placement.chunks[-1].data_bytes == int(0.5 * MB)
    assert placement.read_amplification == pytest.approx(1.0)


def test_stripe_max_one_strip_per_disk():
    layout = StripeMaxLayout(k=10)
    placement = layout.place(100 * MB)
    assert placement.n_chunks == 10
    assert all(c.data_bytes == 10 * MB for c in placement.chunks)
    assert sum(c.needs_repair for c in placement.chunks) == 1


def test_stripe_max_uneven_size():
    layout = StripeMaxLayout(k=4)
    placement = layout.place(10)
    assert [c.data_bytes for c in placement.chunks] == [3, 3, 2, 2]


def test_stripe_max_tiny_object_skips_empty_strips():
    layout = StripeMaxLayout(k=10)
    placement = layout.place(3)
    assert placement.n_chunks == 3


def test_stripe_validation():
    with pytest.raises(ValueError):
        StripeLayout(0, 10)
    with pytest.raises(ValueError):
        StripeMaxLayout(0)
    with pytest.raises(ValueError):
        StripeMaxLayout(4).place(0)
    for layout in (StripeLayout(4, 3), StripeMaxLayout(3)):
        with pytest.raises(ValueError):
            layout.strip_runs(0)


def test_stripe_max_rotates_with_start_role():
    placement = StripeMaxLayout(k=4).place(10, failed_disk=0, start_role=2)
    assert [(c.disk_index, c.data_bytes) for c in placement.chunks] == \
        [(2, 3), (3, 3), (0, 2), (1, 2)]
    assert [c.needs_repair for c in placement.chunks] == \
        [False, False, True, False]


def _fold_per_disk(chunks):
    """``place()``'s chunks as ``(disk, bytes, count)`` runs: grouped per
    disk in first-visit order, equal consecutive sizes on a disk merged."""
    per_disk: dict[int, list[list[int]]] = {}
    for c in chunks:
        runs = per_disk.setdefault(c.disk_index, [])
        if runs and runs[-1][0] == c.data_bytes:
            runs[-1][1] += 1
        else:
            runs.append([c.data_bytes, 1])
    return [(disk, size, count) for disk, runs in per_disk.items()
            for size, count in runs]


@settings(max_examples=300, deadline=None)
@given(k=st.integers(min_value=1, max_value=12),
       strip=st.integers(min_value=1, max_value=64),
       size=st.integers(min_value=1, max_value=2000),
       start_role=st.integers(min_value=0, max_value=30))
def test_property_strip_runs_fold_place(k, strip, size, start_role):
    """``strip_runs`` is ``place()`` folded per disk, order included —
    tails, objects below one strip and fewer strips than k too."""
    for layout in (StripeLayout(strip, k), StripeMaxLayout(k)):
        chunks = layout.place(size, start_role=start_role).chunks
        runs = layout.strip_runs(size, start_role)
        assert runs == _fold_per_disk(chunks)
        assert sum(nbytes * count for _, nbytes, count in runs) == size


def test_strip_runs_full_strips_precede_the_tail():
    strip = 256 * KB
    layout = StripeLayout(strip, k=10)
    # 25 strips from disk 3: the first five disks get three, and the
    # fifth (disk 7) holds the 1 KiB tail as its third.
    runs = layout.strip_runs(24 * strip + KB, start_role=3)
    assert runs == [(3, strip, 3), (4, strip, 3), (5, strip, 3),
                    (6, strip, 3), (7, strip, 2), (7, KB, 1),
                    (8, strip, 2), (9, strip, 2), (0, strip, 2),
                    (1, strip, 2), (2, strip, 2)]
    # Below one strip: a single tail run on the start role.
    assert layout.strip_runs(KB, start_role=7) == [(7, KB, 1)]


# ----------------------------------------------------------------------
# Cross-layout properties
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=int(4e9)))
def test_property_all_layouts_cover_object(size):
    layouts = [
        GeometricLayout(4 * MB, 2),
        ContiguousLayout(16 * MB),
        StripeLayout(256 * KB, k=10),
        StripeMaxLayout(k=10),
    ]
    for layout in layouts:
        placement = layout.place(size)
        assert sum(c.data_bytes for c in placement.chunks) == size
        assert placement.read_amplification >= 1.0

