"""Repair-profile tests: the codes → simulator bridge."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ProfileCache, RCStor
from repro.cluster.profiles import HelperRead, RepairProfile
from repro.codes import (
    ClayCode, HitchhikerCode, LocalRegeneratingCode, LRCCode, RSCode)
from repro.core import GeometricLayout

MB = 1 << 20


def test_rs_profile_reads_k_full_chunks():
    cache = ProfileCache(RSCode(10, 4))
    p = cache.get(0, 4 * MB)
    assert len(p.helpers) == 10
    assert all(h.nbytes == 4 * MB and h.n_ios == 1 for h in p.helpers)
    assert p.read_traffic_ratio == pytest.approx(10.0)


def test_clay_profile_traffic_and_fragmentation():
    cache = ProfileCache(ClayCode(10, 4))
    chunk = 256 * MB
    expectations = {0: 1, 5: 4, 10: 16, 13: 64}  # Figure 2 cases
    for failed, ios in expectations.items():
        p = cache.get(failed, chunk)
        assert len(p.helpers) == 13
        assert all(h.n_ios == ios for h in p.helpers)
        assert all(h.nbytes == chunk // 4 for h in p.helpers)
        assert p.read_traffic_ratio == pytest.approx(3.25)


def test_clay_profile_span_is_full_chunk_when_scattered():
    cache = ProfileCache(ClayCode(10, 4))
    p = cache.get(13, 256 * MB)  # worst case: 64 runs across the chunk
    h = p.helpers[0]
    assert h.span > h.nbytes
    # The scattered pattern spans (almost) the whole chunk.
    assert h.span > 0.9 * 256 * MB


def test_lrc_profile_locality():
    cache = ProfileCache(LRCCode(10, 2, 2))
    p = cache.get(0, 4 * MB)
    assert len(p.helpers) == 5  # group members only
    p_global = cache.get(13, 4 * MB)
    assert len(p_global.helpers) == 10


def test_hitchhiker_profile_half_reads():
    cache = ProfileCache(HitchhikerCode(10, 4))
    p = cache.get(0, 4 * MB)
    assert p.read_traffic_ratio == pytest.approx(6.5)
    by_role = {h.role: h for h in p.helpers}
    assert by_role[5].nbytes == 2 * MB  # non-group data node: half chunk


def test_profiles_cached():
    cache = ProfileCache(RSCode(10, 4))
    assert cache.get(3, MB) is cache.get(3, MB)


def test_chunk_rounding_to_alpha():
    cache = ProfileCache(ClayCode(10, 4))
    p = cache.get(0, 1000)  # not a multiple of alpha=256
    assert p.chunk_size == 1024
    tiny = cache.get(0, 1)
    assert tiny.chunk_size == 256


def test_scaled_profile():
    cache = ProfileCache(ClayCode(10, 4))
    p = cache.get(13, 256 * 1024)
    s = p.scaled(16)
    assert s.output_bytes == 16 * p.output_bytes
    assert s.helpers[0].n_ios == 16 * p.helpers[0].n_ios
    assert s.helpers[0].span == 16 * p.helpers[0].span
    assert p.scaled(1) is p
    with pytest.raises(ValueError):
        p.scaled(0)


@pytest.mark.parametrize("code, decode", [
    (RSCode(10, 4), True), (LRCCode(10, 2, 2), True),
    (ClayCode(10, 4), False), (HitchhikerCode(10, 4), False),
], ids=["RS", "LRC", "Clay", "HH"])
def test_profile_kind_follows_the_code(code, decode):
    """Scalar codes rebuild whole chunks (decode); vector codes regenerate
    from sub-chunks."""
    cache = ProfileCache(code)
    assert cache.decode is decode
    assert cache.get(0, 4 * MB).decode is decode
    assert cache.batch(0, [MB, 2 * MB]).decode is decode


def test_decode_fallback_reads_k_whole_chunks():
    system = RCStor(ClusterConfig(n_pgs=32), GeometricLayout(4 * MB),
                    ClayCode(10, 4))
    regenerating = system.profiles.get(0, 4 * MB)
    assert not regenerating.decode
    fallback = system._decode_fallback(regenerating, {1}, rotation=0)
    assert fallback.decode
    assert len(fallback.helpers) == 10
    assert all(h.n_ios == 1 and h.nbytes == h.span == 4 * MB
               for h in fallback.helpers)
    assert {h.role for h in fallback.helpers}.isdisjoint({0, 1})


@pytest.mark.parametrize("code", [RSCode(10, 4), LRCCode(10, 2, 2)],
                         ids=["RS", "LRC"])
def test_scaled_decode_profile_reads_each_helper_in_one_io(code):
    """Batched whole chunks are contiguous on disk."""
    p = ProfileCache(code).get(0, 256 * 1024)
    s = p.scaled(16)
    assert s.decode
    assert s.output_bytes == 16 * p.output_bytes
    assert [h.role for h in s.helpers] == [h.role for h in p.helpers]
    for h, one in zip(s.helpers, p.helpers):
        assert h.n_ios == 1
        assert h.nbytes == h.span == 16 * one.nbytes
    assert p.scaled(1) is p


# ----------------------------------------------------------------------
# Scaling oracle: a profile derived from the role's alpha-sized plan
# equals the one folded from the plan at the profile's own chunk size
# ----------------------------------------------------------------------
def _profile_from_plan(cache, failed_role, chunk_size):
    """The profile folded directly from ``repair_plan(role, rounded)``:
    the per-size path :meth:`ProfileCache.get` replaced."""
    rounded = cache._rounded_chunk(chunk_size)
    plan = cache.code.repair_plan(failed_role, rounded).coalesced()
    ios = plan.io_count_per_node()
    per_node = plan.read_bytes_per_node()
    spans = {}
    for node in per_node:
        segs = plan.segments_for_node(node)
        spans[node] = segs[-1].end - segs[0].offset
    helpers = tuple(HelperRead(node, ios[node], per_node[node], spans[node])
                    for node in sorted(per_node))
    return RepairProfile(failed_role, rounded, helpers, rounded, cache.decode)


SCALING_CODES = [RSCode(10, 4), LRCCode(10, 2, 2), ClayCode(10, 4),
                 ClayCode(4, 2), HitchhikerCode(10, 4),
                 LocalRegeneratingCode(10, 2, 2, 2)]


@pytest.mark.parametrize("code", SCALING_CODES, ids=lambda c: c.name)
def test_profile_scaling_equals_the_per_size_plan(code):
    """Exact only while every code plans whole sub-chunks: a code that
    plans part of a sub-chunk fails here instead of mis-timing repairs."""
    alpha = code.alpha
    rng = np.random.default_rng(code.n * 1000 + alpha)
    sizes = {1, alpha - 1, alpha, 7 * alpha + 1, 4096, 128 * 1024, 4 * MB,
             256 * MB}
    sizes.update(int(s) for s in rng.integers(1, 64 * MB, size=6))
    sizes = sorted(s for s in sizes if s >= 1)
    cache = ProfileCache(code)
    for role in range(code.n):
        for size in sizes:
            assert cache.get(role, size) == \
                _profile_from_plan(cache, role, size), (role, size)
