"""Traffic schedules: determinism, stable merge, SeedSequence discipline."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic import DEFAULT_TENANTS, TenantSpec, build_schedule

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


def schedule_bytes(schedule):
    return (schedule.times.tobytes() + schedule.tenant_ids.tobytes()
            + schedule.object_ids.tobytes())


@settings(max_examples=15, deadline=None)
@given(SEEDS)
def test_schedule_is_pure_function_of_seed(seed):
    a = build_schedule(DEFAULT_TENANTS, rate=40.0, duration=5.0,
                       n_objects=100, seed=seed)
    b = build_schedule(DEFAULT_TENANTS, rate=40.0, duration=5.0,
                       n_objects=100, seed=seed)
    assert schedule_bytes(a) == schedule_bytes(b)


@settings(max_examples=15, deadline=None)
@given(SEEDS)
def test_schedule_accepts_equivalent_seedsequence(seed):
    a = build_schedule(DEFAULT_TENANTS, rate=40.0, duration=5.0,
                       n_objects=100, seed=seed)
    b = build_schedule(DEFAULT_TENANTS, rate=40.0, duration=5.0,
                       n_objects=100, seed=np.random.SeedSequence(seed))
    assert schedule_bytes(a) == schedule_bytes(b)


def test_different_seeds_differ():
    a = build_schedule(DEFAULT_TENANTS, rate=40.0, duration=5.0,
                       n_objects=100, seed=0)
    b = build_schedule(DEFAULT_TENANTS, rate=40.0, duration=5.0,
                       n_objects=100, seed=1)
    assert schedule_bytes(a) != schedule_bytes(b)


def test_merge_is_sorted_with_valid_ids():
    s = build_schedule(DEFAULT_TENANTS, rate=120.0, duration=4.0,
                       n_objects=50, seed=9)
    assert np.all(np.diff(s.times) >= 0)
    assert s.tenant_ids.min() >= 0
    assert s.tenant_ids.max() < len(DEFAULT_TENANTS)
    assert s.object_ids.min() >= 0 and s.object_ids.max() < 50
    assert len(s.times) == len(s.tenant_ids) == len(s.object_ids)
    assert sum(s.per_tenant_counts().values()) == s.n_requests
    assert s.offered_rate == pytest.approx(s.n_requests / 4.0)


def test_tenant_shares_steer_per_tenant_volume():
    s = build_schedule(DEFAULT_TENANTS, rate=400.0, duration=10.0,
                       n_objects=100, seed=3)
    counts = s.per_tenant_counts()
    for spec in DEFAULT_TENANTS:
        assert counts[spec.name] == pytest.approx(
            400.0 * 10.0 * spec.share, rel=0.15)


def test_schedule_draws_are_pinned():
    """The exact arrays one small build draws: any change to the order or
    kind of a tenant's draws moves these digests."""
    s = build_schedule(DEFAULT_TENANTS, rate=40.0, duration=5.0,
                       n_objects=60, seed=5)
    digests = [hashlib.sha256(a.tobytes()).hexdigest()
               for a in (s.times, s.tenant_ids, s.object_ids)]
    assert s.n_requests == 199
    assert digests == [
        "6369d35453ed43fdada0844ac7eb911435d4aa44585be364c2d90129ae0d8dc2",
        "5070c58e546de3912452cc8e944b09eb692c8bfd564ca6f2de6a28ef2a3f3d1e",
        "5f00039b1332343ef896babe63b09db31310aba2de2d328b523ce1e3c547756f",
    ]


def test_build_schedule_validation():
    with pytest.raises(ValueError):
        build_schedule(DEFAULT_TENANTS, rate=0.0, duration=5.0,
                       n_objects=10, seed=0)
    with pytest.raises(ValueError):
        build_schedule(DEFAULT_TENANTS, rate=5.0, duration=0.0,
                       n_objects=10, seed=0)
    bad = (TenantSpec("a", share=0.5), TenantSpec("b", share=0.2))
    with pytest.raises(ValueError):
        build_schedule(bad, rate=5.0, duration=5.0, n_objects=10, seed=0)
