"""Arrival processes: exactness, purity in the seed, validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic import PoissonArrivals

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


@settings(max_examples=25, deadline=None)
@given(SEEDS, st.floats(min_value=0.5, max_value=200.0))
def test_poisson_stream_is_pure_function_of_seed(seed, rate):
    process = PoissonArrivals(rate)
    a = process.times(np.random.default_rng(seed), 10.0)
    b = process.times(np.random.default_rng(seed), 10.0)
    assert a.tobytes() == b.tobytes()


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_streams_are_sorted_and_inside_horizon(seed):
    times = PoissonArrivals(50.0).times(np.random.default_rng(seed), 4.0)
    assert np.all(np.diff(times) >= 0)
    if times.size:
        assert 0.0 <= times[0] and times[-1] < 4.0


def test_poisson_empirical_rate_matches():
    times = PoissonArrivals(100.0).times(np.random.default_rng(7), 50.0)
    assert times.size == pytest.approx(100.0 * 50.0, rel=0.1)


def test_validation_errors():
    with pytest.raises(ValueError):
        PoissonArrivals(0.0)
    with pytest.raises(ValueError):
        PoissonArrivals(5.0).times(np.random.default_rng(0), 0.0)
