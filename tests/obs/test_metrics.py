"""Tests for the metrics registry: counters, gauges, histograms."""

from array import array
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, format_metric_name, metrics
from repro.obs.metrics import Counter, Gauge, Histogram


def test_counter_accumulates():
    c = Counter("n")
    c.inc()
    c.inc(41)
    assert c.value == 42


def test_gauge_time_weighted_mean():
    g = Gauge("depth")
    g.set(0, now=0.0)
    g.set(4, now=10.0)   # level 0 held for 10s
    g.set(0, now=15.0)   # level 4 held for 5s
    # Integral = 0*10 + 4*5 = 20 over 15s.
    assert g.mean() == pytest.approx(20 / 15)
    assert g.min == 0 and g.max == 4 and g.value == 0


def test_gauge_mean_extends_to_now():
    g = Gauge("depth")
    g.set(2, now=0.0)
    assert g.mean(now=10.0) == pytest.approx(2.0)


def test_gauge_single_sample_reports_that_sample():
    g = Gauge("util")
    g.set(0.75, now=3.0)
    assert g.mean() == pytest.approx(0.75)


def test_gauge_unsampled_is_zero():
    assert Gauge("x").mean() == 0.0


def test_histogram_exact_stats():
    h = Histogram("wait")
    for v in [1.0, 2.0, 3.0, 4.0]:
        h.observe(v)
    assert h.count == 4
    assert h.mean == pytest.approx(2.5)
    assert h.min == 1.0 and h.max == 4.0


def test_histogram_percentiles_small_sample():
    h = Histogram("wait")
    for v in range(1, 101):
        h.observe(float(v))
    p50, p95, p99 = h.percentiles()
    assert p50 == pytest.approx(50.5)
    assert p95 == pytest.approx(95.05)
    assert p99 == pytest.approx(99.01)


def test_histogram_reservoir_bounds_memory_and_stays_deterministic():
    def build():
        h = Histogram("wait", reservoir_size=64)
        for v in range(10_000):
            h.observe(float(v % 1000))
        return h

    a, b = build(), build()
    assert len(a._reservoir) == 64
    assert a.count == 10_000
    assert a.quantile(0.5) == b.quantile(0.5)  # deterministic replacement
    # The reservoir median of a uniform 0..999 stream lands mid-range.
    assert 250 < a.quantile(0.5) < 750


def test_histogram_quantile_validation():
    h = Histogram("wait")
    with pytest.raises(ValueError):
        h.quantile(1.5)
    assert h.quantile(0.5) == 0.0  # empty histogram


def test_empty_histogram_every_readout_is_zero():
    # Empty-data contract: 0.0 everywhere, never NaN or IndexError.
    h = Histogram("wait")
    assert h.percentiles() == (0.0, 0.0, 0.0)
    assert h.quantile(0.0) == 0.0 and h.quantile(1.0) == 0.0
    assert h.mean == 0.0


def test_registry_creates_and_reuses():
    reg = MetricsRegistry()
    a = reg.counter("reads", disk=3)
    b = reg.counter("reads", disk=3)
    assert a is b
    assert reg.counter("reads", disk=4) is not a
    assert len(reg) == 2


def test_registry_rejects_kind_conflicts():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_format_metric_name_sorts_labels():
    assert format_metric_name("m", {"b": 2, "a": 1}) == "m{a=1,b=2}"
    assert format_metric_name("m", {}) == "m"


def test_registry_get_returns_none_for_missing():
    reg = MetricsRegistry()
    assert reg.get("nope") is None


# ----------------------------------------------------------------------
# Replay oracle: observe_many equals observing each value in turn
# ----------------------------------------------------------------------
def hist_fields(h: Histogram) -> tuple:
    """Every field, floats by ``repr`` so that -0.0 differs from 0.0."""
    return (h.count, repr(h.total), repr(h.min), repr(h.max),
            [repr(value) for value in h._reservoir], h._state)


@st.composite
def seeded_values(draw, sizes):
    """Exponential values with a share of exact zeros, drawn from a seed:
    runs longer than a block, which a list strategy reaches too slowly."""
    n = draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.exponential(size=n)
    values[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    return values.tolist()


BLOCK = metrics._BLOCK
REPLAYED = st.one_of(
    st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
             max_size=40),
    st.lists(st.sampled_from([0.0, -0.0, 2.5]), max_size=40),
    seeded_values(st.one_of(
        st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]),
        st.integers(0, 3 * BLOCK))))


@settings(max_examples=150, deadline=None)
@given(capacity=st.sampled_from([1, 7, 4096]),
       fill=st.sampled_from(["empty", "partial", "full"]),
       extra=st.integers(0, 50),
       prime_seed=st.integers(0, 2**32 - 1),
       values=REPLAYED,
       container=st.sampled_from([list, partial(array, "d"), np.array]))
def test_observe_many_equals_observing_each_value(capacity, fill, extra,
                                                  prime_seed, values,
                                                  container):
    primed = {"empty": 0, "partial": min(extra, capacity - 1),
              "full": capacity + extra}[fill]
    prime = np.random.default_rng(prime_seed).exponential(size=primed)
    loop, many = Histogram("loop", capacity), Histogram("many", capacity)
    for hist in (loop, many):
        for value in prime.tolist():
            hist.observe(value)
    for value in values:
        loop.observe(value)
    many.observe_many(container(values))
    assert hist_fields(many) == hist_fields(loop)
