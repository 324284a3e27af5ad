"""Counters, time-weighted gauges and streaming histograms.

A :class:`MetricsRegistry` is a flat namespace of named, optionally
labelled metrics.  The three metric kinds cover the quantities the
simulation cares about:

* :class:`Counter` — monotone event counts (events scheduled, bytes moved),
* :class:`Gauge` — a sampled level whose *time-weighted* mean is the
  meaningful summary (queue depth, units in use): each ``set(value, now)``
  closes the previous level's interval, so the mean is the integral of the
  level over time divided by the observation window,
* :class:`Histogram` — a streaming distribution with p50/p95/p99 read-outs
  (queue wait times).  Values are kept in a bounded reservoir (deterministic
  reservoir sampling, so replays reproduce identical percentiles).

Everything here is sim-time-agnostic: callers pass ``now`` explicitly, so
the same registry can aggregate over several :class:`~repro.sim.Environment`
instances (one per measurement).
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

_MASK64 = (1 << 64) - 1
#: The reservoir's LCG: ``state -> state * _LCG_MUL + _LCG_INC (mod 2**64)``.
_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
#: Values :meth:`Histogram.observe_many` handles per numpy pass.
_BLOCK = 4096


@cache
def _lcg_steps() -> tuple[np.ndarray, np.ndarray]:
    """``(a, c)`` with ``state_j = a[j-1] * state_0 + c[j-1]`` (wrapping
    uint64) for the LCG's ``j``-th step, ``j = 1.._BLOCK``."""
    a, c = [], []
    mul, inc = 1, 0
    for _ in range(_BLOCK):
        mul = mul * _LCG_MUL & _MASK64
        inc = (inc * _LCG_MUL + _LCG_INC) & _MASK64
        a.append(mul)
        c.append(inc)
    return np.array(a, dtype=np.uint64), np.array(c, dtype=np.uint64)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (default 1) to the count."""
        self.value += amount


class Gauge:
    """A level with min/max/last and a time-weighted mean."""

    __slots__ = ("name", "value", "min", "max",
                 "_integral", "_t_first", "_t_last")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._integral = 0.0
        self._t_first: float | None = None
        self._t_last = 0.0

    def set(self, value: float, now: float) -> None:
        """Record the level ``value`` holding from ``now`` onwards."""
        if self._t_first is None:
            self._t_first = now
        else:
            self._integral += self.value * (now - self._t_last)
        self._t_last = now
        self.value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def add(self, delta: float, now: float) -> None:
        """Shift the level by ``delta`` at time ``now``."""
        self.set(self.value + delta, now)

    def mean(self, now: float | None = None) -> float:
        """Time-weighted mean level over the observation window.

        The window runs from the first sample to the last one (or to
        ``now``, when given and later).  A gauge sampled exactly once
        reports that sample; a never-sampled gauge reports ``0.0`` —
        never NaN, so downstream math and JSON stay well-defined.
        """
        if self._t_first is None:
            return 0.0
        end = self._t_last if now is None else max(now, self._t_last)
        elapsed = end - self._t_first
        if elapsed <= 0:
            return self.value
        integral = self._integral + self.value * (end - self._t_last)
        return integral / elapsed


class Histogram:
    """A streaming distribution with percentile read-outs.

    Keeps exact ``count`` / ``total`` / ``min`` / ``max`` and a bounded
    reservoir for quantiles.  Reservoir replacement uses a fixed-seed LCG so
    two identical runs report identical percentiles.
    """

    __slots__ = ("name", "count", "total", "min", "max",
                 "_reservoir", "_capacity", "_state")

    def __init__(self, name: str, reservoir_size: int = 4096):
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be >= 1")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._reservoir: list[float] = []
        self._capacity = reservoir_size
        self._state = 0x9E3779B97F4A7C15

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._reservoir) < self._capacity:
            self._reservoir.append(value)
            return
        # Algorithm R with a deterministic 64-bit LCG.
        self._state = (self._state * _LCG_MUL + _LCG_INC) & _MASK64
        slot = self._state % self.count
        if slot < self._capacity:
            self._reservoir[slot] = value

    def observe_many(self, values) -> None:
        """Record finite float ``values`` in order, leaving the histogram
        exactly as ``observe`` called on each in turn would: the total is
        a left-to-right accumulate (the loop's rounding, which pairwise
        ``np.sum`` lacks), and Algorithm R's LCG states come in closed
        form.  Works in blocks of ``_BLOCK`` values, so memory stays flat
        however many values there are."""
        for start in range(0, len(values), _BLOCK):
            self._observe_block(
                np.asarray(values[start:start + _BLOCK], dtype=np.float64))

    def _observe_block(self, block: np.ndarray) -> None:
        sums = np.empty(len(block) + 1)
        sums[0] = self.total
        sums[1:] = block
        self.total = float(np.cumsum(sums)[-1])
        # The loop keeps the first value strictly below (above) the
        # running extreme: the first occurrence, as argmin (argmax) finds.
        low, high = block[np.argmin(block)], block[np.argmax(block)]
        if low < self.min:
            self.min = float(low)
        if high > self.max:
            self.max = float(high)
        reservoir = self._reservoir
        fill = block[:self._capacity - len(reservoir)]
        reservoir.extend(fill.tolist())
        self.count += len(fill)
        block = block[len(fill):]
        n = len(block)
        if not n:
            return
        # Algorithm R: each value's LCG state from the current one.
        mul, inc = _lcg_steps()
        states = mul[:n] * np.uint64(self._state) + inc[:n]
        slots = states % np.arange(self.count + 1, self.count + n + 1,
                                   dtype=np.uint64)
        hits = np.flatnonzero(slots < self._capacity)
        for slot, value in zip(slots[hits].tolist(), block[hits].tolist()):
            reservoir[slot] = value
        self._state = int(states[-1])
        self.count += n

    @property
    def mean(self) -> float:
        """Arithmetic mean of every observation (exact)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1) estimated from the reservoir.

        An empty histogram reports ``0.0`` for every quantile — never an
        IndexError or NaN — so timelines and summaries of metrics that saw
        no observations render as flat zero series.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    def percentiles(self) -> tuple[float, float, float]:
        """(p50, p95, p99); ``(0.0, 0.0, 0.0)`` for an empty histogram."""
        return self.quantile(0.50), self.quantile(0.95), self.quantile(0.99)


def format_metric_name(name: str, labels: dict) -> str:
    """Canonical ``name{k=v,...}`` key for a labelled metric."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """A namespace of metrics, created on first use and kept forever."""

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str, labels: dict):
        key = format_metric_name(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(key)
            self._metrics[key] = metric
        elif type(metric) is not cls:
            raise TypeError(f"metric {key!r} already registered as "
                            f"{type(metric).__name__}")
        return metric

    def counter(self, name: str, **labels) -> Counter:
        """The counter of the given name/labels (created if new)."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """The time-weighted gauge of the given name/labels."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        """The streaming histogram of the given name/labels."""
        return self._get(Histogram, name, labels)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(sorted(self._metrics.items()))

    def get(self, name: str, **labels):
        """Look up an existing metric (``None`` when absent)."""
        return self._metrics.get(format_metric_name(name, labels))
