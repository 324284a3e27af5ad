"""Open-loop arrival process: homogeneous Poisson arrivals.

The paper's "busy" experiments (§6.2) run a *closed* loop — 15 x 8 client
threads that each issue the next read when the previous one returns — so
offered load can never exceed service capacity and queueing delay is
invisible.  Serving real traffic is *open loop*: requests arrive on their
own clock whether or not the system has finished the previous ones, and
tail latency explodes as the arrival rate approaches saturation.
:class:`PoissonArrivals` generates such arrival streams.

The process is a pure function of the :class:`numpy.random.Generator`
it is handed: two generators seeded identically produce byte-identical
streams, which is what lets the scenario runner replay traffic schedules
bit-for-bit across ``--jobs`` values and cache hits.  It samples exactly
(a Poisson count over the horizon, then ordered uniforms) rather than
by summing exponentials, so generating a million-request hour is two
vectorized draws, not a Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PoissonArrivals:
    """Homogeneous Poisson arrivals at ``rate`` per second."""

    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("arrival rate must be positive")

    def times(self, rng: np.random.Generator, duration: float) -> np.ndarray:
        """Sorted arrival timestamps in ``[0, duration)``.

        Exact sampling: conditioned on the total count, the arrival times
        of a Poisson process are ordered uniforms over the horizon.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        n = int(rng.poisson(self.rate * duration))
        return np.sort(rng.uniform(0.0, duration, size=n))
