"""Deterministic traffic schedules: who arrives when, asking for what.

A :class:`TrafficSchedule` is the fully materialised input of one
open-loop serving run: sorted arrival timestamps plus, per arrival, the
issuing tenant and the target object index.  Building one is pure
sampling — no simulation state — so a schedule is a function of
``(tenants, arrival rate, popularity, seed)`` alone and can be
rebuilt bit-for-bit in any worker process.

Seeding follows the runner's ``SeedSequence`` discipline: the root seed
spawns one child for the popularity permutation and one per tenant, so

* every tenant's stream is independent of how many other tenants exist
  (adding a tenant never perturbs another tenant's draws), and
* the merged schedule is byte-identical however the build is scheduled.

Ties in arrival time break by tenant position — stable, so the merge
itself is deterministic too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.popularity import ZipfPopularity
from repro.traffic.tenants import TenantSpec, validate_tenants


@dataclass(frozen=True)
class TrafficSchedule:
    """A merged open-loop arrival stream over one object population."""

    tenants: tuple[TenantSpec, ...]
    duration: float
    times: np.ndarray       # float64, sorted ascending
    tenant_ids: np.ndarray  # int64, index into ``tenants``
    object_ids: np.ndarray  # int64, index into the served object list

    @property
    def n_requests(self) -> int:
        return int(self.times.size)

    @property
    def offered_rate(self) -> float:
        """Realised arrivals per second over the horizon."""
        return self.n_requests / self.duration if self.duration else 0.0

    def per_tenant_counts(self) -> dict[str, int]:
        """Arrival counts keyed by tenant name."""
        counts = np.bincount(self.tenant_ids, minlength=len(self.tenants))
        return {t.name: int(counts[i]) for i, t in enumerate(self.tenants)}


def build_schedule(tenants: tuple[TenantSpec, ...], rate: float,
                   duration: float, n_objects: int, seed,
                   zipf_alpha: float = 0.9) -> TrafficSchedule:
    """Materialise the merged arrival stream for one serving run.

    ``seed`` is an int or a :class:`numpy.random.SeedSequence`; every
    stochastic choice below derives from it and nothing else.
    """
    validate_tenants(tenants)
    if rate <= 0:
        raise ValueError("arrival rate must be positive")
    if duration <= 0:
        raise ValueError("duration must be positive")
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    pop_ss, *tenant_ss = ss.spawn(1 + len(tenants))
    popularity = ZipfPopularity(n_objects, zipf_alpha,
                                np.random.default_rng(pop_ss))
    all_times: list[np.ndarray] = []
    all_tenants: list[np.ndarray] = []
    all_objects: list[np.ndarray] = []
    for i, tenant in enumerate(tenants):
        rng = np.random.default_rng(tenant_ss[i])
        times = PoissonArrivals(rate * tenant.share).times(rng, duration)
        all_times.append(times)
        all_tenants.append(np.full(times.size, i, dtype=np.int64))
        all_objects.append(popularity.sample(rng, times.size)
                           .astype(np.int64))
    times = np.concatenate(all_times)
    tenant_ids = np.concatenate(all_tenants)
    object_ids = np.concatenate(all_objects)
    # Stable merge: sort by (time, tenant position).
    order = np.lexsort((tenant_ids, times))
    return TrafficSchedule(tenants=tuple(tenants), duration=float(duration),
                           times=times[order], tenant_ids=tenant_ids[order],
                           object_ids=object_ids[order])
