"""Open-loop traffic generation with multi-tenant QoS.

The paper's closed-loop client threads (§6.2) cap offered load at
service capacity; this package generates *open-loop* arrival streams —
Poisson arrivals, Zipf object popularity — so the
latency-SLO-vs-recovery-speed frontier of each scheme becomes
measurable.  Everything is a pure function of a ``SeedSequence``-derived
generator, preserving the runner's bit-identity discipline.
"""

from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.popularity import ZipfPopularity
from repro.traffic.schedule import TrafficSchedule, build_schedule
from repro.traffic.tenants import BATCH_LANE, DEFAULT_TENANTS, \
    INTERACTIVE_LANE, SloSummary, TenantSpec, summarize_slo, validate_tenants

__all__ = [
    "PoissonArrivals",
    "ZipfPopularity",
    "TrafficSchedule",
    "build_schedule",
    "TenantSpec",
    "SloSummary",
    "summarize_slo",
    "validate_tenants",
    "DEFAULT_TENANTS",
    "INTERACTIVE_LANE",
    "BATCH_LANE",
]
