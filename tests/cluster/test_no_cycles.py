"""Every RCStor measurement is freed by reference counting alone.

A measurement's runtime (its environment, 96 disks with their queues,
and every request) is built and dropped once per measurement.  If any
part of it sits in a reference cycle, all of it lingers until the cyclic
collector happens to run, so memory grows with the collector's schedule
rather than with the work.  Each test runs one measurement with the
collector disabled and then requires a collection to find nothing from
``repro``.
"""

import gc
from contextlib import nullcontext

import pytest

from repro.cluster.qos import serve_open_loop
from repro.experiments.common import (
    build_system,
    cluster_config,
    sample_workload,
    setting_by_name,
)
from repro.experiments.traffic_frontier import busiest_disk
from repro.obs import Observer, observed
from repro.traffic import DEFAULT_TENANTS

N_OBJECTS = 40


@pytest.fixture(params=["unobserved", "observed"])
def scope(request):
    """Where a measurement runs: bare, or under a plain observer (metrics
    and span tracer), as the scenario runner runs every unit."""
    if request.param == "unobserved":
        return nullcontext()
    return observed(Observer())


def cyclic_garbage(measure, scope) -> list[str]:
    """Type names of the ``repro`` objects only the cyclic collector
    frees after ``measure()`` ran inside ``scope``."""
    gc.collect()
    gc.disable()
    try:
        with scope:
            measure()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = sorted({f"{type(o).__module__}.{type(o).__qualname__}"
                        for o in gc.garbage
                        if type(o).__module__.startswith("repro.")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return found


@pytest.fixture(scope="module", params=["RS", "Geo-4M"])
def served(request):
    ws = setting_by_name("W1")
    system = build_system(request.param, ws,
                          cluster_config(ws, N_OBJECTS, client_gbps=10.0))
    objects = system.ingest(sample_workload(ws, N_OBJECTS, 0))
    failed = busiest_disk(system)
    return system, objects, failed, system.degraded_read_candidates(failed)


def test_idle_recovery(served, scope):
    system, _, failed, _ = served
    assert cyclic_garbage(lambda: system.run_recovery(failed), scope) == []


def test_degraded_read(served, scope):
    system, _, failed, cands = served
    assert cyclic_garbage(
        lambda: system.measure_degraded_reads(cands[:2], failed),
        scope) == []


def test_normal_read(served, scope):
    system, _, _, cands = served
    assert cyclic_garbage(
        lambda: system.measure_normal_reads(cands[:2]), scope) == []


def test_busy_degraded_read(served, scope):
    """Foreground load processes are still running when the measurement
    ends; closing the environment must leave them free of cycles."""
    system, _, failed, cands = served
    assert cyclic_garbage(lambda: system.measure_degraded_reads(
        cands[:1], failed, busy=True, warmup=0.05), scope) == []


def test_hedged_open_loop(served, scope):
    """Hedged any-k reads interrupt their losing legs, and recovery
    subscribes to the fault injector's crash events."""
    system, objects, failed, cands = served
    degraded = [obj.object_id for obj in cands[:4]] * 3
    normal = [obj.object_id for obj in objects if obj not in cands][:3]
    object_ids = degraded + normal
    # Tenant 0 ("interactive") hedges; tenant 2 ("batch") does not.
    tenant_ids = [0] * len(degraded) + [2] * len(normal)
    times = [0.01 * i for i in range(len(object_ids))]

    def serve():
        report = serve_open_loop(
            system, objects, times, tenant_ids, object_ids,
            tuple((t.name, t.lane, t.hedge) for t in DEFAULT_TENANTS),
            failed_disk=failed, weight_limit=8, hedge_s=0.01, seed=15)
        assert report.hedges_fired > 0

    assert cyclic_garbage(serve, scope) == []
