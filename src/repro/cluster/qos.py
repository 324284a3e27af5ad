"""Open-loop serving with tenant lanes, hedged reads, and recovery.

This is the bridge between :mod:`repro.traffic` (which *generates*
arrival schedules) and :class:`~repro.cluster.rcstor.RCStor` (which
*serves* individual reads): one simulated run where requests arrive on
the schedule's clock regardless of service progress, every request runs
in the disk-queue lane of its tenant, degraded reads may hedge, and a
disk recovery can grind away underneath the whole thing.

The dependency points one way — traffic imports cluster, never the
reverse — so tenants arrive here as plain ``(label, lane, hedge)``
tuples rather than :class:`~repro.traffic.TenantSpec` objects.

Everything the run records is deterministic: arrivals are pre-sampled,
the DES event order is a pure function of the schedule and seed, and the
per-tenant metrics use the labelled-histogram discipline of
:mod:`repro.obs` (handles hoisted out of the serving loop, OBS601).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.disk import BACKGROUND, FOREGROUND
from repro.cluster.rcstor import RCStor, RecoveryReport, _Runtime

#: Tenant lanes map directly onto the per-disk priority queues.
LANES = (FOREGROUND, BACKGROUND)


@dataclass
class OpenLoopReport:
    """Everything one open-loop serving run measured.

    Latencies are seconds, keyed by tenant label; ``degraded`` holds the
    subset of each tenant's requests that hit the failed disk (also
    present in ``latencies``).  ``recovery`` is ``None`` when the run had
    no failed disk.
    """

    latencies: dict[str, list[float]] = field(default_factory=dict)
    degraded: dict[str, list[float]] = field(default_factory=dict)
    hedges_fired: int = 0
    hedge_wins: int = 0
    n_requests: int = 0
    n_degraded: int = 0
    drain_time: float = 0.0         # sim seconds until the last read landed
    recovery: RecoveryReport | None = None


def serve_open_loop(system: RCStor, objects, times, tenant_ids, object_ids,
                    tenants, failed_disk: int | None = None,
                    weight_limit: int | None = None,
                    hedge_s: float | None = None,
                    recovery_priority: int = BACKGROUND,
                    seed: int = 0) -> OpenLoopReport:
    """Serve one pre-sampled arrival stream, open loop.

    ``times`` / ``tenant_ids`` / ``object_ids`` are the parallel arrays
    of a :class:`~repro.traffic.TrafficSchedule`; ``tenants`` is the
    matching tuple of ``(label, lane, hedge)`` triples.  Requests spawn
    at their scheduled instant whether or not earlier ones finished —
    queueing delay is real here, unlike the closed-loop measurement
    entry points.  With a ``failed_disk``, reads of objects that lost a
    chunk run the degraded path (hedged after ``hedge_s`` seconds for
    tenants that allow it) while §5.1 recovery proceeds under
    ``weight_limit``; the run ends when both the stream has drained and
    recovery has finished, and the report's recovery makespan covers
    recovery alone.
    """
    if not (len(times) == len(tenant_ids) == len(object_ids)):
        raise ValueError("times/tenant_ids/object_ids must be parallel")
    for _, lane, _ in tenants:
        if lane not in LANES:
            raise ValueError(f"unknown lane {lane}")
    rt = _Runtime(system.config, seed, system.obs,
                  label=f"{system.name}/open-loop")
    env = rt.env
    report = OpenLoopReport(
        latencies={label: [] for label, _, _ in tenants},
        degraded={label: [] for label, _, _ in tenants})

    degraded_ids: set[int] = set()
    recovery_done = meta = None
    recovery_end = [0.0]
    if failed_disk is not None:
        degraded_ids = {obj.object_id for obj
                        in system.degraded_read_candidates(failed_disk)}
        recovery_done, meta = system._start_recovery(
            rt, [failed_disk], priority=recovery_priority,
            weight_limit=weight_limit)

        def watch_recovery():
            yield recovery_done
            recovery_end[0] = env.now

        env.process(watch_recovery())

    # Per-tenant metric handles, hoisted out of the serving loop (OBS601).
    h_latency = h_degraded = c_requests = None
    if rt.obs is not None:
        metrics = rt.obs.metrics
        h_latency = {label: metrics.histogram("traffic.latency", tenant=label)
                     for label, _, _ in tenants}
        h_degraded = {label: metrics.histogram("traffic.degraded_latency",
                                               tenant=label)
                      for label, _, _ in tenants}
        c_requests = {label: metrics.counter("traffic.requests", tenant=label)
                      for label, _, _ in tenants}

    def serve_one(i: int):
        obj = objects[int(object_ids[i])]
        label, lane, hedge_ok = tenants[int(tenant_ids[i])]
        t0 = env.now
        is_degraded = failed_disk is not None \
            and obj.object_id in degraded_ids
        if is_degraded:
            result = yield from system._degraded_read(
                rt, obj, system.cluster.pgs[obj.pg_id].role_of(failed_disk),
                priority=lane, hedge_s=hedge_s if hedge_ok else None)
            report.hedges_fired += result.hedges_fired
            report.hedge_wins += result.hedge_wins
        else:
            yield env.process(system._normal_read_proc(
                rt, obj, rt.client(system.config.client_gbps), priority=lane))
        elapsed = env.now - t0
        report.latencies[label].append(elapsed)
        if is_degraded:
            report.degraded[label].append(elapsed)
            report.n_degraded += 1
        if h_latency is not None:
            c_requests[label].inc()
            h_latency[label].observe(elapsed)
            if is_degraded:
                h_degraded[label].observe(elapsed)
        rt.span("serve", f"lane-{lane}", t0, env.now, tenant=label,
                size=obj.size, degraded=is_degraded)

    def dispatcher():
        # Open loop: spawn each request at its scheduled instant and keep
        # going — then wait for every in-flight read to land so the grant
        # audit sees a quiescent cluster.
        in_flight = []
        for i in range(len(times)):
            delay = float(times[i]) - env.now
            if delay > 0:
                yield env.timeout(delay)
            in_flight.append(env.process(serve_one(i)))
        report.n_requests = len(in_flight)
        if in_flight:
            yield env.all_of(in_flight)

    drained = env.process(dispatcher())
    if recovery_done is not None:
        env.run(env.all_of([recovery_done, drained]))
    else:
        env.run(drained)
    report.drain_time = env.now
    if recovery_done is not None:
        report.recovery = system._finish_recovery(rt, meta, recovery_end[0])
    else:
        rt.finalize()
    return report
