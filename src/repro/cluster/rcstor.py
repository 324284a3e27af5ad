"""RCStor: the paper's storage system, as a discrete-event simulation.

One :class:`RCStor` instance couples a cluster shape, a data layout, and an
erasure code.  Ingesting a workload populates the catalog; the three
measurement entry points mirror the paper's evaluation:

* :meth:`measure_normal_reads` — §6.2 "Normal Reads",
* :meth:`measure_degraded_reads` — degraded read times, idle or busy,
* :meth:`run_recovery` — full-disk recovery with the weighted global task
  queue of §5.1, returning makespan and Table 3's bandwidth numbers.

Simulated time uses the disk/network/codec models; *which bytes* move is
dictated by the byte-exact repair plans of :mod:`repro.codes`.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, replace

import numpy as np

from repro.cluster.catalog import Catalog, StoredObject
from repro.cluster.codec import DEFAULT_CODEC
from repro.cluster.disk import (
    BACKGROUND,
    FOREGROUND,
    IO_CORRUPT,
    IO_FAILED,
    IO_OK,
    Disk,
)
from repro.cluster.foreground import (
    check_load,
    start_foreground_load,
    warm_up,
)
from repro.cluster.network import Fabric, Link, client_link
from repro.cluster.profiles import HelperRead, ProfileCache, RepairProfile
from repro.cluster.topology import Cluster, ClusterConfig, PlacementGroup
from repro.codes import RSCode
from repro.codes.base import ErasureCode
from repro.core.layouts import RS_KIND, Layout
from repro.faults import FaultInjector, FaultPlan
from repro.obs.observer import Observer, get_default_observer
from repro.sim import Environment, SimulationError

MB = 1 << 20

#: §5.1 "Paralleled Recovery": weight unit and per-server weight cap.
RECOVERY_WEIGHT_UNIT = 4 * MB
RECOVERY_GLOBAL_WEIGHT = 512
#: Fixed per-chunk-repair software cost: request fan-out, response
#: synchronisation, HTTP-server overhead ("I/O latency, synchronization,
#: software, etc." — §6.3 on W2 repair times).
REPAIR_RPC_OVERHEAD = 0.002

#: Fault-ladder bounds: how many times one repair retries before a recovery
#: task is requeued-or-abandoned, and before a degraded read stops arming
#: the hedge timeout and simply waits its helpers out.
MAX_REPAIR_ATTEMPTS = 5
MAX_HEDGED_ATTEMPTS = 3


@dataclass
class DegradedReadResult:
    """Timing breakdown of one degraded read (Figure 13's three bars).

    ``hedges_fired`` / ``hedge_wins`` count speculative backup read sets
    armed (and won) by the hedging race — both zero unless the read ran
    with a hedge timeout (:mod:`repro.cluster.qos`)."""

    total_time: float
    repair_time: float
    transfer_time: float
    object_size: int
    hedges_fired: int = 0
    hedge_wins: int = 0


@dataclass
class RecoveryReport:
    """Outcome of recovering one failed disk (Figure 9/10 y-axis, Table 3)."""

    makespan: float
    repaired_bytes: int
    n_tasks: int
    disk_bandwidth: float
    network_bandwidth: float
    # Fault-injection outcomes (all zero without a FaultPlan).
    tasks_requeued: int = 0
    tasks_escalated: int = 0
    tasks_abandoned: int = 0
    hedged_retries: int = 0
    # Rack-tier traffic (both zero on the flat single-rack fabric):
    # bytes serialised through ToR uplinks, and through the aggregation
    # link (= bytes that crossed racks).
    tor_bytes: int = 0
    cross_rack_bytes: int = 0

    @property
    def recovery_rate(self) -> float:
        """Bytes repaired per second of makespan."""
        return self.repaired_bytes / self.makespan if self.makespan else 0.0


@dataclass
class _RecoveryTask:
    pg: PlacementGroup
    profile: RepairProfile
    weight: int
    attempts: int = 0


class _Runtime:
    """Per-measurement simulation state (fresh env + resources).

    When an :class:`~repro.obs.Observer` is attached, the runtime registers
    itself as a trace *process* (its sim clock restarts at zero), wires the
    engine hooks, instruments every disk and NIC queue, and offers
    :meth:`span` for recording sim-time intervals on named tracks.
    """

    def __init__(self, config: ClusterConfig, seed: int,
                 obs: Observer | None = None, label: str = "run",
                 faults: FaultPlan | None = None):
        self.obs = obs
        self.label = label
        self.invariants = getattr(obs, "invariants", None)
        self.env = Environment(trace_hooks=obs)
        self.pid = obs.tracer.process(label) if obs is not None else 0
        # Telemetry is duck-typed off the observer: a timeline (if armed)
        # names this measurement's sample segment after the trace label.
        timeline = getattr(obs, "timeline", None)
        if timeline is not None:
            timeline.set_label(self.env, f"{self.pid}:{label}")
        self.run = run = str(self.pid) if obs is not None else None
        self.disks = [Disk(self.env, config.disk_model, i, obs=obs, run=run)
                      for i in range(config.n_disks)]
        self.fabric = Fabric(self.env, config, obs=obs, run=run)
        self.nics = self.fabric.nics
        self.rng = np.random.default_rng(seed)
        # "No plan" is an injector holding no events: it schedules nothing
        # and never touches a device, so the one helper-read step below
        # runs the same events with or without a plan.
        self.faults = FaultInjector(self.env, self.disks, self.nics,
                                    faults or FaultPlan(), obs=obs,
                                    links=self.fabric.links)
        if obs is not None:
            # Captures the tracer and pid, not ``self``: a runtime that
            # references itself would outlive its measurement until the
            # cyclic collector found it.
            tracer, pid = obs.tracer, self.pid
            self.faults.span_cb = (
                lambda name, start, end, **args: tracer.complete(
                    name, pid, tracer.track(pid, "faults"), start, end,
                    **args))

    def client(self, gbps: float) -> Link:
        """A fresh client edge link.

        Instrumented only on tiered fabrics: the flat-fabric metric
        snapshot is pinned byte-for-byte by the expected-results fixture,
        so client queue metrics may not appear there.
        """
        obs = self.obs if self.fabric.tiered else None
        return client_link(self.env, gbps, obs=obs, run=self.run)

    def span(self, name: str, track: str, start: float, end: float,
             **args) -> None:
        """Record a finished sim-time span on this runtime's timeline (a
        no-op without an observer)."""
        if self.obs is not None:
            tracer = self.obs.tracer
            tracer.complete(name, self.pid, tracer.track(self.pid, track),
                            start, end, **args)

    def finalize(self) -> None:
        """Fold end-of-measurement resource statistics into the metrics."""
        if self.invariants is not None:
            self.invariants.audit_env(self.env)
        # Audit first (a real leak must still be visible), then close all
        # remaining processes so their resource releases land here rather
        # than at garbage-collection time during a later measurement.
        self.env.close()
        self.faults.close()
        obs = self.obs
        if obs is None:
            return
        now = self.env.now
        run = f"{self.pid}:{self.label}"
        metrics = obs.metrics
        for disk in self.disks:
            metrics.gauge("disk.utilization", run=run, disk=disk.disk_id
                          ).set(disk.queue.utilization(), now)
        for node, nic in enumerate(self.nics):
            metrics.gauge("nic.utilization", run=run, node=node
                          ).set(nic.queue.utilization(), now)
        metrics.counter("disk.bytes_read", run=run).inc(
            sum(d.bytes_read for d in self.disks))
        metrics.counter("disk.bytes_written", run=run).inc(
            sum(d.bytes_written for d in self.disks))
        metrics.counter("nic.bytes_transferred", run=run).inc(
            sum(n.bytes_transferred for n in self.nics))
        if self.fabric.tiered:
            for rack, tor in enumerate(self.fabric.tors):
                metrics.gauge("tor.utilization", run=run, rack=rack
                              ).set(tor.queue.utilization(), now)
            metrics.gauge("agg.utilization", run=run
                          ).set(self.fabric.agg.queue.utilization(), now)
            metrics.counter("tor.bytes_transferred", run=run).inc(
                sum(t.bytes_transferred for t in self.fabric.tors))
            metrics.counter("agg.bytes_transferred", run=run).inc(
                self.fabric.agg.bytes_transferred)


class RCStor:
    """The storage system under one (layout, code) scheme."""

    def __init__(self, config: ClusterConfig, layout: Layout, code: ErasureCode,
                 ecpipe: bool = False, name: str | None = None,
                 obs: Observer | None = None):
        if code.k != config.k or code.r != config.r:
            raise ValueError(f"code {code.name} does not match cluster "
                             f"({config.k},{config.r})")
        self._obs = obs
        self.config = config
        self.cluster = Cluster(config)
        self.layout = layout
        self.code = code
        self.codec = DEFAULT_CODEC
        self.ecpipe = ecpipe
        self.name = name or f"{layout.name}/{code.name}"
        self.catalog = Catalog(self.cluster, layout)
        self.profiles = ProfileCache(code)
        # Repairs of Geometric layouts' RS-coded fronts.
        self.rs_profiles = ProfileCache(RSCode(config.k, config.r))

    @property
    def obs(self) -> Observer | None:
        """This system's observer: the one given at construction, else the
        context-scoped default (see :func:`repro.obs.observed`)."""
        return self._obs if self._obs is not None else get_default_observer()

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, sizes) -> list[StoredObject]:
        """Place a batch of objects into the catalog."""
        return self.catalog.ingest(sizes)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _start_foreground_load(self, rt: _Runtime) -> None:
        """Arm the closed-loop foreground load of a busy measurement."""
        start_foreground_load(
            rt.env, rt.disks, rt.rng,
            utilization=self.config.foreground_utilization,
            mean_read_bytes=self.config.foreground_read_bytes,
            invariants=rt.invariants)

    # ------------------------------------------------------------------
    # The helper-read step and its fault ladder (repro.faults)
    # ------------------------------------------------------------------
    def _fault_counter(self, rt: _Runtime, name: str) -> None:
        if rt.obs is not None:
            rt.obs.metrics.counter(name).inc()

    def _count_escalation(self, rt: _Runtime, meta: dict) -> None:
        meta["tasks_escalated"] += 1
        self._fault_counter(rt, "repair.tasks_escalated")

    @staticmethod
    def _failed_roles(pg: PlacementGroup, failed_disks,
                      failed_role: int | None = None) -> set[int]:
        """Roles of ``pg`` on failed disks, less the role being repaired."""
        roles = {pg.role_of(d) for d in failed_disks if d in pg}
        roles.discard(failed_role)
        return roles

    def _unrecoverable(self) -> SimulationError:
        return SimulationError("degraded read unrecoverable: more than "
                               f"r={self.config.r} failures in one PG")

    def _live_roles(self, profile: RepairProfile,
                    failed_roles: set[int]) -> list[int]:
        """Survivor roles: neither being repaired nor crashed."""
        return [r for r in range(self.config.n)
                if r != profile.failed_role and r not in failed_roles]

    def _repick_profile(self, profile: RepairProfile, failed_roles: set[int],
                        rotation: int) -> RepairProfile:
        """Re-target a profile's helper reads onto live survivor roles,
        rotated so retries don't re-hit the same straggler.

        With no failed roles this spreads RS-style any-k-of-n repairs
        across all survivors: the paper sends n requests and rebuilds from
        the first k responses (§6.1), so rotating the helper set over many
        recovery tasks balances load over every surviving disk.
        """
        survivors = self._live_roles(profile, failed_roles)
        start = rotation % len(survivors)
        chosen = [survivors[(start + i) % len(survivors)]
                  for i in range(len(profile.helpers))]
        helpers = tuple(HelperRead(role, h.n_ios, h.nbytes, h.span)
                        for role, h in zip(chosen, profile.helpers))
        return RepairProfile(profile.failed_role, profile.chunk_size,
                             helpers, profile.output_bytes, profile.decode)

    def _decode_fallback(self, profile: RepairProfile,
                         failed_roles: set[int], rotation: int,
                         inv=None) -> RepairProfile | None:
        """Bottom of the ladder: MDS decode from any k live full chunks.

        Returns ``None`` when fewer than k survivors remain — the data is
        genuinely lost (more than r concurrent failures).
        """
        k = self.config.k
        if len(self._live_roles(profile, failed_roles)) < k:
            return None
        nbytes = profile.output_bytes
        full_chunk = HelperRead(profile.failed_role, 1, nbytes, nbytes)
        decode = self._repick_profile(
            RepairProfile(profile.failed_role, nbytes, (full_chunk,) * k,
                          nbytes, decode=True), failed_roles, rotation)
        if inv is not None:
            inv.check_decode_profile(decode, k)
        return decode

    def _fallback_profile(self, profile: RepairProfile,
                          failed_roles: set[int], rotation: int, inv=None
                          ) -> RepairProfile | None:
        """One rung down the ladder for a profile with dead helpers.

        While enough survivors remain for the current plan shape, helpers
        are re-picked onto live roles (sound for any-k MDS reads, and for a
        regenerating profile whose d-survivor set is intact).  A
        regenerating profile that lost a helper is below its repair
        threshold and falls to full RS-style decode.  Returns ``None``
        when unrecoverable.
        """
        survivors = self._live_roles(profile, failed_roles)
        if len(survivors) >= len(profile.helpers):
            return self._repick_profile(profile, failed_roles, rotation)
        return self._decode_fallback(profile, failed_roles, rotation, inv)

    @staticmethod
    def _spawn_reads(rt: _Runtime, pg: PlacementGroup, helpers,
                     priority: int) -> list:
        """Start one disk-read process per helper."""
        return [rt.env.process(rt.disks[pg.disk_ids[h.role]].read(
            h.n_ios, h.nbytes, priority, span=h.span)) for h in helpers]

    @staticmethod
    def _wait_legs(env: Environment, legs: list, deadline: float | None):
        """Sub-generator: wait until every leg lands or ``deadline``
        seconds pass (``None``: no deadline).  Returns the legs' ``AllOf``
        event, triggered only if every leg landed."""
        all_done = env.all_of(legs)
        if deadline is None:
            yield all_done
        else:
            yield env.any_of([all_done, env.timeout(deadline)])
        return all_done

    @staticmethod
    def _cancel(legs: list, cause: str) -> None:
        """Interrupt the legs still in flight, which cancels their queued
        disk requests rather than leaking the grants."""
        for leg in legs:
            if not leg.triggered:
                leg.interrupt(cause)

    def _read_helpers(self, rt: _Runtime, pg: PlacementGroup,
                      profile: RepairProfile, priority: int,
                      hedge_s: float | None, stats: dict,
                      failed_disks: set[int] | None = None,
                      attempts: int = 0):
        """Sub-generator: the helper-read step of every repair.

        Issues the profile's helper reads and drives them down the fault
        ladder until a full read set lands: dead helpers re-pick (or
        escalate to RS decode below the regenerating threshold), timeouts
        rotate the helper set — and after two, force a regenerating read
        to the decode fallback — and corrupt reads retry.  Each attempt is
        a hedge race when ``hedge_s`` is set (:meth:`_fanout_race` for a
        decode, :meth:`_decode_race` for a regenerating read), else a
        timeout retry that arms the plan's ``helper_timeout`` (``None``
        without one) for the first :data:`MAX_HEDGED_ATTEMPTS` attempts.

        ``stats`` counts ``hedged_retries``, ``hedges_fired`` and
        ``hedge_wins``.  Degraded reads watch the injector's crashed disks
        and raise when the PG is lost.  Recovery tasks pass the run's
        ``failed_disks`` and their ``attempts`` so far; ``stats`` is then
        the run's meta, escalations count too, and the task is abandoned
        (profile ``None``) when lost or after :data:`MAX_REPAIR_ATTEMPTS`.
        Returns ``(profile, attempts)`` for the read set that landed, so
        gather volume and codec step follow it.
        """
        env = rt.env
        recovering = failed_disks is not None
        if not recovering:
            failed_disks = rt.faults.failed_disks
        rotation = attempts + 1
        while True:
            failed_roles = self._failed_roles(pg, failed_disks,
                                              profile.failed_role)
            if any(h.role in failed_roles for h in profile.helpers):
                was_decode = profile.decode
                profile = self._fallback_profile(
                    profile, failed_roles, rotation, rt.invariants)
                rotation += 1
                if profile is None:
                    if recovering:
                        return None, attempts
                    raise self._unrecoverable()
                if recovering and profile.decode and not was_decode:
                    self._count_escalation(rt, stats)
            legs = self._spawn_reads(rt, pg, profile.helpers, priority)
            if hedge_s is not None and profile.decode:
                used = {h.role for h in profile.helpers}
                shape = profile.helpers[0]
                spares = [HelperRead(r, shape.n_ios, shape.nbytes, shape.span)
                          for r in self._live_roles(profile, failed_roles)
                          if r not in used]
                statuses = yield from self._fanout_race(
                    rt, pg, legs, spares, priority, hedge_s, stats)
            elif hedge_s is not None:
                profile, statuses = yield from self._decode_race(
                    rt, pg, profile, legs, failed_roles, rotation, priority,
                    hedge_s, stats)
            else:
                timeout = (rt.faults.helper_timeout
                           if attempts < MAX_HEDGED_ATTEMPTS else None)
                all_done = yield from self._wait_legs(env, legs, timeout)
                statuses = all_done.value if all_done.triggered else None
                self._cancel(legs, "helper-timeout")
            if statuses is not None and IO_FAILED not in statuses \
                    and IO_CORRUPT not in statuses:
                return profile, attempts
            attempts += 1
            if recovering and attempts >= MAX_REPAIR_ATTEMPTS:
                return None, attempts
            if statuses is None:
                stats["hedged_retries"] += 1
                self._fault_counter(rt, "repair.hedged_retries")
                rotation += 1
                # Disks may have crashed while the helper reads were in
                # flight; the snapshot from the top of the loop is stale.
                failed_roles = self._failed_roles(pg, failed_disks,
                                                  profile.failed_role)
                if profile.decode:
                    profile = self._repick_profile(profile, failed_roles,
                                                   rotation)
                elif attempts >= 2:
                    decode = self._decode_fallback(profile, failed_roles,
                                                   rotation, rt.invariants)
                    if decode is not None:
                        profile = decode
                        if recovering:
                            self._count_escalation(rt, stats)
            else:
                status = "failed" if IO_FAILED in statuses else "corrupt"
                self._fault_counter(rt, f"repair.{status}_reads")

    def _fanout_race(self, rt: _Runtime, pg: PlacementGroup, primary: list,
                     spares: list, priority: int, hedge_s: float | None,
                     stats: dict):
        """Sub-generator: hedge race of an any-k MDS read (``hedge_s``
        ``None``: no race, the ``primary`` legs are waited out).

        If the ``primary`` legs are still in flight after ``hedge_s``,
        legs fan out on the ``spares`` reads and the first
        ``len(primary)`` responses of the widened set win: every MDS leg
        delivers an equally useful strip, so the slowest primary leg no
        longer gates the read.  Losers are cancelled.  Returns the
        statuses of the legs that landed.
        """
        env = rt.env
        all_done = yield from self._wait_legs(env, primary, hedge_s)
        if all_done.triggered:
            return all_done.value
        if not spares:
            return (yield all_done)
        stats["hedges_fired"] += 1
        legs = primary + self._spawn_reads(rt, pg, spares, priority)
        need = len(primary)
        while sum(1 for leg in legs if leg.triggered) < need:
            yield env.any_of([leg for leg in legs if not leg.triggered])
        if not all(leg.triggered for leg in primary):
            stats["hedge_wins"] += 1
        statuses = [leg.value for leg in legs if leg.triggered]
        self._cancel(legs, "hedge-loser")
        return statuses

    def _decode_race(self, rt: _Runtime, pg: PlacementGroup,
                     profile: RepairProfile, legs: list,
                     failed_roles: set[int], rotation: int, priority: int,
                     hedge_s: float, stats: dict):
        """Sub-generator: hedge race of a regenerating read.

        A regenerating profile already reads all d = n-1 survivors, so no
        spare legs exist: after ``hedge_s`` the hedge races a full
        RS-style decode read set instead — structurally expensive, which
        is exactly the regenerating trade-off.  The losing set is
        cancelled.  Returns ``(profile, statuses)`` of the read set that
        landed first.
        """
        env = rt.env
        all_done = yield from self._wait_legs(env, legs, hedge_s)
        if all_done.triggered:
            return profile, all_done.value
        # The ladder only races a profile whose d helpers are all live, so
        # at least k survivors remain for the decode set.
        fallback = self._decode_fallback(profile, failed_roles, rotation,
                                         rt.invariants)
        stats["hedges_fired"] += 1
        backup = self._spawn_reads(rt, pg, fallback.helpers, priority)
        backup_done = env.all_of(backup)
        yield env.any_of([all_done, backup_done])
        if all_done.triggered:
            self._cancel(backup, "hedge-loser")
            return profile, all_done.value
        self._cancel(legs, "hedge-loser")
        stats["hedge_wins"] += 1
        return fallback, backup_done.value

    def _repair_tail(self, rt: _Runtime, track: str, t_read: float,
                     server_node: int, nbytes: int, sources,
                     profile: RepairProfile, gather: bool = True,
                     **span_args):
        """Sub-generator: what every repair does once its helper reads
        landed — gather ``nbytes`` at ``server_node`` (``gather=False``
        for ECPipe's pipelined degraded reads), then decode or regenerate
        ``profile``'s output, by its kind, and locate."""
        env = rt.env
        rt.span("helper_reads", track, t_read, env.now, **span_args,
                nbytes=nbytes)
        if gather:
            t_gather = env.now
            yield env.process(rt.fabric.gather(server_node, nbytes, sources))
            rt.span("gather", track, t_gather, env.now, **span_args,
                    nbytes=nbytes)
        output_bytes = profile.output_bytes
        codec_time = (self.codec.decode_time(output_bytes) if profile.decode
                      else self.codec.regenerate_time(output_bytes))
        rpc = REPAIR_RPC_OVERHEAD
        yield env.timeout(codec_time + rpc)
        now = env.now
        rt.span("decode", track, now - rpc - codec_time, now - rpc,
                **span_args, nbytes=output_bytes)
        rt.span("locate", track, now - rpc, now, **span_args)

    # ------------------------------------------------------------------
    # Normal reads
    # ------------------------------------------------------------------
    def _normal_read_proc(self, rt: _Runtime, obj: StoredObject, client: Link,
                          priority: int = FOREGROUND):
        """Read an intact object: disk fetch(es) overlapped with transfer."""
        env = rt.env
        started = env.event()
        if self.layout.spans_disks:
            # One read per data role, spawned (so scheduled) in the order
            # the strips first reach each role.
            disk_ids = self.cluster.pgs[obj.pg_id].disk_ids
            per_role: Counter[int] = Counter()
            for role, nbytes, count in self.catalog.strip_runs(obj):
                per_role[role] += nbytes * count
            reads = [env.process(self._batch_read(
                rt.disks[disk_ids[role]], 1, nbytes, started, priority))
                for role, nbytes in per_role.items()]
        else:
            disk = rt.disks[self.catalog.disk_of(obj)]
            n_chunks = self.catalog.placement_of(obj).n_chunks
            reads = [env.process(self._batch_read(
                disk, max(1, n_chunks), obj.size, started, priority))]

        def transfer_proc():
            yield started
            yield env.timeout(REPAIR_RPC_OVERHEAD)
            yield env.process(client.transfer(obj.size))

        xfer = env.process(transfer_proc())
        yield env.all_of(reads + [xfer])

    def _batch_read(self, disk: Disk, n_ios: int, nbytes: int, started,
                    priority: int = FOREGROUND):
        req = disk.queue.request(priority)
        yield req
        if not started.triggered:
            started.succeed()
        try:
            yield disk.env.timeout(disk.model.read_time(n_ios, nbytes))
        finally:
            disk.queue.release(req)
        disk.bytes_read += nbytes
        disk.n_read_ios += n_ios

    def measure_normal_reads(self, objects: list[StoredObject]) -> list[float]:
        """Simulate normal reads on the idle system; returns per-read
        seconds."""
        rt = _Runtime(self.config, 0, self.obs,
                      label=f"{self.name}/normal-reads")
        times: list[float] = []

        def driver():
            for obj in objects:
                client = rt.client(self.config.client_gbps)
                t0 = rt.env.now
                yield rt.env.process(self._normal_read_proc(rt, obj, client))
                times.append(rt.env.now - t0)
                rt.span("normal_read", "reads", t0, rt.env.now,
                        size=obj.size)

        rt.env.run(rt.env.process(driver()))
        rt.finalize()
        return times

    # ------------------------------------------------------------------
    # Degraded reads
    # ------------------------------------------------------------------
    @staticmethod
    def _overlaps(chunks, byte_range):
        """Per chunk: bytes of it inside ``byte_range`` (object data bytes).

        With no range, every chunk transfers all of its data.  Range reads
        start at the first related chunk and discard unneeded bytes (§5.2
        "Range Access Support").
        """
        if byte_range is None:
            return [c.data_bytes for c in chunks]
        start, length = byte_range
        end = start + length
        out = []
        pos = 0
        for chunk in chunks:
            lo = max(pos, start)
            hi = min(pos + chunk.data_bytes, end)
            out.append(max(0, hi - lo))
            pos += chunk.data_bytes
        return out

    def _gather_node(self, rt: _Runtime, pg: PlacementGroup,
                     node: int) -> int:
        """Where a repair's helper bytes funnel.

        On the flat fabric this is ``node`` itself — the paper's design,
        where any HTTP server reconstructs and rack locality does not
        exist.  On tiered fabrics the gather is mapped onto one of the
        stripe's member nodes (locality-aware repair placement): the
        reconstruction worker runs where part of the stripe already
        lives, so packing policies keep helper traffic behind the
        stripe's own ToRs.  The mapping consumes no extra randomness.
        """
        if not rt.fabric.tiered:
            return node
        node_of = self.config.node_of
        members = sorted({node_of(d) for d in pg.disk_ids})
        return members[node % len(members)]

    def _helper_sources(self, pg: PlacementGroup, profile: RepairProfile):
        """Per-helper ``(node, nbytes)`` gather legs (a flat fabric's
        :meth:`~repro.cluster.network.Fabric.gather` ignores them)."""
        node_of = self.config.node_of
        return [(node_of(pg.disk_ids[h.role]), h.nbytes)
                for h in profile.helpers]

    def _degraded_read(self, rt: _Runtime, obj: StoredObject,
                       failed_role: int | None,
                       byte_range: tuple[int, int] | None = None,
                       priority: int = FOREGROUND,
                       hedge_s: float | None = None):
        """Sub-generator: one degraded read over a fresh client link;
        returns its :class:`DegradedReadResult`.

        Its process runs the layout's plan (:meth:`_single_disk_plan`,
        :meth:`_striped_plan`): a repair body, overlapped with the client
        transfer of the plan's parts (Figure 8).  The process books the
        repair phase: its time, the hedge counts and the ``repair`` span.
        ``failed_role`` matters only to striped layouts (others lose the
        object's chunk); ``priority`` is the helper reads' disk-queue lane
        (tenant lanes, :mod:`repro.cluster.qos`); ``hedge_s`` arms each
        repair's hedge race.
        """
        env = rt.env
        result = DegradedReadResult(0.0, 0.0, 0.0, obj.size)
        client = rt.client(self.config.client_gbps)
        plan = (self._striped_plan if self.layout.spans_disks
                else self._single_disk_plan)

        def degraded_proc():
            pg = self.cluster.pgs[obj.pg_id]
            role = failed_role if obj.role is None else obj.role
            placed = self.catalog.placement_of(obj, role).chunks
            overlaps = self._overlaps(placed, byte_range)
            # Drawn once this process runs, not when it is spawned: busy
            # foreground readers draw from the same generator in between.
            server_node = self._gather_node(
                rt, pg, int(rt.rng.integers(self.config.n_nodes)))
            stats = Counter()
            repair, parts, span_args = plan(
                rt, pg, role, placed, overlaps, server_node, priority,
                hedge_s, stats)

            def repair_proc():
                t0 = env.now
                yield from repair
                result.repair_time = env.now - t0
                result.hedges_fired += stats["hedges_fired"]
                result.hedge_wins += stats["hedge_wins"]
                rt.span("repair", "repair", t0, env.now, **span_args)

            env.process(repair_proc())
            yield env.process(self._transfer(rt, client, result, parts))

        t0 = env.now
        yield env.process(degraded_proc())
        result.total_time = env.now - t0
        return result

    def _repair_step(self, rt: _Runtime, pg: PlacementGroup,
                     profile: RepairProfile, server_node: int,
                     priority: int, hedge_s: float | None, stats: dict,
                     **span_args):
        """Sub-generator: one degraded-read repair — the helper-read step,
        then :meth:`_repair_tail` on the read set that landed."""
        t_read = rt.env.now
        profile, _ = yield from self._read_helpers(
            rt, pg, profile, priority, hedge_s, stats)
        yield from self._repair_tail(
            rt, "repair", t_read, server_node, profile.total_read_bytes,
            self._helper_sources(pg, profile), profile, not self.ecpipe,
            **span_args)

    @staticmethod
    def _transfer(rt: _Runtime, client: Link, result: DegradedReadResult,
                  parts):
        """Process: stream a degraded read to the client, consuming
        ``parts`` lazily as ``(index, nbytes, gate)``; a part waits on its
        gate event (``None``: it goes at once), so one part's transfer
        overlaps the next part's repair (Figure 8)."""
        env = rt.env
        t_busy = 0.0
        for i, nbytes, gate in parts:
            if gate is not None:
                yield gate
            t0 = env.now
            yield env.process(client.transfer(nbytes))
            t_busy += env.now - t0
            rt.span("transfer", "transfer", t0, env.now,
                    chunk=i, nbytes=nbytes)
        result.transfer_time = t_busy

    def _single_disk_plan(self, rt: _Runtime, pg: PlacementGroup,
                          failed_role: int, placed, overlaps: list[int],
                          server_node: int, priority: int,
                          hedge_s: float | None, stats: dict):
        """Geometric / Contiguous: repair the ``placed`` chunks that the
        read ``overlaps`` in order, each part gated on its chunk's repair.
        Returns ``(repair body, parts, span args)``."""
        env = rt.env
        chunks = [(c, n) for c, n in zip(placed, overlaps) if n > 0]
        ready = [env.event() for _ in chunks]

        def repair():
            for i, (chunk, overlap) in enumerate(chunks):
                rs_front = chunk.code_kind == RS_KIND
                # RS-coded fronts repair at byte granularity; regenerating
                # chunks must repair the whole chunk and discard.
                size = overlap if rs_front else chunk.stored_bytes
                cache = self.rs_profiles if rs_front else self.profiles
                yield from self._repair_step(
                    rt, pg, cache.get(failed_role, size, rt.invariants),
                    server_node, priority, hedge_s, stats, chunk=i)
                ready[i].succeed()

        parts = ((i, overlap, ready[i])
                 for i, (_, overlap) in enumerate(chunks))
        return repair(), parts, {"chunks": len(chunks)}

    def _striped_plan(self, rt: _Runtime, pg: PlacementGroup,
                      failed_role: int, placed, overlaps: list[int],
                      server_node: int, priority: int,
                      hedge_s: float | None, stats: dict):
        """Stripe / Stripe-Max: fetch the surviving strips in parallel and
        repair the failed disk's strips (§6.1's n-requests-first-k-responses
        rebuild); parts go in strip order.  Returns as
        :meth:`_single_disk_plan`."""
        env = rt.env
        scalar = self.profiles.decode
        range_has_missing = any(
            n > 0 and c.needs_repair for c, n in zip(placed, overlaps))
        chunks = [(c, n) for c, n in zip(placed, overlaps)
                  if n > 0 or (c.needs_repair is False and scalar
                               and range_has_missing)]

        per_role: Counter[int] = Counter()
        for chunk, overlap in chunks:
            if not chunk.needs_repair:
                # Scalar row rebuild needs the *whole* surviving strips, not
                # just the requested overlap (Table 4: Stripe reads the full
                # object for a degraded range read).
                per_role[chunk.disk_index] += (
                    chunk.data_bytes if scalar and range_has_missing
                    else overlap)
        available_done = dict(zip(per_role, self._spawn_reads(
            rt, pg, [HelperRead(role, 1, nbytes, nbytes)
                     for role, nbytes in per_role.items()], priority)))

        missing = [c for c, n in chunks if c.needs_repair and n > 0]
        missing_bytes = sum(c.stored_bytes for c in missing)
        repaired = env.event()

        def repair():
            if missing and scalar:
                t_read = env.now
                row = RepairProfile(failed_role, missing_bytes, (),
                                    missing_bytes, decode=True)
                sources = yield from self._scalar_row_reads(
                    rt, pg, row, per_role, available_done, priority,
                    hedge_s, stats)
                yield from self._repair_tail(
                    rt, "repair", t_read, server_node, missing_bytes,
                    sources, row, not self.ecpipe)
            elif missing:
                # Regenerating code: the missing strips' sub-chunk reads as
                # one batched profile, so the ladder can re-pick / escalate
                # / hedge it whole.
                yield from self._repair_step(
                    rt, pg, self.profiles.batch(
                        failed_role, [c.stored_bytes for c in missing],
                        rt.invariants),
                    server_node, priority, hedge_s, stats)
            repaired.succeed()

        def gate(chunk):
            if chunk.needs_repair:
                return repaired
            # A surviving strip waits on its read only while it runs.
            read = available_done[chunk.disk_index]
            return None if read.triggered else read

        parts = ((i, overlap, gate(chunk))
                 for i, (chunk, overlap) in enumerate(chunks) if overlap)
        return repair(), parts, {"missing_bytes": missing_bytes}

    def _scalar_row_reads(self, rt: _Runtime, pg: PlacementGroup,
                          row: RepairProfile, per_role: dict[int, int],
                          available_done: dict, priority: int,
                          hedge_s: float | None, stats: dict):
        """Sub-generator: the helper reads of ``row``, the decode of a
        scalar row rebuild's missing strips.

        The surviving strips are already being fetched for the client
        transfer (``available_done``); the rebuild adds the parity strips
        covering the failed disk's share.  With ``hedge_s`` the set races
        a fan-out on the spare roles (:meth:`_fanout_race`).  A strip read
        that hit a crashed disk or corruption falls to MDS row decode from
        any k live strips.  Returns the gather legs: the surviving strips
        plus the row-parity strip, hauled to the repair server.
        """
        k = self.config.k
        failed_role, missing_bytes = row.failed_role, row.output_bytes
        parity = [k]
        if not self.code.is_mds:
            # LRC: needs k+1 responses (§6.1) — one more read.
            parity.append(k + self.code.group_of(failed_role))
        primary = list(available_done.values()) + self._spawn_reads(
            rt, pg, [HelperRead(r, 1, missing_bytes, missing_bytes)
                     for r in parity], priority)
        used = set(per_role).union(parity)
        spares = [HelperRead(r, 1, missing_bytes, missing_bytes)
                  for r in range(self.config.n)
                  if r != failed_role and r not in used]
        statuses = yield from self._fanout_race(
            rt, pg, primary, spares, priority, hedge_s, stats)
        if any(s != IO_OK for s in statuses):
            decode = self._decode_fallback(
                row, self._failed_roles(pg, rt.faults.failed_disks,
                                        failed_role), 1, rt.invariants)
            if decode is None:
                raise self._unrecoverable()
            yield from self._read_helpers(rt, pg, decode, priority, None,
                                          stats)
        node_of = self.config.node_of
        return [(node_of(pg.disk_ids[role]), nbytes)
                for role, nbytes in [*per_role.items(), (k, missing_bytes)]]

    def degraded_read_candidates(self, failed_disk: int) -> list[StoredObject]:
        """Objects rendered (partially) unavailable by a disk failure."""
        return self.catalog.objects_on_disk(failed_disk)

    def _degraded_reads(self, rt: _Runtime, objects: list[StoredObject],
                        failed_disk: int | None,
                        ranges: list[tuple[int, int]] | None = None,
                        h_latency=None, c_reads=None):
        """Sub-generator: degraded reads of ``objects``, one at a time;
        returns their results.

        A single-disk layout always loses the object's own chunk.  A
        striped one fails the role of ``failed_disk``; with
        ``failed_disk=None`` it fails the first strip a ranged read
        overlaps, else rotates over the data roles.  ``h_latency`` /
        ``c_reads`` are pre-bound timeline handles (OBS601), or ``None``.
        """
        env = rt.env
        striped = self.layout.spans_disks
        results = []
        for idx, obj in enumerate(objects):
            byte_range = ranges[idx] if ranges is not None else None
            failed_role = idx % self.config.k
            if striped and failed_disk is not None:
                failed_role = self.cluster.pgs[obj.pg_id].role_of(failed_disk)
            elif striped and byte_range is not None:
                # A ranged read is only degraded if it touches the failed
                # strip: fail the first strip it overlaps.
                probe = self.catalog.placement_of(obj, 0)
                overlaps = self._overlaps(probe.chunks, byte_range)
                failed_role = next((c.disk_index for c, n in
                                    zip(probe.chunks, overlaps) if n > 0),
                                   failed_role)
            t0 = env.now
            result = yield from self._degraded_read(rt, obj, failed_role,
                                                    byte_range)
            results.append(result)
            if h_latency is not None:
                c_reads.inc()
                h_latency.observe(result.total_time)
            rt.span("degraded_read", "degraded-reads", t0, env.now,
                    size=obj.size, repair_s=result.repair_time,
                    transfer_s=result.transfer_time)
        return results

    def measure_degraded_reads(self, objects: list[StoredObject],
                               failed_disk: int | None,
                               busy: bool = False, seed: int = 0,
                               warmup: float = 2.0,
                               ranges: list[tuple[int, int]] | None = None,
                               faults: FaultPlan | None = None,
                               ) -> list[DegradedReadResult]:
        """Sequentially measure degraded reads of the given unavailable
        objects (optionally under foreground load).

        ``failed_disk=None`` fails each object's *own* disk (rotating over
        the data roles of its PG for striped layouts) — at paper scale a
        single failed disk holds objects of every size, and this sampling
        mode reproduces that coverage in scaled-down populations.

        ``ranges`` (optional, one ``(offset, length)`` per object) measures
        ranged degraded reads instead of whole-object reads (§5.2).

        ``faults`` (optional) replays a :class:`~repro.faults.FaultPlan`
        during the measurement; helper reads then run the fault ladder
        (hedged retry on timeout, re-pick / decode on crashes).
        """
        if ranges is not None and len(ranges) != len(objects):
            raise ValueError("need one byte range per object")
        if busy:  # before the runtime registers a trace process
            check_load(self.config.foreground_utilization,
                       self.config.foreground_read_bytes, warmup)
        rt = _Runtime(self.config, seed, self.obs,
                      label=f"{self.name}/degraded-reads", faults=faults)
        # Timeline telemetry: handles hoisted out of the driver generator
        # (OBS601) and gated on an armed timeline so plain snapshots are
        # unchanged.
        h_latency = c_reads = None
        if getattr(rt.obs, "timeline", None) is not None:
            h_latency = rt.obs.metrics.histogram("degraded.read_latency")
            c_reads = rt.obs.metrics.counter("degraded.reads_completed")

        def driver(warmed=None):
            if busy:
                yield rt.env.timeout(warmup) if warmed is None else warmed
            return (yield from self._degraded_reads(
                rt, objects, failed_disk, ranges, h_latency, c_reads))

        if busy:
            main = warm_up(rt.env, rt.disks, rt.rng, warmup, driver,
                           utilization=self.config.foreground_utilization,
                           mean_read_bytes=self.config.foreground_read_bytes,
                           obs=rt.obs)
        else:
            main = rt.env.process(driver())
        results = rt.env.run(main)
        rt.finalize()
        return results

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _build_recovery_tasks(self, failed_disk: int,
                              inv=None) -> list[_RecoveryTask]:
        """Chunk-granularity recovery tasks, weighted by size (§5.1).

        Small chunks are batched toward 4 MB requests — the paper's
        explicit optimization for the striped baselines, which coalesces
        scalar-code reads into sequential I/O but leaves regenerating-code
        sub-chunk reads scattered ("the underlying data layout remains
        unchanged").
        """
        tasks: list[_RecoveryTask] = []
        unit = RECOVERY_WEIGHT_UNIT
        batch_target = 4 * MB
        rotation = 0
        for pg, role, chunks, small in self.catalog.recovery_inventory(failed_disk):
            for size, count in sorted(chunks.items()):
                per_batch = max(1, batch_target // size)
                for done in range(0, count, per_batch):
                    m = min(per_batch, count - done)
                    profile = self.profiles.get(role, size).scaled(m)
                    if profile.decode and self.code.is_mds:
                        # Spread any-k-of-n repairs over all survivors.
                        profile = self._repick_profile(profile, set(),
                                                       rotation)
                        rotation += 1
                    if inv is not None:
                        inv.check_repair_profile(self.code, profile)
                    weight = max(1, round(profile.output_bytes / unit))
                    tasks.append(_RecoveryTask(pg, profile, weight))
            # RS-coded small-size-bucket, recovered in ~4 MB pieces.
            for done in range(0, small, batch_target):
                piece = min(batch_target, small - done)
                profile = self._repick_profile(
                    self.rs_profiles.get(role, piece), set(), rotation)
                rotation += 1
                if inv is not None:
                    inv.check_repair_profile(self.rs_profiles.code, profile)
                weight = max(1, round(piece / unit))
                tasks.append(_RecoveryTask(pg, profile, weight))
        return tasks

    def _finish_recovery(self, rt: _Runtime, meta: dict,
                         makespan: float) -> RecoveryReport:
        """Common tail of every recovery entry point: task-conservation
        check, runtime finalization, and the report."""
        if rt.invariants is not None:
            rt.invariants.check_task_conservation(meta)
        rt.finalize()
        total_disk_bytes = sum(d.total_bytes for d in rt.disks)
        total_nic_bytes = sum(nic.bytes_transferred for nic in rt.nics)
        return RecoveryReport(
            makespan=makespan,
            repaired_bytes=meta["repaired_bytes"],
            n_tasks=meta["n_tasks"],
            disk_bandwidth=(total_disk_bytes / makespan / self.config.n_disks
                            if makespan else 0.0),
            network_bandwidth=(total_nic_bytes / makespan / self.config.n_nodes
                               if makespan else 0.0),
            tasks_requeued=meta["tasks_requeued"],
            tasks_escalated=meta["tasks_escalated"],
            tasks_abandoned=meta["tasks_abandoned"],
            hedged_retries=meta["hedged_retries"],
            tor_bytes=sum(t.bytes_transferred for t in rt.fabric.tors),
            cross_rack_bytes=(rt.fabric.agg.bytes_transferred
                              if rt.fabric.agg is not None else 0),
        )

    def run_multi_failure_recovery(self, failed_disks: list[int],
                                   seed: int = 0,
                                   faults: FaultPlan | None = None
                                   ) -> RecoveryReport:
        """Recover several concurrently failed disks.

        PGs that lost one disk recover with the optimal single-failure
        plans; tasks of PGs that lost several take one fault-ladder step
        (:meth:`_replan`), down to decode from k whole chunks for a
        regenerating code (the dominant-cost case the paper notes is rare
        — >98% of failures are single).
        """
        failed = set(failed_disks)
        if len(failed) < 1:
            raise ValueError("need at least one failed disk")
        if len(failed) > self.config.r:
            raise ValueError(f"more than r={self.config.r} concurrent "
                             "failures cannot be guaranteed recoverable")
        return self._recover(failed_disks, "multi-failure-recovery", seed,
                             faults)

    def _recover(self, failed_disks, label: str, seed: int,
                 faults: FaultPlan | None, busy: bool = False,
                 weight_limit: int | None = None) -> RecoveryReport:
        """One recovery run in a fresh runtime named ``label``: the body
        of every recovery entry point."""
        rt = _Runtime(self.config, seed, self.obs,
                      label=f"{self.name}/{label}", faults=faults)
        if busy:
            self._start_foreground_load(rt)
        done, meta = self._start_recovery(rt, failed_disks,
                                          weight_limit=weight_limit)
        start = rt.env.now
        rt.env.run(done)
        return self._finish_recovery(rt, meta, rt.env.now - start)

    def _replan(self, rt: _Runtime, task: _RecoveryTask, failed_disks,
                rotation: int) -> _RecoveryTask:
        """One fault-ladder step for a queued recovery task: ``task`` as is
        while its helpers are live or its PG is lost (the runner then
        abandons it), else on :meth:`_fallback_profile`'s next rung —
        helpers re-picked by ``rotation``, or decode from k whole chunks."""
        failed_roles = self._failed_roles(task.pg, failed_disks,
                                          task.profile.failed_role)
        if not any(h.role in failed_roles for h in task.profile.helpers):
            return task
        profile = self._fallback_profile(task.profile, failed_roles, rotation,
                                         rt.invariants)
        if profile is None:
            return task
        return replace(task, profile=profile)

    def _run_task(self, rt: _Runtime, task: _RecoveryTask, server_node: int,
                  priority: int, failed_disks: set[int], pick_replacement,
                  meta):
        """Process: one recovery task — helper reads, gather, decode, and
        the write to a replacement disk.

        Returns ``("done", None)``, ``("requeue", task)`` — the
        replacement write hit a freshly crashed disk, so the task goes
        back to the global queue and a new replacement is picked — or
        ``("abandon", None)`` when the PG lost more than r chunks or the
        task keeps failing past :data:`MAX_REPAIR_ATTEMPTS`.
        """
        env = rt.env
        track = f"server-{server_node}"
        t_task = env.now
        profile, attempts = yield from self._read_helpers(
            rt, task.pg, task.profile, priority, None, meta, failed_disks,
            task.attempts)
        if profile is None:
            return ("abandon", None)
        yield from self._repair_tail(
            rt, track, t_task, self._gather_node(rt, task.pg, server_node),
            profile.total_read_bytes,
            self._helper_sources(task.pg, profile), profile)
        dest = pick_replacement(task.pg)
        t_write = env.now
        wstatus = yield env.process(dest.write(1, profile.output_bytes,
                                               priority))
        if wstatus != IO_OK:
            self._fault_counter(rt, "repair.failed_writes")
            if attempts + 1 >= MAX_REPAIR_ATTEMPTS:
                return ("abandon", None)
            return ("requeue", _RecoveryTask(task.pg, profile, task.weight,
                                             attempts + 1))
        rt.span("write", track, t_write, env.now,
                nbytes=profile.output_bytes, disk=dest.disk_id)
        rt.span("recovery_task", track, t_task, env.now,
                weight=task.weight, nbytes=profile.output_bytes)
        return ("done", None)

    def _plan_recovery(self, rt: _Runtime, failed_disks) -> deque:
        """The initial recovery queue: each failed disk's single-failure
        plans, in the given order.  With several failed disks every task
        then takes one :meth:`_replan` step, so a PG that lost several
        chunks is planned as a mid-recovery crash would re-plan it (not
        counted as an escalation).  A repeated disk counts once; a disk
        outside the cluster raises :class:`ValueError`."""
        order = list(dict.fromkeys(failed_disks))
        for disk in order:
            if not 0 <= disk < self.config.n_disks:
                raise ValueError(f"disk {disk} out of range")
        tasks = [task for disk in order
                 for task in self._build_recovery_tasks(disk, rt.invariants)]
        if len(order) > 1:
            tasks = [self._replan(rt, task, order, i + 1)
                     for i, task in enumerate(tasks)]
        return deque(tasks)

    def _start_recovery(self, rt: _Runtime, failed_disks,
                        priority: int = BACKGROUND,
                        weight_limit: int | None = None):
        """Arm the §5.1 recovery engine in an existing runtime: a queue of
        recovery tasks for ``failed_disks`` driven through the HTTP
        servers.  Returns ``(all_servers_done_event, meta)`` where meta
        carries the task count and repaired byte total.

        The queue is :meth:`_plan_recovery`'s.  Each task runs
        :meth:`_run_task`.  A disk crash from the runtime's fault injector
        re-plans affected queued tasks in place (escalations count), and
        completed weight drives the injector's progress-triggered events.
        Without a fault plan the injector holds no events, so neither ever
        happens.
        """
        tasks = self._plan_recovery(rt, failed_disks)
        failed_disks = set(failed_disks)
        env = rt.env
        faults = rt.faults
        meta = {"n_tasks": len(tasks),
                "repaired_bytes": sum(t.profile.output_bytes for t in tasks),
                "tasks_completed": 0, "tasks_requeued": 0,
                "tasks_abandoned": 0, "tasks_escalated": 0,
                "hedged_retries": 0}
        limit = (weight_limit if weight_limit is not None
                 else RECOVERY_GLOBAL_WEIGHT)
        # Timeline telemetry: handles hoisted out of the server loops (the
        # OBS601 lint forbids registry lookups in there) and gated on an
        # armed timeline, so plain runs register no extra metrics and their
        # snapshots stay byte-identical.
        c_tasks = c_bytes = None
        if getattr(rt.obs, "timeline", None) is not None:
            c_tasks = rt.obs.metrics.counter("recovery.tasks_completed")
            c_bytes = rt.obs.metrics.counter("recovery.bytes_repaired")
        flightrec = getattr(rt.obs, "flightrec", None)
        replacement_rr = [0]

        def pick_replacement(pg: PlacementGroup) -> Disk:
            n_disks = self.config.n_disks
            while True:
                cand = replacement_rr[0] % n_disks
                replacement_rr[0] += 1
                if cand not in failed_disks and cand not in pg:
                    return rt.disks[cand]

        total_weight = sum(t.weight for t in tasks) or 1
        done_weight = [0]
        failed_disks |= faults.failed_disks

        def on_crash(disk_id: int) -> None:
            # Second failure mid-recovery: affected queued tasks take one
            # ladder step; running tasks handle it inline.
            failed_disks.add(disk_id)
            for i in range(len(tasks)):
                task = tasks[i]
                if disk_id in task.pg:
                    tasks[i] = self._replan(rt, task, failed_disks, i + 1)
                    if tasks[i].profile.decode and not task.profile.decode:
                        self._count_escalation(rt, meta)

        faults.on_disk_failure(on_crash)

        def server_loop(server_node: int):
            weight_used = [0]
            wake = [env.event()]

            def run_one(task: _RecoveryTask):
                status, requeued = yield env.process(self._run_task(
                    rt, task, server_node, priority, failed_disks,
                    pick_replacement, meta))
                if status == "done":
                    meta["tasks_completed"] += 1
                    if c_tasks is not None:
                        c_tasks.inc()
                        c_bytes.inc(task.profile.output_bytes)
                    done_weight[0] += task.weight
                elif status == "requeue":
                    meta["tasks_requeued"] += 1
                    self._fault_counter(rt, "repair.tasks_requeued")
                    # Requeue before releasing weight: this server is still
                    # alive to re-check the queue, so the task cannot be
                    # stranded after every other server has exited.
                    tasks.append(requeued)
                else:
                    meta["tasks_abandoned"] += 1
                    meta["repaired_bytes"] -= task.profile.output_bytes
                    self._fault_counter(rt, "repair.tasks_abandoned")
                    if flightrec is not None:
                        flightrec.incident(
                            "repair_task_abandoned", sim_time=env.now,
                            server_node=server_node, weight=task.weight,
                            attempts=task.attempts,
                            nbytes=task.profile.output_bytes)
                    done_weight[0] += task.weight
                if faults.has_progress_events:
                    faults.notify_progress(done_weight[0] / total_weight)
                weight_used[0] -= task.weight
                old, wake[0] = wake[0], env.event()
                old.succeed()

            while True:
                if not tasks:
                    if weight_used[0] == 0:
                        return
                    yield wake[0]
                elif weight_used[0] + tasks[0].weight <= limit or weight_used[0] == 0:
                    task = tasks.popleft()
                    weight_used[0] += task.weight
                    env.process(run_one(task))
                    # Yield the queue so servers pull round-robin rather than
                    # one server draining the queue up to its weight cap.
                    yield env.timeout(0)
                else:
                    yield wake[0]

        servers = [env.process(server_loop(node))
                   for node in range(self.config.n_nodes)]
        return env.all_of(servers), meta

    def run_recovery(self, failed_disk: int, busy: bool = False,
                     seed: int = 0,
                     weight_limit: int | None = None,
                     faults: FaultPlan | None = None) -> RecoveryReport:
        """Recover all PGs of a failed disk; §5.1's paralleled recovery.

        Each of the ``n_nodes`` HTTP servers pulls tasks from the global
        queue under its weight cap; a task reads from the surviving disks
        of its PG (background priority), gathers over the server NIC,
        regenerates, and writes to a replacement disk.

        ``faults`` (optional) replays a :class:`~repro.faults.FaultPlan`
        during the run: helper reads may time out and retry, a replacement
        disk's death requeues its task, a second failure mid-recovery
        escalates affected PGs to the multi-failure decode, and the report
        carries the requeue/escalate/abandon counts.
        """
        return self._recover([failed_disk], "recovery", seed, faults, busy,
                             weight_limit)

    def measure_degraded_reads_during_recovery(
            self, objects: list[StoredObject], failed_disk: int,
            recovery_priority: int = BACKGROUND,
            seed: int = 0, faults: FaultPlan | None = None
            ) -> tuple[list[DegradedReadResult], RecoveryReport]:
        """Degraded reads issued *while* recovery runs (§5.1 IO Scheduling).

        With ``recovery_priority=BACKGROUND`` (RCStor's design) foreground
        degraded reads jump the per-disk queues ahead of recovery I/O; with
        ``FOREGROUND`` recovery competes head-on — the ablation for the
        paper's priority-lane design.
        """
        rt = _Runtime(self.config, seed, self.obs,
                      label=f"{self.name}/degraded-during-recovery",
                      faults=faults)
        env = rt.env
        recovery_done, meta = self._start_recovery(rt, [failed_disk],
                                                   priority=recovery_priority)
        start = env.now
        reads = env.process(self._degraded_reads(rt, objects, failed_disk))
        env.run(env.all_of([recovery_done, reads]))
        return reads.value, self._finish_recovery(rt, meta, env.now - start)
