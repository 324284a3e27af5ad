"""Fleet-scale Monte-Carlo durability: multi-year event-driven trials.

Where :mod:`repro.reliability.markov` solves one placement group
analytically under independence assumptions, this module *simulates* the
whole fleet on the :mod:`repro.sim` engine — 10k+ disks over ten
simulated years per trial — so the effects the chain cannot express
become measurable:

* disk and node lifetimes (exponential or Weibull wear-out) with
  replacement — a rebuilt disk is a fresh device;
* latent sector errors that stay hidden until the periodic scrub pass
  reaches the disk or a repair read trips over them (whichever comes
  first), turning a repair into one more effective erasure;
* correlated failures — whole-rack bursts and ToR outages built from the
  :class:`~repro.faults.FaultPlan` generators and routed through the
  cluster's rack map, so placement policy decides how many chunks of one
  stripe share a blast radius;
* a risk-aware (RAFI-style) repair queue: with limited repair streams,
  rebuilds are ordered by how close each disk's placement groups sit to
  their fatal-pattern boundary, using the same exact per-code q-vector
  (:func:`~repro.reliability.markov.fatal_probabilities_for_code`) the
  Markov model uses — LRC's asymmetric tolerance is honored, not
  approximated as MDS.

Fatality itself is drawn from the q-vector: when a placement group with
``i`` concurrent failures gains one more, the new pattern is fatal with
probability ``q[i]`` (0-based; beyond the vector it is 1).  On a loss
the group *renews* — bookkeeping resets to the all-healthy state, exactly
the renewal the analytic chain assumes — which is what makes the two
models directly comparable (see ``tests/reliability/test_fleet.py``).

The implementation is pure callbacks on engine timeouts — no generator
processes, no resources — so a trial holds no grants and the invariant
audit is trivially clean.  Every trial draws from one
``numpy.random.Generator`` seeded per trial: results are a pure function
of ``(topology, params, seed)`` and bit-identical across ``--jobs``
fan-out.  Time unit inside a trial: **hours**.

A trial does work only for events that can happen before its horizon.
Every timer goes through one helper that leaves out a timer due after
the horizon: ``run(until=horizon)`` would never pop it, and leaving it
out keeps the ``(when, seq)`` order of all other events, so no result
moves.  Its delay is still drawn, so the RNG stream does not move
either.  The initial lifetimes are one vector draw (bit-identical
to one scalar draw per disk), and a disk that outlives the trial costs
no object.  So a trial's ``engine.events_scheduled`` counts the timers
that fire, not every wear-out of the fleet, and the queues are empty
when it returns.

A trial drops its fleet when it returns.  Its callbacks name each other,
and that cycle would hold the :class:`FleetSim` (the whole topology)
until a full collection; the trial unbinds them once the run ends, so
reference counting frees a fleet as soon as its caller lets it go.  The
topology itself is built from the placement's ``(n_pgs, n)`` disk array
(:func:`~repro.cluster.placement.pg_disks`) with sorts and counts, not
PG by PG.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass
from typing import Any, Sequence

import numpy as np

from repro.cluster.placement import pg_disks
from repro.cluster.topology import ClusterConfig
from repro.faults import FaultEvent, FaultPlan
from repro.reliability.markov import HOURS_PER_YEAR
from repro.sim import Environment

#: Per-trial cap on individually recorded loss timestamps (counts are
#: never capped; this only bounds the row payload).
MAX_RECORDED_LOSSES = 64


@dataclass(frozen=True)
class FleetParams:
    """Stochastic inputs of one fleet trial (topology lives separately).

    Rates are annualised: ``afr``/``node_afr`` per device-year,
    ``lse_rate`` per disk-year, ``rack_burst_rate``/``tor_outage_rate``
    per fleet-year.  Durations are hours.
    """

    #: q[i] = P(a failure landing on a PG with i existing failures is
    #: fatal) — 0-based, from ``fatal_probabilities_for_code``.  Required:
    #: durability is meaningless without the code's tolerance.
    fatal_probabilities: tuple[float, ...]
    years: float = 10.0
    afr: float = 0.02
    #: Weibull shape of disk lifetimes; 1.0 = exponential (memoryless).
    #: >1 models wear-out; the scale is set so the mean stays 1/afr years.
    weibull_shape: float = 1.0
    node_afr: float = 0.0
    #: Hidden sector errors per disk-year (0 = no latent errors).
    lse_rate: float = 0.0
    #: Full-disk scrub period in hours (0 = scrubbing off): a latent
    #: error is found at the disk's next scrub pass unless a repair read
    #: surfaces it first.
    scrub_interval_hours: float = 336.0
    #: Time to rebuild one disk, uncontended (from the cluster
    #: simulator's calibrated recovery rate, rescaled to fleet capacity).
    repair_hours: float = 24.0
    #: Concurrent rebuilds the fleet sustains (0 = unthrottled).
    repair_streams: int = 0
    #: Order queued rebuilds by fatal-boundary closeness (True) or
    #: arrival (False).
    risk_aware: bool = True
    rack_burst_rate: float = 0.0
    #: Fraction of the struck rack's nodes a burst takes down.
    burst_node_fraction: float = 1.0
    burst_spread_hours: float = 0.05
    tor_outage_rate: float = 0.0
    tor_outage_hours: float = 24.0
    #: Rebuilds whose disk shares a rack with an active outage stretch by
    #: this factor (decided at rebuild start).
    tor_repair_factor: float = 4.0

    def __post_init__(self):
        q = tuple(float(x) for x in self.fatal_probabilities)
        object.__setattr__(self, "fatal_probabilities", q)
        if not q or abs(q[-1] - 1.0) > 1e-12:
            raise ValueError("fatal probabilities must end at 1.0")
        if any(not 0.0 <= x <= 1.0 for x in q):
            raise ValueError("fatal probabilities must be in [0, 1]")
        if self.years <= 0 or self.afr <= 0 or self.repair_hours <= 0:
            raise ValueError("years, afr and repair_hours must be positive")
        if self.weibull_shape <= 0:
            raise ValueError("weibull_shape must be positive")
        if min(self.node_afr, self.lse_rate, self.rack_burst_rate,
               self.tor_outage_rate, self.scrub_interval_hours) < 0:
            raise ValueError("rates and intervals must be >= 0")
        if self.repair_streams < 0:
            raise ValueError("repair_streams must be >= 0 (0 = unthrottled)")
        if not 0.0 < self.burst_node_fraction <= 1.0:
            raise ValueError("burst_node_fraction must be in (0, 1]")
        if self.burst_spread_hours < 0 or self.tor_outage_hours <= 0:
            raise ValueError("invalid burst/outage durations")
        if self.tor_repair_factor < 1.0:
            raise ValueError("tor_repair_factor must be >= 1")

    def to_doc(self) -> dict[str, Any]:
        """JSON-safe dict (scenario parameters, cache keys)."""
        doc = asdict(self)
        doc["fatal_probabilities"] = list(self.fatal_probabilities)
        return doc

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "FleetParams":
        doc = dict(doc)
        doc["fatal_probabilities"] = tuple(doc["fatal_probabilities"])
        return cls(**doc)


@dataclass(frozen=True)
class TrialResult:
    """One trial's outcome; everything JSON-safe and row-friendly."""

    years: float
    n_disks: int
    n_pgs: int
    n_losses: int
    #: Sim hours of each loss, capped at MAX_RECORDED_LOSSES entries.
    loss_hours: tuple[float, ...]
    first_loss_hours: float | None
    disk_failures: int
    node_failures: int
    rack_bursts: int
    tor_outages: int
    lse_arrivals: int
    lse_scrubbed: int
    lse_surfaced: int
    repairs_completed: int
    repair_wait_hours: float
    peak_damaged_pgs: int

    @property
    def disk_years(self) -> float:
        """Simulated disk-years of exposure (the bench throughput unit)."""
        return self.years * self.n_disks

    @property
    def first_loss_years(self) -> float | None:
        if self.first_loss_hours is None:
            return None
        return self.first_loss_hours / HOURS_PER_YEAR


def independent_pgs(n_groups: int, group_size: int) -> list[tuple[int, ...]]:
    """Disjoint placement groups — the Markov chain's independence
    assumption, made literal for cross-validation configs."""
    if n_groups < 1 or group_size < 2:
        raise ValueError("need n_groups >= 1 and group_size >= 2")
    return [tuple(range(g * group_size, (g + 1) * group_size))
            for g in range(n_groups)]


def _runs(values: list, counts: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """``values`` cut into consecutive runs of ``counts[i]`` items."""
    ends = np.cumsum(counts).tolist()
    return tuple(tuple(values[a:b]) for a, b in zip([0] + ends[:-1], ends))


class _Trial:
    """Mutable per-trial state (arrays indexed by disk id)."""

    __slots__ = (
        "failed", "latent", "disk_gen", "lse_gen", "scrub_phase",
        "damaged", "outages", "queue", "queued", "queue_ver", "enqueued_at",
        "seq", "active_repairs", "n_losses", "loss_hours", "first_loss",
        "disk_failures", "node_failures", "rack_bursts", "tor_outages",
        "lse_arrivals", "lse_scrubbed", "lse_surfaced",
        "repairs_completed", "repair_wait", "peak_damaged")

    def __init__(self, n_disks: int):
        self.failed = bytearray(n_disks)
        self.latent: set[int] = set()   # disks holding a hidden error
        self.disk_gen = [0] * n_disks   # invalidates stale wear-out timers
        self.lse_gen = [0] * n_disks    # invalidates stale scrub timers
        self.scrub_phase: np.ndarray | None = None
        self.damaged: dict[int, set[int]] = {}   # pg -> failed members
        self.outages: dict[int, int] = {}        # rack -> active outages
        self.queue: list[tuple] = []             # rebuild heap
        self.queued: set[int] = set()
        self.queue_ver: dict[int, int] = {}
        self.enqueued_at: dict[int, float] = {}
        self.seq = 0
        self.active_repairs = 0
        self.n_losses = 0
        self.loss_hours: list[float] = []
        self.first_loss: float | None = None
        self.disk_failures = 0
        self.node_failures = 0
        self.rack_bursts = 0
        self.tor_outages = 0
        self.lse_arrivals = 0
        self.lse_scrubbed = 0
        self.lse_surfaced = 0
        self.repairs_completed = 0
        self.repair_wait = 0.0
        self.peak_damaged = 0


class FleetSim:
    """A fleet topology ready to run durability trials.

    The topology (placement groups, rack map) is fixed at construction;
    :meth:`run_trial` takes the stochastic :class:`FleetParams` and a
    seed, so one ``FleetSim`` serves a whole repair-speed sweep.
    ``pgs`` holds one row of disk ids per placement group, every row of
    one width: the ``(n_pgs, n)`` array
    :func:`~repro.cluster.placement.pg_disks` returns, or a list of
    tuples.
    """

    def __init__(self, pgs: Sequence[Sequence[int]] | np.ndarray,
                 n_disks: int, config: ClusterConfig | None = None,
                 obs=None):
        if n_disks < 2:
            raise ValueError("need at least two disks")
        self.n_disks = n_disks
        self.config = config
        self.obs = obs
        members = np.asarray(pgs, dtype=np.int64)
        if members.ndim != 2 or not len(members):
            raise ValueError("need at least one placement group")
        width = members.shape[1]
        flat = members.ravel()
        # Each disk's slots, in PG order: the sort is stable.
        slots = np.argsort(flat, kind="stable")
        pg_of_slot = slots // width
        disk_of_slot = flat[slots]
        # A disk a PG names twice sits in two adjacent slots of that PG;
        # one failure of it would count twice against the PG.
        repeats = slots[1:][(disk_of_slot[1:] == disk_of_slot[:-1])
                            & (pg_of_slot[1:] == pg_of_slot[:-1])]
        outside = np.flatnonzero((flat < 0) | (flat >= n_disks))
        if repeats.size or outside.size:
            first = int(np.concatenate([repeats, outside]).min())
            d = int(flat[first])
            if not 0 <= d < n_disks:
                raise ValueError(f"disk {d} outside the fleet")
            raise ValueError(f"PG {first // width} names disk {d} twice")
        # Ids go through object arrays so that every slot naming a disk
        # or a PG shares one int object: a ``tolist`` per slot would make
        # ~143k ints at 10,240 disks, ~4 MiB held as long as the fleet.
        self.pg_members: tuple[tuple[int, ...], ...] = tuple(map(
            tuple, np.arange(n_disks, dtype=object)[members].tolist()))
        counts = np.bincount(flat, minlength=n_disks)
        self.pgs_of_disk: tuple[tuple[int, ...], ...] = _runs(
            np.arange(len(members), dtype=object)[pg_of_slot].tolist(),
            counts)
        #: P(a rebuild's read pass touches a given helper's latent error):
        #: the read covers the one damaged PG out of the pg-count PGs the
        #: helper's data is spread over.
        self.surface_prob = tuple(np.divide(
            1.0, counts, out=np.zeros(n_disks), where=counts > 0).tolist())
        #: Racks a disk's rebuild traffic can touch: its own plus every
        #: rack of every PG peer (None without a rack map).
        self.disk_racks: tuple[tuple[int, ...], ...] | None = None
        if config is not None and config.n_racks > 1:
            rack_of = (np.arange(n_disks) // config.disks_per_node
                       // config.rack_size)
            # touched[d, r]: disk d shares a PG with a disk in rack r.
            touched = np.zeros((n_disks, config.n_racks), dtype=bool)
            touched[members[:, :, None], rack_of[members][:, None, :]] = True
            disks, racks = np.nonzero(touched)
            self.disk_racks = _runs(
                racks.tolist(), np.bincount(disks, minlength=n_disks))

    @classmethod
    def from_cluster(cls, config: ClusterConfig, obs=None) -> "FleetSim":
        """The fleet of ``config``'s placement groups, placed by its
        placement policy (the disk array a
        :class:`~repro.cluster.topology.Cluster` wraps)."""
        return cls(pg_disks(config), config.n_disks, config=config,
                   obs=obs)

    @property
    def n_pgs(self) -> int:
        return len(self.pg_members)

    # ------------------------------------------------------------------
    def run_trial(self, params: FleetParams, seed) -> TrialResult:
        """One independent trial; pure function of (topology, params, seed)."""
        if params.rack_burst_rate > 0 or params.tor_outage_rate > 0:
            if self.config is None or self.config.n_racks < 2:
                raise ValueError(
                    "rack bursts / ToR outages need a multi-rack config")
        rng = np.random.default_rng(seed)
        obs = self.obs
        env = Environment(trace_hooks=obs)
        st = _Trial(self.n_disks)
        horizon = params.years * HOURS_PER_YEAR
        q = params.fatal_probabilities

        counter = obs.metrics.counter if obs is not None else None
        losses_c = counter("fleet.data_losses") if counter else None
        failures_c = counter("fleet.disk_failures") if counter else None
        timeline = getattr(obs, "timeline", None) if obs is not None else None
        flightrec = getattr(obs, "flightrec", None) \
            if obs is not None else None

        def q_at(i: int) -> float:
            return q[i] if i < len(q) else 1.0

        def after(delay: float, callback, value=None) -> None:
            """Schedule ``callback`` on a timeout carrying ``value``,
            ``delay`` hours from now, unless that is past the horizon.
            ``env.now + delay`` is the ``when`` the timeout would get, and
            ``run(until=horizon)`` never pops a later one: leaving it out
            keeps the ``(when, seq)`` order of every other event."""
            if env.now + delay <= horizon:
                env.timeout(delay, value).callbacks.append(callback)

        # -- lifetimes ------------------------------------------------
        mean_h = HOURS_PER_YEAR / params.afr
        shape = params.weibull_shape
        scale_h = mean_h / math.gamma(1.0 + 1.0 / shape)

        def draw_lifetimes(n: int) -> list[float]:
            # One vector draw equals n scalar draws, bit for bit, and
            # leaves the generator in the same state.
            if shape == 1.0:
                return rng.exponential(mean_h, n).tolist()
            return (rng.weibull(shape, n) * scale_h).tolist()

        def wear_out(event) -> None:
            d, gen = event.value
            if st.disk_gen[d] == gen and not st.failed[d]:
                st.disk_failures += 1
                if failures_c is not None:
                    failures_c.inc()
                fail_disk(d)

        # -- failure / fatality ---------------------------------------
        def fail_disk(d: int) -> None:
            if st.failed[d]:
                return
            st.failed[d] = 1
            st.disk_gen[d] += 1
            if d in st.latent:      # dies with its hidden errors
                st.latent.discard(d)
                st.lse_gen[d] += 1
            for p in self.pgs_of_disk[d]:
                s = st.damaged.get(p)
                i = len(s) if s is not None else 0
                if rng.random() < q_at(i):
                    record_loss(p, i + 1)
                    if s is not None:
                        st.damaged.pop(p)
                    continue
                if s is None:
                    s = st.damaged[p] = set()
                    if len(st.damaged) > st.peak_damaged:
                        st.peak_damaged = len(st.damaged)
                elif params.risk_aware and params.repair_streams:
                    # RAFI: the PG moved closer to its boundary; requeue
                    # its other pending rebuilds at the new priority.
                    for other in sorted(s):
                        if other in st.queued:
                            push_rebuild(other)
                s.add(d)
            enqueue_rebuild(d)

        def record_loss(p: int, failures: int) -> None:
            now = env.now
            st.n_losses += 1
            if st.first_loss is None:
                st.first_loss = now
            if len(st.loss_hours) < MAX_RECORDED_LOSSES:
                st.loss_hours.append(now)
            if losses_c is not None:
                losses_c.inc()
            if timeline is not None:
                timeline.mark(env, "fleet:data_loss", pg=p,
                              failures=failures)
            if flightrec is not None:
                flightrec.incident("data_loss", pg=p, failures=failures,
                                   hours=now, losses=st.n_losses)

        # -- repair queue ---------------------------------------------
        def rebuild_key(d: int) -> tuple:
            st.seq += 1
            if not params.risk_aware:
                return (st.seq,)
            worst_q, worst_i = 0.0, 0
            for p in self.pgs_of_disk[d]:
                s = st.damaged.get(p)
                if s is None or d not in s:
                    continue
                i = len(s)      # failures incl. d; next one is the i+1-th
                nxt = q_at(i)
                if (nxt, i) > (worst_q, worst_i):
                    worst_q, worst_i = nxt, i
            return (-worst_q, -worst_i, st.seq)

        def push_rebuild(d: int) -> None:
            ver = st.queue_ver.get(d, 0) + 1
            st.queue_ver[d] = ver
            heapq.heappush(st.queue, (rebuild_key(d), ver, d))

        def enqueue_rebuild(d: int) -> None:
            streams = params.repair_streams
            if not streams or st.active_repairs < streams:
                start_rebuild(d)
                return
            st.queued.add(d)
            st.enqueued_at[d] = env.now
            push_rebuild(d)

        def drain_queue() -> None:
            streams = params.repair_streams
            while st.queue and (not streams or st.active_repairs < streams):
                _key, ver, d = heapq.heappop(st.queue)
                if d not in st.queued or st.queue_ver.get(d) != ver:
                    continue        # stale entry (requeued or started)
                st.queued.discard(d)
                st.repair_wait += env.now - st.enqueued_at.pop(d)
                start_rebuild(d)

        def start_rebuild(d: int) -> None:
            st.active_repairs += 1
            hours = params.repair_hours
            if st.outages and self.disk_racks is not None \
                    and any(st.outages.get(rk) for rk in self.disk_racks[d]):
                hours *= params.tor_repair_factor
            after(hours, finish_rebuild, d)

        def finish_rebuild(event) -> None:
            d = event.value
            st.active_repairs -= 1
            st.repairs_completed += 1
            for p in self.pgs_of_disk[d]:
                s = st.damaged.get(p)
                if s is None or d not in s:
                    continue        # PG renewed by a loss meanwhile
                lost = False
                members = self.pg_members[p]
                # The rebuild's read pass may trip over a helper's hidden
                # latent error: one more effective erasure at the worst
                # moment — or, survived, a free repair.  Only latent,
                # unfailed helpers draw, so a PG with no latent member
                # skips the scan.
                if not st.latent.isdisjoint(members):
                    for h in members:
                        if h == d or st.failed[h] or h not in st.latent:
                            continue
                        if rng.random() >= self.surface_prob[h]:
                            continue
                        st.latent.discard(h)
                        st.lse_gen[h] += 1
                        st.lse_surfaced += 1
                        if rng.random() < q_at(len(s)):
                            record_loss(p, len(s) + 1)
                            st.damaged.pop(p)
                            lost = True
                            break
                if not lost:
                    s.discard(d)
                    if not s:
                        st.damaged.pop(p)
            st.failed[d] = 0        # replacement disk, fresh lifetime
            after(draw_lifetimes(1)[0], wear_out, (d, st.disk_gen[d]))
            drain_queue()

        # -- latent sector errors and scrubbing -----------------------
        lse_rate_h = params.lse_rate * self.n_disks / HOURS_PER_YEAR
        scrub = params.scrub_interval_hours
        if lse_rate_h > 0 and scrub > 0:
            st.scrub_phase = rng.uniform(0.0, scrub, self.n_disks)

        def schedule_scrub_discovery(d: int) -> None:
            if scrub <= 0:
                return
            phase = float(st.scrub_phase[d])
            periods = math.floor((env.now - phase) / scrub) + 1
            nxt = phase + periods * scrub
            after(nxt - env.now, discover, (d, st.lse_gen[d]))

        def discover(event) -> None:
            d, gen = event.value
            if st.lse_gen[d] == gen and d in st.latent:
                st.latent.discard(d)
                st.lse_gen[d] += 1
                st.lse_scrubbed += 1
                if timeline is not None:
                    timeline.mark(env, "fleet:scrub", disk=d)

        def schedule_next_lse() -> None:
            after(float(rng.exponential(1.0 / lse_rate_h)), arrive)

        def arrive(_event) -> None:
            st.lse_arrivals += 1
            d = int(rng.integers(self.n_disks))
            if not st.failed[d] and d not in st.latent:
                st.latent.add(d)
                schedule_scrub_discovery(d)
            schedule_next_lse()

        # -- correlated failures --------------------------------------
        burst_rate_h = params.rack_burst_rate / HOURS_PER_YEAR
        outage_rate_h = params.tor_outage_rate / HOURS_PER_YEAR
        if self.config is not None:
            n_nodes = self.config.n_nodes
            disks_per_node = self.config.disks_per_node
        else:
            n_nodes, disks_per_node = self.n_disks, 1
        crash_rate_h = params.node_afr * n_nodes / HOURS_PER_YEAR

        def schedule_next_burst() -> None:
            after(float(rng.exponential(1.0 / burst_rate_h)), burst)

        def burst(_event) -> None:
            config = self.config
            st.rack_bursts += 1
            rack = int(rng.integers(config.n_racks))
            nodes = list(config.nodes_in_rack(rack))
            n_pick = max(1, int(round(
                params.burst_node_fraction * len(nodes))))
            order = rng.permutation(len(nodes))[:n_pick]
            chosen = sorted(nodes[i] for i in order)
            plan = FaultPlan.rack_burst(
                chosen, config.disks_per_node,
                seed=int(rng.integers(1 << 31)), at=env.now,
                spread=params.burst_spread_hours, kind="disk_crash")
            for ev in plan.timed_events:
                after(ev.at - env.now, strike, ev.disk)
            if timeline is not None:
                timeline.mark(env, "fleet:burst", rack=rack,
                              nodes=len(chosen),
                              disks=len(plan.timed_events))
            schedule_next_burst()

        def strike(event) -> None:
            fail_disk(event.value)

        def schedule_next_outage() -> None:
            after(float(rng.exponential(1.0 / outage_rate_h)), outage)

        def outage(_event) -> None:
            st.tor_outages += 1
            rack = int(rng.integers(self.config.n_racks))
            st.outages[rack] = st.outages.get(rack, 0) + 1
            after(params.tor_outage_hours, clear, rack)
            if timeline is not None:
                event = FaultEvent("tor_slow", at=env.now, rack=rack,
                                   factor=params.tor_repair_factor,
                                   duration=params.tor_outage_hours)
                timeline.mark(env, "fleet:tor_outage", **event.to_doc())
            schedule_next_outage()

        def clear(event) -> None:
            st.outages[event.value] -= 1

        def schedule_next_node_crash() -> None:
            after(float(rng.exponential(1.0 / crash_rate_h)), crash)

        def crash(_event) -> None:
            st.node_failures += 1
            node = int(rng.integers(n_nodes))
            first = node * disks_per_node
            for d in range(first, first + disks_per_node):
                fail_disk(d)
            schedule_next_node_crash()

        # -- arm and run ----------------------------------------------
        for d, life in enumerate(draw_lifetimes(self.n_disks)):
            # ``after``'s own test at ``env.now == 0.0``, made first so a
            # disk that outlives the trial costs no object at all.
            if life <= horizon:
                after(life, wear_out, (d, 0))
        if lse_rate_h > 0:
            schedule_next_lse()
        if params.rack_burst_rate > 0:
            schedule_next_burst()
        if params.tor_outage_rate > 0:
            schedule_next_outage()
        if params.node_afr > 0:
            schedule_next_node_crash()
        try:
            env.run(until=horizon)
        finally:
            # Each cycle of callbacks naming each other runs through one
            # of these names, and every cycle holds ``self``.
            fail_disk = start_rebuild = finish_rebuild = None
            schedule_next_lse = schedule_next_burst = None
            schedule_next_outage = schedule_next_node_crash = None

        return TrialResult(
            years=params.years,
            n_disks=self.n_disks,
            n_pgs=self.n_pgs,
            n_losses=st.n_losses,
            loss_hours=tuple(st.loss_hours),
            first_loss_hours=st.first_loss,
            disk_failures=st.disk_failures,
            node_failures=st.node_failures,
            rack_bursts=st.rack_bursts,
            tor_outages=st.tor_outages,
            lse_arrivals=st.lse_arrivals,
            lse_scrubbed=st.lse_scrubbed,
            lse_surfaced=st.lse_surfaced,
            repairs_completed=st.repairs_completed,
            repair_wait_hours=st.repair_wait,
            peak_damaged_pgs=st.peak_damaged)

    def run_trials(self, params: FleetParams, seed: int,
                   n_trials: int) -> list[TrialResult]:
        """Independent trials with per-trial seeds spawned from ``seed``."""
        if n_trials < 1:
            raise ValueError("need at least one trial")
        children = np.random.SeedSequence(seed).spawn(n_trials)
        return [self.run_trial(params, child) for child in children]
