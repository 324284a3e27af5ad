"""Foreground (busy-system) load generation (§6.2 Methodology).

The paper's "busy" experiments run 15 x 8 clients issuing normal reads
continuously, leaving per-disk bandwidth fluctuating between ~30 and
~100 MB/s on HDDs.  We reproduce that as per-disk Poisson read generators
targeting a configurable utilization; reads are foreground-priority, so
they contend with measured degraded reads and pre-empt queued recovery I/O.

The busy warm-up, simulated once
--------------------------------
A busy degraded-read measurement first lets the readers run for a warm-up
(2 s by default), so its reads meet a loaded system.  On W2 the warm-up is
~99% of the measurement's engine events, and every scheme of a run repeats
it exactly: it touches only the disks, the runtime's ``rng`` and the disk
metrics, nothing scheme-dependent.  :func:`warm_up` therefore simulates
each distinct warm-up at most once per process:

* **Kernel.** :func:`_simulate` runs the readers and their reads as data.
  Only the ``rng`` draws must run one at a time, so a single loop merges
  the readers' arrivals on an n-entry heap and makes each arrival's two
  draws in the DES's order, keeping its time, disk and uniform.  Every
  :data:`_WINDOW` arrivals, and at the cut, numpy passes close the
  window: sizes and service times, each disk's FIFO grants, the window's
  arrivals and service ends sorted once into the engine's order, their
  seqs and resumes by cumulative sum (each counting the start and grant
  events the engine runs at its instant), the queue waits in grant order,
  and per disk the counters, usage accounting and depth-gauge fields.
  Only reads in flight and per-disk scalars cross into the next window.
  Where the engine's order could differ (two events at one instant, a
  zero draw or service time) it returns ``None`` and the DES runs the
  warm-up.  It makes the same ``rng`` draws and float operations, and
  returns the end state as :class:`_WarmState`: the clock, event and
  resume counts, the ``rng`` state, each reader's next arrival, each read
  still queued or in service, each disk's counters, queue accounting and
  gauge fields (the in-use gauge's read off the usage accounting), and
  every queue wait in grant order.
* **Memo.** End states are kept per process, keyed on everything they
  depend on (disk models, utilization, mean read size and I/Os, the
  ``rng`` state, i.e. the seed, and the warm-up length).  A few entries at
  most, and data only: never an environment.
* **Restore.** :func:`_restore` rebuilds the end state inside the
  measurement's fresh environment.  Readers and in-flight reads run the
  same generators as in the DES (:func:`_generator`, :meth:`Disk.read`),
  adopted at their original queue positions
  (:meth:`~repro.sim.Environment._adopt`).  The waits replay into the
  shared ``disk.queue_wait{lane=0}`` histogram in one
  :meth:`~repro.obs.metrics.Histogram.observe_many` call, exactly as one
  ``observe`` per wait would: its total and reservoir depend on what
  earlier measurements left in it.
  The environment's native counters then count the kernel's events as if
  they had run there, so ``engine.events_scheduled`` does not move and
  ``sim.events_per_s`` counts the events the kernel covers.
* **When.** Only where nothing can tell the difference: no per-event hook
  and no timeline bound, and a pristine environment (nothing scheduled
  yet, so no timed fault plan either).  Flight-recorder, invariant-checker,
  profiler, timeline and timed-fault runs simulate the warm-up in the DES,
  which is also the reference the kernel is tested against.
"""

from __future__ import annotations

import copy
import heapq
import math
import pickle
from array import array
from collections import OrderedDict
from itertools import count, repeat
from typing import Callable, Generator, NamedTuple

import numpy as np

from repro.cluster.disk import FOREGROUND, Disk
from repro.obs.metrics import Gauge
from repro.sim import Environment, Event, Process, Request

MB = 1 << 20


def check_load(utilization: float, mean_read_bytes: int,
               warmup: float = 0.0) -> None:
    """Reject a foreground load that would fail only once it runs."""
    if not 0 < utilization < 1:
        raise ValueError("utilization must be in (0, 1)")
    if mean_read_bytes < 1:
        raise ValueError("mean_read_bytes must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")


def _mean_ios(mean_read_bytes: int) -> int:
    """I/Os of a mean-sized foreground read: one, plus one per whole
    16 MiB."""
    return max(1, mean_read_bytes // (16 * MB) + 1)


def _mean_interarrival(model, utilization: float, mean_bytes: int,
                       mean_ios: int) -> float:
    """One reader's mean inter-arrival time: the mean read's service time
    stretched to the target utilization (the kernel repeats these floats
    exactly by calling this too)."""
    return model.read_time(mean_ios, mean_bytes) / utilization


def start_foreground_load(env: Environment, disks: list[Disk],
                          rng: np.random.Generator,
                          utilization: float = 0.5,
                          mean_read_bytes: int = 16 * MB,
                          invariants=None) -> None:
    """Arm one generator per disk; runs for the lifetime of ``env``.

    The generators are open-ended, so at the end of a measurement they may
    legitimately hold disk grants mid-read; passing the runtime's
    ``invariants`` checker exempts this environment from the end-of-run
    resource-leak audit.
    """
    check_load(utilization, mean_read_bytes)
    if invariants is not None:
        invariants.exempt_env(env)
    mean_ios = _mean_ios(mean_read_bytes)
    for disk in disks:
        env.process(_generator(
            env, disk, rng, _mean_interarrival(disk.model, utilization,
                                               mean_read_bytes, mean_ios),
            mean_read_bytes, mean_ios))


def _generator(env: Environment, disk: Disk, rng: np.random.Generator,
               mean_interarrival: float, mean_bytes: int, mean_ios: int,
               arrival: Event | None = None):
    """One disk's reader.  ``arrival`` resumes a reader restored by the
    warm-up kernel: the event of its next arrival, already queued."""
    if arrival is None:
        arrival = env.timeout(float(rng.exponential(mean_interarrival)))
    while True:
        yield arrival
        # Size jitter: half to double the mean, log-uniform.
        # numpy's uniform(-1, 1) is -1 + 2 * random(): same double, same state.
        size = int(mean_bytes * 2 ** (2.0 * rng.random() - 1.0))
        ios = max(1, int(round(mean_ios * size / mean_bytes)))
        env.process(disk.read(ios, size, FOREGROUND))
        arrival = env.timeout(float(rng.exponential(mean_interarrival)))


# ----------------------------------------------------------------------
# The warm-up: one decision point, kernel or DES
# ----------------------------------------------------------------------
def warm_up(env: Environment, disks: list[Disk], rng: np.random.Generator,
            warmup: float, driver: Callable[[Event | None], Generator],
            utilization: float = 0.5, mean_read_bytes: int = 16 * MB,
            obs=None) -> Process:
    """Arm the foreground load and start ``driver`` after ``warmup``
    seconds of it; returns the driver's process.

    ``driver`` builds the measurement's generator from the event it waits
    on first: ``None`` on the DES path, where its first step must be
    ``yield env.timeout(warmup)``, or that timeout as restored from the
    kernel's end state.  Either way the events, resumes, ``rng`` draws and
    metrics match (see the module docstring).
    """
    check_load(utilization, mean_read_bytes, warmup)
    mean_ios = _mean_ios(mean_read_bytes)
    if (env._on_schedule is None and env._on_resume is None
            and env._on_advance is None and not env._seq
            and not env._queue and not env._ready):
        state = _end_state(rng, tuple(disk.model for disk in disks),
                           utilization, mean_read_bytes, mean_ios, warmup)
        if state is not None:
            return _restore(state, env, disks, rng, driver, utilization,
                            mean_read_bytes, mean_ios, obs)
    start_foreground_load(env, disks, rng, utilization, mean_read_bytes,
                          getattr(obs, "invariants", None))
    return env.process(driver(None))


class _WarmState(NamedTuple):
    """The end state of a warm-up: everything :func:`_restore` rebuilds."""

    now: float
    seq: int
    resumes: int
    rng_state: dict
    #: the driver's pending ``(when, seq)``
    driver: tuple[float, int]
    #: per disk, its reader's next arrival ``(when, seq)``
    arrivals: tuple
    #: reads in flight in creation order: ``(disk, ios, size, request
    #: time, wait-queue index, grant time, service end (when, seq))``;
    #: a queued read has no grant time or service end, a read in service
    #: no wait-queue index
    reads: tuple
    #: per disk: ``(bytes read, read I/Os, in use, usage integral, last
    #: change, wait-queue pushes, queue-depth gauge, in-use gauge)``,
    #: each gauge as ``(value, min, max, integral, t_first, t_last)``
    disks: tuple
    #: lane-0 queue waits, in grant order
    waits: array


#: Per-process memo of warm-up end states (LRU, data only).
_MEMO: OrderedDict[tuple, _WarmState | None] = OrderedDict()
_MEMO_ENTRIES = 4


def _end_state(rng: np.random.Generator, models: tuple, utilization: float,
               mean_bytes: int, mean_ios: int,
               warmup: float) -> _WarmState | None:
    """The memoised end state of a warm-up, simulated on a miss.

    The key holds the ``rng``'s exact state: for a measurement's fresh
    ``default_rng(seed)`` that stands for the seed, and a generator that
    has already drawn never shares an entry with a fresh one.
    """
    key = (models, utilization, mean_bytes, mean_ios,
           pickle.dumps(rng.bit_generator.state), warmup)
    if key in _MEMO:
        _MEMO.move_to_end(key)
        return _MEMO[key]
    state = _simulate(copy.deepcopy(rng), models, utilization, mean_bytes,
                      mean_ios, warmup)
    _MEMO[key] = state
    if len(_MEMO) > _MEMO_ENTRIES:
        _MEMO.popitem(last=False)
    return state


#: Arrivals per window: :func:`_simulate`'s loop hands them to the array
#: passes in blocks of this many, which bounds the passes' buffers.
_WINDOW = 1024


class _Reads(NamedTuple):
    """Reads in :func:`_simulate`'s array passes, from arrival to service
    end: one array per field, in arrival order."""

    disk: np.ndarray
    ios: np.ndarray
    size: np.ndarray
    at: np.ndarray
    grant: np.ndarray
    end: np.ndarray
    #: its disk was idle, so it was granted on arrival
    idle: np.ndarray
    #: its service end's seq, once granted (else -1)
    seq: np.ndarray


def _simulate(rng: np.random.Generator, models: tuple, utilization: float,
              mean_bytes: int, mean_ios: int,
              warmup: float) -> _WarmState | None:
    """Run the warm-up as data; ``None`` where the data path would not
    repeat the engine's order (the DES then runs the warm-up).

    Only two events move time: a reader's arrival and the end of a read's
    service.  The engine runs each one's start and grant events at its
    instant before anything else (:func:`_generator`, :meth:`Disk.read` on
    a :class:`~repro.sim.PriorityResource` of capacity one), and numbers
    them so:

    * an arrival starts a read (seq + 1) and draws the next arrival
      (seq + 2); on an idle disk the read is granted (seq + 3) and its
      service end takes seq + 4, three resumes in all, else it queues,
      two resumes;
    * a service end releases the disk and grants the next waiter (seq + 1)
      before the finished read's own event takes its seq (+ 2); the
      waiter's service end takes seq + 3, two resumes.  With no waiter,
      one seq and one resume.

    That is the engine's order while no other event shares the instant,
    so two events at one instant (the cut included), or a zero draw or
    service time, give ``None``.  The readers' and the driver's starts at
    t = 0 are counted up front.

    Only the ``rng`` draws must run one at a time: :func:`_arrivals`
    merges the readers' arrivals and draws, and every :data:`_WINDOW`
    arrivals, and at the cut, :meth:`_Windows.close` closes the window
    with array passes.
    """
    scale = [_mean_interarrival(model, utilization, mean_bytes, mean_ios)
             for model in models]
    # t = 0: the readers' start events (seqs 1..n) and the driver's (n + 1)
    # pop in turn; each reader draws its first arrival (n + 2 + d), then the
    # driver sets the cut (2n + 2).
    firsts = [0.0 + rng.exponential(s) for s in scale]
    if warmup in firsts:
        # A first arrival at the cut, whose seq is below the cut's.
        return None
    heap = [(at, d) for d, at in enumerate(firsts)]
    heapq.heapify(heap)
    windows = _Windows(models, mean_bytes, mean_ios)
    for window in _arrivals(rng, scale, heap, warmup):
        if not windows.close(*window):
            return None
    return windows.end_state(rng, heap, firsts, warmup)


def _arrivals(rng: np.random.Generator, scale: list, heap: list,
              warmup: float):
    """Yield the readers' arrivals before the cut in time order, a window
    at a time, as ``(times, disks, uniforms, bound)``.

    ``heap`` holds each reader's next arrival ``(when, disk)``.  An
    arrival makes its reader's two ``rng`` draws in the DES's order: the
    size jitter's ``random()``, then the next arrival's
    ``exponential(scale)``.  ``bound`` is the next arrival, or the cut if
    that is earlier: the window's events are the ones before it.
    """
    random, exponential = rng.random, rng.exponential
    heapreplace = heapq.heapreplace
    while True:
        times, disks, uniforms = [], [], []
        for _ in range(_WINDOW):
            when, d = heap[0]
            if when >= warmup:
                yield times, disks, uniforms, warmup
                return
            uniforms.append(random())
            heapreplace(heap, (when + exponential(scale[d]), d))
            times.append(when)
            disks.append(d)
        yield times, disks, uniforms, min(heap[0][0], warmup)


class _Windows:
    """The array side of :func:`_simulate`: the disks' service model, the
    engine's counts, each disk's counters, usage accounting and
    queue-depth gauge, and the reads in flight between windows."""

    def __init__(self, models: tuple, mean_bytes: int, mean_ios: int):
        n = self.n = len(models)
        self.seek = np.array([model.seek_time for model in models], float)
        self.bandwidth = np.array([model.read_bandwidth for model in models],
                                  float)
        self.mean_bytes, self.mean_ios = mean_bytes, mean_ios
        #: a disk number type that ``np.argsort`` sorts by radix
        self.key = np.min_scalar_type(n)
        self.free = [0.0] * n  # when each disk's last read ends
        self.seq, self.resumes, self.now = 2 * n + 2, n + 1, 0.0
        self.first_seqs = np.arange(n + 2, 2 * n + 2)
        self.arrival_seq = self.first_seqs.copy()  # each reader's next one's
        self.pushes = np.zeros(n, np.int64)
        self.bytes_read = np.zeros(n, np.int64)
        self.n_read_ios = np.zeros(n, np.int64)
        self.integral = np.zeros(n)
        # The queue-depth gauge, set at each arrival and each waiter's grant.
        self.depth = np.zeros(n, np.int64)
        self.depth_max = np.zeros(n, np.int64)
        self.depth_integral = np.zeros(n)
        self.depth_last = np.zeros(n)
        self.waits = array("d")
        self.in_flight = self.new_reads([], [], [])  # none yet

    def new_reads(self, times: list, disks: list, uniforms: list) -> _Reads:
        """A window's new reads, granted FIFO on each disk.

        The float operations are the DES's, elementwise: :func:`_generator`'s
        size and I/O count, :meth:`DiskModel.read_time`'s service time.
        ``2 ** x`` is libm's ``pow`` (which ``**`` and ``math.pow`` call),
        as in the DES: numpy's vector paths may differ in the last bit.
        The FIFO recurrence, grant at ``max(arrival, the disk's last
        end)``, is one sequential pass.
        """
        m = len(times)
        jitter = (2.0 * np.fromiter(uniforms, float, m) - 1.0).tolist()
        size = (self.mean_bytes * np.fromiter(
            map(math.pow, repeat(2.0), jitter), float, m)).astype(np.int64)
        ios = np.maximum(1, np.rint(self.mean_ios * size
                                    / self.mean_bytes)).astype(np.int64)
        disk = np.fromiter(disks, self.key, m)
        service = ios * self.seek[disk] + size / self.bandwidth[disk]
        free, grants = self.free, []
        grant = grants.append
        for d, t, s in zip(disks, times, service.tolist()):
            g = free[d]
            if t > g:
                g = t
            grant(g)
            free[d] = g + s
        at = np.fromiter(times, float, m)
        granted = np.fromiter(grants, float, m)
        return _Reads(disk, ios, size, at, granted, granted + service,
                      granted == at, np.full(m, -1))

    def close(self, times: list, owners: list, uniforms: list,
              bound: float) -> bool:
        """Close a window: its new reads' sizes, service times and FIFO
        grants, then its arrivals and service ends in time order, which
        number the seqs and give the resumes, the queue waits in grant
        order, and each disk's counters, usage accounting and depth gauge.
        False where an event shares its instant with the one before."""
        n = self.n
        reads = _Reads(*map(np.concatenate, zip(
            self.in_flight, self.new_reads(times, owners, uniforms))))
        disk, at, grant, end, idle = (reads.disk, reads.at, reads.grant,
                                      reads.end, reads.idle)
        fresh = len(self.in_flight.disk)  # the first new read
        # The reads by disk, FIFO on each, give each one's successor on
        # its disk; a service end grants the successor if that one queued.
        by_disk = np.argsort(disk, kind="stable")
        same = np.diff(disk[by_disk]) == 0
        successor = np.full(len(disk), -1)
        successor[by_disk[:-1][same]] = by_disk[1:][same]
        hands_on = (successor >= 0) & ~idle[successor]
        closed = end < bound
        # The window's events in time order: the new reads' arrivals and
        # the service ends before the bound.  One at the instant of the one
        # before, in this window or the last, stops the kernel.
        ev = np.concatenate((np.arange(fresh, len(disk)),
                             np.flatnonzero(closed)))
        t = np.concatenate((at[fresh:], end[closed]))
        is_end = np.arange(len(ev)) >= len(times)
        o = np.argsort(t, kind="stable")
        ev, t, is_end = ev[o], t[o], is_end[o]
        if (np.diff(t, prepend=self.now) == 0).any():
            return False
        # An arrival takes 2 seqs and 2 resumes, a service end 1 and 1, and
        # a grant 2 more seqs (its event, the service end it schedules) and
        # 1 more resume.
        grants = np.where(is_end, hands_on[ev], idle[ev])
        base = 2 - is_end
        inc = base + 2 * grants
        after = self.seq + np.cumsum(inc)
        self.resumes += int((base + grants).sum())
        if len(t):
            self.seq, self.now = int(after[-1]), float(t[-1])
        # A grant schedules the granted read's service end.
        granted = np.where(is_end, successor[ev], ev)[grants]
        reads.seq[granted] = after[grants]
        self.waits.frombytes((grant[granted] - at[granted]).tobytes())
        # An arrival draws its reader's next; seqs rise with time.
        arrivals = ~is_end
        np.maximum.at(self.arrival_seq, disk[ev[arrivals]],
                      (after - inc)[arrivals] + 2)
        self.pushes += np.bincount(disk[fresh:][~idle[fresh:]], minlength=n)
        # The depth gauge steps +1 at a queued arrival, 0 at one granted at
        # once and -1 at a waiter's grant, and its integral adds each level
        # times the time it held, disk by disk in time order.
        depth, depth_last = self.depth, self.depth_last
        sets = arrivals | grants
        step = np.where(is_end, -1, ~idle[ev])[sets]
        sd, st = disk[ev[sets]], t[sets]
        o = np.argsort(sd, kind="stable")
        sd, st, step = sd[o], st[o], step[o]
        rank, counts = _ranks(sd, n)
        total = np.cumsum(step)
        level = depth[sd] + total - (total - step)[np.arange(len(sd)) - rank]
        first = rank == 0
        since = np.concatenate((st[:1], st[:-1]))
        since[first] = depth_last[sd[first]]
        held = (level - step) * (st - since)  # the level replaced, how long
        self.depth_integral = _running_sums(self.depth_integral, sd, rank,
                                            counts, held)
        np.maximum.at(self.depth_max, sd, level)
        tail = np.flatnonzero(rank == counts[sd] - 1)
        depth[sd[tail]], depth_last[sd[tail]] = level[tail], st[tail]
        # The usage accounting: each service adds its length at its end.
        done = by_disk[closed[by_disk]]
        rank, counts = _ranks(disk[done], n)
        self.integral = _running_sums(self.integral, disk[done], rank, counts,
                                      end[done] - grant[done])
        np.add.at(self.bytes_read, disk[done], reads.size[done])
        np.add.at(self.n_read_ios, disk[done], reads.ios[done])
        still = ~closed
        self.in_flight = _Reads(*(field[still] for field in reads))
        return True

    def end_state(self, rng: np.random.Generator, heap: list, firsts: list,
                  warmup: float) -> _WarmState:
        """The end state once the cut's window is closed."""
        n, in_flight = self.n, self.in_flight
        # A read still queued at the cut queued at its arrival, as did every
        # later one on its disk: they took the disk's last wait-queue indices.
        in_service = in_flight.seq >= 0
        index = (self.pushes - np.bincount(in_flight.disk[~in_service],
                                           minlength=n)).tolist()
        reads = []
        for d, ios, size, at, grant, end, _, end_seq in zip(
                *(field.tolist() for field in in_flight)):
            if end_seq >= 0:
                reads.append((d, ios, size, at, None, grant, (end, end_seq)))
            else:
                reads.append((d, ios, size, at, index[d], None, None))
                index[d] += 1
        busy = np.zeros(n, np.int64)
        busy[in_flight.disk[in_service]] = 1
        # A disk's usage last changed at its read in service's grant, or
        # else at its last read's end.
        last = np.array(self.free)
        last[in_flight.disk[in_service]] = in_flight.grant[in_service]
        arrivals = [None] * n
        for when, d in heap:
            arrivals[d] = (when, int(self.arrival_seq[d]))
        per_disk = (self.bytes_read, self.n_read_ios, busy, self.integral,
                    last, self.pushes, self.depth, self.depth_max,
                    self.depth_integral, self.depth_last,
                    self.arrival_seq != self.first_seqs)
        disks = []
        for (bytes_d, ios_d, busy_d, usage, changed, pushed, level, high,
             area, until, started, t_first) in zip(
                *(field.tolist() for field in per_disk), firsts):
            if not started:
                # Its first arrival is still pending, so no gauge moved.
                gauges = (_gauge_fields(Gauge("")),) * 2
            else:
                # A disk's first arrival finds it idle, so the depth gauge's
                # first level, its least, is 0.  The in-use gauge steps to 1
                # at each grant and to 0 at each release, where the usage
                # integral gains the same terms, and first at the first
                # arrival.
                gauges = ((level, 0, high, area, t_first, until),
                          (busy_d, 0 if ios_d else 1, 1, usage, t_first,
                           changed))
            disks.append((bytes_d, ios_d, busy_d, usage, changed, pushed,
                          *gauges))
        return _WarmState(self.now, self.seq, self.resumes,
                          rng.bit_generator.state, (warmup, 2 * n + 2),
                          tuple(arrivals), tuple(reads), tuple(disks),
                          self.waits)


def _ranks(disk: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's position among its disk's entries (``disk`` sorted),
    and each disk's count of entries."""
    counts = np.bincount(disk, minlength=n)
    return np.arange(len(disk)) - (np.cumsum(counts) - counts)[disk], counts


def _running_sums(start: np.ndarray, disk: np.ndarray, rank: np.ndarray,
                  counts: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Per disk, ``start`` plus that disk's ``terms`` added left to right,
    as a loop rounds them (``disk`` sorted, ``rank`` and ``counts`` from
    :func:`_ranks`): one ``np.cumsum`` along the rows of a grid that holds
    each disk's terms in its row, padded with zeros (every term and start
    is >= 0, so a zero changes no sum)."""
    grid = np.zeros((len(start), counts.max(initial=0) + 1))
    grid[:, 0] = start
    grid[disk, rank + 1] = terms
    return np.cumsum(grid, axis=1)[:, -1]


def _gauge_fields(g: Gauge) -> tuple:
    return g.value, g.min, g.max, g._integral, g._t_first, g._t_last


def _restore(state: _WarmState, env: Environment, disks: list[Disk],
             rng: np.random.Generator,
             driver: Callable[[Event | None], Generator],
             utilization: float, mean_bytes: int, mean_ios: int,
             obs) -> Process:
    """Rebuild ``state`` in the pristine ``env``; returns the driver.

    Processes join the registry in the DES's creation order (readers,
    driver, reads in flight), which fixes the order :meth:`Environment.
    close` releases their grants in.
    """
    for disk, at in zip(disks, state.arrivals):
        env._adopt(_generator(
            env, disk, rng, _mean_interarrival(disk.model, utilization,
                                               mean_bytes, mean_ios),
            mean_bytes, mean_ios, env.event()), at)
    main = env._adopt(driver(env.event()), state.driver)
    for d, ios, size, request_time, index, grant_time, end in state.reads:
        disk = disks[d]
        req = Request(env, disk.queue, FOREGROUND)
        req.request_time = request_time
        if end is None:
            # Appended in index order, so the list is already a heap.
            disk.queue._waiters.append((FOREGROUND, index, req))
            env._adopt(disk.read(ios, size, FOREGROUND, req=req))
        else:
            req.triggered = req.granted = True
            req.grant_time = grant_time
            env._adopt(disk.read(ios, size, FOREGROUND, req=req,
                                 served=env.event()), end)
    for disk, (bytes_read, n_read_ios, in_use, integral, last, pushes,
               depth, busy) in zip(disks, state.disks):
        disk.bytes_read = bytes_read
        disk.n_read_ios = n_read_ios
        queue = disk.queue
        queue.in_use = in_use
        queue._usage_integral = integral
        queue._last_change = last
        queue._seq = count(pushes)
        if queue._obs is not None:
            for gauge, saved in ((queue._depth_gauge, depth),
                                 (queue._in_use_gauge, busy)):
                (gauge.value, gauge.min, gauge.max, gauge._integral,
                 gauge._t_first, gauge._t_last) = saved
    env.now, env._seq, env._resumes = state.now, state.seq, state.resumes
    rng.bit_generator.state = state.rng_state
    if obs is not None and state.waits:
        # Replayed, not copied: the running total and the reservoir slots
        # depend on what the shared histogram already holds.
        obs.metrics.histogram("disk.queue_wait",
                              lane=FOREGROUND).observe_many(state.waits)
    return main
