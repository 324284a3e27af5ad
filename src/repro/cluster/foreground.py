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

* **Kernel.** :func:`_simulate` steps the readers and their reads as data,
  in the engine's ``(when, seq)`` order.  Its heap holds only the two
  events that move time, a reader's arrival and a read's service end;
  each runs the start and grant events the engine would run at its
  instant inline, numbering them as the engine would.  Where that order
  could differ from the engine's (two events at one instant, a zero draw
  or service time) it returns ``None`` and the DES runs the warm-up.  It
  makes the same ``rng`` draws and float operations, and returns the end
  state as :class:`_WarmState`: the clock, event and resume counts, the
  ``rng`` state, each reader's next arrival, each read still queued or in
  service, each disk's counters, queue accounting and gauge fields (the
  in-use gauge's read off the usage accounting), and every queue wait in
  grant order.
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
import pickle
from array import array
from collections import OrderedDict, deque
from itertools import count
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


def _simulate(rng: np.random.Generator, models: tuple, utilization: float,
              mean_bytes: int, mean_ios: int,
              warmup: float) -> _WarmState | None:
    """Run the warm-up as data; ``None`` where the data path would not
    repeat the engine's order (the DES then runs the warm-up).

    Only two events move time: a reader's arrival and the end of a read's
    service.  The heap holds just those, ``(when, seq, d)`` for disk
    ``d``'s arrival and ``(when, seq, ~d)`` for its service end, plus the
    driver's cut ``(warmup, seq, n)``.  Each runs inline what the engine
    would run at its instant before anything else (:func:`_generator`,
    :meth:`Disk.read` on a :class:`~repro.sim.PriorityResource` of
    capacity one) and counts the seqs and resumes the engine would:

    * an arrival starts a read (seq + 1) and draws the next arrival
      (seq + 2); on an idle disk the read is granted (seq + 3) and its
      service end takes seq + 4, three resumes in all, else it queues,
      two resumes;
    * a service end releases the disk and grants the next waiter (seq + 1)
      before the finished read's own event takes its seq (+ 2); the
      waiter's service end takes seq + 3, two resumes.  With no waiter,
      one seq and one resume.

    That is the engine's order while no other event shares the instant,
    so two events at one instant, or a zero draw or service time, give
    ``None``.  The readers' and the driver's starts at t = 0 are counted
    up front.  A read is ``(ios, size, created seq, request time)``, and
    a queued one also has its wait-queue index.
    """
    n = len(models)
    random, exponential = rng.random, rng.exponential
    read_time = [model.read_time for model in models]
    interarrival = [_mean_interarrival(model, utilization, mean_bytes,
                                       mean_ios) for model in models]
    push, pop = heapq.heappush, heapq.heappop
    serving: list = [None] * n
    queued = [deque() for _ in range(n)]
    pushes = [0] * n
    integral = [0.0] * n
    last = [0.0] * n
    bytes_read = [0] * n
    n_read_ios = [0] * n
    depth = [Gauge("") for _ in range(n)]
    waits = array("d")
    observe = waits.append
    # t = 0: the readers' start events (seqs 1..n) and the driver's
    # (n + 1) pop in turn; each reader draws its first arrival (n + 2 + d),
    # then the driver sets the cut (2n + 2).
    now = 0.0
    firsts = [now + float(exponential(interarrival[d])) for d in range(n)]
    seq = 2 * n + 2
    cut = (now + warmup, seq)
    heap = [(at, n + 2 + d, d) for d, at in enumerate(firsts)]
    heap.append((*cut, n))
    heapq.heapify(heap)
    resumes = n + 1
    while True:
        when, _seq, d = pop(heap)
        if d == n:
            break
        if when == now or heap[0][0] == when:
            # It shares its instant with another event, whose start and
            # grant events the engine would interleave with its own.
            return None
        now = when
        if d >= 0:
            size = int(mean_bytes * 2 ** (2.0 * random() - 1.0))
            ios = max(1, int(round(mean_ios * size / mean_bytes)))
            push(heap, (now + float(exponential(interarrival[d])), seq + 2,
                        d))
            if serving[d] is None:
                # Granted at once: the usage integral gains 0 * elapsed.
                serving[d] = (ios, size, seq + 1, now)
                last[d] = now
                observe(0.0)
                depth[d].set(0, now)
                push(heap, (now + read_time[d](ios, size, None), seq + 4, ~d))
                seq += 4
                resumes += 3
            else:
                waiting = queued[d]
                waiting.append((ios, size, seq + 1, now, pushes[d]))
                pushes[d] += 1
                depth[d].set(len(waiting), now)
                seq += 2
                resumes += 2
        else:
            d = ~d
            read = serving[d]
            integral[d] += now - last[d]
            last[d] = now
            n_read_ios[d] += read[0]
            bytes_read[d] += read[1]
            waiting = queued[d]
            if waiting:
                read = serving[d] = waiting.popleft()
                observe(now - read[3])
                depth[d].set(len(waiting), now)
                push(heap, (now + read_time[d](read[0], read[1], None),
                            seq + 3, ~d))
                seq += 3
                resumes += 2
            else:
                serving[d] = None
                seq += 1
                resumes += 1
    arrivals: list = [None] * n
    reads = [(d, ios, size, at, index, None, None, created)
             for d in range(n)
             for ios, size, created, at, index in queued[d]]
    for entry_when, entry_seq, d in heap:
        if d >= 0:
            arrivals[d] = (entry_when, entry_seq)
        else:
            ios, size, created, at = serving[~d][:4]
            reads.append((~d, ios, size, at, None, last[~d],
                          (entry_when, entry_seq), created))
    reads.sort(key=lambda read: read[-1])
    disks = []
    for d in range(n):
        busy = int(serving[d] is not None)
        if arrivals[d][1] == n + 2 + d:
            # Its first arrival is still pending: never granted.
            in_use = _gauge_fields(Gauge(""))
        else:
            # The gauge steps to 1 at each grant and to 0 at each release,
            # where the usage integral gains the same terms; the disk
            # starts idle, so its first grant is its first arrival's.
            in_use = (busy, 0 if n_read_ios[d] else 1, 1, integral[d],
                      firsts[d], last[d])
        disks.append((bytes_read[d], n_read_ios[d], busy, integral[d],
                      last[d], pushes[d], _gauge_fields(depth[d]), in_use))
    return _WarmState(now, seq, resumes, rng.bit_generator.state, cut,
                      tuple(arrivals), tuple(read[:-1] for read in reads),
                      tuple(disks), waits)


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
