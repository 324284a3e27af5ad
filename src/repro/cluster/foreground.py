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
  in the engine's ``(when, seq)`` order.  It numbers events as the engine
  would, makes the same ``rng`` draws and float operations, and returns
  the end state as :class:`_WarmState`: the clock, event and resume
  counts, the ``rng`` state, each reader's next arrival, each read still
  queued or in service, each disk's counters, queue accounting and gauge
  fields, and every queue wait in grant order.
* **Memo.** End states are kept per process, keyed on everything they
  depend on (disk models, utilization, mean read size and I/Os, the
  ``rng`` state, i.e. the seed, and the warm-up length).  A few entries at
  most, and data only: never an environment.
* **Restore.** :func:`_restore` rebuilds the end state inside the
  measurement's fresh environment.  Readers and in-flight reads run the
  same generators as in the DES (:func:`_generator`, :meth:`Disk.read`),
  adopted at their original queue positions
  (:meth:`~repro.sim.Environment._adopt`).  The waits replay through the
  shared ``disk.queue_wait{lane=0}`` histogram's own ``observe``: its
  total and reservoir depend on what earlier measurements left in it.
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


def _mean_ios(mean_read_bytes: int, mean_ios_per_read: int | None) -> int:
    if mean_ios_per_read is None:
        return max(1, mean_read_bytes // (16 * MB) + 1)
    return mean_ios_per_read


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
                          mean_ios_per_read: int | None = None,
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
    mean_ios = _mean_ios(mean_read_bytes, mean_ios_per_read)
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
    mean_ios = _mean_ios(mean_read_bytes, None)
    if (env._on_schedule is None and env._on_resume is None
            and env._on_advance is None and not env._seq
            and not env._queue and not env._ready):
        state = _end_state(rng, tuple(disk.model for disk in disks),
                           utilization, mean_read_bytes, mean_ios, warmup)
        if state is not None:
            return _restore(state, env, disks, rng, driver, utilization,
                            mean_read_bytes, mean_ios, obs)
    start_foreground_load(env, disks, rng, utilization, mean_read_bytes,
                          mean_ios, getattr(obs, "invariants", None))
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


# Kernel event kinds: what the engine would resume when the entry pops.
_ARRIVAL, _START, _GRANT, _DONE, _READER_START, _DRIVER_START, _CUT = \
    range(7)


def _simulate(rng: np.random.Generator, models: tuple, utilization: float,
              mean_bytes: int, mean_ios: int,
              warmup: float) -> _WarmState | None:
    """Run the warm-up as data; ``None`` if its end state is one
    :func:`_restore` does not rebuild.

    The event loop is the engine's: a heap of future entries and a FIFO of
    entries at the current time, both ``(when, seq, kind, disk, read)``,
    popped by ``(when, seq)``.  Each kind does what the process it stands
    for would do when resumed (:func:`_generator`, :meth:`Disk.read` on a
    :class:`~repro.sim.PriorityResource` of capacity one, the
    measurement's driver), and every event the engine would schedule takes
    a ``seq``.  A read's finish event takes one too but is never queued:
    nothing waits on it, so its pop does nothing.  A read is the list
    ``[ios, size, created seq, request time, wait-queue index, grant
    time]``.
    """
    n = len(models)
    random, exponential = rng.random, rng.exponential
    read_time = [model.read_time for model in models]
    interarrival = [_mean_interarrival(model, utilization, mean_bytes,
                                       mean_ios) for model in models]
    heap: list = []
    ready: deque = deque()
    push, pop = heapq.heappush, heapq.heappop
    append, popleft = ready.append, ready.popleft
    in_use = [0] * n
    queued = [deque() for _ in range(n)]
    pushes = [0] * n
    integral = [0.0] * n
    last = [0.0] * n
    bytes_read = [0] * n
    n_read_ios = [0] * n
    depth = [Gauge("") for _ in range(n)]
    busy = [Gauge("") for _ in range(n)]
    waits = array("d")
    observe = waits.append
    now = 0.0
    seq = resumes = 0
    # t = 0: the readers' start events, then the driver's.
    for d in range(n):
        seq += 1
        append((now, seq, _READER_START, d, None))
    seq += 1
    append((now, seq, _DRIVER_START, -1, None))
    while True:
        if ready:
            head = ready[0]
            if heap and heap[0] < head:
                head = pop(heap)
            else:
                popleft()
        else:
            head = pop(heap)
        when, _seq, kind, d, read = head
        if kind == _CUT:
            break
        now = when
        resumes += 1
        if kind == _ARRIVAL:
            size = int(mean_bytes * 2 ** (2.0 * random() - 1.0))
            ios = max(1, int(round(mean_ios * size / mean_bytes)))
            seq += 1
            append((now, seq, _START, d, [ios, size, seq, now, 0, now]))
            seq += 1
            at = now + float(exponential(interarrival[d]))
            (push(heap, (at, seq, _ARRIVAL, d, None)) if at > now
             else append((at, seq, _ARRIVAL, d, None)))
        elif kind == _START:
            read[3] = now
            waiting = queued[d]
            if not in_use[d] and not waiting:
                # Granted at once.  The usage integral gains 0 * elapsed.
                last[d] = now
                in_use[d] = 1
                read[5] = now
                observe(now - read[3])
                depth[d].set(0, now)
                busy[d].set(1, now)
                seq += 1
                append((now, seq, _GRANT, d, read))
            else:
                read[4] = pushes[d]
                pushes[d] += 1
                waiting.append(read)
                depth[d].set(len(waiting), now)
        elif kind == _GRANT:
            seq += 1
            at = now + read_time[d](read[0], read[1], None)
            (push(heap, (at, seq, _DONE, d, read)) if at > now
             else append((at, seq, _DONE, d, read)))
        elif kind == _DONE:
            # Release (one unit in use), then grant the next waiter.
            integral[d] += now - last[d]
            last[d] = now
            in_use[d] = 0
            busy[d].set(0, now)
            waiting = queued[d]
            if waiting:
                nxt = waiting.popleft()
                in_use[d] = 1
                nxt[5] = now
                observe(now - nxt[3])
                depth[d].set(len(waiting), now)
                busy[d].set(1, now)
                seq += 1
                append((now, seq, _GRANT, d, nxt))
            bytes_read[d] += read[1]
            n_read_ios[d] += read[0]
            seq += 1  # the read's finish event
        elif kind == _READER_START:
            seq += 1
            at = now + float(exponential(interarrival[d]))
            (push(heap, (at, seq, _ARRIVAL, d, None)) if at > now
             else append((at, seq, _ARRIVAL, d, None)))
        else:  # _DRIVER_START
            seq += 1
            at = now + warmup
            (push(heap, (at, seq, _CUT, -1, None)) if at > now
             else append((at, seq, _CUT, -1, None)))
    arrivals: list = [None] * n
    reads = [(d, read[0], read[1], read[3], read[4], None, None, read[2])
             for d in range(n) for read in queued[d]]
    for entry_when, entry_seq, kind, d, read in list(heap) + list(ready):
        if kind == _ARRIVAL:
            arrivals[d] = (entry_when, entry_seq)
        elif kind == _DONE:
            reads.append((d, read[0], read[1], read[3], None, read[5],
                          (entry_when, entry_seq), read[2]))
        else:
            return None  # a read just started or granted, at t = warmup
    reads.sort(key=lambda read: read[-1])
    return _WarmState(
        now, seq, resumes, rng.bit_generator.state, head[:2],
        tuple(arrivals), tuple(read[:-1] for read in reads),
        tuple((bytes_read[d], n_read_ios[d], in_use[d], integral[d],
               last[d], pushes[d], _gauge_fields(depth[d]),
               _gauge_fields(busy[d]))
              for d in range(n)),
        waits)


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
        # Through observe itself: the running total and the reservoir
        # slots depend on what the shared histogram already holds.
        deque(map(obs.metrics.histogram("disk.queue_wait",
                                        lane=FOREGROUND).observe,
                  state.waits), maxlen=0)
    return main
