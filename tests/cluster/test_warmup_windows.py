"""The windowed warm-up kernel against the event-loop kernel it replaced.

``foreground._simulate`` draws the readers' arrivals in one loop and
closes every ``_WINDOW`` of them with array passes.  The event-loop kernel
below is the one it replaced, kept verbatim as the reference: one heap
event per arrival and per service end, each run inline in the engine's
order.  The two must leave the same end state, field by field, down to the
type of every number (a depth gauge's value is a Python int that reaches
the JSON, where an equal float would print differently).
"""

import heapq
import math
import tracemalloc
from array import array
from collections import deque
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import foreground
from repro.cluster.disk import HDD, SSD
from repro.cluster.foreground import (
    _WarmState, _gauge_fields, _mean_interarrival)
from repro.obs.metrics import Gauge

MB = 1 << 20


def reference_simulate(rng: np.random.Generator, models: tuple,
                       utilization: float, mean_bytes: int, mean_ios: int,
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


# ----------------------------------------------------------------------
# The windowed kernel equals the reference
# ----------------------------------------------------------------------
def same_end_states(run, models, utilization, mean_bytes, warmup, window):
    """Run both kernels on equal generators (``run()`` makes one) and
    compare their end states, ``None`` or every field's ``repr``."""
    mean_ios = foreground._mean_ios(mean_bytes)
    reference = reference_simulate(run(), models, utilization, mean_bytes,
                                   mean_ios, warmup)
    with mock.patch.object(foreground, "_WINDOW", window):
        state = foreground._simulate(run(), models, utilization, mean_bytes,
                                     mean_ios, warmup)
    assert (state is None) == (reference is None)
    if reference is not None:
        for field in _WarmState._fields:
            assert (repr(getattr(state, field))
                    == repr(getattr(reference, field))), field
    return state


def fastest_interarrival(models, utilization, mean_bytes):
    return min(_mean_interarrival(model, utilization, mean_bytes,
                                  foreground._mean_ios(mean_bytes))
               for model in models)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       models=st.lists(st.sampled_from([HDD, SSD]), min_size=1, max_size=6),
       utilization=st.floats(min_value=0.05, max_value=0.97),
       mean_bytes=st.integers(min_value=1, max_value=32 * MB),
       arrivals=st.floats(min_value=0.0, max_value=60.0),
       window=st.integers(min_value=1, max_value=7))
def test_windows_equal_the_reference(seed, models, utilization, mean_bytes,
                                     arrivals, window):
    """Windows of 1-7 arrivals carry reads queued and in service across
    their boundaries, grant waiters in later windows, leave disks idle
    for whole windows and end at the cut.  ``arrivals`` sizes the
    warm-up in the fastest disk's mean inter-arrival times."""
    models = tuple(models)
    warmup = arrivals * fastest_interarrival(models, utilization, mean_bytes)
    state = same_end_states(lambda: np.random.default_rng(seed), models,
                            utilization, mean_bytes, warmup, window)
    assert state is not None
    assert type(state.waits) is array


class _Coarse:
    """A generator whose inter-arrival draws are whole multiples of a
    power of two, so sums of them are exact: arrivals meet each other and
    the grid disk's service ends, and some draws are zero."""

    def __init__(self, seed, quantum):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator
        self.random = self._rng.random
        self.quantum = quantum

    def exponential(self, scale):
        draw = self._rng.exponential(scale)
        return round(draw / self.quantum) * self.quantum


#: A disk whose service time is its I/O count times 2**-12 s (its
#: bandwidth is unbounded), so its service ends fall on the grid.
GRID = replace(SSD, name="grid", seek_time=2.0**-12, read_bandwidth=math.inf)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       models=st.lists(st.sampled_from([GRID, SSD]), min_size=1,
                       max_size=4),
       utilization=st.floats(min_value=0.3, max_value=0.97),
       arrivals=st.floats(min_value=0.0, max_value=30.0),
       fineness=st.integers(min_value=0, max_value=10),
       window=st.integers(min_value=1, max_value=7))
def test_windows_fall_back_where_the_reference_does(
        seed, models, utilization, arrivals, fineness, window):
    """Two events at one instant, whichever windows they fall in, give
    ``None`` exactly where the reference does; the finer the draws'
    grid, the later the first such instant comes."""
    models = tuple(models)
    warmup = arrivals * fastest_interarrival(models, utilization, 4096)
    same_end_states(lambda: _Coarse(seed, GRID.seek_time / 2**fineness),
                    models, utilization, 4096, warmup, window)


def test_the_full_w2_warmup_equals_the_reference():
    """The paper-scale warm-up: ~124k arrivals, ~120 full windows."""
    args = ((SSD,) * 16, 0.5, 72 * 1024, 2.0, foreground._WINDOW)
    state = same_end_states(lambda: np.random.default_rng(0), *args)
    assert len(state.waits) > 120_000


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def test_the_full_w2_warmup_stays_within_its_memory():
    """The windows bound the passes' buffers: what stays is the ~124k
    queue waits the kernel returns (~1 MiB).  A kernel that kept a Python
    object per arrival would peak at tens of MiB."""
    tracemalloc.start()
    try:
        state = foreground._simulate(np.random.default_rng(0), (SSD,) * 16,
                                     0.5, 72 * 1024, 1, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(state.waits) > 120_000
    assert peak <= 2.5 * MB
