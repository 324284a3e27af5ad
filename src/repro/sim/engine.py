"""Event loop, events, timeouts and generator-coroutine processes.

Processes are Python generators that ``yield`` events; the engine resumes a
process with the event's value once it triggers.  A process is itself an
event that triggers with the generator's return value, so processes can wait
on each other and on :class:`AllOf` fan-ins.

Hot-path layout
---------------
The scheduler is the single hottest loop of the whole reproduction (every
disk I/O is three to five events), so its data structures are chosen for
constant factors, and every optimization is constrained to be *bit-identical*:
the pop order of events and the number of scheduled events / process resumes
(both observable through trace hooks and the ``--json`` metric snapshots)
must not change — see DESIGN.md, "The bit-identity constraint".

* Events carry ``__slots__`` and a ``_queued`` flag instead of membership in
  a side ``set`` — no per-event hashing on the schedule/pop path.
* The queue is split into a binary heap for *future* events (timeouts) and a
  FIFO deque for *immediate* events (triggered callbacks, process starts,
  zero-delay timeouts), which dominate the event mix.  Entries are plain
  ``(when, seq, event)`` tuples in both.  Immediate events are appended with
  ``when == now`` and a monotonically increasing ``seq`` while the clock
  only moves forward, so the deque is always sorted by ``(when, seq)`` and
  the global pop order — min of deque head and heap head — is exactly the
  order a single shared heap would produce.
* Event/Timeout/Process construction inlines the base initializer and the
  schedule step: object churn per simulated I/O is a handful of tuple and
  list allocations, with no callback indirection beyond the one stored
  waiter callback.
* The process registry holds only *unfinished* processes, in a dict used
  as an insertion-ordered set; a process leaves it when it finishes.  A
  busy run starts hundreds of thousands of short-lived disk-read processes
  that would otherwise stay reachable (with their generators) until the
  environment dies, growing the heap and the cyclic GC's rescans.
  :meth:`Environment.close` still closes the survivors in creation order:
  that order fixes when their ``with``-held grants release, hence the
  metrics, so it must not depend on which processes happened to finish.
* Engine activity is counted natively, and only so.  ``seq`` already
  numbers every enqueue and a per-environment tally counts resumes; both
  are added into the observer's ``engine.events_scheduled``/
  ``engine.process_resumes`` counters when :meth:`Environment.run`
  returns, before each timeline sample and in :meth:`Environment.close`.
  Per-event hooks are bound only when the observer says a tool needs each
  event (a flight recorder, invariant checker or profiler), decided once
  when the environment is built; they never count, so attaching a tool
  cannot move the counters.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable


class SimulationError(RuntimeError):
    """Raised for engine misuse (e.g. yielding a non-event)."""


class Interrupted(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries the interrupter's reason (e.g. the fault event that
    made the wait pointless).  Processes that hold resources across waits
    must release them on this path — the simlint rules RES302/FLT501 and
    the :class:`~repro.sim.resources.Request` context manager exist to
    make that automatic.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot event; callbacks fire when it triggers.

    ``_queued`` is True while the event sits in the engine's queue (between
    scheduling and its pop in :meth:`Environment.run`); waiters use it to
    tell a fired-and-drained event from one whose callbacks are still due.
    """

    __slots__ = ("env", "callbacks", "_value", "triggered", "_queued")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self.triggered = False
        self._queued = False

    @property
    def value(self) -> Any:
        """The value the event triggered with."""
        if not self.triggered:
            raise SimulationError("event has not triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger now (schedules callbacks at the current time)."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self._value = value
        env = self.env
        env._seq = seq = env._seq + 1
        self._queued = True
        env._ready.append((env.now, seq, self))
        hook = env._on_schedule
        if hook is not None:
            hook(env.now, self)
        return self


class Timeout(Event):
    """An event that triggers ``delay`` time units in the future."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self.triggered = True  # pre-armed: nobody may succeed() it again
        self._queued = True
        when = env.now + delay
        env._seq = seq = env._seq + 1
        if when > env.now:
            heapq.heappush(env._queue, (when, seq, self))
        else:
            env._ready.append((when, seq, self))
        hook = env._on_schedule
        if hook is not None:
            hook(when, self)


class Process(Event):
    """Wraps a generator; triggers with the generator's return value.

    A suspended process can be cancelled with :meth:`interrupt`: the
    engine throws :class:`Interrupted` into the generator at its current
    ``yield``, running ``with`` / ``try/finally`` cleanup (releasing or
    cancelling resource grants) on the way out.
    """

    # ``__weakref__`` lets tests prove a finished process is not retained.
    __slots__ = ("_gen", "_on_resume", "_target", "__weakref__")

    def __init__(self, env: "Environment", gen: Generator):
        if not hasattr(gen, "send"):
            raise SimulationError("process target must be a generator")
        self.env = env
        self.callbacks = []
        self._value = None
        self.triggered = False
        self._queued = False
        self._gen = gen
        self._on_resume = env._on_resume
        env._processes[self] = None
        # Start the process at the current time.
        start = Event(env)
        start.callbacks.append(self._resume)
        self._target: Event | None = start
        start.triggered = True
        env._seq = seq = env._seq + 1
        start._queued = True
        env._ready.append((env.now, seq, start))
        hook = env._on_schedule
        if hook is not None:
            hook(env.now, start)

    def _finish(self, value: Any) -> None:
        self._target = None
        self.triggered = True
        self._value = value
        env = self.env
        # pop, not del: a process resumed after close() (which empties the
        # registry) finishes here too.
        env._processes.pop(self, None)
        env._seq = seq = env._seq + 1
        self._queued = True
        env._ready.append((env.now, seq, self))
        hook = env._on_schedule
        if hook is not None:
            hook(env.now, self)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes must yield events")
        if target.triggered and not target.callbacks and not target._queued:
            # Already fired and drained: resume immediately via a fresh hop.
            hop = Event(self.env)
            hop.callbacks.append(self._resume)
            self._target = hop
            hop.succeed(target._value)
        else:
            target.callbacks.append(self._resume)
            self._target = target

    def _resume(self, trigger: Event) -> None:
        if trigger is not self._target:
            # Stale wakeup: the wait was interrupted (or finished) after
            # this event had already been detached for firing.
            return
        hook = self._on_resume
        if hook is not None:
            hook(self, trigger)
        self.env._resumes += 1
        try:
            target = self._gen.send(trigger._value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        # Inlined _wait_on: EAFP stands in for the isinstance check —
        # anything without an event's callback list is a misuse.
        try:
            cbs = target.callbacks
        except AttributeError:
            raise SimulationError(
                f"process yielded {target!r}; processes must yield "
                f"events") from None
        if target.triggered and not cbs and not target._queued:
            hop = Event(self.env)
            hop.callbacks.append(self._resume)
            self._target = hop
            hop.succeed(target._value)
        else:
            cbs.append(self._resume)
            self._target = target

    def interrupt(self, cause: Any = None) -> bool:
        """Cancel this process's current wait by throwing
        :class:`Interrupted` into its generator.

        The generator's cleanup (``finally`` blocks, ``with`` exits) runs
        immediately.  If the generator catches the interrupt and yields a
        new event, the process keeps running on that event; otherwise it
        finishes, triggering with the :class:`Interrupted` instance as its
        value.  Returns ``False`` (and does nothing) if the process has
        already finished.
        """
        if self.triggered or self._gen.gi_frame is None:
            return False
        target = self._target
        if target is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        try:
            new_target = self._gen.throw(Interrupted(cause))
        except StopIteration as stop:
            self._finish(stop.value)
            return True
        except Interrupted as exc:
            # The same instance and cause, minus the traceback: its frames
            # hold this process, which would then hold itself.
            self._finish(exc.with_traceback(None))
            return True
        self._wait_on(new_target)
        return True


class AllOf(Event):
    """Triggers once every child event has triggered (value: list of values)."""

    __slots__ = ("_waiting", "_events")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._waiting = 0
        for ev in self._events:
            if ev.triggered and not ev.callbacks and not ev._queued:
                continue
            self._waiting += 1
            ev.callbacks.append(self._child_done)
        if self._waiting == 0:
            self.succeed([ev._value for ev in self._events])

    def _child_done(self, _ev: Event) -> None:
        self._waiting -= 1
        if self._waiting == 0 and not self.triggered:
            self.succeed([ev._value for ev in self._events])


class AnyOf(Event):
    """Triggers with the first child event's value (a race / select).

    The losing children keep running; racing a wait against an
    ``env.timeout`` and then interrupting the loser is the timeout idiom
    used by the failure-aware repair paths.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        if not self._events:
            raise SimulationError("any_of requires at least one event")
        for ev in self._events:
            if ev.triggered and not ev.callbacks and not ev._queued:
                # Already fired and drained: win the race immediately.
                self.succeed(ev._value)
                return
        for ev in self._events:
            ev.callbacks.append(self._child_done)

    def _child_done(self, ev: Event) -> None:
        if not self.triggered:
            self.succeed(ev._value)


class Environment:
    """The simulation clock and event queue.

    ``trace_hooks`` (optional) is an observer (:class:`repro.obs.Observer`,
    duck-typed so this layer imports nothing from ``repro.obs``).  The
    environment adds its own event and resume counts into the observer's
    ``events_scheduled``/``process_resumes`` counters (see the module
    docstring), binds the ``(on_schedule, on_resume)`` pair its
    ``event_hooks()`` returns, and lets its ``timeline``, if any, sample
    the clock.  Bound once at construction (``_on_schedule``/
    ``_on_resume``), an unbound hook costs the hot path one ``is not
    None`` test per event.

    Future events (positive-delay timeouts) live in the ``_queue`` heap;
    immediate events (callbacks of triggered events, process starts,
    zero-delay timeouts) live in the ``_ready`` FIFO deque.  See the module
    docstring for why popping the smaller of the two heads reproduces the
    single-heap order exactly.
    """

    __slots__ = ("now", "_queue", "_ready", "_seq", "_resumes", "_counted",
                 "_counters", "_processes", "_on_schedule", "_on_resume",
                 "_on_advance")

    def __init__(self, trace_hooks=None):
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._ready: deque[tuple[float, int, Event]] = deque()
        self._seq = 0
        # Native counts: resumes since the last flush, and ``_seq`` at it.
        self._resumes = 0
        self._counted = 0
        # Unfinished processes in creation order (a dict used as an
        # ordered set): a process leaves it when it finishes.
        self._processes: dict[Process, None] = {}
        self._on_schedule = None
        self._on_resume = None
        self._counters = None
        # Clock-advance hook: a sim-time sampler (repro.obs.timeline) binds
        # a per-environment cursor here.  Duck-typed so the engine never
        # imports the obs layer; the untimed hot path pays one `is not
        # None` test per forward clock move.
        self._on_advance = None
        if trace_hooks is not None:
            self._counters = (trace_hooks.events_scheduled,
                              trace_hooks.process_resumes)
            self._on_schedule, self._on_resume = trace_hooks.event_hooks()
            timeline = trace_hooks.timeline
            if timeline is not None:
                self._on_advance = timeline.bind(self)

    def _flush_counts(self) -> None:
        """Add the enqueues and resumes since the last flush into the
        observer's counters (a no-op without an observer)."""
        counters = self._counters
        if counters is not None:
            scheduled, resumed = counters
            scheduled.value += self._seq - self._counted
            resumed.value += self._resumes
            self._counted = self._seq
            self._resumes = 0

    def _adopt(self, gen: Generator,
               at: tuple[float, int] | None = None) -> Process:
        """Adopt ``gen`` as a process already waiting on its first event.

        The restore half of the busy warm-up kernel
        (:mod:`repro.cluster.foreground`): a process whose earlier steps
        were simulated as data resumes here exactly where the original
        would.  ``gen`` is primed to its first ``yield``, which must yield
        an event; the new process waits on it and joins the registry last.
        With ``at=(when, seq)`` that event is placed, pre-triggered, at
        this absolute queue position, so it pops where the original's
        did.  Without, whoever owns the event triggers it (a request in a
        resource's wait queue).

        No start event is scheduled and no resume is counted: the caller
        restores ``now``, ``_seq`` and ``_resumes`` to cover the steps
        simulated elsewhere, so the native counters count them as if they
        had run here.
        """
        process = Process.__new__(Process)
        process.env = self
        process.callbacks = []
        process._value = None
        process.triggered = False
        process._queued = False
        process._gen = gen
        process._on_resume = self._on_resume
        self._processes[process] = None
        target = next(gen)
        if at is not None:
            target.triggered = True
            target._queued = True
            heapq.heappush(self._queue, (at[0], at[1], target))
        target.callbacks.append(process._resume)
        process._target = target
        return process

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing after the given delay."""
        return Timeout(self, delay, value)

    def process(self, gen: Generator) -> Process:
        """Start a generator as a process; returns its Process event."""
        return Process(self, gen)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event triggering when every given event has triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event triggering when the first given event triggers."""
        return AnyOf(self, events)

    def run(self, until: Event | float | None = None) -> Any:
        """Run until the given event triggers / time passes / queue drains.

        Returns the event's value when ``until`` is an event.  A time
        ``until`` before ``now`` raises :class:`SimulationError`: the clock
        never runs backwards.
        """
        if isinstance(until, Event):
            stop_event = until
            deadline = None
        elif until is None:
            stop_event = None
            deadline = None
        else:
            stop_event = None
            deadline = float(until)
            if deadline < self.now:
                raise SimulationError(
                    f"sim clock would run backwards: run(until={deadline!r}) "
                    f"at t={self.now!r}")
        try:
            return self._dispatch(stop_event, deadline)
        finally:
            # Also on a raise, so a postmortem snapshot sees the counts.
            self._flush_counts()

    def _dispatch(self, stop_event: Event | None,
                  deadline: float | None) -> Any:
        queue = self._queue
        ready = self._ready
        pop = heapq.heappop
        popleft = ready.popleft
        while True:
            # The next event is the smaller (when, seq) of the two heads;
            # seq values are unique, so the tuple compare never reaches
            # the (incomparable) event objects.
            if ready:
                head = ready[0]
                if queue and queue[0] < head:
                    head = queue[0]
                    in_heap = True
                else:
                    in_heap = False
            elif queue:
                head = queue[0]
                in_heap = True
            else:
                break
            when = head[0]
            if deadline is not None and when > deadline:
                self.now = deadline
                return None
            if in_heap:
                pop(queue)
            else:
                popleft()
            event = head[2]
            event._queued = False
            if when < self.now:
                raise SimulationError(
                    f"sim clock would run backwards: event at t={when!r} "
                    f"popped at t={self.now!r}")
            if when > self.now:
                # The clock only moves here, so a timeline sampler sees
                # every forward advance exactly once, *before* the events
                # at the new time run — it reads registry state as of the
                # interval just closed, and schedules nothing itself.
                advance = self._on_advance
                if advance is not None:
                    self._flush_counts()
                    advance(when)
                self.now = when
            callbacks = event.callbacks
            if callbacks:
                event.callbacks = []
                for cb in callbacks:
                    cb(event)
            if stop_event is not None and stop_event.triggered:
                return stop_event._value
        if stop_event is not None and not stop_event.triggered:
            raise SimulationError("simulation ran dry before the awaited event")
        if deadline is not None:
            self.now = deadline
        return None

    def close(self) -> None:
        """Close every unfinished process generator of this environment.

        Open-ended processes abandoned at the end of a run (load
        generators, server loops) are otherwise finalized whenever garbage
        collection reaches them — possibly while a *later* environment
        shares their observer, at a moment that depends on the host
        process's allocation history.  Their ``with``-held resource grants
        would then release into someone else's metrics.  Closing here pins
        that cleanup to a deterministic point: releases happen in process
        creation order at this environment's final sim time.

        The registry holds only unfinished processes (finished ones leave
        it, so a long run does not retain them), still in creation order.
        Cleanup may finish other processes (an interrupt) or start new
        ones; the latter are closed after the rest, as the order demands.

        A closed environment is finished: do not run it again.  Closing
        drops what only a further run would use: each closed process's
        wait target, and every still-queued event with its callbacks.  A
        waiting process and its target reference each other, and every
        queued event references the environment, so without this the
        environment and its processes would wait for the cyclic collector
        instead of being freed by reference counting.
        """
        processes = self._processes
        while processes:
            batch = list(processes)
            processes.clear()
            for process in batch:
                process._gen.close()
                process._target = None
        # Grant releases during cleanup schedule events: count them too.
        self._flush_counts()
        for queue in (self._queue, self._ready):
            for _when, _seq, event in queue:
                event.callbacks = []
            queue.clear()
