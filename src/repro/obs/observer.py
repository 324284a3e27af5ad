"""The Observer: one handle bundling metrics, tracing and the engine hooks.

Instrumented code takes an ``obs`` argument defaulting to ``None`` — the
no-observer case costs one ``is not None`` test per operation, which keeps
the simulator's benchmark numbers unchanged when observability is off.

A *context-scoped default observer* lets entry points (the experiment
runner, the CLI's ``--trace`` / ``--metrics`` flags) switch on
observability for code paths that build their own
:class:`~repro.cluster.RCStor` systems internally, without threading an
argument through every experiment module.  The default lives in a
:class:`contextvars.ContextVar`, not a module global: each scenario unit
the runner executes — whether inline or inside a worker process — installs
its own observer with :func:`observed` and ships a summary back, so
parallel and serial runs observe bit-identically; code that builds a
system reads it with :func:`get_default_observer`.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


class Observer:
    """A metrics registry plus a span tracer, shared across measurements;
    also the engine's hook object.

    An :class:`~repro.sim.Environment` built with ``trace_hooks=obs``
    counts its own activity and adds it into ``events_scheduled`` and
    ``process_resumes`` (see :mod:`repro.sim.engine`).  The tools —
    ``invariants`` (installed by
    :func:`repro.analysis.attach_invariant_checker`), ``timeline``,
    ``profiler`` and ``flightrec`` (installed by
    :func:`repro.obs.attach_timeline` / :func:`repro.obs.attach_profiler`
    / :func:`repro.obs.attach_flightrec`) — are ``None`` when off, and
    instrumented code reaches them with one attribute load plus an ``is
    not None`` test.  Only a tool that must see each engine event gets
    the per-event hooks bound (:meth:`event_hooks`), so attaching one
    cannot change what the engine counts.
    """

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        # Registered up front, so every snapshot lists them, also for a
        # unit that builds no environment.
        self.events_scheduled = self.metrics.counter("engine.events_scheduled")
        self.process_resumes = self.metrics.counter("engine.process_resumes")
        self.invariants = None
        self.timeline = None
        self.profiler = None
        self.flightrec = None

    def event_hooks(self):
        """``(on_schedule, on_resume)`` for an environment to bind, each
        ``None`` unless an attached tool needs every such event: a flight
        recorder or invariant checker each scheduled event, a profiler
        each process resume.  Read once, when the environment is built.
        """
        schedule = (self.on_schedule if self.flightrec is not None
                    or self.invariants is not None else None)
        resume = self.on_resume if self.profiler is not None else None
        return schedule, resume

    def on_schedule(self, when: float, event) -> None:
        """Engine hook: pass one scheduled event to the tools."""
        if self.flightrec is not None:
            self.flightrec.on_schedule(when, event)
        if self.invariants is not None:
            self.invariants.on_schedule(when, event)

    def on_resume(self, process, trigger) -> None:
        """Engine hook: pass one process resume to the profiler."""
        self.profiler.on_resume(process)


_default_observer: ContextVar[Observer | None] = ContextVar(
    "repro_default_observer", default=None)


def get_default_observer() -> Observer | None:
    """The context's default observer, or ``None`` when disabled."""
    return _default_observer.get()


@contextmanager
def observed(obs: Observer | None = None):
    """Context manager: install ``obs`` (a fresh Observer by default) as the
    context-scoped default for the duration of the block, yielding it."""
    if obs is None:
        obs = Observer()
    token = _default_observer.set(obs)
    try:
        yield obs
    finally:
        _default_observer.reset(token)
