"""The fault injector: replays a :class:`~repro.faults.FaultPlan` against
a live simulation.

The injector owns one replay process for the plan's *timed* events and
fires *progress* events when the recovery engine reports completed-weight
fractions (:meth:`FaultInjector.notify_progress`).  Applying an event
mutates the target device's fault state (``failed`` flag, ``speed_factor``
multiplier, ``pending_corrupt`` budget) — the devices themselves stay
fault-agnostic beyond those attributes, so the unfaulted hot path costs
nothing.

Disk crashes additionally notify subscribers (the failure-aware recovery
engine registers one to escalate affected placement groups mid-run) and
every applied event lands in the observer as a ``faults.injected`` counter
and a zero-length span on the runtime's ``faults`` track.  When the
observer carries second-generation telemetry the injector feeds it too —
duck-typed (``getattr``), so this layer never imports ``repro.obs``: each
applied event drops a ``fault:<kind>`` mark on the timeline segment, and
the flight recorder's fault-state summary is refreshed so a postmortem
bundle shows which disks were down when things went wrong.
"""

from __future__ import annotations

from typing import Callable

from repro.faults.plan import FaultEvent, FaultPlan
from repro.sim import Environment


class FaultInjector:
    """Replays a fault plan against one measurement's devices."""

    def __init__(self, env: Environment, disks: list, nics: list,
                 plan: FaultPlan, obs=None, links: dict | None = None):
        self.env = env
        self.disks = disks
        self.nics = nics
        #: Name -> Link registry (a Fabric's ``links``): how rack-scoped
        #: events find their target, and the preferred route for nic_slow.
        self.links = links if links is not None else {}
        self.plan = plan
        self.helper_timeout = plan.helper_timeout
        self.failed_disks: set[int] = set()
        self.injected: list[FaultEvent] = []
        #: disk id -> latent errors injected but not yet scrubbed away.
        #: Reads may consume them first (surfacing IO_CORRUPT); a scrub
        #: clears whatever is still pending, so the two discovery paths
        #: race exactly as the durability model describes.
        self.latent_errors: dict[int, int] = {}
        #: Total latent errors a scrub repaired before any read hit them.
        self.scrubbed_errors = 0
        self._active_slowdowns: dict[int, list[float]] = {}
        self._on_disk_failure: list[Callable[[int], None]] = []
        self._progress_pending = list(plan.progress_events)
        # An empty plan stands for "no faults" and must leave the metric
        # registry exactly as a run without an injector would.
        self._counter = (obs.metrics.counter("faults.injected")
                         if obs is not None and plan else None)
        self._timeline = getattr(obs, "timeline", None) \
            if obs is not None else None
        self._flightrec = getattr(obs, "flightrec", None) \
            if obs is not None else None
        #: Optional ``(name, start, end, **args)`` span recorder, installed
        #: by the runtime that owns this injector.
        self.span_cb: Callable | None = None
        if plan.timed_events:
            env.process(self._replay())

    # ------------------------------------------------------------------
    @property
    def has_progress_events(self) -> bool:
        return bool(self._progress_pending)

    def on_disk_failure(self, callback: Callable[[int], None]) -> None:
        """Subscribe to disk-crash events (called with the disk id)."""
        self._on_disk_failure.append(callback)

    def close(self) -> None:
        """Drop every disk-crash subscription once the measurement is over.

        Subscribers such as the recovery engine's escalation callback
        close over the runtime that owns this injector, so keeping them
        would keep that runtime in a reference cycle.
        """
        self._on_disk_failure.clear()

    def notify_progress(self, fraction: float) -> None:
        """Fire progress-triggered events crossed by ``fraction``."""
        while self._progress_pending \
                and self._progress_pending[0].at_progress <= fraction:
            self._apply(self._progress_pending.pop(0))

    # ------------------------------------------------------------------
    def _replay(self):
        for event in self.plan.timed_events:
            if event.at > self.env.now:
                yield self.env.timeout(event.at - self.env.now)
            self._apply(event)

    def _apply(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind == "disk_crash":
            self._crash_disk(event.disk)
        elif kind == "node_crash":
            per_node = len(self.disks) // len(self.nics)
            first = event.node * per_node
            for disk_id in range(first, first + per_node):
                self._crash_disk(disk_id)
        elif kind == "disk_slow":
            self._slow(self.disks[event.disk], event.factor, event.duration)
        elif kind == "nic_slow":
            nic = self.links.get(f"nic-{event.node}")
            self._slow(nic if nic is not None else self.nics[event.node],
                       event.factor, event.duration)
        elif kind == "tor_slow":
            link = self.links.get(f"tor-{event.rack}")
            if link is None:
                raise ValueError(
                    f"tor_slow targets rack {event.rack} but the fabric "
                    "has no ToR links (single-rack cluster?)")
            self._slow(link, event.factor, event.duration)
        elif kind == "corrupt":
            self.disks[event.disk].pending_corrupt += event.count
        elif kind == "latent_error":
            self.disks[event.disk].pending_corrupt += event.count
            self.latent_errors[event.disk] = \
                self.latent_errors.get(event.disk, 0) + event.count
        elif kind == "scrub":
            disk = self.disks[event.disk]
            hidden = self.latent_errors.pop(event.disk, 0)
            cleared = min(hidden, disk.pending_corrupt)
            disk.pending_corrupt -= cleared
            self.scrubbed_errors += cleared
        self.injected.append(event)
        if self._counter is not None:
            self._counter.inc()
        if self.span_cb is not None:
            now = self.env.now
            self.span_cb(f"fault:{kind}", now, now, **event.to_doc())
        if self._timeline is not None:
            self._timeline.mark(self.env, f"fault:{kind}", **event.to_doc())
        if self._flightrec is not None:
            self._flightrec.note_fault_state({
                "injected": len(self.injected),
                "failed_disks": sorted(self.failed_disks),
            })

    def _crash_disk(self, disk_id: int) -> None:
        if disk_id in self.failed_disks:
            return
        self.disks[disk_id].failed = True
        self.failed_disks.add(disk_id)
        for callback in self._on_disk_failure:
            callback(disk_id)

    def _slow(self, device, factor: float, duration: float | None) -> None:
        # Overlapping slowdown windows on one device must compose exactly:
        # each window registers its factor and the device speed is always
        # the product of the *currently active* factors, so restores cannot
        # drift the speed through out-of-order divides.
        if factor == 1.0:
            return
        active = self._active_slowdowns.setdefault(id(device), [])
        active.append(factor)
        self._recompute_speed(device, active)

        def restore():
            yield self.env.timeout(duration)
            active.remove(factor)
            self._recompute_speed(device, active)

        if duration is not None:
            self.env.process(restore())

    @staticmethod
    def _recompute_speed(device, active: list[float]) -> None:
        speed = 1.0
        for factor in active:
            speed *= factor
        device.speed_factor = speed
