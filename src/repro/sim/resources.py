"""FIFO and priority resources with utilization accounting.

Usage inside a process::

    req = disk.request(priority=1)
    yield req
    try:
        yield env.timeout(service_time)
    finally:
        disk.release(req)

or, equivalently, with the request as a context manager (released — or
cancelled, if never granted — on every exit path)::

    with disk.request(priority=1) as req:
        yield req
        yield env.timeout(service_time)

``Resource`` is strictly FIFO; ``PriorityResource`` serves lower priority
numbers first (FIFO within a priority class) — RCStor's storage servers use
priority lanes to keep foreground reads ahead of background recovery
(§5.1, "IO Scheduling").

Every :class:`Request` timestamps its creation and grant, so
:attr:`Request.queue_wait` reports queueing delay without callers tracking
sim times by hand.  Releases are strictly once-only: a double release
raises :class:`~repro.sim.engine.SimulationError` instead of silently
corrupting the utilization integral and waking spurious waiters.

Passing an :class:`~repro.obs.Observer` (plus a metric ``kind`` /
``instance``) records per-priority-lane wait-time histograms and
time-weighted queue-depth / in-use gauges; without one the only cost is a
single ``is not None`` test per request/grant/release.  If the observer
carries an :class:`~repro.analysis.InvariantChecker` (``obs.invariants``),
the resource registers itself for the end-of-run grant-leak audit.
"""

from __future__ import annotations

import heapq
from itertools import count

from repro.sim.engine import Environment, Event, SimulationError


class Request(Event):
    """A pending acquisition; triggers when the resource is granted."""

    __slots__ = ("resource", "priority", "granted", "released", "cancelled",
                 "request_time", "grant_time")

    def __init__(self, env: Environment, resource: "Resource", priority: int):
        # Inlined Event.__init__ — requests are created once per simulated
        # I/O, so the extra constructor hop is measurable.
        self.env = env
        self.callbacks = []
        self._value = None
        self.triggered = False
        self._queued = False
        self.resource = resource
        self.priority = priority
        self.granted = False
        self.released = False
        self.cancelled = False
        self.request_time = env.now
        self.grant_time: float | None = None

    @property
    def queue_wait(self) -> float:
        """Sim seconds spent queued (grant time − request time)."""
        if self.grant_time is None:
            raise SimulationError("request has not been granted yet")
        return self.grant_time - self.request_time

    def release(self) -> None:
        """Release this grant (same as ``resource.release(request)``)."""
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw this request from the wait queue before it is granted."""
        self.resource.cancel(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.granted and not self.released:
            self.resource.release(self)
        elif not self.granted and not self.cancelled and not self.released:
            self.resource.cancel(self)
        return False


class Resource:
    """A counted resource with a FIFO wait queue."""

    __slots__ = ("env", "capacity", "in_use", "_waiters", "_n_cancelled",
                 "_seq", "_usage_integral", "_created", "_last_change",
                 "_obs", "_kind", "_depth_gauge", "_in_use_gauge",
                 "_wait_hists")

    def __init__(self, env: Environment, capacity: int = 1, obs=None,
                 kind: str | None = None, instance: str | None = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        self._waiters: list[tuple[int, int, Request]] = []
        self._n_cancelled = 0
        self._seq = count()
        # Utilization accounting: integral of in_use over the lifetime.
        self._usage_integral = 0.0
        self._created = env.now
        self._last_change = env.now
        # Optional metrics (per-lane waits, queue depth, units in use).
        self._obs = obs if (obs is not None and kind is not None) else None
        if self._obs is not None:
            self._kind = kind
            labels = {"dev": instance} if instance is not None else {}
            self._depth_gauge = obs.metrics.gauge(f"{kind}.queue_depth",
                                                  **labels)
            self._in_use_gauge = obs.metrics.gauge(f"{kind}.in_use", **labels)
            self._wait_hists: dict[int, object] = {}
        # Optional runtime invariants: register for the grant-leak audit.
        invariants = getattr(obs, "invariants", None) if obs is not None \
            else None
        if invariants is not None:
            invariants.register_resource(self)

    # ------------------------------------------------------------------
    def _account(self) -> None:
        now = self.env.now
        self._usage_integral += self.in_use * (now - self._last_change)
        self._last_change = now

    def utilization(self) -> float:
        """Mean busy fraction (0..1) over the resource's lifetime.

        The lifetime runs from the resource's creation to ``env.now``, so
        resources created mid-simulation are not diluted by time before
        they existed.
        """
        self._account()
        elapsed = self.env.now - self._created
        if elapsed <= 0:
            return 0.0
        return self._usage_integral / elapsed / self.capacity

    @property
    def queue_length(self) -> int:
        """Number of live (non-cancelled) waiters queued on this resource."""
        return len(self._waiters) - self._n_cancelled

    # ------------------------------------------------------------------
    def request(self, priority: int = 0) -> Request:
        """Request the resource; yields when granted.

        The request succeeds with ``None``, as SimPy's do: hold on to the
        request itself to release it later.
        """
        req = Request(self.env, self, priority)
        waiters = self._waiters
        if self.in_use < self.capacity and len(waiters) == self._n_cancelled:
            if waiters:  # only cancelled husks remain: drop them
                waiters.clear()
                self._n_cancelled = 0
            self._grant(req)
        else:
            heapq.heappush(waiters, (self._key(priority), next(self._seq), req))
            if self._obs is not None:
                self._depth_gauge.set(self.queue_length, self.env.now)
        return req

    def _key(self, priority: int) -> int:
        return 0  # plain Resource ignores priority: strict FIFO

    def _grant(self, req: Request) -> None:
        # Inlined _account(): grants/releases bound the utilization
        # integral's update rate, and the call overhead shows in profiles.
        now = self.env.now
        self._usage_integral += self.in_use * (now - self._last_change)
        self._last_change = now
        self.in_use += 1
        req.granted = True
        req.grant_time = now
        if self._obs is not None:
            self._observe_grant(req)
        # No value: a request that held itself would be a reference cycle.
        req.succeed()

    def _observe_grant(self, req: Request) -> None:
        now = self.env.now
        hist = self._wait_hists.get(req.priority)
        if hist is None:
            hist = self._obs.metrics.histogram(f"{self._kind}.queue_wait",
                                               lane=req.priority)
            self._wait_hists[req.priority] = hist
        hist.observe(now - req.request_time)
        self._depth_gauge.set(self.queue_length, now)
        self._in_use_gauge.set(self.in_use, now)

    def release(self, req: Request) -> None:
        """Release a granted request, waking the next waiter.

        Releases are once-only: releasing the same request twice raises
        instead of corrupting the in-use count and utilization integral.
        """
        if req.resource is not self:
            raise SimulationError("request belongs to a different resource")
        if req.released:
            raise SimulationError(
                "request already released; a double release would corrupt "
                "utilization accounting")
        if req.cancelled:
            raise SimulationError("releasing a cancelled request")
        if not req.granted:
            raise SimulationError("releasing a request that was never granted")
        req.released = True
        req.granted = False
        now = self.env.now
        self._usage_integral += self.in_use * (now - self._last_change)
        self._last_change = now
        self.in_use -= 1
        if self._obs is not None:
            self._in_use_gauge.set(self.in_use, self.env.now)
        while self._waiters and self.in_use < self.capacity:
            _key, _seq, nxt = heapq.heappop(self._waiters)
            if nxt.cancelled:
                self._n_cancelled -= 1
                continue
            self._grant(nxt)
            break

    def cancel(self, req: Request) -> None:
        """Withdraw a queued request before it is granted.

        The husk stays in the wait heap and is skipped (and dropped) when
        it reaches the front; cancelling an already-granted request is an
        error — release it instead.
        """
        if req.resource is not self:
            raise SimulationError("request belongs to a different resource")
        if req.granted or req.released:
            raise SimulationError("cannot cancel a granted request; "
                                  "release it instead")
        if req.cancelled:
            return
        req.cancelled = True
        self._n_cancelled += 1
        if self._obs is not None:
            self._depth_gauge.set(self.queue_length, self.env.now)


class PriorityResource(Resource):
    """Lower ``priority`` numbers are served first; FIFO within a class."""

    __slots__ = ()

    def _key(self, priority: int) -> int:
        return priority
