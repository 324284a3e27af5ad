"""Deterministic fault schedules: :class:`FaultEvent` and :class:`FaultPlan`.

A fault plan is *data*, not behaviour: an ordered tuple of events plus the
repair-path timeout policy.  Plans round-trip through JSON (so they travel
as scenario parameters, CLI files, and cache keys) and every stochastic
constructor takes an explicit seed, so the schedule a plan produces is a
pure function of its arguments — bit-reproducible across ``--jobs`` fan-out
and cache hits.

Event taxonomy (see DESIGN.md "Fault model"):

``disk_crash``
    The disk stops serving at ``at``; in-flight and later I/O returns
    ``IO_FAILED``.
``node_crash``
    Every disk of the node crashes at ``at``.
``disk_slow`` / ``nic_slow``
    Service times multiply by ``factor`` for ``duration`` seconds
    (``duration=None`` makes a permanent straggler).
``tor_slow``
    A rack's ToR uplink degrades by ``factor`` (congestion, a flapping
    optic): every cross-rack transfer touching that rack stretches.
    Needs a tiered fabric (``n_racks > 1``).
``corrupt``
    The next ``count`` reads on the disk surface latent corruption
    (``IO_CORRUPT``) instead of data.
``latent_error``
    ``count`` *hidden* sector errors land on the disk.  Like ``corrupt``
    they poison the next reads — but the injector also remembers them as
    undiscovered, so a later ``scrub`` event can find and repair them
    before any read trips over them (the durability model's
    scrub-vs-repair-read race; see DESIGN.md "Durability model").
``scrub``
    A verification pass over the disk: every latent error still hidden on
    it (injected by ``latent_error`` and not yet consumed by a read) is
    surfaced and repaired in place, cancelling its pending ``IO_CORRUPT``.

``at_progress`` events (exactly one of ``at`` / ``at_progress`` must be
set) fire when a recovery run crosses the given completed-weight fraction —
the "second failure at 50% progress" scenario — rather than at a wall sim
time the caller cannot know in advance.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

KINDS = frozenset(
    {"disk_crash", "node_crash", "disk_slow", "nic_slow", "tor_slow",
     "corrupt", "latent_error", "scrub"})

#: Kinds targeting a disk (``disk`` required), a node (``node`` required),
#: or a rack's switch (``rack`` required).
_DISK_KINDS = frozenset({"disk_crash", "disk_slow", "corrupt",
                         "latent_error", "scrub"})
_NODE_KINDS = frozenset({"node_crash", "nic_slow"})
_RACK_KINDS = frozenset({"tor_slow"})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault."""

    kind: str
    at: float | None = None
    at_progress: float | None = None
    disk: int | None = None
    node: int | None = None
    rack: int | None = None
    factor: float = 1.0
    duration: float | None = None
    count: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if (self.at is None) == (self.at_progress is None):
            raise ValueError(
                "exactly one of at / at_progress must be set "
                f"({self.kind}: at={self.at}, at_progress={self.at_progress})")
        if self.at is not None and self.at < 0:
            raise ValueError(f"negative fault time {self.at}")
        if self.at_progress is not None \
                and not 0.0 <= self.at_progress <= 1.0:
            raise ValueError(f"at_progress {self.at_progress} not in [0, 1]")
        if self.kind in _DISK_KINDS and self.disk is None:
            raise ValueError(f"{self.kind} needs a disk")
        if self.kind in _NODE_KINDS and self.node is None:
            raise ValueError(f"{self.kind} needs a node")
        if self.kind in _RACK_KINDS and self.rack is None:
            raise ValueError(f"{self.kind} needs a rack")
        if self.factor < 1.0:
            raise ValueError(f"slow-factor {self.factor} must be >= 1")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"duration {self.duration} must be positive")
        if self.count < 1:
            raise ValueError(f"count {self.count} must be >= 1")

    def to_doc(self) -> dict[str, Any]:
        """JSON-safe dict, defaults omitted for stable hashing."""
        doc = {k: v for k, v in asdict(self).items() if v is not None}
        if self.factor == 1.0:
            doc.pop("factor", None)
        if self.count == 1:
            doc.pop("count", None)
        return doc

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "FaultEvent":
        return cls(**doc)


def _node_burst(node: int, disks_per_node: int, seed: int, at: float,
                spread: float, kind: str, factor: float,
                duration: float | None) -> list[FaultEvent]:
    """The unsorted events of :meth:`FaultPlan.correlated_node_burst`."""
    if kind not in ("disk_slow", "disk_crash"):
        raise ValueError("burst kind must be disk_slow or disk_crash")
    rng = np.random.default_rng(seed)
    first = node * disks_per_node
    events = []
    for disk in range(first, first + disks_per_node):
        jitter = float(rng.uniform(0.0, spread))
        if kind == "disk_crash":
            events.append(FaultEvent("disk_crash", at=at + jitter,
                                     disk=disk))
        else:
            events.append(FaultEvent("disk_slow", at=at + jitter,
                                     disk=disk, factor=factor,
                                     duration=duration))
    return events


def _sort_key(ev: FaultEvent) -> tuple:
    # Timed events first (by time), then progress events (by fraction);
    # ties break on the event's canonical doc so order is deterministic.
    if ev.at is not None:
        return (0, ev.at, 0.0, json.dumps(ev.to_doc(), sort_keys=True))
    return (1, 0.0, ev.at_progress, json.dumps(ev.to_doc(), sort_keys=True))


@dataclass(frozen=True)
class FaultPlan:
    """An ordered fault schedule plus the repair-timeout policy.

    ``helper_timeout`` (seconds, ``None`` = disarmed) is how long a
    failure-aware repair path waits on its helper reads before cancelling
    the outstanding requests and hedging against a rotated helper set.  An
    empty plan (no events, no timeout) is falsy; it is what a simulation
    run without a plan replays, and its injector schedules no events.
    """

    events: tuple[FaultEvent, ...] = ()
    helper_timeout: float | None = None

    def __post_init__(self):
        ordered = tuple(sorted(self.events, key=_sort_key))
        object.__setattr__(self, "events", ordered)
        if self.helper_timeout is not None and self.helper_timeout <= 0:
            raise ValueError("helper_timeout must be positive seconds")

    def __bool__(self) -> bool:
        return bool(self.events) or self.helper_timeout is not None

    @property
    def timed_events(self) -> tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.at is not None)

    @property
    def progress_events(self) -> tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.at_progress is not None)

    def with_timeout(self, helper_timeout: float | None) -> "FaultPlan":
        """A copy with the repair-timeout policy replaced."""
        return replace(self, helper_timeout=helper_timeout)

    def extended(self, events: Iterable[FaultEvent]) -> "FaultPlan":
        """A copy with extra events merged into the schedule."""
        return replace(self, events=self.events + tuple(events))

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_doc(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"events": [e.to_doc() for e in self.events]}
        if self.helper_timeout is not None:
            doc["helper_timeout"] = self.helper_timeout
        return doc

    @classmethod
    def from_doc(cls, doc: dict[str, Any] | None) -> "FaultPlan":
        if not doc:
            return cls()
        return cls(events=tuple(FaultEvent.from_doc(e)
                                for e in doc.get("events", ())),
                   helper_timeout=doc.get("helper_timeout"))

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_doc(json.loads(text))

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    # ------------------------------------------------------------------
    # Scheduled constructors
    # ------------------------------------------------------------------
    @classmethod
    def stragglers(cls, disks: Sequence[int], factor: float, at: float = 0.0,
                   duration: float | None = None,
                   helper_timeout: float | None = None) -> "FaultPlan":
        """Permanent (or windowed) slowdown of the given disks."""
        if factor <= 1.0:
            return cls(helper_timeout=helper_timeout)
        events = tuple(FaultEvent("disk_slow", at=at, disk=int(d),
                                  factor=factor, duration=duration)
                       for d in disks)
        return cls(events=events, helper_timeout=helper_timeout)

    @classmethod
    def second_failure(cls, disk: int, at_progress: float = 0.5,
                       helper_timeout: float | None = None) -> "FaultPlan":
        """Crash ``disk`` when a recovery run reaches ``at_progress``."""
        return cls(events=(FaultEvent("disk_crash", at_progress=at_progress,
                                      disk=int(disk)),),
                   helper_timeout=helper_timeout)

    # ------------------------------------------------------------------
    # Stochastic generators (seeded, bit-reproducible)
    # ------------------------------------------------------------------
    @classmethod
    def random_stragglers(cls, n_disks: int, fraction: float, factor: float,
                          seed: int, at: float = 0.0,
                          helper_timeout: float | None = None) -> "FaultPlan":
        """Slow a seed-chosen fraction of disks by ``factor`` forever."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        n_slow = max(1, int(round(fraction * n_disks)))
        rng = np.random.default_rng(seed)
        disks = sorted(int(d) for d in
                       rng.choice(n_disks, size=n_slow, replace=False))
        return cls.stragglers(disks, factor, at=at,
                              helper_timeout=helper_timeout)

    @classmethod
    def correlated_node_burst(cls, node: int, disks_per_node: int,
                              seed: int, at: float, spread: float = 1.0,
                              kind: str = "disk_slow", factor: float = 4.0,
                              duration: float | None = 10.0) -> "FaultPlan":
        """A same-node burst: every disk of ``node`` faults within
        ``spread`` seconds of ``at`` (the Facebook-study correlated mode).
        """
        return cls(events=tuple(_node_burst(
            node, disks_per_node, seed, at, spread, kind, factor, duration)))

    # ------------------------------------------------------------------
    # Rack-scoped constructors (need a tiered fabric, n_racks > 1)
    # ------------------------------------------------------------------
    @classmethod
    def tor_slowdown(cls, rack: int, factor: float, at: float = 0.0,
                     duration: float | None = None,
                     helper_timeout: float | None = None) -> "FaultPlan":
        """Degrade one rack's ToR uplink by ``factor`` (windowed or
        permanent): every cross-rack transfer in or out of the rack
        stretches, while intra-rack traffic is untouched."""
        if factor <= 1.0:
            return cls(helper_timeout=helper_timeout)
        return cls(events=(FaultEvent("tor_slow", at=at, rack=int(rack),
                                      factor=factor, duration=duration),),
                   helper_timeout=helper_timeout)

    @classmethod
    def rack_burst(cls, nodes: Sequence[int], disks_per_node: int,
                   seed: int, at: float, spread: float = 1.0,
                   kind: str = "disk_slow", factor: float = 4.0,
                   duration: float | None = 10.0) -> "FaultPlan":
        """A whole-rack burst: every disk of every node in ``nodes``
        (typically ``config.nodes_in_rack(rack)``) faults within ``spread``
        seconds of ``at`` — the correlated mode a shared power or switch
        domain produces.  Composes :meth:`correlated_node_burst` per node
        with derived per-node seeds, so a rack burst is bit-identical to
        its per-node bursts replayed together; the events are sorted once,
        for the whole rack."""
        events: list[FaultEvent] = []
        for i, node in enumerate(nodes):
            events += _node_burst(int(node), disks_per_node, seed + i, at,
                                  spread, kind, factor, duration)
        return cls(events=tuple(events))
