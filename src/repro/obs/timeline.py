"""Deterministic sim-time telemetry timelines.

End-of-run snapshots (:mod:`repro.obs.snapshot`) answer "how much in
total"; this module answers "how did it evolve".  A :class:`Timeline` is a
sim-time sampler driven by the engine's clock-advance hook: every
:class:`~repro.sim.Environment` built under a timeline-carrying observer
binds a per-environment cursor, and whenever the sim clock moves forward
past the next sample tick the cursor records the registry's current state
— counter values, gauge levels, histogram counts and rolling reservoir
percentiles — into column-oriented series.

**Deterministic by construction.**  Sampling is keyed to *simulated* time
(a fixed ``sample_interval`` grid), never the wall clock, and the cursor
schedules no events of its own: the engine calls it while advancing the
clock, before the events at the new time run.  The event count, pop order
and every simulated number are therefore bit-identical with the timeline
on or off, and a unit's timeline is bit-identical whether it ran inline,
in a worker pool, or serially — which is what makes
:func:`merge_timelines` an exact, order-preserving concatenation across
``--jobs`` workers (see DESIGN.md, "Sim-time sampling vs wall-clock
sampling").

**Bounded by decimation.**  With no ``sample_interval`` given, the cursor
auto-scales: the first clock advance seeds the interval, and whenever a
segment reaches :data:`MAX_SAMPLES` ticks it is decimated to every second
sample and the interval doubles.  Long runs therefore cost a bounded
number of samples while short runs keep fine resolution — and the
decimation, being a pure function of the (deterministic) advance sequence,
preserves bit-identity.

Counters and gauges are aggregated over label variants by base metric name
(``disk.queue_depth{dev=3}`` folds into ``disk.queue_depth``) — the
evolving total is the plottable quantity.  Histograms keep their full
labelled key (priority lanes matter for the SLO view) and sample
``count`` / ``p50`` / ``p95`` / ``p99`` columns, re-estimating percentiles
from the deterministic reservoir only on ticks where the count moved.

:meth:`Timeline.mark` drops named point annotations (the fault injector
marks every injected event) onto the owning environment's segment.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Timeline document schema identifier.
TIMELINE_SCHEMA = "repro.timeline/1"

#: A segment decimates (and doubles its interval) upon reaching this many
#: samples, so even week-long simulated runs ship a bounded series.
MAX_SAMPLES = 512

#: Fallback first interval when auto-scaling and the very first clock
#: advance lands at t=0 (cannot seed an interval from it).
_MIN_INTERVAL = 1e-9


def _base_name(key: str) -> str:
    """``disk.queue_depth{dev=3}`` -> ``disk.queue_depth``."""
    return key.split("{", 1)[0]


class _Cursor:
    """One environment's sample series (its sim clock restarts at zero)."""

    __slots__ = ("_registry", "label", "interval", "_next", "t",
                 "counters", "gauges", "histograms", "marks",
                 "_metric_cache", "_cache_len", "_hist_state")

    def __init__(self, registry: MetricsRegistry,
                 interval: float | None):
        self._registry = registry
        self.label = "run"
        self.interval = interval
        self._next: float | None = None
        self.t: list[float] = []
        self.counters: dict[str, list[float]] = {}
        self.gauges: dict[str, list[float]] = {}
        #: key -> {"count": [...], "p50": [...], "p95": [...], "p99": [...]}
        self.histograms: dict[str, dict[str, list[float]]] = {}
        self.marks: list[dict[str, Any]] = []
        self._metric_cache: list[tuple[str, Any]] = []
        self._cache_len = -1
        #: key -> (count at last percentile estimate, (p50, p95, p99)).
        self._hist_state: dict[str, tuple[int, tuple[float, float, float]]] = {}

    # ------------------------------------------------------------------
    def on_advance(self, when: float) -> None:
        """Engine hook: the sim clock is about to move forward to ``when``.

        Samples every tick in ``(previous now, when]`` against the current
        registry state — the state that held over that whole interval,
        since no event between the ticks has run yet.
        """
        if self.interval is None:
            # Auto-scale: the first forward move seeds the grid pitch.
            self.interval = when if when > 0 else _MIN_INTERVAL
        if self._next is None:
            self._next = self.interval
        while self._next <= when:
            self._sample(self._next)
            self._next += self.interval
            if len(self.t) >= MAX_SAMPLES:
                self._decimate()

    def _sample(self, tick: float) -> None:
        if self._cache_len != len(self._registry):
            self._metric_cache = list(self._registry)
            self._cache_len = len(self._registry)
        self.t.append(tick)
        n = len(self.t)
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        for key, metric in self._metric_cache:
            if isinstance(metric, Counter):
                base = _base_name(key)
                counters[base] = counters.get(base, 0) + metric.value
            elif isinstance(metric, Gauge):
                base = _base_name(key)
                gauges[base] = gauges.get(base, 0.0) + metric.value
            elif isinstance(metric, Histogram):
                self._sample_histogram(key, metric, n)
        for base, value in counters.items():
            self._column(self.counters, base, n).append(value)
        for base, value in gauges.items():
            self._column(self.gauges, base, n).append(value)

    def _sample_histogram(self, key: str, metric: Histogram, n: int) -> None:
        last = self._hist_state.get(key)
        if last is not None and last[0] == metric.count:
            pcts = last[1]
        else:
            pcts = metric.percentiles()
            self._hist_state[key] = (metric.count, pcts)
        series = self.histograms.get(key)
        if series is None:
            series = {"count": [], "p50": [], "p95": [], "p99": []}
            self.histograms[key] = series
        pad = n - 1 - len(series["count"])
        if pad:
            # Metric born mid-run: backfill the ticks before its creation.
            for col in series.values():
                col.extend([0.0] * pad)
        series["count"].append(float(metric.count))
        series["p50"].append(pcts[0])
        series["p95"].append(pcts[1])
        series["p99"].append(pcts[2])

    @staticmethod
    def _column(columns: dict[str, list[float]], base: str,
                n: int) -> list[float]:
        col = columns.get(base)
        if col is None:
            col = []
            columns[base] = col
        pad = n - 1 - len(col)
        if pad:
            col.extend([0.0] * pad)
        return col

    def _decimate(self) -> None:
        """Halve the resolution: keep every second sample, double the
        interval.  Deterministic, so replays decimate identically."""
        self.t = self.t[1::2]
        for columns in (self.counters, self.gauges):
            for base, col in columns.items():
                columns[base] = col[1::2]
        for series in self.histograms.values():
            for name, col in list(series.items()):
                series[name] = col[1::2]
        self.interval *= 2
        self._next = self.t[-1] + self.interval if self.t else self.interval

    # ------------------------------------------------------------------
    def mark(self, now: float, name: str, args: dict[str, Any]) -> None:
        mark: dict[str, Any] = {"t": now, "name": name}
        if args:
            mark["args"] = args
        self.marks.append(mark)

    def doc(self) -> dict[str, Any]:
        n = len(self.t)
        for columns in (self.counters, self.gauges):
            for base in columns:
                self._column(columns, base, n + 1)
        for key in self.histograms:
            series = self.histograms[key]
            pad = n - len(series["count"])
            if pad:
                for col in series.values():
                    col.extend([0.0] * pad)
        return {
            "label": self.label,
            "interval": self.interval if self.interval is not None else 0.0,
            "t": list(self.t),
            "counters": {k: list(v) for k, v in sorted(self.counters.items())},
            "gauges": {k: list(v) for k, v in sorted(self.gauges.items())},
            "histograms": {
                k: {name: list(col) for name, col in v.items()}
                for k, v in sorted(self.histograms.items())},
            "marks": list(self.marks),
        }


class Timeline:
    """Sim-time sampler shared by every environment under one observer.

    ``sample_interval`` — sim seconds between samples; ``None`` (default)
    auto-scales per environment from the first clock advance.  Attach with
    :func:`attach_timeline`, read out with :meth:`timeline_doc`.
    """

    def __init__(self, sample_interval: float | None = None):
        if sample_interval is not None and sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        self.sample_interval = sample_interval
        self._registry: MetricsRegistry | None = None
        self._cursors: list[_Cursor] = []
        self._by_env: dict[int, _Cursor] = {}

    # ------------------------------------------------------------------
    def bind(self, env) -> Any:
        """Engine side: a fresh cursor's ``on_advance`` hook for ``env``.

        Called by :class:`~repro.sim.Environment` at construction (via the
        duck-typed ``trace_hooks.timeline`` attribute), once per
        measurement.
        """
        if self._registry is None:
            raise RuntimeError(
                "Timeline not attached to an observer; use attach_timeline")
        cursor = _Cursor(self._registry, self.sample_interval)
        self._cursors.append(cursor)
        self._by_env[id(env)] = cursor
        return cursor.on_advance

    def set_label(self, env, label: str) -> None:
        """Name the segment recorded for ``env`` (the measurement label)."""
        cursor = self._by_env.get(id(env))
        if cursor is not None:
            cursor.label = label

    def mark(self, env, name: str, **args: Any) -> None:
        """Drop a point annotation at ``env.now`` on ``env``'s segment."""
        cursor = self._by_env.get(id(env))
        if cursor is not None:
            cursor.mark(env.now, name, args)

    # ------------------------------------------------------------------
    @property
    def n_segments(self) -> int:
        return len(self._cursors)

    def timeline_doc(self) -> dict[str, Any]:
        """The JSON-safe timeline document (one segment per environment)."""
        return {
            "schema": TIMELINE_SCHEMA,
            "sample_interval": self.sample_interval,
            "segments": [c.doc() for c in self._cursors],
        }


def attach_timeline(obs, sample_interval: float | None = None) -> Timeline:
    """Create a :class:`Timeline` and hook it into an observer.

    Environments built under ``obs`` afterwards (``trace_hooks=obs``)
    sample themselves; instrumented code reaches the sampler via
    ``obs.timeline``.
    """
    timeline = Timeline(sample_interval)
    timeline._registry = obs.metrics
    obs.timeline = timeline
    return timeline


def merge_timelines(docs: list[dict[str, Any]]) -> dict[str, Any]:
    """Merge per-unit timeline docs by ordered segment concatenation.

    Each unit samples under its own observer and clock, so its segments
    are self-contained; merging in unit order is exact — the merged doc is
    bit-identical for any ``--jobs`` fan-out, because unit order (not
    completion order) defines it.
    """
    segments: list[dict[str, Any]] = []
    interval: float | None = None
    for doc in docs:
        if not doc:
            continue
        if interval is None:
            interval = doc.get("sample_interval")
        segments.extend(doc.get("segments", ()))
    return {"schema": TIMELINE_SCHEMA, "sample_interval": interval,
            "segments": segments}
