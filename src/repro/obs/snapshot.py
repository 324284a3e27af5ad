"""Shippable observer snapshots and their merge.

The experiment runner executes scenario units in worker processes; a live
:class:`~repro.obs.observer.Observer` (engine hooks, span lists, metric
objects) cannot cross the process boundary, and even in-process, one shared
registry would make metric contents depend on unit execution order.  So
each unit observes into its *own* observer and ships back a plain-dict
:func:`snapshot`; the parent merges any number of snapshots with
:func:`merge_snapshots` and renders the union with :func:`summarize`.

Snapshots are deterministic: counters, gauge statistics, histogram
statistics and the (deterministically sampled) histogram reservoir are all
pure functions of the simulated work, so a unit's snapshot is bit-identical
whether it ran serially, in a pool, or came back from the result cache.

Merge semantics:

* counters — summed exactly;
* histograms — ``count``/``total``/``min``/``max`` merged exactly;
  percentiles re-estimated from the concatenated (capped) reservoirs;
* gauges — ``min``/``max`` merged exactly; the reported mean is the
  unweighted mean of the per-unit time-weighted means (units simulate
  disjoint sim-time windows, so no exact cross-unit integral exists);
* spans — counted, and optionally shipped as Chrome trace events, which
  :func:`merge_trace_events` rebases onto disjoint pid ranges.
"""

from __future__ import annotations

import math
from typing import Any

from repro.obs.export import chrome_trace_events
from repro.obs.observer import Observer
from repro.obs.metrics import Counter, Gauge, Histogram

#: Largest histogram reservoir a snapshot ships per metric.  Kept small so
#: result-cache artifacts stay compact; sampling is deterministic (evenly
#: spaced over the sorted reservoir) so snapshots replay identically.
RESERVOIR_SHIP_CAP = 256


def _ship_reservoir(values: list[float]) -> list[float]:
    ordered = sorted(values)
    if len(ordered) <= RESERVOIR_SHIP_CAP:
        return ordered
    step = (len(ordered) - 1) / (RESERVOIR_SHIP_CAP - 1)
    return [ordered[round(i * step)] for i in range(RESERVOIR_SHIP_CAP)]


def snapshot(obs: Observer, include_trace: bool = False) -> dict[str, Any]:
    """A JSON-safe summary of everything ``obs`` recorded."""
    counters: dict[str, float] = {}
    gauges: dict[str, dict[str, float]] = {}
    histograms: dict[str, dict[str, Any]] = {}
    for key, metric in obs.metrics:
        if isinstance(metric, Counter):
            counters[key] = metric.value
        elif isinstance(metric, Gauge):
            gauges[key] = {"last": metric.value, "mean": metric.mean(),
                           "min": metric.min, "max": metric.max}
        elif isinstance(metric, Histogram):
            histograms[key] = {
                "count": metric.count, "total": metric.total,
                "min": metric.min if metric.count else 0.0,
                "max": metric.max if metric.count else 0.0,
                "reservoir": _ship_reservoir(metric._reservoir),
            }
    # Sim time per trace process (each measurement restarts its clock);
    # the sum is the total simulated seconds this unit covered.
    ends: dict[int, float] = {}
    for span in obs.tracer.spans:
        if span.end > ends.get(span.pid, 0.0):
            ends[span.pid] = span.end
    snap: dict[str, Any] = {
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "n_spans": len(obs.tracer.spans),
        "sim_time_s": sum(ends.values()),
    }
    if include_trace:
        snap["trace_events"] = chrome_trace_events(obs.tracer)
    # Optional telemetry rides along only when armed: the keys are absent
    # otherwise, so default snapshots stay byte-identical with telemetry
    # code merely present.
    timeline = getattr(obs, "timeline", None)
    if timeline is not None:
        snap["timeline"] = timeline.timeline_doc()
    profiler = getattr(obs, "profiler", None)
    if profiler is not None:
        snap["profile"] = profiler.profile_doc()
    return snap


def merge_snapshots(snaps: list[dict[str, Any]]) -> dict[str, Any]:
    """Merge per-unit snapshots into one aggregate snapshot dict."""
    counters: dict[str, float] = {}
    gauges: dict[str, dict[str, float]] = {}
    histograms: dict[str, dict[str, Any]] = {}
    n_spans = 0
    sim_time = 0.0
    for snap in snaps:
        if not snap:
            continue
        for key, value in snap.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
        for key, g in snap.get("gauges", {}).items():
            agg = gauges.setdefault(
                key, {"last": 0.0, "_mean_sum": 0.0, "_units": 0,
                      "min": math.inf, "max": -math.inf})
            agg["last"] = g["last"]
            agg["_mean_sum"] += g["mean"]
            agg["_units"] += 1
            agg["min"] = min(agg["min"], g["min"])
            agg["max"] = max(agg["max"], g["max"])
        for key, h in snap.get("histograms", {}).items():
            agg = histograms.setdefault(
                key, {"count": 0, "total": 0.0, "min": math.inf,
                      "max": -math.inf, "reservoir": []})
            agg["count"] += h["count"]
            agg["total"] += h["total"]
            if h["count"]:
                agg["min"] = min(agg["min"], h["min"])
                agg["max"] = max(agg["max"], h["max"])
            agg["reservoir"].extend(h.get("reservoir", ()))
        n_spans += snap.get("n_spans", 0)
        sim_time += snap.get("sim_time_s", 0.0)
    for agg in gauges.values():
        agg["mean"] = agg.pop("_mean_sum") / max(agg.pop("_units"), 1)
    for agg in histograms.values():
        if not agg["count"]:
            agg["min"] = agg["max"] = 0.0
        agg["reservoir"].sort()
    return {"counters": counters, "gauges": gauges,
            "histograms": histograms, "n_spans": n_spans,
            "sim_time_s": sim_time}


def _quantile(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def summarize(merged: dict[str, Any]) -> str:
    """Plain-text report of a snapshot or merged snapshots: counters,
    gauge levels and means, histogram percentiles, each section sorted by
    metric key.  The one metrics readout (``--metrics`` prints it); one
    observer's is ``summarize(snapshot(obs))``."""
    lines: list[str] = []
    counters = merged.get("counters", {})
    gauges = merged.get("gauges", {})
    histograms = merged.get("histograms", {})
    if counters:
        lines.append("== counters ==")
        width = max(len(k) for k in counters)
        for key in sorted(counters):
            lines.append(f"{key.ljust(width)}  {counters[key]:g}")
    if gauges:
        if lines:
            lines.append("")
        lines.append("== gauges (time-weighted, merged over units) ==")
        width = max(len(k) for k in gauges)
        for key in sorted(gauges):
            g = gauges[key]
            lines.append(f"{key.ljust(width)}  last={g['last']:.4g} "
                         f"mean={g['mean']:.4g} min={g['min']:.4g} "
                         f"max={g['max']:.4g}")
    if histograms:
        if lines:
            lines.append("")
        lines.append("== histograms ==")
        width = max(len(k) for k in histograms)
        for key in sorted(histograms):
            h = histograms[key]
            mean = h["total"] / h["count"] if h["count"] else 0.0
            p50 = _quantile(h["reservoir"], 0.50)
            p95 = _quantile(h["reservoir"], 0.95)
            p99 = _quantile(h["reservoir"], 0.99)
            lines.append(
                f"{key.ljust(width)}  count={h['count']} mean={mean:.4g} "
                f"p50={p50:.4g} p95={p95:.4g} p99={p99:.4g} "
                f"max={h['max']:.4g}")
    return "\n".join(lines) if lines else "(no metrics recorded)"


def merge_trace_events(event_lists: list[list[dict[str, Any]]]
                       ) -> list[dict[str, Any]]:
    """Concatenate per-unit Chrome trace events onto disjoint pid ranges.

    Every unit's tracer numbers its processes from zero; rebasing keeps each
    unit's measurements as separate Perfetto process groups in one file.
    """
    merged: list[dict[str, Any]] = []
    base = 0
    for events in event_lists:
        if not events:
            continue
        top = 0
        for event in events:
            pid = event.get("pid", 0)
            top = max(top, pid)
            rebased = dict(event)
            rebased["pid"] = pid + base
            merged.append(rebased)
        base += top + 1
    return merged
