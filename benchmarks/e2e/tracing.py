"""Layer attribution for the traced run, installed from outside the program.

Two instruments, both used only in a traced replica process:

* **Boundary spans.**  :func:`instrument` wraps public entry points of the
  program's layers (the runner's unit executor, ``RCStor``'s measurement
  methods, the open-loop server, the fleet engine, ...) so every call
  records a span -- name, start, end, parent span -- plus counts of the
  work it did.  Functions are patched at every module that imported them
  by name, so ``traffic_frontier.serve_open_loop`` is caught as well as
  ``qos.serve_open_loop``.
* **Profile fold.**  :func:`fold_profile` folds a ``cProfile`` of the run
  into per-layer self time, with layers from
  :func:`repro.analysis.linter.layer_of`.  Self time spent in numpy, the
  standard library and builtins is charged to the ``repro`` layer that
  called it, through pstats' per-caller split; only what no ``repro``
  frame called stays in ``ext``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: Every layer ``layer_of`` assigns under ``src/repro`` (the package root
#: ``__init__`` is ``root``), plus ``ext`` for code outside the package.
LAYERS = ("sim", "cluster", "placement", "core", "codes", "gf", "trace",
          "traffic", "faults", "reliability", "obs", "runner",
          "experiments", "analysis", "bench", "root", "ext")

#: Boundary span names, in the order :func:`instrument` installs them.
SPANS = ("runner.unit", "cluster.build", "cluster.ingest",
         "cluster.recovery", "cluster.degraded", "cluster.normal",
         "cluster.open_loop", "traffic.schedule", "reliability.topology",
         "reliability.trial", "trace.sample")

#: The profile fold iterates until no owner share moves by more than
#: ``FOLD_TOLERANCE``, or ``FOLD_ROUNDS`` times.
FOLD_TOLERANCE = 1e-9
FOLD_ROUNDS = 1000

#: Counts recorded at the span boundaries.
COUNTS = ("cluster.ingest.objects", "cluster.recovery.tasks",
          "cluster.degraded.reads", "cluster.open_loop.requests",
          "cluster.open_loop.hedges_fired", "cluster.open_loop.hedge_wins",
          "reliability.trial.disk_years")


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed call at a layer boundary (seconds, ``perf_counter``)."""

    name: str
    id: int
    parent: int | None
    unit: int
    start: float
    end: float = 0.0


class SpanRecorder:
    """Spans and counts of one process, kept in memory until the end.

    Calls are single-threaded and nest, so the open spans form a stack;
    a ``runner.unit`` span starts a new unit (the trace id of the spans
    under it).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {name: 0 for name in COUNTS}
        self._stack: list[Span] = []
        self._units = 0

    def open(self, name: str) -> Span:
        if name == "runner.unit":
            self._units += 1
        parent = self._stack[-1].id if self._stack else None
        span = Span(name, len(self.spans), parent, self._units - 1,
                    self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    reach = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        covered += hi - max(lo, reach)
        reach = hi
    return covered


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for s in spans:
        clipped = [(max(lo, s.start), min(hi, s.end))
                   for lo, hi in children.get(s.id, ())]
        out.append(s.end - s.start
                   - union_length([(lo, hi) for lo, hi in clipped if hi > lo]))
    return out


def span_summary(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s``, ``self_s`` and ``p50_ms``."""
    selfs = self_times(spans)
    out = {}
    for name in SPANS:
        picked = [(s.end - s.start, st) for s, st in zip(spans, selfs)
                  if s.name == name]
        durations = [d for d, _ in picked]
        out[name] = {
            "calls": len(picked),
            "total_s": sum(durations),
            "self_s": sum(st for _, st in picked),
            "p50_ms": 1000 * statistics.median(durations) if durations
            else 0.0,
        }
    return out


def chrome_events(spans: list[Span]) -> list[dict]:
    """Chrome trace events (``ph: "X"``, microseconds); pid = unit."""
    t0 = min((s.start for s in spans), default=0.0)
    return [{"name": s.name, "ph": "X", "ts": (s.start - t0) * 1e6,
             "dur": (s.end - s.start) * 1e6, "pid": s.unit,
             "tid": 0, "args": {"id": s.id, "parent": s.parent}}
            for s in spans]


def _wrap(fn: Callable, rec: SpanRecorder, name: str,
          counter: Callable[[SpanRecorder, Any], None] | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if counter is not None:
            counter(rec, result)
        return result

    return wrapper


def _count_open_loop(rec: SpanRecorder, report) -> None:
    rec.count("cluster.open_loop.requests", report.n_requests)
    rec.count("cluster.open_loop.hedges_fired", report.hedges_fired)
    rec.count("cluster.open_loop.hedge_wins", report.hedge_wins)


def instrument(rec: SpanRecorder) -> Callable[[], None]:
    """Wrap the layer boundaries so calls record into ``rec``.

    Returns a function that restores every patched attribute.
    """
    from repro.cluster import qos
    from repro.cluster.rcstor import RCStor
    from repro.experiments import common
    from repro.reliability.fleet import FleetSim
    from repro.runner import executor
    from repro.traffic import schedule

    undo: list[tuple[object, str, object]] = []

    def patch_method(cls, attr, name, counter=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(_wrap(raw.__func__, rec, name, counter))
        else:
            new = _wrap(raw, rec, name, counter)
        undo.append((cls, attr, raw))
        setattr(cls, attr, new)

    def patch_function(fn, name, counter=None):
        new = _wrap(fn, rec, name, counter)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    undo.append((module, attr, fn))
                    setattr(module, attr, new)

    patch_function(executor.execute_unit, "runner.unit")
    patch_method(RCStor, "__init__", "cluster.build")
    patch_method(RCStor, "ingest", "cluster.ingest",
                 lambda r, out: r.count("cluster.ingest.objects", len(out)))
    patch_method(RCStor, "run_recovery", "cluster.recovery",
                 lambda r, out: r.count("cluster.recovery.tasks", out.n_tasks))
    patch_method(RCStor, "measure_degraded_reads", "cluster.degraded",
                 lambda r, out: r.count("cluster.degraded.reads", len(out)))
    patch_method(RCStor, "measure_normal_reads", "cluster.normal")
    patch_function(qos.serve_open_loop, "cluster.open_loop", _count_open_loop)
    patch_function(schedule.build_schedule, "traffic.schedule")
    patch_method(FleetSim, "from_cluster", "reliability.topology")
    patch_method(FleetSim, "run_trial", "reliability.trial",
                 lambda r, out: r.count("reliability.trial.disk_years",
                                        out.n_disks * out.years))
    patch_function(common.sample_workload, "trace.sample")

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


# ----------------------------------------------------------------------
# Profile fold
# ----------------------------------------------------------------------
def layer_for_file(filename: str, src: Path) -> str:
    """The declared layer of a profiled code object's file.

    Only files under ``src/repro`` belong to a ``repro`` layer (a
    checkout path that happens to contain ``repro`` does not count).
    """
    from repro.analysis.linter import layer_of

    try:
        rel = Path(filename).resolve().relative_to(src)
    except ValueError:
        return "ext"
    layer = layer_of(rel)
    if layer is None:
        return "ext"
    return layer or "root"


def fold_profile(stats: dict, layer: Callable[[str], str]
                 ) -> dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``.

    ``stats`` maps ``(file, line, func)`` to ``(cc, nc, tottime,
    cumtime, callers)`` with ``callers`` mapping each caller to its own
    ``(cc, nc, tottime, cumtime)`` share.  An ``ext`` function's tottime
    is split over its callers by those shares; a share from an ``ext``
    caller is passed further up as that caller's *owners* divide it.

    The owners of an ``ext`` function are the mix of its callers' owners
    (a ``repro`` caller owns itself), weighted by cumulative time per
    caller.  Calls of a function to itself are left out, so recursion
    inherits the outermost caller.  Mutual recursion makes that a linear
    fixed point, found by iterating from "no owners"; time that no
    ``repro`` frame reaches stays in ``ext``.  The result does not
    depend on the order of ``stats``.
    """
    layers = {func: layer(func[0]) for func in stats}
    inputs: dict[tuple, list[tuple[tuple, float]]] = {}
    for func, (_, _, _, _, callers) in stats.items():
        if layers[func] != "ext":
            continue
        edges = [(caller, edge[3]) for caller, edge in callers.items()
                 if caller in stats and caller != func and edge[3] > 0]
        total = sum(weight for _, weight in edges)
        inputs[func] = [(caller, weight / total) for caller, weight in edges]
    owners: dict[tuple, dict[str, float]] = {func: {} for func in inputs}

    def share_of(caller) -> dict[str, float]:
        if layers[caller] != "ext":
            return {layers[caller]: 1.0}
        return owners[caller]

    for _ in range(FOLD_ROUNDS):
        change = 0.0
        for func, edges in inputs.items():
            dist: dict[str, float] = {}
            for caller, weight in edges:
                for lay, frac in share_of(caller).items():
                    dist[lay] = dist.get(lay, 0.0) + weight * frac
            old = owners[func]
            change = max([change] + [abs(v - old.get(k, 0.0))
                                     for k, v in dist.items()])
            owners[func] = dist
        if change < FOLD_TOLERANCE:
            break

    out = {name: 0.0 for name in LAYERS}
    for func, (_, _, tottime, _, callers) in stats.items():
        if layers[func] != "ext":
            out[layers[func]] += tottime
            continue
        charged = 0.0
        for caller, edge in callers.items():
            if caller not in stats:
                continue
            for lay, frac in share_of(caller).items():
                out[lay] += edge[2] * frac
                charged += edge[2] * frac
        out["ext"] += max(tottime - charged, 0.0)
    return out
