"""Benchmark harness: timed specs, a stable JSON schema, and the gate.

A :class:`BenchSpec` names one benchmark — a zero-argument callable timed
with ``time.perf_counter`` over ``repeats`` runs, reporting the *minimum*
(the least-noise estimator for CPU-bound work).  :func:`run_specs` turns a
list of specs into the ``BENCH_engine.json`` document; its layout is a
stable schema (``repro.bench/1``) so CI diffs and the regression gate keep
working as benchmarks are added.

Machine-speed normalization
---------------------------
Raw seconds are incomparable across runners (CI machines differ run to
run), so the document carries a *calibration* benchmark — a fixed
pure-Python workload — and every benchmark's ``normalized`` field is its
time divided by the calibration time on the same machine.
:func:`compare` gates on the normalized values whenever both documents
carry a calibration, falling back to raw seconds otherwise; benchmarks
absent from the baseline never gate (new benchmarks land without a
``[bench-reset]``).
"""

from __future__ import annotations

import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Stable schema tag of the emitted document.
BENCH_SCHEMA = "repro.bench/1"

#: The group name whose (single) benchmark provides the normalization
#: denominator.
CALIBRATION_GROUP = "calibration"


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark: a named, repeatable, timed callable."""

    name: str
    #: "calibration" | "micro" | "macro" | "fabric" | "reliability" |
    #: "traffic" | "lint"
    group: str
    fn: Callable[[], Any]
    #: work items one ``fn()`` call performs, for the per-unit rate
    units: int = 1
    repeats: int = 3


@dataclass
class BenchResult:
    """Timing of one spec (seconds is the min over repeats)."""

    spec: BenchSpec
    seconds: float
    all_seconds: list[float] = field(default_factory=list)

    @property
    def per_unit_us(self) -> float:
        """Microseconds per work unit of the best run."""
        return self.seconds / self.spec.units * 1e6


def run_spec(spec: BenchSpec, repeats: int | None = None) -> BenchResult:
    """Time one spec: ``repeats`` runs, min wins; one untimed warmup run."""
    n = repeats if repeats is not None else spec.repeats
    if n < 1:
        raise ValueError("repeats must be >= 1")
    spec.fn()  # warmup: imports, table builds, allocator steady-state
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        spec.fn()
        times.append(time.perf_counter() - t0)
    return BenchResult(spec, min(times), times)


def run_specs(specs: list[BenchSpec], repeats: int | None = None,
              progress: Callable[[str], None] | None = None
              ) -> dict[str, Any]:
    """Run every spec and assemble the ``repro.bench/1`` document."""
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError("benchmark names must be unique")
    results: list[BenchResult] = []
    for spec in specs:
        if progress is not None:
            progress(spec.name)
        results.append(run_spec(spec, repeats))
    calibration = [r for r in results if r.spec.group == CALIBRATION_GROUP]
    cal_s = min(r.seconds for r in calibration) if calibration else None
    benchmarks: dict[str, Any] = {}
    for r in results:
        entry = {
            "group": r.spec.group,
            "units": r.spec.units,
            "repeats": len(r.all_seconds),
            "seconds": round(r.seconds, 6),
            "per_unit_us": round(r.per_unit_us, 4),
        }
        if cal_s:
            entry["normalized"] = round(r.seconds / cal_s, 4)
        benchmarks[r.spec.name] = entry
    doc: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "calibration_s": round(cal_s, 6) if cal_s else None,
        "benchmarks": benchmarks,
    }
    return doc


@dataclass(frozen=True)
class Regression:
    """One benchmark exceeding the gate tolerance."""

    name: str
    metric: str  # "normalized" or "seconds"
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")

    def __str__(self) -> str:
        return (f"{self.name}: {self.metric} {self.baseline:g} -> "
                f"{self.current:g} ({self.ratio:.2f}x)")


def compare(current: dict[str, Any], baseline: dict[str, Any],
            tolerance: float = 0.20) -> list[Regression]:
    """Benchmarks slower than ``baseline`` by more than ``tolerance``.

    Gates on ``normalized`` when both documents carry it (machine-speed
    independent), else on raw ``seconds``.  Benchmarks present only in one
    document are ignored.  The calibration benchmark itself never gates —
    its normalized value is 1.0 by construction.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    out: list[Regression] = []
    base_marks = baseline.get("benchmarks", {})
    for name, entry in sorted(current.get("benchmarks", {}).items()):
        if entry.get("group") == CALIBRATION_GROUP:
            continue
        base = base_marks.get(name)
        if base is None:
            continue
        if "normalized" in entry and "normalized" in base:
            metric = "normalized"
        else:
            metric = "seconds"
        cur_v, base_v = entry[metric], base[metric]
        if base_v > 0 and cur_v > base_v * (1.0 + tolerance):
            out.append(Regression(name, metric, base_v, cur_v))
    return out


def render(doc: dict[str, Any]) -> str:
    """Human-readable table of one bench document."""
    lines = [f"{'benchmark':<34} {'group':<12} {'seconds':>10} "
             f"{'per-unit':>12} {'norm':>8}"]
    for name, e in sorted(doc["benchmarks"].items(),
                          key=lambda kv: (kv[1]["group"], kv[0])):
        norm = f"{e['normalized']:.2f}" if "normalized" in e else "-"
        lines.append(f"{name:<34} {e['group']:<12} {e['seconds']:>10.4f} "
                     f"{e['per_unit_us']:>10.2f}us {norm:>8}")
    return "\n".join(lines)
