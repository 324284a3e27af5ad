"""Metric declarations, per-run aggregation and the two-set comparison.

End-to-end metrics come from untraced replicas: ``wall_s`` and
``slowest_unit_s`` are medians over every draw (one ``run_scenarios``
call each) of a run, ``setup_s`` the median over its replica processes,
and ``peak_rss_mb`` the lowest peak of its draws.  Times are *reference
seconds*
(``replica.SpeedSampler``): host seconds rescaled by the host's speed,
sampled all through the measured work.  Shared hosts change speed by up
to 2x for seconds at a time; the rescaling cancels that, so runs made
minutes apart compare.

Per-layer metrics come from one (untraced, traced) replica pair.  Their
times are shares of ``tracing.wall_s`` (the traced ``run_scenarios``
seconds): several boundaries never fire on some workloads, and a time
that is always zero carries nothing.
"""

from __future__ import annotations

import statistics
from typing import Any

from tracing import LAYERS, SPANS

#: (name, unit, better) of every end-to-end metric; the regression
#: bounds live in BENCHMARK.json.
E2E = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("slowest_unit_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: (name, unit, better) of every per-layer metric.  For a share, lower
#: means the layer takes less of the traced time.
PER_LAYER = (
    tuple((f"{layer}.share", "fraction", "lower") for layer in LAYERS)
    + (("tracing.wall_s", "s", "lower"),)
    + tuple((f"{span}.{field}", unit, "lower") for span in SPANS
            for field, unit in (("calls", "count"), ("share", "fraction"),
                                ("self_share", "fraction")))
    + (("sim.events", "count", "lower"),
       ("sim.process_resumes", "count", "lower"),
       ("cluster.ingest.objects", "count", "higher"),
       ("cluster.recovery.tasks", "count", "lower"),
       ("cluster.degraded.reads", "count", "higher"),
       ("cluster.open_loop.requests", "count", "higher"),
       ("cluster.open_loop.hedge_win_ratio", "fraction", "higher"),
       ("reliability.trial.disk_years", "disk-years", "higher"),
       ("sim.events_per_s", "1/s", "higher"),
       ("runner.overhead_s", "s", "lower"),
       ("tracing.overhead", "ratio", "lower"))
)


def e2e_metrics(replicas: list[dict[str, Any]]) -> dict[str, float]:
    """End-to-end metrics of one run's untraced replicas."""
    draws = [d for r in replicas for d in r["draws"]]
    return {
        "setup_s": statistics.median(r["setup_ref_s"] for r in replicas),
        "wall_s": statistics.median(d["ref_s"] for d in draws),
        "slowest_unit_s": statistics.median(
            max(u["ref_s"] for u in d["units"]) for d in draws),
        # A draw's memory follows its population, so the run's largest
        # peak swings with the heaviest draw it holds; the lightest draw's
        # peak is the process baseline plus the smallest working set.
        "peak_rss_mb": min(d["peak_rss_mb"] for d in draws),
    }


def per_layer_metrics(pairs: list[tuple[dict, dict]]) -> dict[str, float]:
    """Sums over (untraced, traced) replica pairs of the same root seeds."""
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    layer_s = {layer: sum(t["layers_s"][layer] for t in traced)
               for layer in LAYERS}
    profiled = sum(layer_s.values())
    traced_wall = sum(t["wall_s"] for t in traced)
    plain_wall = sum(p["wall_s"] for p in plain)
    out = {f"{layer}.share": s / profiled for layer, s in layer_s.items()}
    out["tracing.wall_s"] = traced_wall
    for span in SPANS:
        rows = [t["spans"][span] for t in traced]
        out[f"{span}.calls"] = sum(r["calls"] for r in rows)
        out[f"{span}.share"] = sum(r["total_s"] for r in rows) / traced_wall
        out[f"{span}.self_share"] = (sum(r["self_s"] for r in rows)
                                     / traced_wall)

    def count(name: str) -> float:
        return sum(t["counts"][name] for t in traced)

    events = sum(d["events"] for p in plain for d in p["draws"])
    fired = count("cluster.open_loop.hedges_fired")
    out.update({
        "sim.events": events,
        "sim.process_resumes": sum(d["process_resumes"] for p in plain
                                   for d in p["draws"]),
        "cluster.ingest.objects": count("cluster.ingest.objects"),
        "cluster.recovery.tasks": count("cluster.recovery.tasks"),
        "cluster.degraded.reads": count("cluster.degraded.reads"),
        "cluster.open_loop.requests": count("cluster.open_loop.requests"),
        "cluster.open_loop.hedge_win_ratio":
            count("cluster.open_loop.hedge_wins") / fired if fired else 0.0,
        "reliability.trial.disk_years": count("reliability.trial.disk_years"),
        "sim.events_per_s": events / sum(d["ref_s"] for p in plain
                                         for d in p["draws"]),
        "runner.overhead_s": statistics.median(
            p["wall_s"] - sum(u["wall_s"] for d in p["draws"]
                              for u in d["units"])
            for p in plain),
        "tracing.overhead": traced_wall / plain_wall,
    })
    return out


# ----------------------------------------------------------------------
# Comparing two sets of runs
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> str:
    """How set ``b`` compares with baseline set ``a`` on one metric.

    * ``improved`` -- ``b`` wins at least 9/10 of the pairs (ties count
      for neither) and the medians differ by more than ``a``'s quartile
      distance;
    * ``unresolved`` -- either set's quartile distance, as a share of its
      median, is wider than ``bound``;
    * ``worse`` -- ``b``'s median is worse than ``a``'s by more than
      ``bound`` of ``a``'s median;
    * ``no-worse`` -- otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (am - bm) > a3 - a1:
        return "improved"
    if (a3 - a1) > bound * abs(am) or (b3 - b1) > bound * abs(bm):
        return "unresolved"
    if sign * (bm - am) > bound * abs(am):
        return "worse"
    return "no-worse"


def compare(runs_a: list[dict], runs_b: list[dict],
            declared: dict[str, dict]) -> list[dict[str, Any]]:
    """One row per (workload, end-to-end metric) present in both sets.

    Runs pair up by (workload, seed): the same inputs on both sides.
    ``declared`` maps metric names to their BENCHMARK.json entries.
    """
    rows = []
    workloads = sorted({r["workload"] for r in runs_a}
                       & {r["workload"] for r in runs_b})
    for workload in workloads:
        side_a = {r["seed"]: r for r in runs_a
                  if r["workload"] == workload and not r["trace"]}
        side_b = {r["seed"]: r for r in runs_b
                  if r["workload"] == workload and not r["trace"]}
        for name, _, _ in E2E:
            a = [r["metrics"][name] for r in side_a.values()]
            b = [r["metrics"][name] for r in side_b.values()]
            if not a or not b:
                continue
            pairs = [(side_a[s]["metrics"][name], side_b[s]["metrics"][name])
                     for s in sorted(side_a.keys() & side_b.keys())]
            spec = declared[name]
            rows.append({
                "workload": workload, "metric": name, "unit": spec["unit"],
                "a": quartiles(a), "b": quartiles(b), "n": (len(a), len(b)),
                "bound": spec["bound"],
                "verdict": verdict(a, b, pairs, spec["better"],
                                   spec["bound"]),
            })
    return rows


def render_compare(rows: list[dict[str, Any]]) -> str:
    """The comparison as a text table (median [Q1, Q3] per side)."""
    def cell(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    header = (f"{'workload':<15} {'metric':<15} {'unit':<5} "
              f"{'A median [Q1, Q3]':<28} {'B median [Q1, Q3]':<28} "
              f"{'n':>5} {'bound':>5}  verdict")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['workload']:<15} {r['metric']:<15} {r['unit']:<5} "
            f"{cell(r['a']):<28} {cell(r['b']):<28} "
            f"{r['n'][0]:>2}/{r['n'][1]:<2} {r['bound']:>5.2f}  "
            f"{r['verdict']}")
    return "\n".join(lines)
