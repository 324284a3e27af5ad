"""§6.2 headline claims.

* W1: Clay+Geo recovers at ~1.73 GB/s — 1.85x RS, 1.30x LRC;
* W1: average degraded read time ~1.02x normal read time;
* W2: Clay+Geo recovery 2.01x RS.

Ratios are computed per *byte repaired* so that small bookkeeping
differences in per-scheme parity estimates cancel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import tradeoff
from repro.experiments.common import W1_SETTING, W2_SETTING, format_table
from repro.experiments.tradeoff import TradeoffResult
from repro.runner import ExperimentResult, Scenario

GB = 1 << 30


@dataclass
class HeadlineResult:
    w1_recovery_rate: float         # bytes/s
    w1_vs_rs: float                 # per-byte recovery speedup over RS
    w1_vs_lrc: float
    w2_vs_rs: float
    degraded_over_normal: float     # W1, Geo default scheme, idle


def _per_byte(result: TradeoffResult, scheme: str) -> float:
    r = result.by_scheme(scheme)
    return r.recovery_time / r.repaired_bytes


def from_tradeoffs(w1: TradeoffResult, w2: TradeoffResult) -> HeadlineResult:
    """The headline ratios from a W1 and a W2 tradeoff result, each holding
    its setting's default Geometric scheme, RS and (W1) LRC."""
    geo_w1, geo_w2 = W1_SETTING.geo_default, W2_SETTING.geo_default
    geo = w1.by_scheme(geo_w1)
    return HeadlineResult(
        w1_recovery_rate=geo.recovery_rate,
        w1_vs_rs=_per_byte(w1, "RS") / _per_byte(w1, geo_w1),
        w1_vs_lrc=_per_byte(w1, "LRC") / _per_byte(w1, geo_w1),
        w2_vs_rs=_per_byte(w2, "RS") / _per_byte(w2, geo_w2),
        degraded_over_normal=geo.degraded_ms / geo.normal_ms,
    )


def scenarios(n_objects: int | None = None) -> list[Scenario]:
    """The W1 and W2 tradeoff units the headline ratios derive from; W2
    ingests ten times ``n_objects`` (its objects are much smaller).

    These are :func:`tradeoff.compute_scheme` units, so a prior ``fig9`` /
    ``fig10`` run at matching scale serves them straight from cache.
    """
    w1 = tradeoff.scenarios(
        "W1", n_objects=n_objects if n_objects is not None else 3000,
        schemes=[W1_SETTING.geo_default, "RS", "LRC"], include_busy=False)
    w2 = tradeoff.scenarios(
        "W2", n_objects=n_objects * 10 if n_objects is not None else 40_000,
        schemes=[W2_SETTING.geo_default, "RS"], include_busy=False)
    return ([s.prefixed("w1") for s in w1] + [s.prefixed("w2") for s in w2])


def render(results: list[ExperimentResult]) -> str:
    """The headline table from W1 and W2 tradeoff units (any schemes that
    include the ones :func:`from_tradeoffs` reads)."""
    by_setting: dict[str, list[ExperimentResult]] = {}
    for r in results:
        by_setting.setdefault(r.meta["setting"], []).append(r)
    r = from_tradeoffs(tradeoff.from_results(by_setting["W1"]),
                       tradeoff.from_results(by_setting["W2"]))
    rows = [
        ["W1 Clay+Geo recovery rate", f"{r.w1_recovery_rate / GB:.2f} GB/s",
         "1.73 GB/s"],
        ["W1 recovery speedup vs RS", f"{r.w1_vs_rs:.2f}x", "1.85x"],
        ["W1 recovery speedup vs LRC", f"{r.w1_vs_lrc:.2f}x", "1.30x"],
        ["W2 recovery speedup vs RS", f"{r.w2_vs_rs:.2f}x", "2.01x"],
        ["W1 degraded read / normal read", f"{r.degraded_over_normal:.2f}x",
         "1.02x"],
    ]
    return format_table(["Metric", "Measured", "Paper"], rows)
