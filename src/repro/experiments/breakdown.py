"""§6.3 performance breakdown: small-size-bucket shares and chunk sizes.

Paper values:

* small-size-buckets occupy 1.7% / 3.7% / 9.4% of W1 capacity at
  s0 = 1/4/16 MB, and 26.7% / 35.4% of W2 capacity at s0 = 128/256 KB;
* average chunk sizes on W1: 14.8 MB (Geo-1M), 25.0 MB (Geo-4M),
  56.4 MB (Geo-16M), versus only 10.3 MB for Stripe-Max.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.tuning import evaluate_candidate
from repro.experiments.common import (
    _label,
    format_table,
    sample_workload,
    setting_by_name,
)
from repro.runner import ExperimentResult, Scenario, rows_of, scenario, typed_rows

KB = 1 << 10
MB = 1 << 20


@dataclass(frozen=True)
class BreakdownRow:
    scheme: str
    small_bucket_share: float
    average_chunk_size: float


def compute(setting: str, n_objects: int, seed: int = 0) -> dict:
    """Scenario compute: all s0 variants' breakdown rows (analytic pass)."""
    st = setting_by_name(setting)
    sizes = sample_workload(st, n_objects, seed).tolist()
    rows: list[BreakdownRow] = []
    for s0 in st.geo_s0_variants:
        point = evaluate_candidate(sizes, s0, 2, st.max_chunk_size)
        rows.append(BreakdownRow(f"Geo-{_label(s0)}",
                                 point.small_bucket_share,
                                 point.average_chunk_size))
    # Stripe-Max: one strip of size/k per disk; no small-size-buckets.
    k = 10
    strip_chunks = sum(min(k, size) for size in sizes)
    rows.append(BreakdownRow("Stripe-Max", 0.0, sum(sizes) / strip_chunks))
    return {"rows": rows_of(rows), "meta": {"setting": setting}}


def scenarios(setting: str = "W1",
              n_objects: int | None = None) -> list[Scenario]:
    return [scenario(compute, name="buckets", setting=setting,
                     n_objects=n_objects if n_objects is not None else 12_000)]


def render(results: list[ExperimentResult]) -> str:
    """Paper-style table; chunk sizes in MB on W1 and KB on W2."""
    unit, label = ((MB, "MB") if results[0].meta["setting"] == "W1"
                   else (KB, "KB"))
    return format_table(
        ["Scheme", "Small-size-bucket share", f"Avg chunk size ({label})"],
        [[r.scheme, f"{r.small_bucket_share * 100:.1f}%",
          round(r.average_chunk_size / unit, 1)]
         for r in typed_rows(results, BreakdownRow)])
