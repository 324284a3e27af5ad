"""Table 4 — comparison of range degraded reads across layouts.

Quantifies the paper's qualitative rows by computing, for a sample of
degraded range reads, the data each layout must *read or repair* relative
to the requested range and to the object:

* Geometric — only chunks overlapping the range (< object size);
* Contiguous — every touched grid chunk, possibly exceeding the object;
* Stripe-Max — the full stripe row, i.e. the whole object's worth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import ContiguousLayout, GeometricLayout, StripeMaxLayout
from repro.experiments.common import (
    format_table,
    sample_workload,
    setting_by_name,
)
from repro.runner import ExperimentResult, Scenario, rows_of, scenario, typed_rows


@dataclass(frozen=True)
class RangeComparisonRow:
    layout: str
    mean_read_over_range: float   # bytes touched per requested byte
    mean_read_over_object: float  # bytes touched per object byte
    can_exceed_object: bool
    pipelining: str


def _touched_bytes(layout_name, placement, offset, length, object_size):
    """Bytes that must be produced to serve [offset, offset+length)."""
    if layout_name == "Stripe-Max":
        # Any missing strip forces a whole-row rebuild.
        return object_size
    touched = 0
    pos = 0
    for chunk in placement.chunks:
        lo, hi = pos, pos + chunk.data_bytes
        if lo < offset + length and hi > offset:
            touched += chunk.stored_bytes
        pos = hi
    return touched


def compute(setting: str, n_objects: int, seed: int = 0) -> dict:
    """Scenario compute: all three layout rows (one cheap analytic pass)."""
    st = setting_by_name(setting)
    s0 = st.geo_default_s0
    layouts = [
        ("Geometric", GeometricLayout(s0, 2, st.max_chunk_size)),
        ("Contiguous", ContiguousLayout(st.contiguous_variants[0])),
        ("Stripe-Max", StripeMaxLayout(10)),
    ]
    sizes = sample_workload(st, n_objects, seed)
    rng = np.random.default_rng(seed + 1)
    rows = []
    for name, layout in layouts:
        over_range = []
        over_object = []
        exceed = False
        offset_acc = 0
        for size in sizes:
            size = int(size)
            length = max(1, int(rng.uniform(0, 1) * size))
            offset = int(rng.uniform(0, size - length))
            if name == "Contiguous":
                placement = layout.place(size, start_offset=offset_acc)
                offset_acc += size
            else:
                placement = layout.place(size)
            touched = _touched_bytes(name, placement, offset, length, size)
            over_range.append(touched / length)
            over_object.append(touched / size)
            if touched > size:
                exceed = True
        rows.append(RangeComparisonRow(
            layout=name,
            mean_read_over_range=float(np.mean(over_range)),
            mean_read_over_object=float(np.mean(over_object)),
            can_exceed_object=exceed,
            pipelining={"Geometric": "Sometimes", "Contiguous": "Sometimes",
                        "Stripe-Max": "No"}[name],
        ))
    return {"rows": rows_of(rows)}


def scenarios(setting: str = "W1",
              n_objects: int | None = None) -> list[Scenario]:
    return [scenario(compute, name="range-comparison", setting=setting,
                     n_objects=n_objects if n_objects is not None else 500)]


def render(results: list[ExperimentResult]) -> str:
    """Paper-style table, one row per layout."""
    def classify(r):
        if r.layout == "Stripe-Max":
            return "Equal to object size"
        if r.can_exceed_object:
            return "Possibly larger than object size"
        return "Less than object size"

    return format_table(
        ["Layout", "Read size", "x range", "x object", "Pipelining"],
        [[r.layout, classify(r), round(r.mean_read_over_range, 2),
          round(r.mean_read_over_object, 2), r.pipelining]
         for r in typed_rows(results, RangeComparisonRow)])

