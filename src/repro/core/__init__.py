"""The paper's primary contribution: Geometric Partitioning.

* :mod:`repro.core.partitioning` — Algorithm 1 (two-pass scan) and the
  front cut.
* :mod:`repro.core.layouts` — Geometric / Contiguous / Stripe / Stripe-Max
  data layouts (§3.2, §4), the objects the evaluation compares.
* :mod:`repro.core.pipeline` — the repair/transfer pipelining model of
  Figures 3 and 8.
* :mod:`repro.core.tuning` — (s0, q) parameter grid search (§4.4).
"""

from repro.core.partitioning import ChunkSpec, GeometricPartitioner, Partition
from repro.core.layouts import (
    ContiguousLayout,
    GeometricLayout,
    Layout,
    ObjectPlacement,
    PlacedChunk,
    StripeLayout,
    StripeMaxLayout,
)
from repro.core.pipeline import PipelineStep, degraded_read_time, pipeline_timeline

__all__ = [
    "ChunkSpec",
    "GeometricPartitioner",
    "Partition",
    "ContiguousLayout",
    "GeometricLayout",
    "Layout",
    "ObjectPlacement",
    "PlacedChunk",
    "StripeLayout",
    "StripeMaxLayout",
    "PipelineStep",
    "degraded_read_time",
    "pipeline_timeline",
]
