"""Calibration of the disk model against the paper's own Figure 4.

Figure 4 is the paper's microbenchmark of Clay(10,4) repair on a single
HDD; it pins this simulator's two free HDD constants (positioning cost and
sequential bandwidth).  The CLI's ``fig4`` runs this module's unit beside
the curve and prints one row per anchor; the test-suite asserts each
row's :attr:`Anchor.ok`, so that future model changes cannot silently
drift away from the published curve.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import fig4
from repro.experiments.common import format_table
from repro.runner import ExperimentResult, Scenario, rows_of, scenario, typed_rows

MB = 1 << 20


@dataclass(frozen=True)
class Anchor:
    name: str
    measured: float
    paper: float
    rel_tolerance: float

    @property
    def ok(self) -> bool:
        return abs(self.measured - self.paper) <= self.rel_tolerance * self.paper


def compute() -> dict:
    """Scenario compute: the Figure 4 calibration anchors."""
    bw_4mb = fig4.recovery_bandwidth(4 * MB) / MB
    bw_256mb = fig4.recovery_bandwidth(256 * MB) / MB
    t_4mb = fig4.degraded_read_64mb(4 * MB) * 1000
    t_256mb = fig4.degraded_read_64mb(256 * MB) * 1000
    return {"rows": rows_of([
        Anchor("recovery bandwidth @4MB chunks (MB/s)", bw_4mb, 40.0, 0.35),
        Anchor("recovery bandwidth @256MB chunks (MB/s)", bw_256mb, 172.0, 0.15),
        Anchor("degraded read 64MB @4MB chunks (ms)", t_4mb, 700.0, 0.25),
        Anchor("degraded read 64MB @256MB chunks (ms)", t_256mb, 1320.0, 0.3),
    ])}


def scenarios() -> list[Scenario]:
    return [scenario(compute, name="calibration", seeded=False)]


def render(results: list[ExperimentResult]) -> str:
    """One row per anchor: measured, paper, and whether it is in tolerance."""
    return format_table(
        ["Anchor", "Measured", "Paper", "Within tolerance"],
        [[a.name, round(a.measured, 1), a.paper, "yes" if a.ok else "NO"]
         for a in typed_rows(results, Anchor)])
