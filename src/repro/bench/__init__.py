"""``repro.bench`` — the performance benchmark harness.

Run it as a module::

    python -m repro.bench --out BENCH_engine.json
    python -m repro.bench --baseline benchmarks/baseline.json --gate 0.20

The suite times the simulator's hot paths (micro), three full experiment
scenarios — fig4, fig13 and tradeoff (macro) — and the fabric,
reliability, traffic and simlint (lint) groups, emits a stable JSON
document, and — given a baseline — fails when any benchmark regresses
beyond the gate tolerance.  CI runs it on every push; see
``benchmarks/baseline.json`` and the README's Performance section.
"""

from repro.bench.harness import (
    BENCH_SCHEMA,
    BenchResult,
    BenchSpec,
    Regression,
    compare,
    render,
    run_spec,
    run_specs,
)

__all__ = [
    "BENCH_SCHEMA",
    "BenchResult",
    "BenchSpec",
    "Regression",
    "all_specs",
    "compare",
    "render",
    "run_spec",
    "run_specs",
]


def all_specs() -> list["BenchSpec"]:
    """Every benchmark in the suite: calibration, micro, fabric,
    reliability, traffic, lint, macro."""
    from repro.bench import fabric, lint, macro, micro, reliability, traffic

    return (micro.specs() + fabric.specs() + reliability.specs()
            + traffic.specs() + lint.specs() + macro.specs())
