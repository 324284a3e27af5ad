"""Macro benchmarks: full experiment scenarios through the runner.

Micro benchmarks localize regressions; these catch the interactions the
micros cannot — layout math, catalog ingest, degraded-read pipelines and
the recovery scheduler all running together.  All three (fig4, fig13 and
tradeoff) run the real :func:`repro.runner.run_scenarios` path with the
cache disabled (a cached macro benchmark would time JSON deserialization)
at a reduced scale, so a bench run stays in CI budget while exercising the
same code as ``python -m repro.experiments``.
"""

from __future__ import annotations

from repro.bench.harness import BenchSpec

#: reduced scale for the fig13 recovery-bandwidth sweep
_FIG13_OBJECTS = 1000

#: reduced scale for the fig9 latency/recovery trade-off sweep — the
#: degraded-read pipeline is the event-heaviest path the simulator has,
#: so this is the macro that moves when the DES engine regresses
_TRADEOFF_OBJECTS = 300
_TRADEOFF_REQUESTS = 3


def _run(units) -> int:
    from repro.runner import RunOptions, run_scenarios

    report = run_scenarios(units, RunOptions(jobs=1, seed=0, cache=False))
    return sum(len(r.rows) for r in report.results)


def _fig4() -> int:
    from repro.experiments import fig4

    return _run(fig4.scenarios())


def _fig13() -> int:
    from repro.experiments import fig13

    return _run(fig13.scenarios(n_objects=_FIG13_OBJECTS))


def _tradeoff() -> int:
    from repro.experiments import tradeoff

    return _run(tradeoff.scenarios("W1", n_objects=_TRADEOFF_OBJECTS,
                                   n_requests=_TRADEOFF_REQUESTS))


def specs() -> list[BenchSpec]:
    """The macro suite (scenario wall-clock, cache off)."""
    return [
        BenchSpec("scenario.fig4", "macro", _fig4, repeats=2),
        BenchSpec("scenario.fig13", "macro", _fig13, repeats=2),
        BenchSpec("scenario.tradeoff", "macro", _tradeoff, repeats=2),
    ]
