"""Durability analysis: the §2.1 motivation, quantified.

Combines measured recovery times (rescaled to the paper's per-disk
capacity) with the reliability model: faster recovery shrinks the window
in which additional failures can accumulate, raising MTTDL by roughly
``speedup^r`` — and LRC's missing MDS property costs durability even where
its recovery is quick.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import tradeoff
from repro.experiments.common import (
    W1_SETTING,
    build_system,
    cluster_config,
    format_table,
    setting_by_name,
)
from repro.experiments.tradeoff import TradeoffResult
from repro.runner import ExperimentResult, Scenario
from repro.reliability import (
    ReliabilityParams,
    fatal_probabilities_for_code,
    system_mttdl,
)
from repro.reliability.markov import durability_nines

#: Disk annualised failure rate used for the analysis (Schroeder & Gibson
#: report 2-4% in the field; we take 2%).
AFR = 0.02

#: The schemes the reliability model compares.
SCHEMES = [W1_SETTING.geo_default, "RS", "LRC"]

#: Independent placement groups of the modelled system.
N_GROUPS = 10_000


@dataclass(frozen=True)
class DurabilityRow:
    scheme: str
    recovery_hours_paper_scale: float
    mttdl_hours: float
    nines: float


def from_tradeoff(result: TradeoffResult) -> list[DurabilityRow]:
    """Apply the (deterministic) Markov model to the measured recoveries of
    :data:`SCHEMES`, each with the code its system is built with."""
    setting = setting_by_name(result.setting_name)
    config = cluster_config(setting, result.n_objects)
    rows = []
    for scheme in SCHEMES:
        repair_hours = (result.by_scheme(scheme).recovery_time_paper_scale
                        / 3600.0)
        code = build_system(scheme, setting, config).code
        params = ReliabilityParams(
            n_disks=14, afr=AFR, repair_hours=repair_hours,
            fatal_probabilities=tuple(fatal_probabilities_for_code(code)))
        mttdl = system_mttdl(params, N_GROUPS)
        rows.append(DurabilityRow(scheme, repair_hours, mttdl,
                                  durability_nines(mttdl)))
    return rows


def scenarios(n_objects: int | None = None) -> list[Scenario]:
    """The recovery measurements the reliability model feeds on."""
    return tradeoff.scenarios(
        "W1", n_objects=n_objects if n_objects is not None else 2000,
        n_requests=4, schemes=SCHEMES, include_busy=False)


def to_text(rows: list[DurabilityRow]) -> str:
    """Render the rows as a paper-style text table."""
    table = format_table(
        ["Scheme", "Recovery (h, paper scale)", "System MTTDL (h)",
         "Annual durability (nines)"],
        [[r.scheme, round(r.recovery_hours_paper_scale, 3),
          f"{r.mttdl_hours:.3g}", round(r.nines, 1)] for r in rows])
    return (table + "\n\nFaster recovery multiplies MTTDL by ~speedup^r; "
            "LRC additionally pays for its unrecoverable 4-failure patterns.")


def render(results: list[ExperimentResult]) -> str:
    """The durability table from W1 tradeoff units holding :data:`SCHEMES`."""
    return to_text(from_tradeoff(tradeoff.from_results(results)))
