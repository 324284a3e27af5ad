"""Table 3 — disk and network bandwidth (MB/s) during recovery.

Derived from the same recovery runs as Figures 9/10: average bytes moved
per disk (reads + writes) and received per node over the recovery makespan.
"""

from __future__ import annotations

from repro.experiments import tradeoff
from repro.experiments.common import format_table
from repro.runner import ExperimentResult, Scenario

MB = 1 << 20


def scenarios(setting: str, n_objects: int | None = None,
              schemes: list[str] | None = None) -> list[Scenario]:
    """Same recovery grid as Figures 9/10, but without busy reruns."""
    return tradeoff.scenarios(setting, n_objects=n_objects, n_requests=4,
                              schemes=schemes, include_busy=False)


def render(results: list[ExperimentResult]) -> str:
    """Paper-style table of tradeoff units' recovery bandwidths."""
    result = tradeoff.from_results(results)
    rows = [[r.scheme, round(r.disk_bandwidth / MB, 1),
             round(r.network_bandwidth / MB, 1)] for r in result.results]
    return (f"[{result.setting_name}]\n"
            + format_table(["Scheme", "Disk (MB/s)", "Network (MB/s)"], rows))
