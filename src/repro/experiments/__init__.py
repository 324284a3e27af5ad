"""Reproduction of every table and figure in the paper's evaluation.

One module per experiment (see DESIGN.md §4 for the index).  Each module
exposes three layers:

* ``run(...)`` — the typed in-process API (dataclass rows), used by the
  benches under ``benchmarks/`` and the test-suite;
* ``scenarios(...)`` — the same work declared as
  :class:`~repro.runner.Scenario` units (one per scheme/grid point where
  the experiment fans out), for the parallel, cached runner;
* ``render(results)`` — a pure function from the runner's
  :class:`~repro.runner.ExperimentResult` rows back to the paper-style
  text table.

``python -m repro.experiments`` wires these into the CLI.
"""

from repro.experiments.common import (
    SETTINGS,
    W1_SETTING,
    W2_SETTING,
    WorkloadSetting,
    build_system,
    cluster_config,
    format_table,
    sample_requests,
    setting_by_name,
)

__all__ = [
    "SETTINGS",
    "W1_SETTING",
    "W2_SETTING",
    "WorkloadSetting",
    "build_system",
    "cluster_config",
    "format_table",
    "sample_requests",
    "setting_by_name",
]
