"""Reproduction of every table and figure in the paper's evaluation.

One module per experiment (see DESIGN.md §4 for the index).  Each module
exposes two layers:

* ``scenarios(...)`` — the work declared as :class:`~repro.runner.Scenario`
  units (one per scheme/grid point where the experiment fans out), each a
  compute function plus JSON-safe parameters, for the parallel, cached
  runner;
* ``render(results)`` — a pure function from the runner's
  :class:`~repro.runner.ExperimentResult` rows back to the paper-style
  text table.

``python -m repro.experiments`` wires these into the CLI through one
``EXPERIMENTS`` table (``__main__.py``): per CLI name, the module, its
scenarios/render functions, the keywords the name fixes, the flags it
reads, and whether it is an extension outside ``all``.  The test-suite
and the paper-shape benches under ``benchmarks/`` run the same units in
process through :func:`repro.runner.run_scenarios` at root seed 0 with
the cache off, so each unit draws the seed the CLI derives for it at
``--seed 0``.  ``results/snapshot.txt`` and ``results/seed_spread.txt``,
which EXPERIMENTS.md quotes, are the text of CLI command lines.
"""

from repro.experiments.common import (
    SETTINGS,
    W1_SETTING,
    W2_SETTING,
    WorkloadSetting,
    build_system,
    cluster_config,
    format_table,
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
    "setting_by_name",
]
