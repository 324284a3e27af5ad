"""simlint: DES-aware static analysis + runtime invariants for this repo.

The package has three halves:

* **Per-file static analysis** (``python -m repro.analysis src/``): an
  AST-based linter whose rules encode the properties the discrete-event
  simulator and the codec stack rely on but ordinary tests do not guard —
  determinism (no wall clock, no unseeded RNG, no iteration over unordered
  sets that feeds event scheduling), process-generator hygiene, resource
  acquire/release pairing by CFG walk, and import layering.  Rules are
  suppressible per line with ``# simlint: disable=RULE`` and some are
  autofixable (``--fix``).

* **Whole-program analysis** (``--whole-program``): a project symbol
  table and call graph (:mod:`repro.analysis.callgraph`) feeding three
  interprocedural passes — determinism taint with function summaries
  (:mod:`repro.analysis.taint`), cooperative-process race detection over
  yield intervals (:mod:`repro.analysis.races`) and grant-escape
  summaries that lift the resource rules across helper calls
  (:mod:`repro.analysis.summaries`).  The driver
  (:mod:`repro.analysis.wholeprogram`) adds per-pass timings and SARIF /
  GitHub-annotation output.

* **Runtime invariants** (:mod:`repro.analysis.invariants`): an opt-in
  :class:`InvariantChecker` hooked through the :mod:`repro.obs` observer —
  byte-conservation checks on every repair profile the simulator consumes,
  a monotonic sim-clock assertion on event scheduling, and an end-of-run
  audit that no disk/NIC grant leaked.  Enabled by the experiment CLI's
  ``--check-invariants`` flag.
"""

from repro.analysis.linter import (
    LintResult,
    Violation,
    layer_of,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.analysis.rules import ALL_RULES, Rule
from repro.analysis.invariants import (
    InvariantChecker,
    InvariantViolation,
    attach_invariant_checker,
)

__all__ = [
    "ALL_RULES",
    "InvariantChecker",
    "InvariantViolation",
    "LintResult",
    "Rule",
    "Violation",
    "attach_invariant_checker",
    "layer_of",
    "lint_file",
    "lint_paths",
    "lint_source",
    "run_whole_program",
]


def run_whole_program(paths, **kwargs):
    """Convenience re-export; see :mod:`repro.analysis.wholeprogram`."""
    from repro.analysis.wholeprogram import run_whole_program as _run

    return _run(paths, **kwargs)