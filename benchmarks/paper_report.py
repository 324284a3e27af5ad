"""Shared helpers of the paper-shape benchmarks.

Each benchmark regenerates one of the paper's tables or figures (see
DESIGN.md §4 for the index) by running the experiment's scenario units
through the runner, as the CLI does at ``--seed 0 --no-cache``, asserts
its headline shape, and prints the paper-style rows (visible with
``pytest benchmarks/ --benchmark-only -s``).

This is a plain module rather than a ``conftest.py``: the end-to-end
harness tests keep their own ``benchmarks/e2e/tests/conftest.py``, and two
package-less conftest files would both be imported as ``conftest``.
"""

import sys

from repro.runner import RunOptions, run_scenarios


def run(units):
    """The units' results at root seed 0, computed in process, uncached."""
    return run_scenarios(units, RunOptions(cache=False)).results


def emit(title: str, text: str) -> None:
    print(f"\n===== {title} =====\n{text}", file=sys.stderr)
