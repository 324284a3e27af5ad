"""simlint benchmark: whole-program analysis of ``src/repro``.

* ``simlint.whole_program_cold`` — parse + per-file rules + call graph +
  the three interprocedural passes over the whole tree, what every CI
  run pays.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.harness import BenchSpec

#: the tree the analysis benchmark lints: the installed ``repro`` package
_SRC = str(Path(__file__).resolve().parents[1])


def _cold() -> int:
    from repro.analysis.wholeprogram import run_whole_program

    result = run_whole_program([_SRC])
    return result.stats.files_total


def specs() -> list[BenchSpec]:
    """The simlint suite (whole-program analysis)."""
    return [
        BenchSpec("simlint.whole_program_cold", "lint", _cold, repeats=2),
    ]
