"""Figure 2 — Clay(10,4) repair read patterns per failed disk."""

from paper_report import emit, run

from repro.experiments import fig2
from repro.runner import typed_rows


def test_fig2_repair_patterns(benchmark):
    results = benchmark.pedantic(lambda: run(fig2.scenarios()),
                                 rounds=1, iterations=1)
    emit("Figure 2: Clay(10,4) repair patterns", fig2.render(results))
    rows = typed_rows(results, fig2.CaseRow)
    assert [r.runs_per_helper for r in rows] == [1, 4, 16, 64]
    assert [r.run_length_subchunks for r in rows] == [64, 16, 4, 1]
