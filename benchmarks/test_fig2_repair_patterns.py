"""Figure 2 — Clay(10,4) repair read patterns per failed disk."""

from paper_report import emit

from repro.experiments import fig2


def test_fig2_repair_patterns(benchmark):
    rows = benchmark.pedantic(fig2.run, rounds=1, iterations=1)
    emit("Figure 2: Clay(10,4) repair patterns", fig2.to_text(rows))
    assert [r.runs_per_helper for r in rows] == [1, 4, 16, 64]
    assert [r.run_length_subchunks for r in rows] == [64, 16, 4, 1]
