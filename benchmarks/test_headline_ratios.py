"""§6.2 headline — 1.85x RS / 1.30x LRC recovery, degraded ≈ normal reads."""

from paper_report import emit

from repro.experiments import headline


def test_headline_ratios(benchmark):
    result = benchmark.pedantic(
        lambda: headline.run(n_objects_w1=3000, n_objects_w2=25_000),
        rounds=1, iterations=1)
    emit("§6.2 headline claims", headline.to_text(result))
    assert result.w1_vs_rs > 1.4
    assert result.w1_vs_lrc > 1.05
    assert result.w2_vs_rs > 1.0
    assert 0.9 < result.degraded_over_normal < 1.3
