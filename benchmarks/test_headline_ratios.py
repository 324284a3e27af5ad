"""§6.2 headline — 1.85x RS / 1.30x LRC recovery, degraded ≈ normal reads."""

from paper_report import emit, run

from repro.experiments import headline, tradeoff


def test_headline_ratios(benchmark):
    # W1 at 3,000 objects and W2 at 25,000 (scenarios() ingests 10x on W2).
    w1_units = [u for u in headline.scenarios(3000)
                if u.name.startswith("w1/")]
    w2_units = [u for u in headline.scenarios(2500)
                if u.name.startswith("w2/")]
    w1, w2 = benchmark.pedantic(
        lambda: (run(w1_units), run(w2_units)),
        rounds=1, iterations=1)
    emit("§6.2 headline claims", headline.render(w1 + w2))
    result = headline.from_tradeoffs(tradeoff.from_results(w1),
                                     tradeoff.from_results(w2))
    assert result.w1_vs_rs > 1.4
    assert result.w1_vs_lrc > 1.05
    assert result.w2_vs_rs > 1.0
    assert 0.9 < result.degraded_over_normal < 1.3
