"""Figure 7 — trace byte-CDFs of capacity and read traffic."""

from paper_report import emit

from repro.experiments import fig7


def test_fig7_trace_cdf(benchmark):
    result = benchmark.pedantic(lambda: fig7.run(n_objects=60_000),
                                rounds=1, iterations=1)
    emit("Figure 7: trace byte-CDFs", fig7.to_text(result))
    assert result.capacity_above_4mb > 0.977
