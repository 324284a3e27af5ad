"""Figure 7 — trace byte-CDFs of capacity and read traffic."""

from paper_report import emit

from repro.experiments import fig7
from repro.experiments.common import run_at_seed


def test_fig7_trace_cdf(benchmark):
    results = benchmark.pedantic(
        lambda: run_at_seed(fig7.scenarios(n_objects=60_000)),
        rounds=1, iterations=1)
    emit("Figure 7: trace byte-CDFs", fig7.render(results))
    assert fig7.from_results(results).capacity_above_4mb > 0.977
