"""Table 4 — range degraded reads comparison across layouts."""

from paper_report import emit

from repro.experiments import table4
from repro.experiments.common import run_at_seed
from repro.runner import typed_rows


def test_table4_range_comparison(benchmark):
    results = benchmark.pedantic(
        lambda: run_at_seed(table4.scenarios(n_objects=500)),
        rounds=1, iterations=1)
    emit("Table 4: range degraded reads", table4.render(results))
    by_layout = {r.layout: r
                 for r in typed_rows(results, table4.RangeComparisonRow)}
    assert by_layout["Geometric"].mean_read_over_object < 1.0
    assert by_layout["Contiguous"].can_exceed_object
    assert by_layout["Stripe-Max"].mean_read_over_object == 1.0
