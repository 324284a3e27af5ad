"""Table 4 — range degraded reads comparison across layouts."""

from paper_report import emit

from repro.experiments import table4


def test_table4_range_comparison(benchmark):
    rows = benchmark.pedantic(lambda: table4.run(n_objects=500),
                              rounds=1, iterations=1)
    emit("Table 4: range degraded reads", table4.to_text(rows))
    by_layout = {r.layout: r for r in rows}
    assert by_layout["Geometric"].mean_read_over_object < 1.0
    assert by_layout["Contiguous"].can_exceed_object
    assert by_layout["Stripe-Max"].mean_read_over_object == 1.0
