"""Table 5 — layout comparison summary."""

from paper_report import emit

from repro.experiments import table5
from repro.experiments.common import run_at_seed, with_params
from repro.runner import typed_rows


def test_table5_layout_summary(benchmark):
    units = with_params(table5.scenarios(n_objects=1200), n_requests=12)
    results = benchmark.pedantic(lambda: run_at_seed(units),
                                 rounds=1, iterations=1)
    emit("Table 5: layout comparison", table5.render(results))
    by_layout = {r.layout: r
                 for r in typed_rows(results, table5.LayoutSummaryRow)}
    assert by_layout["Geometric"].read_amplification < 1.05
    assert by_layout["Contiguous"].read_amplification > 1.1
    assert by_layout["Geometric"].pipelining_efficiency > \
        by_layout["Stripe"].pipelining_efficiency
    assert by_layout["Stripe"].recovery_disk_bandwidth < \
        by_layout["Geometric"].recovery_disk_bandwidth
