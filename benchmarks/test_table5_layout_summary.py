"""Table 5 — layout comparison summary."""

from paper_report import emit

from repro.experiments import table5


def test_table5_layout_summary(benchmark):
    rows = benchmark.pedantic(lambda: table5.run(n_objects=1200, n_requests=12),
                              rounds=1, iterations=1)
    emit("Table 5: layout comparison", table5.to_text(rows))
    by_layout = {r.layout: r for r in rows}
    assert by_layout["Geometric"].read_amplification < 1.05
    assert by_layout["Contiguous"].read_amplification > 1.1
    assert by_layout["Geometric"].pipelining_efficiency > \
        by_layout["Stripe"].pipelining_efficiency
    assert by_layout["Stripe"].recovery_disk_bandwidth < \
        by_layout["Geometric"].recovery_disk_bandwidth
