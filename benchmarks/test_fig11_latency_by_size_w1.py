"""Figure 11 — W1 degraded read latency by object size (p5/p50/p95)."""

from paper_report import emit

from repro.experiments import fig11_fig12
from repro.experiments.common import run_at_seed, with_params
from repro.runner import typed_rows

MB = 1 << 20


def test_fig11_latency_by_size_w1(benchmark):
    units = with_params(fig11_fig12.scenarios("W1", n_objects=1200),
                        n_probes=16)
    results = benchmark.pedantic(lambda: run_at_seed(units),
                                 rounds=1, iterations=1)
    emit("Figure 11: W1 degraded read latency by object size",
         fig11_fig12.render(results))
    rows = typed_rows(results, fig11_fig12.LatencyRow)
    by_key = {(r.scheme, r.object_size): r for r in rows}
    # Latency grows with object size for every layout.
    for scheme in {r.scheme for r in rows}:
        assert by_key[(scheme, 8 * MB)].p50_ms < by_key[(scheme, 128 * MB)].p50_ms
    # Geometric keeps both median and tail low for small objects versus
    # large-chunk contiguous layouts (read amplification).
    assert by_key[("Geo-1M", 8 * MB)].p50_ms < by_key[("Con-64M", 8 * MB)].p50_ms
    assert by_key[("Geo-1M", 8 * MB)].p95_ms < by_key[("Con-256M", 8 * MB)].p95_ms
