"""Figure 12 — W2 degraded read latency by object size (p5/p50/p95)."""

from paper_report import emit, run

from repro.experiments import fig11_fig12
from repro.experiments.common import with_params
from repro.runner import typed_rows

KB = 1 << 10


def test_fig12_latency_by_size_w2(benchmark):
    units = with_params(fig11_fig12.scenarios("W2", n_objects=8000),
                        n_probes=16)
    results = benchmark.pedantic(lambda: run(units),
                                 rounds=1, iterations=1)
    emit("Figure 12: W2 degraded read latency by object size",
         fig11_fig12.render(results))
    rows = typed_rows(results, fig11_fig12.LatencyRow)
    by_key = {(r.scheme, r.object_size): r for r in rows}
    for scheme in {r.scheme for r in rows}:
        assert (by_key[(scheme, 256 * KB)].p50_ms
                <= by_key[(scheme, 1024 * KB)].p50_ms + 0.5)
    # All W2 degraded reads are single-digit to low-double-digit ms.
    for r in rows:
        assert r.p95_ms < 40
