"""Figure 12 — W2 degraded read latency by object size (p5/p50/p95)."""

from paper_report import emit

from repro.experiments import fig11_fig12
from repro.experiments.common import W2_SETTING

KB = 1 << 10


def test_fig12_latency_by_size_w2(benchmark):
    rows = benchmark.pedantic(
        lambda: fig11_fig12.run(W2_SETTING, n_objects=8000, n_probes=16),
        rounds=1, iterations=1)
    emit("Figure 12: W2 degraded read latency by object size",
         fig11_fig12.to_text(rows))
    by_key = {(r.scheme, r.object_size): r for r in rows}
    for scheme in {r.scheme for r in rows}:
        assert (by_key[(scheme, 256 * KB)].p50_ms
                <= by_key[(scheme, 1024 * KB)].p50_ms + 0.5)
    # All W2 degraded reads are single-digit to low-double-digit ms.
    for r in rows:
        assert r.p95_ms < 40
