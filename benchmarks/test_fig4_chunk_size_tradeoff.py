"""Figure 4 — degraded read time vs recovery bandwidth across chunk sizes."""

from paper_report import emit, run

from repro.experiments import calibration, fig4
from repro.runner import typed_rows

MB = 1 << 20


def test_fig4_chunk_size_tradeoff(benchmark):
    results = benchmark.pedantic(
        lambda: run(fig4.scenarios_with_calibration()),
        rounds=1, iterations=1)
    emit("Figure 4: the chunk-size dilemma (Clay(10,4), HDD, 1 Gbps)",
         fig4.render_with_calibration(results))
    curve, anchors = results
    points = typed_rows([curve], fig4.ChunkSizePoint)
    bws = [p.recovery_bandwidth for p in points]
    assert bws == sorted(bws)  # recovery improves monotonically
    assert points[-1].degraded_read_time > 1.5 * points[0].degraded_read_time * 0.6
    for anchor in typed_rows([anchors], calibration.Anchor):
        assert anchor.ok, anchor
