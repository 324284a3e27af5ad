"""Figure 4 — degraded read time vs recovery bandwidth across chunk sizes."""

from paper_report import emit

from repro.experiments import calibration, fig4
from repro.experiments.common import run_at_seed
from repro.runner import typed_rows

MB = 1 << 20


def test_fig4_chunk_size_tradeoff(benchmark):
    results = benchmark.pedantic(lambda: run_at_seed(fig4.scenarios()),
                                 rounds=1, iterations=1)
    emit("Figure 4: the chunk-size dilemma (Clay(10,4), HDD, 1 Gbps)",
         fig4.render(results) + "\n\n"
         + calibration.to_text(calibration.anchors()))
    points = typed_rows(results, fig4.ChunkSizePoint)
    bws = [p.recovery_bandwidth for p in points]
    assert bws == sorted(bws)  # recovery improves monotonically
    assert points[-1].degraded_read_time > 1.5 * points[0].degraded_read_time * 0.6
    for anchor in calibration.check():
        assert anchor.ok
