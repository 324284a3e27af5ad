"""Figures 3 and 8 — pipelining regimes rendered from the model."""

from paper_report import emit, run

from repro.experiments import fig3_fig8
from repro.runner import typed_rows


def test_fig3_fig8_pipelining(benchmark):
    results = benchmark.pedantic(lambda: run(fig3_fig8.scenarios()),
                                 rounds=1, iterations=1)
    emit("Figures 3/8: pipelining regimes", fig3_fig8.render(results))
    by_name = {c.name: c for c in typed_rows(results, fig3_fig8.PipelineCase)}
    one_chunk = by_name["Fig3: regenerating, one chunk"]
    fine = by_name["Fig3: RS (fine-grained)"]
    assert one_chunk.saving == 0.0  # nothing overlaps with a single chunk
    assert fine.total_ms < one_chunk.total_ms
    case1 = by_name["Fig8 case 1: repair outpaces transfer"]
    case2 = by_name["Fig8 case 2: transfer blocked by repair"]
    assert case1.saving > case2.saving > 0.1
    # Case 1: completion ~ first repair + full transfer (perfect pipeline).
    first_repair = case1.chunk_sizes[0] / case1.repair_bw
    transfer = sum(case1.chunk_sizes) / (125 << 20)
    assert case1.total_ms == (first_repair + transfer) * 1000
