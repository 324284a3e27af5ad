"""Figure 13 — pipelining benefit at 1/2/4 Gbps client links."""

from paper_report import emit

from repro.experiments import fig13
from repro.experiments.common import run_at_seed, with_params
from repro.runner import typed_rows


def test_fig13_client_bandwidth(benchmark):
    units = with_params(fig13.scenarios(n_objects=1500), n_requests=20)
    results = benchmark.pedantic(lambda: run_at_seed(units),
                                 rounds=1, iterations=1)
    emit("Figure 13: Geo-4M timing by client bandwidth", fig13.render(results))
    rows = typed_rows(results, fig13.BandwidthRow)
    # Degraded read ~ transfer time when the edge is slow, ~ repair time
    # when the edge is fast; pipelining saves 23.4-35.9% in the paper.
    assert abs(rows[0].degraded_ms - rows[0].transfer_ms) \
        < 0.2 * rows[0].transfer_ms
    assert rows[2].degraded_ms < 0.8 * (rows[2].transfer_ms + rows[2].repair_ms)
    assert all(0.1 < r.pipelining_saving < 0.6 for r in rows)
