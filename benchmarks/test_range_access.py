"""§6.3 — degraded range reads (random offset, uniform length)."""

from paper_report import emit

from repro.experiments import range_access
from repro.experiments.common import run_at_seed, with_params


def test_range_access(benchmark):
    units = with_params(range_access.scenarios(n_objects=1200), n_requests=25)
    results = benchmark.pedantic(lambda: run_at_seed(units),
                                 rounds=1, iterations=1)
    emit("§6.3 range degraded reads (W1)", range_access.render(results))
    by_scheme = {r.scheme: r for r in range_access.from_results(results)}
    # Under contention, Geometric's partial repair beats Contiguous — the
    # paper's 67.6% ratio (idle differences are transfer-hidden in our
    # calibration; see EXPERIMENTS.md).
    assert by_scheme["Geo-4M"].mean_range_ms_busy < \
        by_scheme["Con-16M"].mean_range_ms_busy
