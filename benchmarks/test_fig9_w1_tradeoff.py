"""Figure 9 — W1 (HDD) recovery time vs degraded read time, all schemes."""

from paper_report import emit

from repro.experiments import tradeoff
from repro.experiments.common import run_at_seed


def test_fig9_w1_tradeoff(benchmark):
    results = benchmark.pedantic(
        lambda: run_at_seed(tradeoff.scenarios("W1", n_objects=2500,
                                               n_requests=15)),
        rounds=1, iterations=1)
    emit("Figure 9: W1 recovery vs degraded read (idle + busy)",
         tradeoff.render(results))
    result = tradeoff.from_results(results)
    per_byte = {r.scheme: r.recovery_time / r.repaired_bytes
                for r in result.results}
    geo = per_byte["Geo-4M"]
    # Who wins, by roughly what factor (paper: RS 1.85x, LRC 1.30x, and
    # 256KB-strip Clay is the worst recovery configuration).
    assert per_byte["RS"] > 1.3 * geo
    assert per_byte["LRC"] > 1.05 * geo
    assert per_byte["Stripe"] > per_byte["RS"]
    # Degraded reads: Geo stays near normal reads; Con-256M clearly worse.
    geo_row = result.by_scheme("Geo-4M")
    assert geo_row.degraded_ms < 1.15 * geo_row.normal_ms
    assert result.by_scheme("Con-256M").degraded_ms > 1.2 * geo_row.normal_ms
    # Busy system: larger s0 shortens degraded reads (the s0 trade-off).
    assert result.by_scheme("Geo-16M").degraded_ms_busy < \
        result.by_scheme("Geo-1M").degraded_ms_busy
