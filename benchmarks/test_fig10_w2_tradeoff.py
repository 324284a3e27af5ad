"""Figure 10 — W2 (SSD) recovery time vs degraded read time, all schemes."""

from paper_report import emit, run

from repro.experiments import tradeoff


def test_fig10_w2_tradeoff(benchmark):
    results = benchmark.pedantic(
        lambda: run(tradeoff.scenarios("W2", n_objects=25_000,
                                               n_requests=10)),
        rounds=1, iterations=1)
    emit("Figure 10: W2 recovery vs degraded read (idle + busy)",
         tradeoff.render(results))
    result = tradeoff.from_results(results)
    per_byte = {r.scheme: r.recovery_time / r.repaired_bytes
                for r in result.results}
    # Paper: Clay+Geo recovers 2.01x faster than RS on W2.
    assert per_byte["RS"] > 1.1 * per_byte["Geo-128K"]
    # Degraded reads are single-digit milliseconds on SSDs (paper: 3-7 ms).
    for r in result.results:
        assert r.degraded_ms < 20
