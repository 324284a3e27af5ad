"""Table 3 — disk and network bandwidth during recovery (W1 and W2)."""

from paper_report import emit

from repro.experiments import table3, tradeoff
from repro.experiments.common import run_at_seed

MB = 1 << 20


def test_table3_bandwidth(benchmark):
    def both():
        w1 = run_at_seed(table3.scenarios("W1", n_objects=2500))
        w2 = run_at_seed(table3.scenarios(
            "W2", n_objects=20_000,
            schemes=["Geo-128K", "Geo-256K", "Stripe", "Stripe-Max", "RS",
                     "LRC", "HH", "ECPipe"]))
        return w1, w2

    w1, w2 = benchmark.pedantic(both, rounds=1, iterations=1)
    emit("Table 3: recovery bandwidths",
         table3.render(w1) + "\n\n" + table3.render(w2))
    # Paper W1 pattern: RS moves the most bytes per disk; the 256KB-strip
    # Clay configuration the fewest (25 vs 110 MB/s).
    w1_rows = tradeoff.from_results(w1).results
    bw = {r.scheme: r.disk_bandwidth for r in w1_rows}
    assert bw["RS"] > bw["Stripe"]
    assert bw["Geo-16M"] >= bw["Geo-1M"] * 0.95
    # Network stays far below the NIC capacity (not the bottleneck).
    for r in w1_rows:
        assert r.network_bandwidth < 3000 * MB
