"""§6.3 breakdown — small-size-bucket shares and average chunk sizes."""

from paper_report import emit

from repro.experiments import breakdown
from repro.experiments.common import run_at_seed
from repro.runner import typed_rows

MB = 1 << 20


def test_breakdown_small_buckets(benchmark):
    def both():
        return (run_at_seed(breakdown.scenarios("W1", n_objects=10_000)),
                run_at_seed(breakdown.scenarios("W2", n_objects=20_000)))

    w1, w2 = benchmark.pedantic(both, rounds=1, iterations=1)
    emit("§6.3 breakdown",
         breakdown.render(w1) + "\n\n" + breakdown.render(w2))
    w1_rows = {r.scheme: r for r in typed_rows(w1, breakdown.BreakdownRow)}
    # Larger s0 -> larger small-size-bucket share and larger chunks.
    assert (w1_rows["Geo-1M"].small_bucket_share
            < w1_rows["Geo-4M"].small_bucket_share
            < w1_rows["Geo-16M"].small_bucket_share < 0.15)
    # Paper: 14.8 / 25.0 / 56.4 MB average chunks; Stripe-Max only 10.3 MB.
    assert w1_rows["Geo-4M"].average_chunk_size > \
        2 * w1_rows["Stripe-Max"].average_chunk_size
    assert abs(w1_rows["Stripe-Max"].average_chunk_size - 10.3 * MB) < 2 * MB
