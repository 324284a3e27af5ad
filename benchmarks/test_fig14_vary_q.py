"""Figure 14 — average chunk size under varying q (peak at q = 2-3)."""

from paper_report import emit

from repro.experiments import fig14
from repro.experiments.common import run_at_seed
from repro.runner import typed_rows


def test_fig14_vary_q(benchmark):
    def both():
        return (run_at_seed(fig14.scenarios("W1", n_objects=4000)),
                run_at_seed(fig14.scenarios("W2", n_objects=15_000)))

    w1, w2 = benchmark.pedantic(both, rounds=1, iterations=1)
    emit("Figure 14: average chunk size vs q",
         fig14.render(w1) + "\n\n" + fig14.render(w2))
    for results in (w1, w2):
        points = typed_rows(results, fig14.QPoint)
        by_q = {p.q: p.average_chunk_size for p in points}
        peak = max(by_q.values())
        assert fig14.best_q(points) in (2, 3, 4)
        assert by_q[2] > 0.9 * peak
        assert by_q[1] < by_q[2]  # q=1 (constant chunks) is worse than q=2
