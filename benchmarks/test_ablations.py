"""Ablation benches: the design choices DESIGN.md calls out."""

from paper_report import emit

from repro.experiments import ablations
from repro.experiments.common import format_table, run_at_seed


def test_ablation_partitioning_and_frontcut(benchmark):
    text = benchmark.pedantic(
        lambda: ablations.render(run_at_seed(ablations.scenarios("W1"))),
        rounds=1, iterations=1)
    emit("Ablations: Algorithm 1, front cut, ECPipe", text)
    assert "Algorithm 1" in text


def test_ablation_io_priority(benchmark):
    result = benchmark.pedantic(
        lambda: ablations.io_priority_ablation(n_objects=1400, n_requests=20),
        rounds=1, iterations=1)
    emit("Ablation: §5.1 IO priority lanes",
         format_table(
             ["Recovery I/O priority", "Degraded read (ms)", "Recovery (s)"],
             [["background (RCStor)", round(result.degraded_ms_with_priority),
               round(result.recovery_s_with_priority, 1)],
              ["foreground (ablated)", round(result.degraded_ms_without_priority),
               round(result.recovery_s_without_priority, 1)]]))
    # Priority lanes never hurt degraded reads; whether they help depends on
    # how much the sampled reads' helper disks overlap recovery traffic.
    assert (result.degraded_ms_with_priority
            <= result.degraded_ms_without_priority * 1.02)


def test_ablation_weight_and_pgs(benchmark):
    def run():
        return (ablations.global_weight_sweep(n_objects=1200),
                ablations.pg_count_sweep(n_objects=1200))

    weights, pgs = benchmark.pedantic(run, rounds=1, iterations=1)
    MB = 1 << 20
    emit("Ablation: recovery weight cap and PG count",
         format_table(["Weight cap", "Recovery (s)"],
                      [[w, round(t, 2)] for w, t in weights])
         + "\n\n"
         + format_table(["PGs", "Recovery rate (MB/s)"],
                        [[p, round(r / MB)] for p, r in pgs]))
    assert pgs[-1][1] > pgs[0][1]
