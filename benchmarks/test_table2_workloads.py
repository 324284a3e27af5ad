"""Table 2 — W1/W2 workload statistics."""

from paper_report import emit, run

from repro.experiments import table2
from repro.runner import typed_rows

MB = 1 << 20
KB = 1 << 10


def test_table2_workloads(benchmark):
    results = benchmark.pedantic(
        lambda: run(table2.scenarios(n_objects=30_000)),
        rounds=1, iterations=1)
    emit("Table 2: workloads", table2.render(results))
    by_name = {r.name: r for r in typed_rows(results, table2.WorkloadRow)}
    assert abs(by_name["W1"].mean_object_size - 102.8 * MB) < 0.15 * 102.8 * MB
    assert abs(by_name["W2"].mean_object_size - 101.3 * KB) < 0.15 * 101.3 * KB
