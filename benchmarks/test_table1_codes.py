"""Table 1 — codes comparison (read traffic / storage / sub-packetization)."""

from paper_report import emit

from repro.experiments import table1
from repro.experiments.common import run_at_seed
from repro.runner import typed_rows


def test_table1_codes(benchmark):
    results = benchmark.pedantic(lambda: run_at_seed(table1.scenarios()),
                                 rounds=1, iterations=1)
    emit("Table 1: Codes Comparison", table1.render(results))
    by_name = {r.name: r for r in typed_rows(results, table1.CodeRow)}
    assert round(by_name["RS(10,4)"].read_traffic, 2) == 10.0
    assert round(by_name["LRC(10,2,2)"].read_traffic, 2) == 5.71
    assert round(by_name["Clay(10,4)"].read_traffic, 2) == 3.25
    assert by_name["Clay(10,4)"].sub_packetization == 256
