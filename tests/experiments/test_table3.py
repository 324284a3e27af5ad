"""Tests for Table 3 (recovery disk/network bandwidth)."""

from repro.experiments import table3
from repro.runner import RunOptions, run_scenarios


def test_table3_scenarios_and_render():
    units = table3.scenarios("W1", n_objects=200, schemes=["Geo-128K", "RS"])
    assert units
    report = run_scenarios(units, RunOptions(jobs=1, seed=0, cache=False))
    text = table3.render(report.results)
    assert "Disk (MB/s)" in text
    assert "Network (MB/s)" in text
    assert "Geo-128K" in text and "RS" in text


def test_table3_run_produces_positive_bandwidths():
    from repro.experiments import tradeoff

    results = run_scenarios(table3.scenarios("W1", n_objects=200,
                                             schemes=["Geo-128K"]),
                            RunOptions(cache=False)).results
    result = tradeoff.from_results(results)
    assert result.results
    for row in result.results:
        assert row.disk_bandwidth > 0
        assert row.network_bandwidth > 0
    assert "Geo-128K" in table3.render(results)
