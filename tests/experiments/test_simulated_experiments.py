"""Tests of the DES-backed experiments (scaled down to stay fast)."""

import numpy as np
import pytest

from repro.experiments import (
    fig11_fig12,
    fig13,
    headline,
    range_access,
    table4,
    table5,
    tradeoff,
)
from repro.experiments.__main__ import build
from repro.experiments.common import (
    W2_SETTING,
    build_system,
    cluster_config,
    nearest_candidates,
    request_size_targets,
    sample_workload,
    with_params,
)
from repro.runner import RunOptions, run_scenarios, typed_rows

MB = 1 << 20


def run(units):
    """The units' results as ``--seed 0 --no-cache`` computes them."""
    return run_scenarios(units, RunOptions(cache=False)).results


@pytest.fixture(scope="module")
def w1_units():
    return run(tradeoff.scenarios(
        "W1", n_objects=900, n_requests=10, include_busy=False,
        schemes=["Geo-4M", "Con-256M", "Stripe", "RS", "LRC"]))


@pytest.fixture(scope="module")
def w1_small(w1_units):
    return tradeoff.from_results(w1_units)


def test_tradeoff_runs_all_schemes(w1_small):
    assert {r.scheme for r in w1_small.results} == \
        {"Geo-4M", "Con-256M", "Stripe", "RS", "LRC"}
    for r in w1_small.results:
        assert r.recovery_time > 0
        assert r.degraded_ms > 0
        assert r.normal_ms > 0
        assert r.repaired_bytes > 0


def test_tradeoff_stripe_recovers_slower_than_rs(w1_small):
    """Fragmented Clay is the worst per repaired byte; the headline's Geo
    ratios are asserted on the CLI's ``headline`` units below."""
    rs = w1_small.by_scheme("RS")
    stripe = w1_small.by_scheme("Stripe")
    per_byte = lambda r: r.recovery_time / r.repaired_bytes
    assert per_byte(stripe) > per_byte(rs)           # fragmented Clay worst


def test_tradeoff_degraded_read_ordering(w1_small):
    """Geo degraded reads near normal reads; Con-256M clearly worse."""
    geo = w1_small.by_scheme("Geo-4M")
    con = w1_small.by_scheme("Con-256M")
    assert geo.degraded_ms < 1.15 * geo.normal_ms
    assert con.degraded_ms > 1.2 * con.normal_ms


def test_tradeoff_text_renders(w1_units):
    text = tradeoff.render(w1_units)
    assert "Geo-4M" in text and "Recovery@paper(s)" in text


def test_headline_ratios():
    """What ``python -m repro.experiments headline`` prints."""
    _args, units, _sections = build(["headline"])
    results = run(units)
    w1, w2 = ([r for r in results if r.meta["setting"] == name]
              for name in ("W1", "W2"))
    result = headline.from_tradeoffs(tradeoff.from_results(w1),
                                     tradeoff.from_results(w2))
    assert result.w1_vs_rs > 1.4                     # paper: 1.85x
    assert result.w1_vs_lrc > 1.05                   # paper: 1.30x
    assert result.w2_vs_rs > 1.0
    assert 0.9 < result.degraded_over_normal < 1.3
    assert "1.85x" in headline.render(results)


def test_fig13_pipelining():
    rows = typed_rows(run(with_params(
        fig13.scenarios(n_objects=500), n_requests=8)), fig13.BandwidthRow)
    assert [r.client_gbps for r in rows] == [1.0, 2.0, 4.0]
    # Transfer halves with bandwidth; repair roughly constant.
    assert rows[0].transfer_ms == pytest.approx(2 * rows[1].transfer_ms, rel=0.1)
    assert rows[0].repair_ms == pytest.approx(rows[2].repair_ms, rel=0.2)
    # Degraded time tracks transfer when slow, repair when fast (Fig. 13).
    assert rows[0].degraded_ms == pytest.approx(rows[0].transfer_ms, rel=0.15)
    assert rows[2].degraded_ms < rows[2].transfer_ms + rows[2].repair_ms
    # Pipelining saves a meaningful fraction (paper: 23.4%-35.9%).
    assert all(0.1 < r.pipelining_saving < 0.6 for r in rows)


def test_fig11_latency_percentiles():
    rows = typed_rows(run(with_params(
        fig11_fig12.scenarios("W1", n_objects=400,
                              schemes=["Geo-1M", "Con-64M"]), n_probes=8)),
        fig11_fig12.LatencyRow)
    assert len(rows) == 6  # 2 schemes x 3 target sizes
    for r in rows:
        assert r.p5_ms <= r.p50_ms <= r.p95_ms
    by_key = {(r.scheme, r.object_size): r for r in rows}
    # Larger objects take longer.
    assert by_key[("Geo-1M", 32 * MB)].p50_ms > by_key[("Geo-1M", 8 * MB)].p50_ms
    # Contiguous 64M amplifies small-object degraded reads.
    assert by_key[("Con-64M", 8 * MB)].p50_ms > by_key[("Geo-1M", 8 * MB)].p50_ms


def test_range_access_rows():
    rows = range_access.from_results(run(with_params(
        range_access.scenarios(n_objects=400), n_requests=10)))
    assert [r.scheme for r in rows] == ["Geo-4M", "Con-16M", "Stripe-Max"]
    geo = rows[0]
    assert geo.ratio_to_geo == pytest.approx(1.0)
    # Under load, Geometric's partial repair beats Contiguous (§6.3).
    con = rows[1]
    assert geo.mean_range_ms_busy < con.mean_range_ms_busy


def test_table4_classification():
    results = run(table4.scenarios(n_objects=150))
    rows = {r.layout: r for r in typed_rows(results, table4.RangeComparisonRow)}
    assert not rows["Geometric"].can_exceed_object
    assert rows["Contiguous"].can_exceed_object
    assert rows["Stripe-Max"].mean_read_over_object == pytest.approx(1.0)
    assert rows["Geometric"].mean_read_over_object < 1.0
    text = table4.render(results)
    assert "Less than object size" in text


def test_table5_summary():
    results = run(with_params(table5.scenarios(n_objects=500),
                                      n_requests=6))
    rows = {r.layout: r for r in typed_rows(results, table5.LayoutSummaryRow)}
    assert rows["Geometric"].read_amplification == pytest.approx(1.0, abs=0.01)
    assert rows["Contiguous"].read_amplification > 1.1
    assert rows["Geometric"].pipelining_efficiency > \
        rows["Stripe"].pipelining_efficiency
    assert rows["Stripe"].recovery_disk_bandwidth < \
        rows["Geometric"].recovery_disk_bandwidth


def test_w2_absolute_degraded_band():
    """W2 degraded reads are single-digit milliseconds (paper: 3-7 ms)."""
    sizes = sample_workload(W2_SETTING, 6000, 0)
    config = cluster_config(W2_SETTING, 6000)
    system = build_system("Geo-128K", W2_SETTING, config)
    system.ingest(sizes)
    targets = request_size_targets(W2_SETTING, sizes, 10, 1)
    requests = nearest_candidates(system.catalog.objects, targets)
    results = system.measure_degraded_reads(requests, None)
    mean_ms = 1000 * float(np.mean([r.total_time for r in results]))
    assert 0.5 < mean_ms < 15
