"""Tests of the deterministic (non-DES) experiment reproductions."""

import numpy as np
import pytest

from repro.core import GeometricPartitioner
from repro.experiments import (
    breakdown, calibration, fig2, fig3_fig8, fig4, fig7, fig14, table1, table2)
from repro.experiments.common import sample_workload, setting_by_name
from repro.runner import RunOptions, run_scenarios, typed_rows

KB = 1 << 10
MB = 1 << 20


def run(units):
    """The units' results as ``--seed 0 --no-cache`` computes them."""
    return run_scenarios(units, RunOptions(cache=False)).results


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
def test_table1_matches_paper_exactly():
    rows = {r.name: r for r in typed_rows(run(table1.scenarios()),
                                          table1.CodeRow)}
    rs, lrc, clay = rows["RS(10,4)"], rows["LRC(10,2,2)"], rows["Clay(10,4)"]
    assert rs.is_mds and clay.is_mds and not lrc.is_mds
    assert rs.read_traffic == pytest.approx(10.0)
    assert lrc.read_traffic == pytest.approx(5.71, abs=0.01)
    assert clay.read_traffic == pytest.approx(3.25)
    assert all(r.storage_percent == pytest.approx(140.0) for r in rows.values())
    assert rs.sub_packetization == 1
    assert clay.sub_packetization == 256


def test_table1_renders():
    text = table1.render(run(table1.scenarios()))
    assert "Clay(10,4)" in text and "3.25" in text


# ----------------------------------------------------------------------
# Figure 2
# ----------------------------------------------------------------------
def fig2_rows():
    return typed_rows(run(fig2.scenarios()), fig2.CaseRow)


def test_fig2_four_cases():
    rows = fig2_rows()
    assert [r.case for r in rows] == [1, 2, 3, 4]
    assert [r.runs_per_helper for r in rows] == [1, 4, 16, 64]
    assert [r.run_length_subchunks for r in rows] == [64, 16, 4, 1]
    assert all(r.subchunks_read_per_helper == 64 for r in rows)
    assert all(r.read_fraction == pytest.approx(0.25) for r in rows)


def test_fig2_case_membership():
    rows = fig2_rows()
    assert rows[0].failed_nodes == [0, 1, 2, 3]       # D1-D4
    assert rows[3].failed_nodes == [12, 13]           # P3, P4


# ----------------------------------------------------------------------
# Figure 4
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig4_results():
    """The CLI's ``fig4``: the curve, then the calibration anchors."""
    return run(fig4.scenarios_with_calibration())


@pytest.fixture(scope="module")
def fig4_points(fig4_results):
    return typed_rows(fig4_results[:1], fig4.ChunkSizePoint)


def test_fig4_tradeoff_shape(fig4_points):
    """Bigger chunks: better recovery bandwidth, worse degraded reads."""
    bws = [p.recovery_bandwidth for p in fig4_points]
    assert bws == sorted(bws)
    assert fig4_points[-1].degraded_read_time > fig4_points[0].degraded_read_time


def test_fig4_calibration_anchors(fig4_results):
    anchors = typed_rows(fig4_results[1:], calibration.Anchor)
    assert len(anchors) == 4
    for anchor in anchors:
        assert anchor.ok, anchor


def test_fig4_degraded_dominated_by_transfer_at_small_chunks(fig4_points):
    transfer = 64 * MB / (125 * MB)
    assert fig4_points[0].degraded_read_time < 1.5 * transfer


def test_fig4_read_amplification_at_huge_chunks():
    """Chunks above the object size repair wasted bytes."""
    t = fig4.degraded_read_64mb(256 * MB)
    t_fit = fig4.degraded_read_64mb(64 * MB)
    assert t > t_fit


# ----------------------------------------------------------------------
# Figure 7 / Table 2
# ----------------------------------------------------------------------
def test_fig7_cdfs(capsys):
    results = run(fig7.scenarios(n_objects=30_000))
    result = fig7.from_results(results)
    assert result.capacity_above_4mb > 0.977
    assert np.all(np.diff(result.capacity_cdf) >= -1e-12)
    # Read traffic skews right of capacity for the large-object trace.
    assert result.read_traffic_cdf[len(result.grid) // 2] <= \
        result.capacity_cdf[len(result.grid) // 2] + 0.05
    assert "97.7%" in fig7.render(results)


def test_table2_stats_match_paper():
    rows = {r.name: r for r in typed_rows(
        run(table2.scenarios(n_objects=20_000)), table2.WorkloadRow)}
    w1, w2 = rows["W1"], rows["W2"]
    assert w1.mean_object_size == pytest.approx(102.8 * MB, rel=0.1)
    assert w1.mean_request_size == pytest.approx(148.5 * MB, rel=0.02)
    assert w2.mean_object_size == pytest.approx(101.3 * KB, rel=0.1)
    assert w2.mean_request_size == pytest.approx(72.0 * KB, rel=0.02)


# ----------------------------------------------------------------------
# Figure 14
# ----------------------------------------------------------------------
def test_fig14_peaks_at_small_q():
    points = typed_rows(run(fig14.scenarios("W1", n_objects=2000)),
                        fig14.QPoint)
    by_q = {p.q: p.average_chunk_size for p in points}
    peak = max(by_q.values())
    # The curve is nearly flat across q=2..4 at small sample sizes; the
    # paper's claim is that q=2/3 are at (or within noise of) the peak.
    assert fig14.best_q(points) in (2, 3, 4)
    assert by_q[2] > 0.9 * peak and by_q[3] > 0.9 * peak
    assert by_q[1] == pytest.approx(4 * MB, rel=0.01)  # constant sequence
    assert by_q[2] > 2 * by_q[1]
    assert by_q[10] < by_q[fig14.best_q(points)]


def test_fig14_w2():
    results = run(fig14.scenarios("W2", n_objects=5000))
    assert fig14.best_q(typed_rows(results, fig14.QPoint)) in (2, 3)
    assert "Peak at q=" in fig14.render(results)


# ----------------------------------------------------------------------
# §6.3 breakdown
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["W1", "W2"])
def test_breakdown_geo_rows_partition_every_object(workload):
    """Each Geo row is what partitioning every sampled object gives: the
    front bytes over all bytes, and the bucketed bytes per chunk."""
    setting = setting_by_name(workload)
    units = breakdown.scenarios(workload, 400)
    sizes = [int(s) for s in
             sample_workload(setting, 400, units[0].derive_seed(0))]
    rows = typed_rows(run(units), breakdown.BreakdownRow)
    assert len(rows) == len(setting.geo_s0_variants) + 1
    for s0, row in zip(setting.geo_s0_variants, rows):
        partitioner = GeometricPartitioner(s0, 2, setting.max_chunk_size)
        parts = [partitioner.partition(size) for size in sizes]
        assert row.small_bucket_share == pytest.approx(
            sum(p.front for p in parts) / sum(sizes), rel=1e-12)
        assert row.average_chunk_size == pytest.approx(
            sum(p.partitioned_bytes for p in parts)
            / sum(p.n_chunks for p in parts), rel=1e-12)
    shares = [row.small_bucket_share for row in rows[:-1]]
    assert shares == sorted(shares)  # a larger s0 leaves a larger front
    assert rows[-1].scheme == "Stripe-Max"
    assert rows[-1].small_bucket_share == 0.0


# ----------------------------------------------------------------------
# Calibration rendering
# ----------------------------------------------------------------------
def test_calibration_renders(fig4_results):
    text = calibration.render(fig4_results[1:])
    assert "recovery bandwidth" in text


# ----------------------------------------------------------------------
# Figures 3 and 8
# ----------------------------------------------------------------------
def test_fig3_fig8_cases():
    results = run(fig3_fig8.scenarios())
    cases = {c.name: c for c in typed_rows(results, fig3_fig8.PipelineCase)}
    assert cases["Fig3: regenerating, one chunk"].saving == 0.0
    case1 = cases["Fig8 case 1: repair outpaces transfer"]
    case2 = cases["Fig8 case 2: transfer blocked by repair"]
    assert case1.total_ms < case2.total_ms
    assert 0 < case2.saving < case1.saving < 1
    text = fig3_fig8.render(results)
    assert "Fig8 case 1" in text and "|" in text
