"""Tests of the design-choice ablations."""

import pytest

from repro.cluster.disk import BACKGROUND
from repro.experiments import ablations
from repro.runner import RunOptions, run_scenarios


def test_two_pass_beats_greedy_on_pipelining():
    result = ablations.two_pass_vs_greedy(n_objects=300)
    assert result.mean_adjacent_ratio_two_pass <= 2.0 + 1e-9
    assert result.mean_adjacent_ratio_greedy > result.mean_adjacent_ratio_two_pass
    assert result.mean_degraded_ms_two_pass < result.mean_degraded_ms_greedy
    # Greedy's only advantage: fewer (larger) chunks.
    assert result.mean_chunks_greedy <= result.mean_chunks_two_pass


def test_front_cut_removes_amplification():
    result = ablations.front_cut_ablation(n_objects=300)
    assert result.read_amplification_with_cut == pytest.approx(1.0)
    assert result.read_amplification_without_cut > 1.02
    assert 0 < result.capacity_overhead_without_cut < 0.5


def test_priority_lanes_protect_degraded_reads():
    """§5.1: foreground reads must pre-empt queued recovery I/O."""
    result = ablations.io_priority_ablation(n_objects=700, n_requests=8)
    assert result.degraded_ms_with_priority < result.degraded_ms_without_priority
    assert result.recovery_s_with_priority > 0


def test_weight_sweep_monotone_saturating():
    rows = ablations.global_weight_sweep(n_objects=800, weights=(2, 64, 512))
    times = [t for _w, t in rows]
    # More admitted weight never slows recovery; it saturates.
    assert times[0] >= times[1] >= times[2] * 0.95


def test_pg_count_increases_recovery_rate():
    rows = ablations.pg_count_sweep(n_objects=800, pg_counts=(8, 160))
    assert rows[1][1] > rows[0][1]


def test_ecpipe_model_rows():
    rows = ablations.ecpipe_network_model()
    packets = [p for p, *_ in rows]
    speedups = [s for *_, s in rows]
    assert speedups == sorted(speedups, reverse=True)
    assert speedups[0] > 9  # approaches k = 10
    assert speedups[-1] == pytest.approx(1.0)


def test_combined_report_renders():
    text = ablations.render(run_scenarios(
        ablations.scenarios("W1"), RunOptions(cache=False)).results)
    assert "Algorithm 1" in text
    assert "ECPipe" in text


def test_local_regeneration_tradeoff():
    """§8: LRC-over-Clay halves repair traffic again, at a storage premium."""
    flat, local = ablations.local_regeneration_tradeoff()
    assert local.repair_traffic_per_lost_byte < flat.repair_traffic_per_lost_byte
    assert local.storage_overhead > flat.storage_overhead
