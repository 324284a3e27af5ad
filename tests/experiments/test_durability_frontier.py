"""durability-frontier: scenario grid, seed groups, tiny end-to-end
computes, the fleet's lifetime, and the rendered table."""

import gc
import weakref

from repro.experiments.durability_frontier import (
    POLICIES,
    SCHEMES,
    FrontierRow,
    compute_frontier,
    fleet_config,
    render,
    scenarios,
)
from repro.reliability import FleetSim
from repro.runner import (
    ExperimentResult,
    RunOptions,
    run_scenarios,
    typed_rows,
)

import pytest

TINY = dict(n_disks=128, years=0.5, n_trials=1, n_objects=120)


def test_fleet_config_shapes_the_fleet():
    config = fleet_config(10_240, "rack_aware", pg_seed=1)
    assert config.n_disks == 10_240
    assert config.n_nodes == 1_280 and config.disks_per_node == 8
    assert config.n_racks == 32
    assert config.n_pgs == 5_120
    assert config.placement == "rack_aware"
    small = fleet_config(128, "flat_random", pg_seed=2)
    assert small.n_racks == 2        # always multi-rack (bursts need it)
    with pytest.raises(ValueError, match="multiple of 8"):
        fleet_config(100, "flat_random", pg_seed=1)


def test_scenario_grid_covers_schemes_policies_reps():
    units = scenarios(n_objects=120, reps=2, n_disks=128, years=0.5,
                      n_trials=1)
    assert len(units) == len(SCHEMES) * len(POLICIES) * 2
    names = {u.name for u in units}
    assert "RS/rack_aware/rep0" in names
    assert "Geo-4M/flat_random/rep1" in names
    # One seed group per repetition, shared across schemes and policies:
    # every unit of a rep faces the same derived failure history.
    groups = {u.name: u.seed_group for u in units}
    assert groups["RS/rack_aware/rep0"] == groups["LRC/flat_random/rep0"]
    assert groups["RS/rack_aware/rep0"] != groups["RS/rack_aware/rep1"]


def test_policies_filter_narrows_the_grid():
    units = scenarios(n_objects=120, policies=("rack_aware",), reps=1,
                      n_disks=128, years=0.5, n_trials=1)
    assert len(units) == len(SCHEMES)
    assert all(u.name.endswith("/rack_aware/rep0") for u in units)


def test_compute_frontier_rows_and_meta():
    out = compute_frontier("RS", "rack_aware", rep=0, speedups=(0.25, 1.0),
                           seed=3, **TINY)
    assert out["meta"]["base_repair_hours"] > 0
    assert out["meta"]["fatal_probabilities"] == [0.0, 0.0, 0.0, 0.0, 1.0]
    rows = out["rows"]
    assert len(rows) == 2            # one trial per speedup
    by_speed = {r["repair_speedup"]: r for r in rows}
    assert by_speed[0.25]["repair_hours"] == pytest.approx(
        4 * by_speed[1.0]["repair_hours"])
    for r in rows:
        assert r["scheme"] == "RS" and r["policy"] == "rack_aware"
        assert r["n_disks"] == 128 and r["n_pgs"] == 64
        assert r["years"] == 0.5


def test_compute_frontier_is_deterministic():
    a = compute_frontier("LRC", "flat_random", rep=1, speedups=(1.0,),
                         seed=7, **TINY)
    b = compute_frontier("LRC", "flat_random", rep=1, speedups=(1.0,),
                         seed=7, **TINY)
    assert a == b
    # LRC's q-vector is asymmetric — the non-MDS combinatorics, not the
    # MDS shortcut.
    q = a["meta"]["fatal_probabilities"]
    assert q[-1] == 1.0 and any(0.0 < x < 1.0 for x in q)


def test_compute_frontier_frees_its_fleet_on_return(monkeypatch):
    """The fleet a unit builds dies when the unit returns, by reference
    counting alone: nothing the trials leave behind holds it until the
    next full collection."""
    built = []
    from_cluster = FleetSim.from_cluster.__func__

    def recording(cls, config, obs=None):
        sim = from_cluster(cls, config, obs=obs)
        built.append(weakref.ref(sim))
        return sim

    monkeypatch.setattr(FleetSim, "from_cluster", classmethod(recording))
    gc.collect()
    gc.disable()
    try:
        compute_frontier("Geo-4M", "flat_random", rep=0, speedups=(1.0,),
                         seed=5, **TINY)
        alive = [ref() is not None for ref in built]
    finally:
        gc.enable()
    assert alive == [False]


def test_render_groups_grid_points(tmp_path):
    units = scenarios(n_objects=120, policies=("rack_aware",), reps=1,
                      n_disks=128, years=0.5, n_trials=1)
    # Two schemes keep the end-to-end run fast; the full grid is CI's job.
    keep = [u for u in units if u.name.split("/")[0] in ("RS", "Geo-4M")]
    report = run_scenarios(keep, RunOptions(cache_dir=tmp_path))
    results = report.results
    assert all(isinstance(r, ExperimentResult) for r in results)
    rows = typed_rows(results, FrontierRow)
    assert len(rows) == 2 * len((0.25, 1.0, 4.0))
    text = render(results)
    assert "MTTDL (h) [95% CI]" in text
    assert "Geo-4M" in text and "RS" in text
    assert "Accelerated stress regime" in text
