"""Golden fleet trials: every ``TrialResult`` field of a fixed grid of
trials, pinned by value.

The grid crosses the four topologies (``independent_pgs`` and the three
placement policies on a 4-rack fleet) with exponential and Weibull
lifetimes, four fault mixes (node crashes; latent errors with scrubbing;
latent errors without it; rack bursts plus ToR outages) and both repair
queue orders, 64 trials in all.  The fixture ``golden_trials.json`` was
recorded before fleet trials stopped scheduling timers past their
horizon, so it pins that the change moved no result.  A failure names
the case and the fields that moved.  Re-record only for a change that is
meant to move results::

    PYTHONPATH=src python tests/reliability/test_fleet_golden.py
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
from pathlib import Path

import pytest

from repro.cluster.topology import ClusterConfig
from repro.reliability import FleetParams, FleetSim, independent_pgs

FIXTURE = Path(__file__).with_name("golden_trials.json")

TOPOLOGIES = ("independent", "flat_random", "rack_aware", "copyset")
SHAPES = (1.0, 2.5)
MIXES = ("crashes", "scrub", "lse_noscrub", "correlated")


@functools.lru_cache(maxsize=None)
def topology(name: str) -> FleetSim:
    if name == "independent":
        return FleetSim(independent_pgs(24, 6), 144)
    return FleetSim.from_cluster(ClusterConfig(
        n_nodes=24, disks_per_node=4, n_racks=4, nodes_per_rack=6,
        n_pgs=48, k=6, r=3, placement=name, pg_seed=5))


def mix_params(mix: str, rack_map: bool) -> dict:
    if mix == "crashes":
        return dict(node_afr=0.3)
    if mix == "scrub":
        return dict(lse_rate=1.5, scrub_interval_hours=200.0)
    if mix == "lse_noscrub":
        return dict(lse_rate=1.5, scrub_interval_hours=0.0, node_afr=0.2)
    if not rack_map:    # correlated faults need racks: everything else
        return dict(node_afr=0.2, lse_rate=1.0, scrub_interval_hours=300.0)
    return dict(rack_burst_rate=1.5, burst_node_fraction=0.5,
                burst_spread_hours=2.0, tor_outage_rate=3.0,
                tor_outage_hours=48.0)


def cases() -> list[tuple[str, str, FleetParams, int]]:
    out = []
    grid = itertools.product(TOPOLOGIES, SHAPES, MIXES, (True, False))
    for i, (topo, shape, mix, risk_aware) in enumerate(grid):
        params = FleetParams(
            fatal_probabilities=(0.0, 0.02, 0.3, 1.0), years=2.5, afr=0.4,
            weibull_shape=shape, repair_hours=48.0, repair_streams=3,
            risk_aware=risk_aware,
            **mix_params(mix, rack_map=topo != "independent"))
        queue = "risk" if risk_aware else "fifo"
        out.append((f"{topo}-w{shape:g}-{mix}-{queue}", topo, params,
                    1000 + i))
    return out


def result_doc(topo: str, params: FleetParams, seed: int) -> dict:
    """A trial's fields as JSON values (tuples become lists)."""
    result = topology(topo).run_trial(params, seed)
    return json.loads(json.dumps(dataclasses.asdict(result)))


@functools.lru_cache(maxsize=None)
def golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


CASES = cases()


def test_grid_is_pinned_whole():
    assert len(CASES) >= 60
    assert [c[0] for c in CASES] == list(golden())


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_trial_matches_golden(case):
    name, topo, params, seed = case
    got = result_doc(topo, params, seed)
    want = golden()[name]
    moved = {k: (got[k], want[k]) for k in want if got[k] != want[k]}
    assert not moved, f"{name}: fields moved (got, golden): {moved}"
    assert got.keys() == want.keys()


def test_grid_exercises_every_mechanism():
    """The pins mean something only if the trials do the work: losses,
    bursts, outages, node crashes, scrubbed and surfaced latent errors
    and queued rebuilds all occur somewhere in the grid."""
    docs = golden().values()
    for field in ("n_losses", "rack_bursts", "tor_outages", "node_failures",
                  "lse_scrubbed", "lse_surfaced"):
        assert sum(d[field] for d in docs) > 0, field
    assert any(d["repair_wait_hours"] > 0 for d in docs)


if __name__ == "__main__":
    docs = {name: result_doc(topo, params, seed)
            for name, topo, params, seed in CASES}
    FIXTURE.write_text(json.dumps(docs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(docs)} trials to {FIXTURE}")
