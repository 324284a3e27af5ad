"""Reliability benchmarks: fleet-sim throughput and the analytic chain.

The durability engine's unit of work is the simulated disk-year, so its
gate is expressed as disk-years per second:

* ``reliability.fleet_trial`` — one full Monte-Carlo trial (lifetimes,
  latent errors + scrubbing, rack bursts, risk-aware queue) on a
  2.5k-disk fleet over two simulated years.
* ``reliability.fleet_topology`` — fleet-scale PG enumeration through
  the placement registry plus the per-disk rack-span precomputation.
* ``reliability.fleet_topology_flat`` — the same for the 10,240-disk
  ``flat_random`` fleet each durability-frontier unit builds (the e2e
  ``fleet`` workload's topology).
* ``reliability.markov_sweep`` — the analytic MTTDL chain across a
  repair-time sweep (the ``durability`` experiment's inner loop).
"""

from __future__ import annotations

from repro.bench.harness import BenchSpec
from repro.cluster.topology import ClusterConfig
from repro.experiments.durability_frontier import fleet_config
from repro.reliability import (
    FleetParams,
    FleetSim,
    ReliabilityParams,
    mds_fatal_probabilities,
    mttdl_group,
)

_CONFIG = ClusterConfig(n_nodes=320, disks_per_node=8, n_racks=8,
                        nodes_per_rack=40, n_pgs=1280, placement="rack_aware",
                        pg_seed=1)

_FLAT_CONFIG = fleet_config(10_240, "flat_random", pg_seed=1)

_PARAMS = FleetParams(
    fatal_probabilities=mds_fatal_probabilities(4), years=2.0, afr=0.1,
    node_afr=0.05, lse_rate=0.2, scrub_interval_hours=336.0,
    repair_hours=12.0, repair_streams=64, risk_aware=True,
    rack_burst_rate=1.0, burst_node_fraction=1.0, tor_outage_rate=2.0,
    tor_outage_hours=24.0, tor_repair_factor=4.0)

_N_MARKOV = 2_000


def _fleet_sim() -> FleetSim:
    return FleetSim.from_cluster(_CONFIG)


_SIM = None


def _fleet_trial() -> int:
    global _SIM
    if _SIM is None:        # topology built once; the spec times trials
        _SIM = _fleet_sim()
    return _SIM.run_trial(_PARAMS, 7).disk_failures


def _fleet_topology() -> int:
    return _fleet_sim().n_pgs


def _fleet_topology_flat() -> int:
    return FleetSim.from_cluster(_FLAT_CONFIG).n_pgs


def _markov_sweep() -> float:
    q = mds_fatal_probabilities(4)
    total = 0.0
    for i in range(_N_MARKOV):
        params = ReliabilityParams(14, 0.02, 1.0 + i * 0.05, q)
        total += mttdl_group(params)
    return total


def specs() -> list[BenchSpec]:
    """The reliability suite."""
    disk_years = int(_PARAMS.years * _CONFIG.n_disks)
    return [
        BenchSpec("reliability.fleet_trial", "reliability", _fleet_trial,
                  units=disk_years),
        BenchSpec("reliability.fleet_topology", "reliability",
                  _fleet_topology, units=_CONFIG.n_pgs),
        BenchSpec("reliability.fleet_topology_flat", "reliability",
                  _fleet_topology_flat, units=_FLAT_CONFIG.n_pgs,
                  repeats=5),
        BenchSpec("reliability.markov_sweep", "reliability", _markov_sweep,
                  units=_N_MARKOV),
    ]
