"""durability-frontier: P(data loss) vs repair speed, Monte-Carlo at fleet
scale.

The paper shows geometric partitioning repairs faster (Table 3) and the
``durability`` experiment converts that into an analytic MTTDL — under
independence assumptions a fleet never satisfies.  This experiment runs
the :mod:`repro.reliability.fleet` Monte-Carlo engine instead: 10k+
disks over ten simulated years per trial, with latent sector errors
raced by scrubbing against repair reads, whole-rack failure bursts and
ToR outages routed through the rack map, and a risk-aware repair queue
bounded by finite rebuild streams.

Each grid point is one ``(scheme, policy, repetition)``: the cluster
simulator first *calibrates* the scheme's repair time (a real recovery
run, rescaled to the paper's per-disk capacity and then to fleet-class
disks), and the fleet engine then sweeps that repair time across
speed-up factors — the frontier's x-axis.  Schemes and policies inside
one repetition share a seed group, so they face literally the same
failure history; repetitions differ, feeding the confidence intervals.

The stochastic regime is deliberately *accelerated* (AFR, latent-error
and burst rates well above field values) so a tractable number of trials
observes losses for every scheme; the comparison between schemes,
policies and repair speeds is the result, not the absolute rates.  Two
stories the analytic chain cannot tell: ``rack_aware``'s dense per-rack
packing aligns stripes with the burst blast radius (a whole-rack burst
puts many PGs at their fatal boundary at once), and the latent-error
loss floor is set by scrub staleness, not repair speed — the regime
where faster repair stops buying durability.

Not part of ``python -m repro.experiments all`` (that set is pinned
byte-for-byte by ``results/expected_all_300.json.gz``); run it as
``python -m repro.experiments durability-frontier [--policies a,b]
[--fleet-disks N] [--fleet-years Y] [--reps R] [--trials T]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster import ClusterConfig
from repro.experiments.common import (
    build_system,
    cluster_config,
    format_table,
    sample_workload,
    scale_to_paper,
    setting_by_name,
)
from repro.obs import get_default_observer
from repro.reliability import (
    FleetParams,
    FleetSim,
    estimate_mttdl,
    fatal_probabilities_for_code,
    loss_probability,
)
from repro.runner import (
    ExperimentResult,
    Scenario,
    canonical_json,
    rows_of,
    scenario,
    typed_rows,
)

#: Geometric partitioning vs the baselines ("Stripe" = striped Clay).
SCHEMES = ("Geo-4M", "Stripe", "RS", "LRC")

POLICIES = ("flat_random", "rack_aware")

#: Repair-time multipliers swept per grid point (1.0 = calibrated speed;
#: 0.25 = 4x slower, 4.0 = 4x faster) — the frontier's x-axis.
SPEEDUPS = (0.25, 1.0, 4.0)

#: Fleet disks hold ~64x the paper testbed's 255 GB per-disk capacity
#: (16 TB class); repair time scales linearly with capacity at fixed
#: rebuild concurrency.
CAPACITY_SCALE = 64.0

#: The accelerated stress regime (see module docstring): annualised
#: rates far above field values so every scheme shows observable losses.
FLEET_AFR = 0.15
FLEET_NODE_AFR = 0.05
FLEET_LSE_RATE = 0.2           # hidden errors per disk-year
FLEET_SCRUB_HOURS = 336.0      # two-week scrub cycle
FLEET_REPAIR_STREAMS = 192
FLEET_BURST_RATE = 0.5         # whole-rack bursts per fleet-year
FLEET_TOR_RATE = 2.0           # ToR outages per fleet-year
FLEET_TOR_HOURS = 24.0
FLEET_TOR_FACTOR = 4.0

DEFAULT_DISKS = 10_240
DEFAULT_YEARS = 10.0
DEFAULT_REPS = 3
DEFAULT_TRIALS = 3


@dataclass(frozen=True)
class FrontierRow:
    """One Monte-Carlo trial at one grid point."""

    scheme: str
    policy: str
    rep: int
    trial: int
    repair_speedup: float
    repair_hours: float
    years: float
    n_disks: int
    n_pgs: int
    n_losses: int
    first_loss_years: float | None
    disk_failures: int
    node_failures: int
    rack_bursts: int
    tor_outages: int
    lse_scrubbed: int
    lse_surfaced: int
    repairs_completed: int
    repair_wait_hours: float
    peak_damaged_pgs: int


def fleet_config(n_disks: int, policy: str, pg_seed: int) -> ClusterConfig:
    """A fleet-shaped cluster: 8-disk nodes in ~40-node racks, PGs sized
    so every disk serves ~7 groups."""
    if n_disks % 8:
        raise ValueError("fleet size must be a multiple of 8 disks")
    n_nodes = n_disks // 8
    n_racks = max(2, n_nodes // 40)
    nodes_per_rack = -(-n_nodes // n_racks)
    return ClusterConfig(
        n_nodes=n_nodes, disks_per_node=8, n_racks=n_racks,
        nodes_per_rack=nodes_per_rack, n_pgs=n_disks // 2,
        placement=policy, pg_seed=pg_seed)


def calibrate_scheme(scheme: str, n_objects: int, seed: int):
    """The code ``scheme``'s system is built with, and that system's
    measured recovery time of one fleet-class disk (hours).

    A real cluster-simulator recovery run, rescaled first to the paper's
    per-disk capacity (recovery time is linear in per-disk bytes at
    fixed concurrency) and then to fleet-class disk capacity.
    """
    ws = setting_by_name("W1")
    system = build_system(scheme, ws, cluster_config(ws, n_objects))
    system.ingest(sample_workload(ws, n_objects, seed))
    report = system.run_recovery(0, seed=seed + 1)
    paper_s = scale_to_paper(report.makespan, ws, report.repaired_bytes)
    return system.code, paper_s / 3600.0 * CAPACITY_SCALE


def compute_frontier(scheme: str, policy: str, rep: int,
                     n_disks: int = DEFAULT_DISKS,
                     years: float = DEFAULT_YEARS,
                     n_trials: int = DEFAULT_TRIALS,
                     speedups=SPEEDUPS, n_objects: int = 600,
                     seed: int = 0) -> dict:
    """Scenario compute: calibrate one scheme, then sweep repair speed."""
    code, base_hours = calibrate_scheme(scheme, n_objects, seed)
    q = tuple(fatal_probabilities_for_code(code))
    sim = FleetSim.from_cluster(fleet_config(n_disks, policy, rep + 1),
                                obs=get_default_observer())
    children = np.random.SeedSequence(seed).spawn(len(speedups) * n_trials)
    rows = []
    for i, speedup in enumerate(speedups):
        params = FleetParams(
            fatal_probabilities=q, years=years, afr=FLEET_AFR,
            node_afr=FLEET_NODE_AFR, lse_rate=FLEET_LSE_RATE,
            scrub_interval_hours=FLEET_SCRUB_HOURS,
            repair_hours=base_hours / speedup,
            repair_streams=FLEET_REPAIR_STREAMS, risk_aware=True,
            rack_burst_rate=FLEET_BURST_RATE, burst_node_fraction=1.0,
            tor_outage_rate=FLEET_TOR_RATE,
            tor_outage_hours=FLEET_TOR_HOURS,
            tor_repair_factor=FLEET_TOR_FACTOR)
        for t in range(n_trials):
            r = sim.run_trial(params, children[i * n_trials + t])
            rows.append(FrontierRow(
                scheme=scheme, policy=policy, rep=rep, trial=t,
                repair_speedup=float(speedup),
                repair_hours=params.repair_hours, years=r.years,
                n_disks=r.n_disks, n_pgs=r.n_pgs, n_losses=r.n_losses,
                first_loss_years=r.first_loss_years,
                disk_failures=r.disk_failures,
                node_failures=r.node_failures, rack_bursts=r.rack_bursts,
                tor_outages=r.tor_outages, lse_scrubbed=r.lse_scrubbed,
                lse_surfaced=r.lse_surfaced,
                repairs_completed=r.repairs_completed,
                repair_wait_hours=r.repair_wait_hours,
                peak_damaged_pgs=r.peak_damaged_pgs))
    return {"rows": rows_of(rows),
            "meta": {"base_repair_hours": base_hours,
                     "fatal_probabilities": list(q)}}


def scenarios(n_objects: int | None = None,
              policies: tuple[str, ...] | None = None,
              n_disks: int | None = None, years: float | None = None,
              reps: int | None = None,
              n_trials: int | None = None) -> list[Scenario]:
    n = n_objects if n_objects is not None else 600
    nd = n_disks if n_disks is not None else DEFAULT_DISKS
    yr = years if years is not None else DEFAULT_YEARS
    rp = reps if reps is not None else DEFAULT_REPS
    nt = n_trials if n_trials is not None else DEFAULT_TRIALS
    pols = tuple(policies) if policies else POLICIES
    units = []
    for rep in range(rp):
        # One seed group per repetition: every scheme and policy inside
        # it faces the same failure history; repetitions vary the draws.
        group = canonical_json(["durability-frontier", rep, nd, yr, nt, n])
        units.extend(
            scenario(compute_frontier, name=f"{s}/{p}/rep{rep}",
                     seed_group=group, scheme=s, policy=p, rep=rep,
                     n_disks=nd, years=yr, n_trials=nt, n_objects=n)
            for s in SCHEMES for p in pols)
    return units


def _fmt_hours(hours: float) -> str:
    return "inf" if hours == float("inf") else f"{hours:.3g}"


def render(results: list[ExperimentResult]) -> str:
    rows = typed_rows(results, FrontierRow)
    grid: dict[tuple[str, str, float], list[FrontierRow]] = {}
    for r in rows:
        grid.setdefault((r.scheme, r.policy, r.repair_speedup), []).append(r)
    out = []
    for (s, p, speedup) in sorted(
            grid, key=lambda k: (SCHEMES.index(k[0]) if k[0] in SCHEMES
                                 else len(SCHEMES), k[1], -k[2])):
        cell = grid[(s, p, speedup)]
        est = estimate_mttdl([r.n_losses for r in cell],
                             [r.years for r in cell])
        lp = loss_probability([r.first_loss_years for r in cell],
                              horizon_years=cell[0].years)
        out.append([
            s, p, f"{cell[0].repair_hours:.1f}",
            len(cell), est.n_losses,
            f"{_fmt_hours(est.mttdl_hours)} "
            f"[{_fmt_hours(est.lo_hours)}, {_fmt_hours(est.hi_hours)}]",
            f"{lp.p:.2f} [{lp.lo:.2f}, {lp.hi:.2f}]"])
    table = format_table(
        ["Scheme", "Policy", "Repair (h)", "Trials", "Losses",
         "MTTDL (h) [95% CI]", "P(loss, horizon) [95% CI]"],
        out)
    return (table + "\n\nAccelerated stress regime (rates above field "
            "values); compare across rows, not against production "
            "absolutes.  Faster repair shrinks the overlap-failure "
            "window; the scrub-staleness loss floor it cannot touch.")
