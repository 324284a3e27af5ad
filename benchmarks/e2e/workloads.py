"""The benchmark's workloads: named scenario-list builders.

Each workload is a scenario list built from an experiment's own
``scenarios()`` function, run once per *draw* -- once per root seed --
through the real runner (``run_scenarios(jobs=1, cache=False)``).  The
builders take no seed: the seed reaches the program only as the runner's
root seed, so a draw's inputs are a pure function of (builder, root
seed).  What each workload is for is written in BENCHMARK.json and
README.md.

Why draws: the W1 object population is log-normal (sigma 1.8, 4 MB to
4 GB), so the cost of one root seed swings with the few largest objects
it happens to draw, and the fleet's cost with the rack bursts its
failure history happens to hold.  Many cheap draws with independent
seeds average that out far better per host second than one large draw;
README.md gives the measurements behind each size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    """One named workload.

    A run starts ``replicas(seconds)`` fresh processes, each running
    ``draws`` draws.  ``replica_s`` is what one replica took, set-up
    included, in reference seconds at the commit the benchmark was
    defined on: the replica count is fixed by ``--seconds`` alone, so
    every commit measured with the same ``--seed`` and ``--seconds``
    runs exactly the same draws.
    """

    name: str
    build: Callable[[], list]
    draws: int
    replica_s: float

    def replicas(self, seconds: float) -> int:
        """Replicas of a run measuring about ``seconds``; at least two,
        so one can repeat a draw of another."""
        return max(2, round(seconds / self.replica_s))


def _fig9_w1() -> list:
    from repro.experiments import tradeoff

    return tradeoff.scenarios("W1", n_objects=150, n_requests=2,
                              include_busy=False)


def _fig10_w2_busy() -> list:
    from repro.experiments import tradeoff

    return tradeoff.scenarios(
        "W2", n_objects=300, n_requests=10,
        schemes=["Geo-128K", "Con-512K", "Stripe-Max", "RS"])


def _open_loop() -> list:
    from repro.experiments import traffic_frontier

    return [u for u in traffic_frontier.scenarios(
        n_objects=1000, duration=0.5, rates=(160.0,))
        if u.params["scheme"] == "Geo-4M"
        or u.name == "RS/r160/w512/hedged"]


def _fleet() -> list:
    from repro.experiments import durability_frontier

    return [u for u in durability_frontier.scenarios(
        n_objects=100, n_disks=10240, years=0.25, reps=2, n_trials=3,
        policies=("flat_random",))
        if u.params["scheme"] == "Geo-4M"]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("fig9-w1", _fig9_w1, draws=8, replica_s=5.1),
    Workload("fig10-w2-busy", _fig10_w2_busy, draws=1, replica_s=10.0),
    Workload("open-loop", _open_loop, draws=3, replica_s=3.6),
    Workload("fleet", _fleet, draws=2, replica_s=5.0),
)}
