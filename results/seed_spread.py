#!/usr/bin/env python
"""Regenerate results/seed_spread.txt — how far the W1 headline recovery
ratios move with the seed (EXPERIMENTS.md, Known deviation 2).

Usage:  python results/seed_spread.py > results/seed_spread.txt
Takes about half a minute.  Runs the Geo-4M, RS and LRC units of the W1
Figure 9 grid (idle recovery only) in process at each seed, at the scale
results/snapshot.txt quotes and at the scale of the tier-1 headline tests,
and prints RS/Geo-4M and LRC/Geo-4M recovery time per repaired byte.
"""

import statistics

from repro.experiments import tradeoff
from repro.experiments.common import run_at_seed

# (objects, requests, seeds): the snapshot's W1 run, the tier-1 fixture.
GRIDS = ((4000, 25, 8), (900, 10, 9))
RATIOS = ("RS", "LRC")


def main() -> None:
    for n_objects, n_requests, n_seeds in GRIDS:
        units = tradeoff.scenarios("W1", n_objects=n_objects,
                                   n_requests=n_requests, include_busy=False,
                                   schemes=["Geo-4M", *RATIOS])
        print(f"== W1, {n_objects} objects, seeds 0-{n_seeds - 1} ==")
        ratios = {s: [] for s in RATIOS}
        for seed in range(n_seeds):
            result = tradeoff.from_results(run_at_seed(units, seed))
            per_byte = {r.scheme: r.recovery_time / r.repaired_bytes
                        for r in result.results}
            for s, xs in ratios.items():
                xs.append(per_byte[s] / per_byte["Geo-4M"])
            print(f"seed {seed}: " + "  ".join(
                f"{s}/Geo-4M {xs[-1]:.3f}" for s, xs in ratios.items()))
        for s, xs in ratios.items():
            print(f"{s}/Geo-4M: {min(xs):.2f}-{max(xs):.2f}, "
                  f"median {statistics.median(xs):.2f}")
        print()


if __name__ == "__main__":
    main()
