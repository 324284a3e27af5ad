#!/usr/bin/env python
"""Regenerate results/snapshot.txt — the run EXPERIMENTS.md quotes.

Usage:  python results/make_snapshot.py > results/snapshot.txt
Takes a few minutes.  Each section runs the experiment's scenario units
in process at seed 0 and prints them with the module's ``render``, so
reruns are reproducible (apart from the wall-time line).
"""

import time

from repro.experiments import (
    ablations,
    breakdown,
    calibration,
    durability,
    fig2,
    fig3_fig8,
    fig4,
    fig7,
    fig11_fig12,
    fig13,
    fig14,
    headline,
    range_access,
    table1,
    table2,
    table3,
    table4,
    table5,
    tradeoff,
)
from repro.experiments.common import run_at_seed, with_params


def show(title: str, module, units) -> None:
    print(f"\n== {title} ==")
    print(module.render(run_at_seed(units)))


def latency_units(setting: str, n_objects: int) -> list:
    """Figure 11/12 units with 20 probes per target size."""
    return with_params(fig11_fig12.scenarios(setting, n_objects), n_probes=20)


def main() -> None:
    t0 = time.time()
    print("== Table 1 =="); print(table1.render(run_at_seed(table1.scenarios())))
    show("Figure 2", fig2, fig2.scenarios())
    print("\n== Figures 3/8 =="); print(fig3_fig8.to_text(fig3_fig8.run()))
    show("Figure 4", fig4, fig4.scenarios())
    print("\n== Calibration =="); print(calibration.to_text(calibration.anchors()))
    show("Figure 7", fig7, fig7.scenarios(n_objects=100_000))
    show("Table 2", table2, table2.scenarios(n_objects=40_000))
    w1 = run_at_seed(tradeoff.scenarios("W1", n_objects=4000, n_requests=25))
    print("\n== Figure 9 (W1) =="); print(tradeoff.render(w1))
    w2 = run_at_seed(tradeoff.scenarios("W2", n_objects=30_000, n_requests=15))
    print("\n== Figure 10 (W2) =="); print(tradeoff.render(w2))
    print("\n== Table 3 (from the same runs) ==")
    print(table3.render(w1)); print(); print(table3.render(w2))
    print("\n== Headline =="); print(headline.render(w1 + w2))
    show("Figure 11 (W1)", fig11_fig12, latency_units("W1", 1500))
    show("Figure 12 (W2)", fig11_fig12, latency_units("W2", 10_000))
    show("Figure 13", fig13, fig13.scenarios(n_objects=1500))
    show("Figure 14 (W1)", fig14, fig14.scenarios("W1", n_objects=6000))
    show("Figure 14 (W2)", fig14, fig14.scenarios("W2", n_objects=20_000))
    show("Breakdown W1", breakdown, breakdown.scenarios("W1", n_objects=12_000))
    show("Breakdown W2", breakdown, breakdown.scenarios("W2", n_objects=25_000))
    show("Range access (W1)", range_access,
         range_access.scenarios(n_objects=1500))
    show("Table 4", table4, table4.scenarios(n_objects=600))
    show("Table 5", table5, table5.scenarios(n_objects=1500))
    show("Ablations", ablations, ablations.scenarios("W1"))
    print("\n== Durability =="); print(durability.render(w1))
    print(f"\n[total wall time {time.time() - t0:.0f}s]")


if __name__ == "__main__":
    main()
