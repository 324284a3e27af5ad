"""Command-line runner: regenerate any of the paper's tables and figures.

Every experiment is a list of :class:`~repro.runner.Scenario` units plus a
pure ``render()``; this CLI assembles the requested units, hands them to
:func:`repro.runner.run_scenarios` (parallel with ``--jobs``, cached under
``results/cache/`` unless ``--no-cache``), and renders the results.  Rows
are bit-identical for any ``--jobs`` value and across cache hits.

Examples::

    python -m repro.experiments table1
    python -m repro.experiments fig9  --n-objects 4000
    python -m repro.experiments all --jobs 4          # parallel fan-out
    python -m repro.experiments all --jobs 4          # second run: cached
    python -m repro.experiments fig10 --seed 7 --json # machine-readable
    python -m repro.experiments all --bench-out BENCH_experiments.json
    python -m repro.experiments fig13 --timeline --report fig13.html
    python -m repro.experiments all --profile            # wall-clock flame
    python -m repro.experiments chaos-tail --flightrec postmortems/
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from typing import Any, NamedTuple


class Experiment(NamedTuple):
    """One CLI name: units from ``module.<scenarios>(**fixed)``, with each
    flag in ``reads`` that is set added or overriding, and text from
    ``module.<render>``."""

    module: str                     # under repro.experiments
    fixed: dict[str, Any] = {}      # scenarios() keywords the name fixes
    reads: tuple[str, ...] = ()     # flag dests = scenarios() keywords
    scenarios: str = "scenarios"
    render: str = "render"
    extension: bool = False         # beyond the paper: not run by ``all``


# Flag dests that several experiments read.
N = ("n_objects",)
NR = ("n_objects", "n_requests")
NW = ("n_objects", "setting")

#: Every experiment the CLI runs.  ``all`` is the paper artifact set,
#: pinned byte-for-byte by ``results/expected_all_300.json.gz``;
#: extensions run only when named explicitly.
EXPERIMENTS = {
    "table1": Experiment("table1"),
    "table2": Experiment("table2", reads=N),
    "table3": Experiment("table3", {"setting": "W1"}, NW),
    "table4": Experiment("table4", reads=N),
    "table5": Experiment("table5", reads=N),
    "fig2": Experiment("fig2"),
    "fig3": Experiment("fig3_fig8"),
    "fig4": Experiment("fig4", scenarios="scenarios_with_calibration",
                       render="render_with_calibration"),
    "fig7": Experiment("fig7", reads=N),
    "fig9": Experiment("tradeoff", {"setting": "W1", "n_requests": 20}, NR),
    "fig10": Experiment("tradeoff", {"setting": "W2", "n_requests": 20}, NR),
    "fig11": Experiment("fig11_fig12", {"setting": "W1"}, N),
    "fig12": Experiment("fig11_fig12", {"setting": "W2"}, N),
    "fig13": Experiment("fig13", reads=N),
    "fig14": Experiment("fig14", reads=NW),
    "breakdown": Experiment("breakdown", reads=NW),
    "range": Experiment("range_access", reads=N),
    "headline": Experiment("headline", reads=N),
    "durability": Experiment("durability", reads=N),
    "ablations": Experiment("ablations", reads=NW),
    "chaos-tail": Experiment(
        "chaos", reads=NW + ("n_requests", "factors", "faults"),
        scenarios="tail_scenarios", render="render_tail"),
    "chaos-recovery": Experiment(
        "chaos", reads=NW + ("faults",),
        scenarios="second_failure_scenarios",
        render="render_second_failure"),
    "placement-matrix": Experiment(
        "placement_matrix", reads=NW + ("n_requests", "policies"),
        extension=True),
    "durability-frontier": Experiment(
        "durability_frontier",
        reads=N + ("policies", "n_disks", "years", "reps", "n_trials"),
        extension=True),
    "traffic-frontier": Experiment(
        "traffic_frontier", reads=N + ("rates", "n_tenants", "hedge_ms"),
        extension=True),
}


def _number(parse, ok, rule: str):
    """A ``type=`` that parses a number and rejects one that is not ``rule``."""
    def convert(text: str):
        try:
            if ok(value := parse(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
    return convert


def _comma_list(item=str):
    """A ``type=`` for a non-empty comma list of ``item`` values, as a tuple."""
    def convert(text: str) -> tuple:
        values = tuple(item(t) for t in text.split(",") if t)
        if not values:
            raise argparse.ArgumentTypeError(f"{text!r} lists nothing")
        return values
    return convert


def _fault_doc(path: str) -> dict:
    """The fault plan at ``path``, as the JSON-safe doc chaos units take."""
    from repro.faults import FaultPlan

    return FaultPlan.load(path).to_doc()


COUNT = _number(int, lambda v: v >= 1, "an integer >= 1")
POSITIVE = _number(float, lambda v: v > 0, "a number > 0")


def _parser() -> argparse.ArgumentParser:
    from repro.traffic import DEFAULT_TENANTS

    n_presets = len(DEFAULT_TENANTS)
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"],
                        help="which table/figure to regenerate")
    # Experiment flags: each dest is the scenarios() keyword it feeds, and
    # only the experiments whose table entry reads it accept it.
    parser.add_argument("--n-objects", dest="n_objects",
                        type=_number(int, lambda v: v >= 0, "an integer >= 0"),
                        help="workload scale (defaults are per-experiment)")
    parser.add_argument("--n-requests", dest="n_requests", type=COUNT,
                        help="degraded-read sample size (fig9, fig10, "
                             "chaos-tail, placement-matrix)")
    parser.add_argument("--workload", dest="setting", choices=["W1", "W2"],
                        help="workload for workload-parametric experiments")
    parser.add_argument("--faults", dest="faults", type=_fault_doc,
                        metavar="PLAN.json",
                        help="inject a fault plan (repro.faults JSON) into "
                             "the chaos experiments instead of their "
                             "built-in plans")
    parser.add_argument("--straggler", dest="factors", metavar="FACTOR",
                        type=_number(lambda t: (float(t),), lambda v: True,
                                     "a number"),
                        help="chaos-tail: sweep only this straggler "
                             "slow-factor instead of the default grid")
    parser.add_argument("--policies", dest="policies", type=_comma_list(),
                        metavar="A,B,...",
                        help="placement-matrix / durability-frontier: "
                             "comma-separated placement policies to sweep "
                             "instead of the experiment's default set "
                             "(flat_random,rack_aware,copyset)")
    # A fleet has 8-disk nodes and needs k + r = 14 of them.
    parser.add_argument("--fleet-disks", dest="n_disks",
                        type=_number(int, lambda v: v % 8 == 0 and v >= 112,
                                     "a multiple of 8 >= 112"),
                        help="durability-frontier: fleet size in disks "
                             "(default 10240; multiple of 8, at least 112)")
    parser.add_argument("--fleet-years", dest="years", type=POSITIVE,
                        help="durability-frontier: simulated years per "
                             "Monte-Carlo trial (default 10)")
    parser.add_argument("--reps", dest="reps", type=COUNT,
                        help="durability-frontier: seed-group repetitions "
                             "of the whole grid (default 3)")
    parser.add_argument("--trials", dest="n_trials", type=COUNT,
                        help="durability-frontier: Monte-Carlo trials per "
                             "grid point and repair speed (default 2)")
    parser.add_argument("--arrival-rate", dest="rates",
                        type=_comma_list(POSITIVE), metavar="R1,R2,...",
                        help="traffic-frontier: comma-separated mean "
                             "arrival rates (requests/s) to sweep instead "
                             "of the default (40,160)")
    parser.add_argument("--tenants", dest="n_tenants", metavar="N",
                        type=_number(int, lambda v: 1 <= v <= n_presets,
                                     f"an integer in 1..{n_presets}"),
                        help="traffic-frontier: serve only the first N "
                             "tenant presets (shares renormalised; "
                             "default: all three)")
    parser.add_argument("--hedge-ms", dest="hedge_ms",
                        type=_number(float, lambda v: v >= 0, "a number >= 0"),
                        help="traffic-frontier: hedge timeout in ms for "
                             "hedged cells (default 200)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run scenario units on N worker processes "
                             "(identical rows for any N)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed; per-unit seeds derive from it so "
                             "units never perturb each other's draws")
    parser.add_argument("--no-cache", action="store_true",
                        help="always recompute; do not read or write the "
                             "result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result-cache directory "
                             "(default: results/cache/)")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable results (rows + "
                             "provenance) instead of text tables")
    parser.add_argument("--bench-out", metavar="OUT.json", default=None,
                        help="write per-unit wall-clock / sim-time / "
                             "cache-status accounting as JSON")
    parser.add_argument("--trace", metavar="OUT.json", default=None,
                        help="write a Chrome/Perfetto trace-event JSON of "
                             "every simulation the experiment runs")
    parser.add_argument("--metrics", action="store_true",
                        help="print the merged metrics summary "
                             "(utilization, queue waits) after the run")
    parser.add_argument("--check-invariants", action="store_true",
                        help="run with the repro.analysis invariant checker "
                             "armed: monotonic sim clock, codec byte "
                             "conservation, end-of-run resource-leak audit")
    parser.add_argument("--timeline", metavar="OUT.json", nargs="?",
                        const="timeline.json", default=None,
                        help="sample every unit's metrics on a sim-time grid "
                             "and write the merged repro.timeline/1 doc "
                             "(default file: timeline.json); exact for any "
                             "--jobs value")
    parser.add_argument("--sample-interval", type=float, default=None,
                        metavar="S",
                        help="timeline sample pitch in sim seconds "
                             "(default: auto-scale per measurement)")
    parser.add_argument("--profile", action="store_true",
                        help="attribute wall-clock time per process site "
                             "(engine dispatch loop profiler); implies a "
                             "live run, never cached")
    parser.add_argument("--flightrec", metavar="DIR", default=None,
                        help="arm a per-unit flight recorder; postmortem "
                             "bundles land in DIR when a unit raises or "
                             "logs incidents (abandoned repairs, invariant "
                             "violations)")
    parser.add_argument("--report", metavar="OUT.html", default=None,
                        help="write a self-contained HTML run report "
                             "(timelines, span waterfall, percentile "
                             "tables, profile); implies --timeline-style "
                             "sampling and trace capture")
    return parser


def _result_doc(result) -> dict:
    """One experiment result as JSON, without bulky trace payloads."""
    doc = result.to_doc()
    obs = doc.get("obs")
    if obs and "trace_events" in obs:
        doc["obs"] = {k: v for k, v in obs.items() if k != "trace_events"}
    return doc


def _progress_printer():
    """A single-line live progress callback for interactive fan-out runs."""
    def progress(done: int, total: int, status: str, name: str) -> None:
        line = f"[{done}/{total}] {status:<5} {name}"
        print(f"\r{line[:100]:<100}", end="", file=sys.stderr, flush=True)
        if done == total:
            print(file=sys.stderr)
    return progress


def build(argv: list[str] | None = None):
    """Parse ``argv`` and build ``(args, units, sections)``; a section is
    ``(name, first unit index, one-past-last, render)``.  A flag that is
    set but read by no chosen experiment is a usage error, before any unit
    runs."""
    parser = _parser()
    args = parser.parse_args(argv)
    names = (sorted(n for n, e in EXPERIMENTS.items() if not e.extension)
             if args.experiment == "all" else [args.experiment])
    reads = {dest for name in names for dest in EXPERIMENTS[name].reads}
    unread = {dest for e in EXPERIMENTS.values() for dest in e.reads} - reads
    for action in parser._actions:
        if action.dest in unread and getattr(args, action.dest) is not None:
            parser.error(f"{action.option_strings[0]} does not apply to "
                         f"{args.experiment}")
    units, sections = [], []
    for name in names:
        exp = EXPERIMENTS[name]
        module = importlib.import_module(f"repro.experiments.{exp.module}")
        kwargs = {**exp.fixed, **{k: getattr(args, k) for k in exp.reads
                                  if getattr(args, k) is not None}}
        made = getattr(module, exp.scenarios)(**kwargs)
        sections.append((name, len(units), len(units) + len(made),
                         getattr(module, exp.render)))
        units.extend(s.prefixed(name) for s in made)
    return args, units, sections


def main(argv: list[str] | None = None) -> int:
    """Entry point of the CLI runner."""
    args, units, sections = build(argv)

    from repro.runner import Capture, RunOptions, run_scenarios

    # --report needs trace events (the span waterfall) and a timeline;
    # asking for either arms the live-run capture path for every unit.
    want_timeline = args.timeline is not None or args.report is not None
    want_trace = args.trace is not None or args.report is not None
    progress = _progress_printer() if sys.stderr.isatty() else None
    options = RunOptions(
        jobs=args.jobs, seed=args.seed, cache=not args.no_cache,
        cache_dir=args.cache_dir,
        capture=Capture(trace=want_trace, invariants=args.check_invariants,
                        timeline=want_timeline,
                        sample_interval=args.sample_interval,
                        profile=args.profile,
                        flightrec=args.flightrec),
        progress=progress)
    t0 = time.time()
    report = run_scenarios(units, options)
    wall = time.time() - t0

    if args.json:
        print(json.dumps({
            "schema": 1,
            "sim_version": report.sim_version,
            "root_seed": report.root_seed,
            "experiments": {
                name: [_result_doc(r) for r in report.results[lo:hi]]
                for name, lo, hi, _render in sections},
        }, indent=2, sort_keys=True))
    else:
        for name, lo, hi, render in sections:
            outcomes = report.outcomes[lo:hi]
            served = sum(1 for o in outcomes if o.status != "miss")
            print(f"===== {name} =====")
            print(render(report.results[lo:hi]))
            print(f"[{sum(o.wall_s for o in outcomes):.1f}s, "
                  f"{served}/{len(outcomes)} units cached]\n")

    if args.metrics and not args.json:
        from repro.obs import summarize

        print(summarize(report.merged_obs()))
    if args.profile and not args.json:
        from repro.obs import summarize_profile

        print(summarize_profile(report.merged_profile()))
    if args.check_invariants:
        inv_report = report.merged_invariants_report()
        if inv_report:
            print(inv_report)
    if args.timeline is not None:
        with open(args.timeline, "w", encoding="utf-8") as fh:
            json.dump(report.merged_timeline(), fh, indent=2, sort_keys=True)
    if args.report is not None:
        from repro.obs import write_report

        doc = {
            "title": f"repro: {args.experiment}",
            "sim_version": report.sim_version,
            "root_seed": report.root_seed,
            "sections": [{"name": name,
                          "text": render(report.results[lo:hi])}
                         for name, lo, hi, render in sections],
            "obs": report.merged_obs(),
            "timeline": report.merged_timeline(),
            "trace_events": report.trace_events(),
            "bench": report.bench_doc(jobs=args.jobs),
        }
        if args.profile:
            doc["profile"] = report.merged_profile()
        write_report(doc, args.report)
    if args.trace:
        from repro.obs import write_chrome_trace

        write_chrome_trace(report.trace_events(), args.trace)
    if args.bench_out:
        doc = report.bench_doc(jobs=args.jobs,
                               groups=[(name, lo, hi)
                                       for name, lo, hi, _render in sections])
        doc["totals"]["elapsed_s"] = round(wall, 6)
        with open(args.bench_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
