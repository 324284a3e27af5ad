"""End-to-end benchmark of the RCStor reproduction.

Run one workload (the last stdout line is the JSON result)::

    python3 benchmarks/e2e/run.py --workload fig9-w1 --seed 0 --seconds 20 \\
        --trace 0 [--out runs.json] [--trace-out spans.json]

Compare two sets of runs, with bounds read from BENCHMARK.json::

    python3 benchmarks/e2e/run.py compare A.json B.json

Record reference digests, or append a trajectory row::

    python3 benchmarks/e2e/run.py reference --seeds 0,1
    python3 benchmarks/e2e/run.py trajectory runs.json --commit SHA

One run starts *replicas* one at a time.  A replica is a fresh process
that runs the workload's scenario list through ``run_scenarios(jobs=1,
cache=False)`` once per *draw*, each draw with its own root seed.  The
run's plan -- how many replicas, and the root seed of every draw -- is
a function of ``--seed`` and ``--seconds`` alone (:func:`run_plan`), so
two commits measured with the same arguments run the same draws.
End-to-end metrics aggregate the draws and replicas (``report.py``).  With
``--trace 1`` the run's first replica runs plain and then traced
(profiled, boundary spans installed), and the per-layer metrics are read
from that pair.

Every draw's rows are checked: against ``reference.json`` when it holds
the draw's root seed and was recorded with the same Python and numpy
versions, and against every other run of the same draw.  The plan's last
replica repeats the first draw in another process, and a traced replica
repeats its untraced twin, so every run has such a pair.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from replica import clock
from report import E2E, PER_LAYER, compare, e2e_metrics, per_layer_metrics, \
    quartiles, render_compare
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TRAJECTORY = HERE / "trajectory.jsonl"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: A run ends within this many seconds whatever ``--seconds`` says.
HARD_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run here."""


def run_plan(workload: str, seed: int, seconds: float) -> list[list[int]]:
    """Root seeds of the draws of each replica of a run.

    The last replica's first draw repeats the first replica's first
    draw, so every run checks that a draw gives the same rows in two
    processes.
    """
    wl = WORKLOADS[workload]
    plan = [[int.from_bytes(hashlib.sha256(
        f"e2e:{seed}:{replica * wl.draws + draw}".encode()).digest()[:4],
        "big") for draw in range(wl.draws)]
        for replica in range(wl.replicas(seconds))]
    plan[-1][0] = plan[0][0]
    return plan


def spawn_replica(workload: str, root_seeds: list[int], trace: bool,
                  timeout: float) -> dict:
    """Run one replica process and return its document; a replica that
    fails returns ``{"error": ...}``."""
    failed = {"root_seeds": root_seeds}
    if timeout <= 0:
        return {**failed, "error": "no time left"}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "replica.py"), "--workload", workload,
           "--root-seeds", ",".join(map(str, root_seeds))]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {**failed, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {**failed, "error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def digests(replica: dict) -> dict[str, dict[str, str]]:
    """Unit digests of each draw, keyed by the draw's root seed."""
    return {str(d["root_seed"]): {u["name"]: u["sha256"] for u in d["units"]}
            for d in replica["draws"]}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


class Checker:
    """Counts attempted and failed units, and notes why any failed.

    A replica that produced no rows counts every unit a successful
    replica of the run had (one if none had) as attempted and failed.
    """

    def __init__(self, reference: dict, workload: str):
        self.reference = reference
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.n_units = 0
        self.notes: list[str] = []
        #: Digests of the first run of each draw, by root seed.
        self.first: dict[str, dict[str, str]] = {}
        self.unreferenced = 0

    def ran(self, replica: dict) -> bool:
        """Account for one replica; False if it produced no rows."""
        if "error" in replica:
            n = max(self.n_units, 1)
            self.attempted += n
            self.failed += n
            self.notes.append(f"replica {replica['root_seeds']}: "
                              f"{replica['error']}")
            return False
        self.n_units = sum(len(d["units"]) for d in replica["draws"])
        self.attempted += self.n_units
        return True

    def expected(self, replica: dict) -> dict[str, dict[str, str]]:
        """Reference digests of the replica's draws, where recorded for
        the draw's root seed under the same Python and numpy versions."""
        ref = self.reference
        if not ref:
            return {}
        if (ref["python"], ref["numpy"]) != (replica["python"],
                                             replica["numpy"]):
            note = (f"reference.json was recorded with Python "
                    f"{ref['python']} / numpy {ref['numpy']}; running "
                    f"{replica['python']} / {replica['numpy']}")
            if note not in self.notes:
                self.notes.append(note)
            return {}
        table = ref["workloads"].get(self.workload, {})
        return {seed: table[seed] for seed in digests(replica)
                if seed in table}

    def check(self, replica: dict) -> None:
        """Compare each draw's rows with ``reference.json``, where it
        holds the draw, and with the first run of the same draw."""
        expected = self.expected(replica)
        for seed, units in digests(replica).items():
            if seed in expected:
                self._compare(seed, units, expected[seed], "reference.json")
            else:
                self.unreferenced += 1
            if seed in self.first:
                self._compare(seed, units, self.first[seed],
                              "another process")
            else:
                self.first[seed] = units

    def _compare(self, seed: str, units: dict[str, str],
                 want: dict[str, str], against: str) -> None:
        """Count the units whose digest differs; a reference digest may
        be a prefix of the full sha256."""
        bad = sorted(n for n in want.keys() | units.keys()
                     if not units.get(n, "").startswith(want.get(n, "-")))
        if bad:
            self.failed += len(bad)
            self.notes.append(f"draw {seed}: rows differ from {against}: "
                              f"{', '.join(bad)}")


def run_benchmark(workload: str, seed: int, seconds: float,
                  trace: bool) -> dict:
    """One benchmark run; returns the run record."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
    # Users compile the bytecode once per checkout, not once per run.
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    checker = Checker(load_reference(), workload)
    plan = run_plan(workload, seed, seconds)
    plain: list[dict] = []
    pairs: list[tuple[dict, dict]] = []
    start = clock()

    def left() -> float:
        return HARD_LIMIT_S - (clock() - start)

    for seeds in plan[:1] if trace else plan:
        replica = spawn_replica(workload, seeds, False, left())
        if not checker.ran(replica):
            continue
        checker.check(replica)
        plain.append(replica)
        if trace:
            traced = spawn_replica(workload, seeds, True, left())
            if checker.ran(traced):
                checker.check(traced)
                pairs.append((replica, traced))
    if checker.unreferenced:
        checker.notes.append(
            f"{checker.unreferenced} draw run(s) have no reference digests; "
            f"checked against repeats in another process")
    if trace:
        metrics = per_layer_metrics(pairs) if pairs else {}
        declared = PER_LAYER
    else:
        metrics = e2e_metrics(plain) if plain else {}
        declared = E2E
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "correct": bool(metrics) and checker.failed == 0,
        "attempted": max(checker.attempted, 1), "failed": checker.failed,
        "notes": checker.notes,
        "metrics": metrics,
        "units": {name: unit for name, unit, _ in declared},
        "replicas": plain,
        "traced": [t for _, t in pairs],
        "platform": platform.platform(),
    }


def result_line(record: dict) -> str:
    """The JSON result: the run's last stdout line."""
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": record["units"][name]}
                    for name, value in record["metrics"].items()},
    })


def render_run(record: dict) -> str:
    lines = [f"workload {record['workload']}  seed {record['seed']}  "
             f"replicas {len(record['replicas'])}"
             + (f" (+{len(record['traced'])} traced)" if record["trace"]
                else "")]
    for name, value in record["metrics"].items():
        lines.append(f"  {name:<40} {value:>14.6g} {record['units'][name]}")
    lines += [f"  note: {n}" for n in record["notes"]]
    lines.append(f"  correct {record['correct']}  attempted "
                 f"{record['attempted']}  failed {record['failed']}")
    return "\n".join(lines)


def append_run(path: Path, record: dict) -> None:
    """Add the run to a results file (a list of runs)."""
    doc = json.loads(path.read_text()) if path.is_file() else {"runs": []}
    slim = dict(record)
    slim["traced"] = [{k: v for k, v in t.items() if k != "trace_events"}
                      for t in record["traced"]]
    doc["runs"].append(slim)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def write_trace(path: Path, record: dict) -> None:
    """Chrome trace events of the traced replicas (pid = unit)."""
    events = []
    base = 0
    for traced in record["traced"]:
        for event in traced["trace_events"]:
            events.append({**event, "pid": base + event["pid"]})
        base += sum(len(d["units"]) for d in traced["draws"])
    path.write_text(json.dumps({"traceEvents": events}) + "\n")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def benchmark_json() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def declared_metrics() -> dict[str, dict]:
    return {m["name"]: m for m in benchmark_json()["end_to_end"]}


def cmd_compare(args) -> int:
    runs_a = json.loads(Path(args.a).read_text())["runs"]
    runs_b = json.loads(Path(args.b).read_text())["runs"]
    rows = compare(runs_a, runs_b, declared_metrics())
    print(render_compare(rows))
    return 0


def cmd_reference(args) -> int:
    """Record afresh the digests of every draw of the runs with each seed
    and BENCHMARK.json's ``run_seconds``.

    Digests are stored as 16-hex-digit prefixes of the sha256.
    """
    seconds = benchmark_json()["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    doc: dict = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in sorted(WORKLOADS):
        table = doc["workloads"].setdefault(workload, {})
        for seed in seeds:
            for draws in run_plan(workload, seed, seconds):
                todo = [s for s in draws if str(s) not in table]
                if not todo:
                    continue
                replica = spawn_replica(workload, todo, False, HARD_LIMIT_S)
                if "error" in replica:
                    print(f"{workload}: {replica['error']}", file=sys.stderr)
                    return 1
                doc["python"], doc["numpy"] = (replica["python"],
                                               replica["numpy"])
                for draw_seed, units in digests(replica).items():
                    table[draw_seed] = {n: d[:16] for n, d in units.items()}
                print(f"{workload} seed {seed}: {len(todo)} draw(s), "
                      f"{replica['wall_s']:.2f} s", file=sys.stderr)
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def cmd_trajectory(args) -> int:
    """Append one row (commit, E2E quartiles, layer shares) per call."""
    runs = json.loads(Path(args.runs).read_text())["runs"]
    row: dict = {"commit": args.commit, "platform": runs[0]["platform"],
                 "workloads": {}}
    for workload in sorted({r["workload"] for r in runs}):
        plain = [r for r in runs if r["workload"] == workload
                 and not r["trace"]]
        traced = [r for r in runs if r["workload"] == workload and r["trace"]]
        entry: dict = {"runs": len(plain)}
        if plain:
            entry["e2e"] = {
                name: [round(v, 6) for v in quartiles(
                    [r["metrics"][name] for r in plain])]
                for name, _, _ in E2E}
        if traced:
            entry["layer_share"] = {
                name[:-len(".share")]: round(statistics.median(
                    r["metrics"][name] for r in traced), 4)
                for name, _, _ in PER_LAYER
                if name.endswith(".share") and name.count(".") == 1}
        row["workloads"][workload] = entry
    with TRAJECTORY.open("a") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in ("compare", "reference", "trajectory"):
        parser = argparse.ArgumentParser(prog="run.py")
        sub = parser.add_subparsers(dest="cmd", required=True)
        p = sub.add_parser("compare", help="compare two sets of runs")
        p.add_argument("a", help="baseline results file (--out)")
        p.add_argument("b", help="candidate results file (--out)")
        p = sub.add_parser("reference", help="record reference digests")
        p.add_argument("--seeds", default="0,1")
        p = sub.add_parser("trajectory", help="append a trajectory row")
        p.add_argument("runs", help="results file (--out)")
        p.add_argument("--commit", required=True)
        args = parser.parse_args(argv)
        return {"compare": cmd_compare, "reference": cmd_reference,
                "trajectory": cmd_trajectory}[args.cmd](args)

    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run record to this file")
    parser.add_argument("--trace-out",
                        help="write the traced spans as Chrome trace JSON")
    args = parser.parse_args(argv)
    try:
        record = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if args.out:
        append_run(Path(args.out), record)
    if args.trace_out and record["traced"]:
        write_trace(Path(args.trace_out), record)
    print(render_run(record))
    print(result_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
