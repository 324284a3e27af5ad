"""Tests of the end-to-end benchmark's own machinery.

Run with ``python -m pytest benchmarks/e2e/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import replica
import report
import run
import tracing
from tracing import LAYERS, Span, SpanRecorder
from workloads import WORKLOADS

ROOT = Path(run.__file__).resolve().parents[2]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Parameter overrides that shrink each workload to a smoke run.
SMOKE = {
    "fig9-w1": {"n_objects": 60, "n_requests": 1},
    "fig10-w2-busy": {"n_objects": 200, "n_requests": 2,
                      "include_busy": False},
    "open-loop": {"n_objects": 60, "duration": 0.2},
    "fleet": {"n_objects": 40, "n_disks": 640, "years": 0.05},
}

#: A span each workload must record: open-loop's is a function patched
#: where ``traffic_frontier`` imported it by name.
WORKLOAD_SPAN = {"fig9-w1": "cluster.degraded",
                 "fig10-w2-busy": "cluster.recovery",
                 "open-loop": "cluster.open_loop",
                 "fleet": "reliability.trial"}


@pytest.fixture(scope="module")
def bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_cli(bench_json):
    assert bench_json["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert bench_json["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in bench_json["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench_json["end_to_end"]] == list(report.E2E)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench_json["per_layer"]] == list(report.PER_LAYER)
    names = [m["name"] for m in bench_json["end_to_end"]
             + bench_json["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    assert all(UNIT_RE.match(unit) for _, unit, _ in report.E2E
               + report.PER_LAYER)
    setup = next(m for m in bench_json["end_to_end"]
                 if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in bench_json["end_to_end"])
    assert setup["bound"] == max(m["bound"]
                                 for m in bench_json["end_to_end"])


def _smoke_units(name: str) -> list:
    units = WORKLOADS[name].build()
    picked = [units[0], units[-1]] if len(units) > 1 else units
    return [dataclasses.replace(u, params={**u.params, **SMOKE[name]})
            for u in picked]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_smoke_traced_rows_equal_untraced(name):
    units = _smoke_units(name)
    plain = replica.run(units, root_seeds=[11], trace=False)
    traced = replica.run(units, root_seeds=[11], trace=True)
    assert run.digests(traced) == run.digests(plain)
    assert len(plain["draws"][0]["units"]) == len(units)
    assert traced["spans"]["runner.unit"]["calls"] == len(units)
    assert traced["spans"]["trace.sample"]["calls"] >= len(units)
    assert traced["spans"][WORKLOAD_SPAN[name]]["calls"] >= len(units)
    assert set(traced["layers_s"]) == set(LAYERS)
    # The traced run removed its wrappers again.
    from repro.cluster.rcstor import RCStor
    from repro.experiments import tradeoff
    from repro.runner import executor

    for fn in (RCStor.ingest, executor.execute_unit,
               tradeoff.sample_workload):
        assert not hasattr(fn, "__wrapped__")


def test_every_repro_file_folds_to_a_declared_layer():
    src = ROOT / "src"
    files = sorted(src.glob("repro/**/*.py"))
    assert files
    for path in files:
        layer = tracing.layer_for_file(str(path), src)
        assert layer in LAYERS and layer != "ext", path
    # A checkout path that merely contains "repro" is not the package.
    assert tracing.layer_for_file("/tmp/repro/benchmarks/e2e/run.py",
                                  Path("/tmp/repro/src")) == "ext"


def test_fold_charges_ext_time_to_the_calling_layer():
    src = Path("/x/src")
    sim = ("/x/src/repro/sim/engine.py", 1, "step")
    cluster = ("/x/src/repro/cluster/rcstor.py", 1, "read")
    numpy_fn = ("/usr/lib/numpy/core.py", 1, "dot")
    helper = ("/usr/lib/python3/json.py", 1, "dumps")
    recursive = ("/usr/lib/python3/dataclasses.py", 1, "_asdict_inner")
    top = ("/x/benchmarks/e2e/replica.py", 1, "main")
    stats = {
        sim: (1, 1, 0.5, 2.0, {}),
        cluster: (1, 1, 0.25, 5.0, {}),
        # numpy called from sim (1.0 s self) and cluster (3.0 s self).
        numpy_fn: (2, 2, 4.0, 6.0, {sim: (1, 1, 1.0, 1.5),
                                    cluster: (1, 1, 3.0, 4.5)}),
        # An ext helper only numpy calls: split as numpy's callers are.
        helper: (1, 1, 2.0, 2.0, {numpy_fn: (1, 1, 2.0, 2.0)}),
        # A recursive ext function inherits its outermost caller.
        recursive: (3, 1, 1.0, 1.0, {cluster: (1, 1, 0.25, 1.0),
                                     recursive: (2, 2, 0.75, 0.75)}),
        # Nothing in repro called this one: it stays ext.
        top: (1, 1, 0.125, 0.125, {}),
    }
    folded = tracing.fold_profile(
        stats, lambda f: tracing.layer_for_file(f, src))
    assert folded["sim"] == pytest.approx(0.5 + 1.0 + 0.5)
    assert folded["cluster"] == pytest.approx(0.25 + 3.0 + 1.5 + 1.0)
    assert folded["ext"] == pytest.approx(0.125)
    assert sum(folded.values()) == pytest.approx(
        sum(s[2] for s in stats.values()))


def test_fold_charges_mutual_recursion_to_the_outer_caller():
    src = Path("/x/src")
    faults = ("/x/src/repro/faults/plan.py", 1, "extended")
    deepcopy = ("/usr/lib/python3/copy.py", 1, "deepcopy")
    deepcopy_dict = ("/usr/lib/python3/copy.py", 2, "_deepcopy_dict")
    builtin = ("~", 0, "<built-in method builtins.id>")
    stats = {
        faults: (1, 1, 0.5, 4.0, {}),
        # deepcopy <-> _deepcopy_dict, entered from faults only.
        deepcopy: (1, 5, 1.0, 3.5, {faults: (1, 1, 0.2, 3.5),
                                    deepcopy_dict: (0, 4, 0.8, 3.0)}),
        deepcopy_dict: (0, 4, 1.0, 3.25, {deepcopy: (0, 4, 1.0, 3.25)}),
        # A builtin only the inner function calls.
        builtin: (8, 8, 1.5, 1.5, {deepcopy_dict: (8, 8, 1.5, 1.5)}),
    }

    def fold(items):
        return tracing.fold_profile(
            dict(items), lambda f: tracing.layer_for_file(f, src))

    # Whatever order the fold meets the functions in.
    for order in itertools.permutations(stats.items()):
        folded = fold(order)
        assert folded["faults"] == pytest.approx(0.5 + 1.0 + 1.0 + 1.5)
        assert folded["ext"] == pytest.approx(0.0, abs=1e-6)


def test_span_self_time_is_duration_minus_union_of_children():
    spans = [Span("runner.unit", 0, None, 0, 0.0, 10.0),
             Span("cluster.ingest", 1, 0, 0, 1.0, 4.0),
             Span("trace.sample", 2, 0, 0, 3.0, 6.0),
             Span("cluster.recovery", 3, 0, 0, 8.0, 12.0)]
    # Children cover [1, 6] and [8, 10] of the parent: 7 of 10 seconds.
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 4.0])
    summary = tracing.span_summary(spans)
    assert summary["runner.unit"] == {"calls": 1, "total_s": 10.0,
                                      "self_s": 3.0, "p50_ms": 10000.0}
    assert summary["cluster.open_loop"]["calls"] == 0


def test_recorder_nests_spans_and_numbers_units():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    for _ in range(2):
        unit = rec.open("runner.unit")
        inner = rec.open("cluster.build")
        rec.close(inner)
        rec.close(unit)
    assert [(s.name, s.parent, s.unit) for s in rec.spans] == [
        ("runner.unit", None, 0), ("cluster.build", 0, 0),
        ("runner.unit", None, 1), ("cluster.build", 2, 1)]
    events = tracing.chrome_events(rec.spans)
    assert {e["ph"] for e in events} == {"X"}
    assert [e["pid"] for e in events] == [0, 0, 1, 1]
    outer = rec.open("runner.unit")
    rec.open("cluster.build")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def _runs(values: dict[int, float]) -> list[dict]:
    return [{"workload": "w", "seed": seed, "trace": False,
             "metrics": {name: value for name, _, _ in report.E2E}}
            for seed, value in values.items()]


@pytest.mark.parametrize("b_of_a, expected", [
    (lambda a, s: a * 0.8, "improved"),
    (lambda a, s: a, "no-worse"),
    (lambda a, s: a * 1.03, "no-worse"),
    (lambda a, s: a * 1.3, "worse"),
    (lambda a, s: a * (0.5 if s % 2 else 1.6), "unresolved"),
])
def test_compare_verdicts(b_of_a, expected):
    declared = {name: {"name": name, "unit": unit, "better": better,
                       "bound": 0.1} for name, unit, better in report.E2E}
    a = {s: 10.0 + 0.1 * (s % 3) for s in range(10)}
    b = {s: b_of_a(v, s) for s, v in a.items()}
    rows = report.compare(_runs(a), _runs(b), declared)
    assert [r["metric"] for r in rows] == [name for name, _, _ in report.E2E]
    assert {r["verdict"] for r in rows} == {expected}
    assert "verdict" in report.render_compare(rows)


def _replica(seed=7, numpy="2.0", **shas) -> dict:
    return {"python": "3.11", "numpy": numpy, "draws": [
        {"root_seed": seed, "units": [{"name": n, "sha256": d, "wall_s": 1.0}
                                      for n, d in shas.items()]}]}


def test_checker_counts_rows_that_differ_from_the_reference():
    reference = {"python": "3.11", "numpy": "2.0",
                 "workloads": {"w": {"7": {"a": "aa11", "b": "bb22"}}}}
    checker = run.Checker(reference, "w")
    good = _replica(a="aa11" + "0" * 60, b="bb22" + "0" * 60)
    assert checker.ran(good)
    checker.check(good)
    assert (checker.attempted, checker.failed) == (2, 0)
    # Differs from the reference and from the first run of the draw.
    bad = _replica(a="aa11" + "0" * 60, b="ffff" + "0" * 60)
    checker.ran(bad)
    checker.check(bad)
    assert (checker.attempted, checker.failed) == (4, 2)
    # A replica that crashed fails every unit a good replica had.
    assert not checker.ran({"root_seeds": [7], "error": "exit 1: boom"})
    assert (checker.attempted, checker.failed) == (6, 4)
    # Another numpy: the reference does not apply, and a note says so.
    other = _replica(numpy="9.9", a="x", b="y")
    assert checker.expected(other) == {}
    assert any("numpy 2.0" in note for note in checker.notes)


def test_checker_compares_repeats_of_unreferenced_draws():
    checker = run.Checker({}, "w")
    for replica in (_replica(seed=8, a="aa"), _replica(seed=9, a="bb"),
                    _replica(seed=8, a="aa")):
        checker.ran(replica)
        checker.check(replica)
    assert (checker.attempted, checker.failed, checker.unreferenced) == (
        3, 0, 3)
    checker.ran(_replica(seed=9, a="cc"))
    checker.check(_replica(seed=9, a="cc"))
    assert checker.failed == 1
    assert "another process" in checker.notes[-1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_run_plan_is_fixed_by_seed_and_seconds(name):
    wl = WORKLOADS[name]
    plan = run.run_plan(name, 3, 20)
    assert plan == run.run_plan(name, 3, 20)
    assert len(plan) == wl.replicas(20) >= 2
    assert all(len(draws) == wl.draws for draws in plan)
    # The last replica repeats the first draw; every other draw is new.
    seeds = [s for draws in plan for s in draws]
    assert plan[-1][0] == plan[0][0]
    assert len(set(seeds)) == len(seeds) - 1
    assert not set(seeds) & {s for d in run.run_plan(name, 4, 20)
                             for s in d}


def test_reference_covers_every_draw_of_the_seeds_runs():
    ref = json.loads(run.REFERENCE.read_text())
    assert {"python", "numpy", "seeds", "seconds", "workloads"} <= set(ref)
    assert ref["seconds"] == run.benchmark_json()["run_seconds"]
    assert set(ref["workloads"]) == set(WORKLOADS)
    for name, table in ref["workloads"].items():
        names = {u.name for u in WORKLOADS[name].build()}
        reachable = {str(s) for seed in ref["seeds"]
                     for draws in run.run_plan(name, seed, ref["seconds"])
                     for s in draws}
        assert set(table) == reachable
        assert all(set(units) == names for units in table.values())


def test_speed_sampler_rescales_by_the_sampled_speed():
    sampler = replica.SpeedSampler()
    ref = replica.REF_TICK_S
    # Twenty samples a second: ten at the reference speed, then ten at
    # half of it; each sample took 1 ms of the process's time.
    sampler.stamps = [i / 20 for i in range(20)]
    sampler.durations = [ref] * 10 + [2 * ref] * 10
    sampler.spent = [0.001] * 20
    assert sampler.ref_seconds(0.0, 0.5) == pytest.approx(0.5 - 0.010)
    assert sampler.ref_seconds(0.5, 1.0) == pytest.approx(
        (0.5 - 0.010) / 2)
    # Work that kept the process busy for only part of the interval.
    assert sampler.ref_seconds(0.5, 1.0, busy=0.3) == pytest.approx(
        (0.3 - 0.010) / 2)
    # A short interval borrows the eight samples nearest its middle.
    assert sampler.ref_seconds(0.0, 0.05) == pytest.approx(0.05 - 0.001)
    assert sampler.ref_seconds(0.4, 0.6) == pytest.approx(
        (0.2 - 0.004) * (4 + 4 * 0.5) / 8)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fig9-w1",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
