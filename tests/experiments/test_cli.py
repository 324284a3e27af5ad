"""Tests for the ``python -m repro.experiments`` runner CLI."""

import functools
import gzip
import json
import pkgutil
from pathlib import Path

import pytest

import repro.experiments
from repro.experiments.__main__ import EXPERIMENTS, build, main
from repro.runner import ExperimentResult

RESULTS = Path(__file__).resolve().parents[2] / "results"
ALL_300 = ["all", "--n-objects", "300", "--n-requests", "3"]
PLACEMENT_SMOKE = ["placement-matrix", "--n-objects", "300",
                   "--n-requests", "5", "--policies", "flat_random,rack_aware"]
DURABILITY_SMOKE = ["durability-frontier", "--n-objects", "300",
                    "--fleet-disks", "640", "--fleet-years", "2",
                    "--reps", "2", "--trials", "1",
                    "--policies", "flat_random,rack_aware"]


@functools.cache
def _fixture(name: str):
    with gzip.open(RESULTS / name, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def test_experiment_registry_covers_the_paper():
    extensions = {name for name, e in EXPERIMENTS.items() if e.extension}
    expected = {"table1", "table2", "table3", "table4", "table5",
                "fig2", "fig3", "fig4", "fig7", "fig9", "fig10", "fig11", "fig12",
                "fig13", "fig14", "breakdown", "range", "headline",
                "ablations", "durability", "chaos-tail", "chaos-recovery"}
    assert expected == set(EXPERIMENTS) - extensions
    # Extensions are runnable but excluded from ``all`` (its output is
    # pinned byte-for-byte by results/expected_all_300.json.gz).
    assert extensions == {"placement-matrix", "durability-frontier",
                          "traffic-frontier"}
    assert extensions <= set(EXPERIMENTS)


def test_no_experiment_sits_outside_the_runner():
    """Every module under repro.experiments is a CLI entry's module or
    holds the compute function of a unit that some entry builds, so no
    experiment is computed beside the runner."""
    reached = set()
    for name, exp in EXPERIMENTS.items():
        reached.add(f"repro.experiments.{exp.module}")
        _args, units, _sections = build([name])
        reached.update(u.fn.partition(":")[0] for u in units)
    modules = {f"repro.experiments.{m.name}"
               for m in pkgutil.iter_modules(repro.experiments.__path__)}
    assert modules - {"repro.experiments.common",
                      "repro.experiments.__main__"} <= reached


@pytest.mark.parametrize("argv, fixture", [
    (ALL_300, "expected_all_300.json.gz"),
    (["traffic-frontier", "--n-objects", "300"],
     "expected_traffic_300.json.gz"),
    (PLACEMENT_SMOKE, "expected_placement_smoke.json.gz"),
])
def test_table_builds_the_pinned_units(argv, fixture):
    """Each table entry (module, fixed keywords, flags it reads) builds
    exactly the units the committed fixture ran — no simulation needed."""
    _args, units, _sections = build(argv)
    built = [(u.name, u.fn, json.loads(json.dumps(u.params)),
              u.derive_seed(0), u.content_hash()) for u in units]
    pinned = [(d["name"], d["provenance"]["fn"], d["provenance"]["params"],
               d["provenance"]["seed"], d["provenance"]["scenario_hash"])
              for docs in _fixture(fixture)["experiments"].values()
              for d in docs]
    assert built == pinned


def test_table_builds_the_durability_smoke_units():
    _args, units, _sections = build(DURABILITY_SMOKE)
    pinned = _fixture("expected_durability_smoke.json.gz")
    assert [u.name for u in units] == [d["name"] for d in pinned]


def test_unset_flags_leave_the_fixed_keywords():
    """fig9 fixes 20 degraded reads and table3 the W1 workload; a flag
    that is not given must not overwrite them with ``None``."""
    _args, units, _sections = build(["fig9"])
    assert {u.params["n_requests"] for u in units} == {20}
    _args, units, _sections = build(["table3"])
    assert {u.params["setting"] for u in units} == {"W1"}


def test_all_renders_the_pinned_text_from_the_pinned_rows():
    """Every ``all`` section's render function, fed the fixture's rows,
    prints results/expected_all_300.txt (the text output, less the
    per-section "[... units cached]" lines)."""
    _args, _units, sections = build(ALL_300)
    docs = _fixture("expected_all_300.json.gz")["experiments"]
    text = "".join(
        f"===== {name} =====\n"
        f"{render([ExperimentResult.from_doc(d) for d in docs[name]])}\n\n"
        for name, _lo, _hi, render in sections)
    expected = (RESULTS / "expected_all_300.txt").read_text(encoding="utf-8")
    assert text == expected


@pytest.mark.parametrize("argv", [
    ["fig9", "--n-requests", "0"],
    ["durability-frontier", "--reps", "0"],
    ["durability-frontier", "--trials", "0"],
    ["durability-frontier", "--fleet-years", "0"],
    ["durability-frontier", "--fleet-disks", "100"],   # not 8-disk nodes
    ["durability-frontier", "--fleet-disks", "104"],   # 13 nodes < k + r
    ["traffic-frontier", "--tenants", "0"],
    ["traffic-frontier", "--tenants", "4"],            # three presets
    ["traffic-frontier", "--hedge-ms", "-5"],
    ["traffic-frontier", "--arrival-rate", "40,0"],
    ["traffic-frontier", "--arrival-rate", ","],
    ["placement-matrix", "--policies", ","],
    ["fig13", "--n-objects", "-1"],
    # Flags the chosen experiment would ignore.
    ["fig13", "--n-requests", "5"],
    ["table1", "--n-objects", "5"],
    ["chaos-recovery", "--straggler", "4"],
    ["fig9", "--policies", "rack_aware"],
    ["fig9", "--workload", "W2"],
    ["all", "--policies", "rack_aware"],
])
def test_cli_usage_errors_run_nothing(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err  # names the flag
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["durability-frontier", "--fleet-disks", "112"],   # 14 nodes = k + r
    ["traffic-frontier", "--tenants", "1"],
    ["traffic-frontier", "--tenants", "3"],            # every preset
])
def test_cli_accepts_the_edge_values(argv):
    """The bounds the usage checks above enforce are inclusive: the
    smallest fleet and each end of the tenant range build units that
    carry the value."""
    _args, units, _sections = build(argv)
    value = int(argv[2])
    if argv[1] == "--fleet-disks":
        assert {u.params["n_disks"] for u in units} == {value}
    else:
        assert {len(u.params["tenants"]) for u in units} == {value}


def test_cli_table1(tmp_path, capsys):
    assert main(["table1", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Clay(10,4)" in out
    assert "3.25" in out


def test_cli_fig2(tmp_path, capsys):
    assert main(["fig2", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "D1,D2,D3,D4" in out


def test_cli_with_scale_flag(tmp_path, capsys):
    assert main(["fig14", "--n-objects", "500",
                 "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Peak at q=" in out


def test_cli_workload_flag(tmp_path, capsys):
    assert main(["breakdown", "--workload", "W2", "--n-objects", "2000",
                 "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Geo-128K" in out


def test_cli_rejects_unknown():
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_cli_reports_cache_status(tmp_path, capsys):
    args = ["table1", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    assert "0/1 units cached" in capsys.readouterr().out
    assert main(args) == 0
    assert "1/1 units cached" in capsys.readouterr().out


def test_cli_no_cache_skips_the_cache(tmp_path, capsys):
    args = ["table1", "--cache-dir", str(tmp_path), "--no-cache"]
    assert main(args) == 0
    assert main(args) == 0
    assert "0/1 units cached" in capsys.readouterr().out
    assert list(tmp_path.rglob("*.json")) == []


def test_cli_json_output_is_machine_readable(tmp_path, capsys):
    assert main(["table1", "--json", "--cache-dir", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["root_seed"] == 0
    (result,) = doc["experiments"]["table1"]
    assert result["name"] == "table1/codes"
    assert any(row["name"] == "Clay(10,4)" for row in result["rows"])
    assert result["provenance"]["fn"] == "repro.experiments.table1:compute"


def test_cli_json_is_identical_across_jobs_and_cache(tmp_path, capsys):
    """The acceptance invariant at CLI level: byte-identical --json output
    for serial, parallel, and cache-served executions."""
    args = ["fig13", "--n-objects", "100", "--seed", "9", "--json",
            "--cache-dir", str(tmp_path)]
    assert main(args + ["--jobs", "2"]) == 0
    parallel_cold = capsys.readouterr().out
    assert main(args) == 0  # warm: served from cache
    warm = capsys.readouterr().out
    assert main(args + ["--no-cache"]) == 0  # serial, recomputed
    serial = capsys.readouterr().out
    assert parallel_cold == warm == serial


def test_cli_seed_changes_simulated_rows(tmp_path, capsys):
    args = ["fig13", "--n-objects", "100", "--json",
            "--cache-dir", str(tmp_path)]
    assert main(args + ["--seed", "1"]) == 0
    one = capsys.readouterr().out
    assert main(args + ["--seed", "2"]) == 0
    two = capsys.readouterr().out
    assert one != two


def test_cli_bench_out_accounts_units(tmp_path, capsys):
    bench = tmp_path / "BENCH_experiments.json"
    assert main(["fig13", "--n-objects", "100", "--jobs", "2",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--bench-out", str(bench)]) == 0
    capsys.readouterr()
    doc = json.loads(bench.read_text())
    assert doc["jobs"] == 2
    assert doc["totals"]["units"] == 3
    assert doc["totals"]["misses"] == 3
    assert {u["name"] for u in doc["units"]} == \
        {"fig13/1gbps", "fig13/2gbps", "fig13/4gbps"}
    for unit in doc["units"]:
        assert unit["wall_s"] >= 0
        assert unit["sim_time_s"] > 0


def test_cli_timeline_flag_writes_merged_doc(tmp_path, capsys):
    out = tmp_path / "tl.json"
    assert main(["fig13", "--n-objects", "100", "--no-cache",
                 "--timeline", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["schema"] == "repro.timeline/1"
    assert len(doc["segments"]) == 3  # one per bandwidth unit
    for seg in doc["segments"]:
        assert seg["t"]
        assert "degraded.reads_completed" in seg["counters"]
        assert "engine.events_scheduled" in seg["counters"]


def test_cli_timeline_does_not_change_json_rows(tmp_path, capsys):
    """Telemetry may add counters to the obs snapshot, but the simulated
    rows — the science — must be untouched by observation."""
    args = ["fig13", "--n-objects", "100", "--json", "--no-cache"]
    assert main(args) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(args + ["--timeline", str(tmp_path / "tl.json")]) == 0
    with_timeline = json.loads(capsys.readouterr().out)

    def rows(doc):
        return [(r["name"], r["rows"]) for r in doc["experiments"]["fig13"]]

    assert rows(plain) == rows(with_timeline)


def test_cli_profile_prints_flame_table(tmp_path, capsys):
    assert main(["fig13", "--n-objects", "100", "--no-cache",
                 "--profile"]) == 0
    out = capsys.readouterr().out
    assert "== profile (wall clock, per process site) ==" in out
    assert "rcstor.py:" in out


def test_cli_report_writes_self_contained_html(tmp_path, capsys):
    report = tmp_path / "run.html"
    assert main(["fig13", "--n-objects", "100", "--no-cache",
                 "--report", str(report)]) == 0
    capsys.readouterr()
    page = report.read_text(encoding="utf-8")
    assert page.startswith("<!doctype html>")
    assert "<script" not in page
    assert "<svg" in page
    assert "fig13" in page


def test_cli_flightrec_dir_stays_empty_on_clean_run(tmp_path, capsys):
    out = tmp_path / "fr"
    assert main(["fig13", "--n-objects", "100", "--no-cache",
                 "--flightrec", str(out)]) == 0
    capsys.readouterr()
    assert not out.exists() or not list(out.glob("*"))


def test_cli_zero_n_objects_is_not_treated_as_unset(tmp_path, capsys):
    """Falsy values must win over defaults (`is None` semantics): 0 objects
    is an explicit scale, not a request for the per-experiment default."""
    assert main(["fig14", "--n-objects", "0", "--json",
                 "--cache-dir", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    (result,) = doc["experiments"]["fig14"]
    assert result["provenance"]["params"]["n_objects"] == 0
