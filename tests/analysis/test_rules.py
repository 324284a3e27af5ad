"""Per-rule simlint tests, driven by the fixture files in ``fixtures/``.

Every fixture contains a positive case (must be flagged), a negative case
(must stay clean) and a suppressed case (flagged line carrying a
``# simlint: disable=RULE`` comment); tests locate expected violations by
source text, not hard-coded line numbers.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_source
from repro.analysis.linter import Suppressions, layer_of

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name: str, layer: str = "sim", select=None):
    source = (FIXTURES / f"{name}.py").read_text(encoding="utf-8")
    return source, lint_source(source, f"src/repro/{layer}/{name}.py",
                               select=select)


def lines_containing(source: str, needle: str) -> list[int]:
    return [i for i, text in enumerate(source.splitlines(), start=1)
            if needle in text]


def flagged_lines(violations, rule: str) -> list[int]:
    return sorted(v.line for v in violations if v.rule == rule)


# ----------------------------------------------------------------------
# SIM1xx: determinism
# ----------------------------------------------------------------------
def test_sim101_wall_clock():
    source, violations = lint_fixture("sim101")
    assert flagged_lines(violations, "SIM101") == \
        lines_containing(source, "time.time()")[:1]
    assert all(v.rule == "SIM101" for v in violations)


def test_sim101_not_applied_outside_deterministic_layers():
    source = (FIXTURES / "sim101.py").read_text(encoding="utf-8")
    assert lint_source(source, "src/repro/experiments/sim101.py",
                       select=["SIM101"]) == []
    assert lint_source(source, "tools/sim101.py", select=["SIM101"]) == []


def test_sim102_rng():
    source, violations = lint_fixture("sim102")
    expected = (lines_containing(source, "random.random()")
                + lines_containing(source, "np.random.default_rng()")
                + lines_containing(source, "np.random.rand(")
                + lines_containing(source, "random.Random()"))
    assert flagged_lines(violations, "SIM102") == sorted(expected)


def test_sim103_set_iteration():
    source, violations = lint_fixture("sim103")
    expected = (lines_containing(source, "for node in {3, 1, 2}:")[:1]
                + lines_containing(source, "in set(items)]"))
    assert flagged_lines(violations, "SIM103") == sorted(expected)
    assert all(v.fix is not None for v in violations
               if v.rule == "SIM103")


# ----------------------------------------------------------------------
# GEN2xx: process-generator hygiene
# ----------------------------------------------------------------------
def test_gen201_bare_yield():
    source, violations = lint_fixture("gen201")
    flagged = flagged_lines(violations, "GEN201")
    assert len(flagged) == 1
    bare_yields = lines_containing(source, "    yield")
    assert flagged[0] in bare_yields
    # The data generator's bare yields are not process yields.
    data_gen_start = lines_containing(source, "def data_gen")[0]
    quiet_start = lines_containing(source, "def quiet_proc")[0]
    assert not any(data_gen_start < line < quiet_start for line in flagged)


def test_gen202_literal_yield():
    source, violations = lint_fixture("gen202")
    assert flagged_lines(violations, "GEN202") == \
        lines_containing(source, "yield 42")


def test_gen203_discarded_return():
    source, violations = lint_fixture("gen203")
    flagged = flagged_lines(violations, "GEN203")
    candidates = lines_containing(source, "env.process(worker(env))")
    # Only the fire-and-forget statement in `bad`, not the assignment in
    # `ok` nor the suppressed line in `quiet`.
    assert flagged == candidates[:1]


# ----------------------------------------------------------------------
# RES3xx: resource acquire/release pairing
# ----------------------------------------------------------------------
def test_res301_leak_on_early_return():
    source, violations = lint_fixture("res301")
    flagged = flagged_lines(violations, "RES301")
    assert flagged == lines_containing(source, "req = disk.request()")[:1]
    [violation] = [v for v in violations if v.rule == "RES301"]
    assert "req" in violation.message and "released" in violation.message


def test_res302_unprotected_wait():
    source, violations = lint_fixture("res302", select=["RES302"])
    assert flagged_lines(violations, "RES302") == \
        lines_containing(source, "yield env.timeout(1)")[:1]


# ----------------------------------------------------------------------
# LAY4xx: layering and API hygiene
# ----------------------------------------------------------------------
def test_lay401_layer_violation():
    source, violations = lint_fixture("lay401", select=["LAY401"])
    assert flagged_lines(violations, "LAY401") == \
        lines_containing(source, "from repro.cluster import")
    [violation] = violations
    assert "sim" in violation.message and "repro.cluster" in violation.message


def test_lay401_respects_the_dag():
    ok = "from repro.codes import RSCode\n"
    assert lint_source(ok, "src/repro/cluster/x.py", select=["LAY401"]) == []
    bad = "from repro.experiments import fig13\n"
    assert len(lint_source(bad, "src/repro/cluster/x.py",
                           select=["LAY401"])) == 1


def test_lay401_runner_layer():
    ok = "from repro.obs import merge_snapshots\n"
    assert lint_source(ok, "src/repro/runner/executor.py",
                       select=["LAY401"]) == []
    # The runner orchestrates experiments but must never import them
    # (experiments import the runner, not the other way around) and must
    # not reach into the simulation directly.
    for bad in ("from repro.experiments import fig13\n",
                "from repro.cluster import RCStor\n"):
        assert len(lint_source(bad, "src/repro/runner/executor.py",
                               select=["LAY401"])) == 1


def test_lay402_mutable_default():
    source, violations = lint_fixture("lay402")
    assert flagged_lines(violations, "LAY402") == \
        lines_containing(source, "def bad(items=[]):")


def test_lay402_applies_everywhere():
    bad = "def f(x=[]):\n    return x\n"
    assert len(lint_source(bad, "tools/outside.py")) == 1


# ----------------------------------------------------------------------
# FLT5xx: fault-awareness
# ----------------------------------------------------------------------
def test_flt501_repair_wait_without_cancellation():
    source, violations = lint_fixture("flt501", layer="cluster",
                                      select=["FLT501"])
    # Only the unprotected repair-path waits are flagged: the with-managed,
    # try/finally-cancelled or -released (also nested, also through
    # `req.release()`), normal-read, out-of-scope, and suppressed variants
    # all stay clean.
    assert flagged_lines(violations, "FLT501") == \
        lines_containing(source, "yield req")[:1] \
        + lines_containing(source, "yield req  # nested in if/for")
    first, nested = violations
    assert "repair_reads" in first.message
    assert "repair_nested_wait" in nested.message
    assert all("cancel" in v.message for v in violations)


def test_flt501_shapes_both_tiers_agree_on():
    source, violations = lint_fixture("flt501", layer="cluster",
                                      select=["FLT501"])

    def lines_in(function):
        return [v.line for v in violations if f"`{function}`" in v.message]

    assert lines_in("repair_nested_wait") == \
        lines_containing(source, "yield req  # nested in if/for")
    assert lines_in("recovery_ok_nested_cancel") == []
    assert lines_in("rebuild_ok_release_method") == []


def test_flt501_scoped_to_fault_injectable_layers():
    source = (FIXTURES / "flt501.py").read_text(encoding="utf-8")
    assert lint_source(source, "src/repro/sim/flt501.py",
                       select=["FLT501"]) == []
    assert lint_source(source, "src/repro/faults/flt501.py",
                       select=["FLT501"]) != []


# ----------------------------------------------------------------------
# OBS6xx: telemetry hot paths
# ----------------------------------------------------------------------
def test_obs601_hot_loop_registry_lookup():
    source, violations = lint_fixture("obs601", layer="cluster",
                                      select=["OBS601"])
    # The two in-loop registry lookups are flagged; the hoisted-handle,
    # non-generator, before-loop and suppressed variants all stay clean.
    expected = (lines_containing(source, 'counter("tasks.done")')[:1]
                + lines_containing(source, 'histogram("drain.latency")'))
    assert flagged_lines(violations, "OBS601") == sorted(expected)
    assert all("hoist the handle" in v.message for v in violations)


def test_obs601_scoped_to_engine_layers():
    source = (FIXTURES / "obs601.py").read_text(encoding="utf-8")
    assert lint_source(source, "src/repro/sim/obs601.py",
                       select=["OBS601"]) != []
    assert lint_source(source, "src/repro/faults/obs601.py",
                       select=["OBS601"]) != []
    # The obs layer itself (and e.g. the runner) may look metrics up
    # wherever it wants — there is no engine hot loop there.
    assert lint_source(source, "src/repro/obs/obs601.py",
                       select=["OBS601"]) == []
    assert lint_source(source, "src/repro/runner/obs601.py",
                       select=["OBS601"]) == []


# ----------------------------------------------------------------------
# Driver machinery
# ----------------------------------------------------------------------
def test_file_wide_suppression():
    source = ("# simlint: disable-file=SIM101\n"
              "import time\n\n\n"
              "def f():\n"
              "    return time.time()\n")
    assert lint_source(source, "src/repro/sim/x.py") == []


def test_suppress_all():
    source = "def f(x=[]):  # simlint: disable=ALL\n    return x\n"
    assert lint_source(source, "src/repro/sim/x.py") == []


def test_syntax_error_reported_as_e999():
    violations = lint_source("def f(:\n", "src/repro/sim/broken.py")
    assert [v.rule for v in violations] == ["E999"]


def test_violation_format():
    [v] = lint_source("def f(x=[]):\n    return x\n", "src/repro/sim/x.py")
    formatted = v.format()
    assert formatted.startswith("src/repro/sim/x.py:1:")
    assert "LAY402" in formatted


@pytest.mark.parametrize("path,layer", [
    ("src/repro/sim/engine.py", "sim"),
    ("src/repro/cluster/rcstor.py", "cluster"),
    ("src/repro/cluster/placement/rack_aware.py", "placement"),
    ("src/repro/cluster/placement/__init__.py", "placement"),
    ("src/repro/__init__.py", ""),
    ("repro/codes/clay.py", "codes"),
    ("tools/foo.py", None),
])
def test_layer_of(path, layer):
    assert layer_of(path) == layer


def test_suppressions_parse():
    s = Suppressions("x = 1  # simlint: disable=RES301, RES302\n"
                     "# simlint: disable-file=GEN201\n")
    assert s.is_suppressed("RES301", 1)
    assert s.is_suppressed("RES302", 1)
    assert not s.is_suppressed("RES301", 2)
    assert s.is_suppressed("GEN201", 99)
