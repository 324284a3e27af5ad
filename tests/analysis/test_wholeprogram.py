"""Whole-program driver: findings, suppressions, SARIF and
GitHub-annotation output, and the CLI flags that expose them."""

import json

import pytest

from repro.analysis.cli import main
from repro.analysis.wholeprogram import (
    run_whole_program,
    to_github,
    to_sarif,
)

STALE_SNAPSHOT = """\
class Engine:
    def __init__(self, env, faults):
        self.env = env
        self.faults = faults

    def start(self):
        self.env.process(self.worker())
        for _ in range(3):
            self.env.process(self.crasher())

    def worker(self):
        while True:
            failed = {d for d in self.faults.failed_disks if d > 0}
            status = yield self.env.timeout(1.0)
            if status == "timeout":
                self.repick(failed)

    def crasher(self):
        yield self.env.timeout(0.5)
        self.faults.failed_disks.add(1)

    def repick(self, failed):
        return len(failed)
"""

CLEAN = "def helper(x):\n    return x + 1\n"


def project_dir(tmp_path, sources):
    root = tmp_path / "proj"
    for rel, text in sources.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


@pytest.fixture
def dirty_tree(tmp_path):
    return project_dir(tmp_path, {
        "src/repro/cluster/engine.py": STALE_SNAPSHOT,
        "src/repro/cluster/util.py": CLEAN,
    })


def run(tree, **kwargs):
    return run_whole_program([str(tree)], **kwargs)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def test_whole_program_finds_cross_function_race(dirty_tree):
    result = run(dirty_tree)
    assert [v.rule for v in result.findings] == ["RACE801"]
    assert result.stats.files_total == 2


def test_select_narrows_whole_program_findings(dirty_tree):
    result = run(dirty_tree, select=["RACE802"])
    assert result.findings == []
    result = run(dirty_tree, select=["RACE801"])
    assert [v.rule for v in result.findings] == ["RACE801"]


def test_suppression_comment_silences_whole_program_rules(tmp_path):
    silenced = STALE_SNAPSHOT.replace(
        "                self.repick(failed)",
        "                self.repick(failed)"
        "  # simlint: disable=RACE801")
    tree = project_dir(tmp_path, {"src/repro/cluster/engine.py": silenced})
    result = run(tree)
    assert result.findings == []


# ----------------------------------------------------------------------
# SARIF + GitHub output
# ----------------------------------------------------------------------
def test_sarif_is_valid_and_byte_stable(dirty_tree):
    first = run(dirty_tree)
    second = run(dirty_tree)
    doc_a, doc_b = to_sarif(first.findings), to_sarif(second.findings)
    assert doc_a == doc_b  # byte-identical across runs
    sarif = json.loads(doc_a)
    assert sarif["version"] == "2.1.0"
    runs = sarif["runs"][0]
    assert runs["tool"]["driver"]["name"] == "simlint"
    results = runs["results"]
    assert len(results) == 1
    assert results[0]["ruleId"] == "RACE801"
    location = results[0]["locations"][0]["physicalLocation"]
    assert location["region"]["startLine"] == 16
    rules = runs["tool"]["driver"]["rules"]
    assert [r["id"] for r in rules] == ["RACE801"]


def test_github_annotations_escape_newlines_and_locate(dirty_tree):
    result = run(dirty_tree)
    out = to_github(result.findings)
    line = out.splitlines()[0]
    assert line.startswith("::error file=")
    assert ",line=16," in line
    assert "title=simlint RACE801::" in line
    from repro.analysis.linter import Violation
    tricky = Violation("RACE801", "m.py", 1, 0, "two\nlines, 100%")
    encoded = to_github([tricky])
    assert "%0A" in encoded and "%25" in encoded and "\n" not in \
        encoded.replace("\n", "", 1)  # one trailing record separator only


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
def test_cli_whole_program_exit_codes_and_stats(dirty_tree, capsys):
    assert main(["--whole-program", "--stats", str(dirty_tree)]) == 1
    captured = capsys.readouterr()
    assert "RACE801" in captured.out
    assert "files: 2" in captured.err
    assert "per-file rules" in captured.err
    assert "race detection" in captured.err


def test_cli_sarif_format(dirty_tree, capsys):
    assert main(["--whole-program", "--format", "sarif",
                 str(dirty_tree)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"][0]["results"][0]["ruleId"] == "RACE801"


def test_cli_flag_compatibility_errors(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["--stats", str(tmp_path)])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["--whole-program", "--fix", str(tmp_path)])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["--format", "sarif", str(tmp_path)])
    assert err.value.code == 2


def test_cli_list_rules_groups_by_tier_and_pass(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "Per-file rules (syntactic, single AST)" in out
    assert "Per-file rules (CFG-based, single function)" in out
    assert "Whole-program passes" in out
    assert "[race-detection]" in out
    assert "[determinism-taint]" in out
    assert "[grant-escape]" in out
    # per-file CFG rules are also listed under their whole-program lift
    assert out.count("RES301") == 2
