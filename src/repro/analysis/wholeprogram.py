"""Whole-program driver: passes, suppressions, SARIF and GitHub output.

``run_whole_program`` is the engine behind ``simlint --whole-program``:

1. run the per-file tier-1 rules over every source file;
2. build the project call graph once and run the three whole-program
   passes over it: determinism taint (:mod:`repro.analysis.taint`),
   cooperative-process races (:mod:`repro.analysis.races`) and
   interprocedural grant escape (:mod:`repro.analysis.summaries`);
3. honor ``# simlint: disable=`` comments for every finding, exactly as
   the per-file tier does.

It times each stage for ``--stats`` and renders the ``sarif`` /
``github`` output formats used by the CI job.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.callgraph import Project
from repro.analysis.linter import (
    Violation,
    iter_python_files,
    lint_source,
)
from repro.analysis.races import RacePass
from repro.analysis.summaries import GrantEscapePass
from repro.analysis.taint import TaintPass

#: The analyser version reported in SARIF output.
ENGINE_VERSION = "simlint-2.1"

#: Whole-program rule descriptors: (id, pass, summary).  The per-file
#: rules live in :data:`repro.analysis.rules.ALL_RULES`; these families
#: only exist at whole-program scope.
WHOLE_PROGRAM_RULES: tuple = (
    ("DET701", "determinism-taint",
     "nondeterministic value reaches event scheduling or a resource "
     "request priority"),
    ("DET702", "determinism-taint",
     "nondeterministic value reaches a metric label"),
    ("DET703", "determinism-taint",
     "nondeterministic value reaches scenario parameters"),
    ("RACE801", "race-detection",
     "snapshot of concurrently-written state used across an unprotected "
     "yield (check-then-act)"),
    ("RACE802", "race-detection",
     "cross-yield compose/restore write pair on concurrently-written "
     "state"),
    ("RES301", "grant-escape",
     "interprocedural lift: leak through helpers that neither release "
     "nor take ownership"),
    ("RES302", "grant-escape",
     "interprocedural lift: grant held across a wait despite helper "
     "calls"),
    ("FLT501", "grant-escape",
     "interprocedural lift: repair-path grant handed to a helper that "
     "waits on it unprotected"),
)


@dataclass
class PassTiming:
    """Wall-clock and outcome of one analysis stage."""

    name: str
    seconds: float
    findings: int


@dataclass
class WholeProgramStats:
    files_total: int = 0
    passes: list[PassTiming] = field(default_factory=list)

    def format(self) -> str:
        lines = [f"files: {self.files_total}"]
        for p in self.passes:
            lines.append(f"  {p.name:<22} {p.seconds * 1000:7.1f} ms  "
                         f"{p.findings} finding(s)")
        return "\n".join(lines)


@dataclass
class WholeProgramRun:
    """Findings plus bookkeeping of one whole-program analysis."""

    findings: list[Violation]
    stats: WholeProgramStats


def run_whole_program(paths, select=None) -> WholeProgramRun:
    """Run tier-1 rules plus the whole-program passes over ``paths``."""
    selected = {r.upper() for r in select} if select is not None else None
    files = iter_python_files(paths)
    sources: dict[str, str] = {}
    for f in files:
        sources[str(f)] = Path(f).read_text(encoding="utf-8")
    stats = WholeProgramStats(files_total=len(files))

    # -- tier 1: per-file rules ------------------------------------------
    t0 = time.perf_counter()
    tier1: list[Violation] = []
    for path, src in sources.items():
        tier1.extend(lint_source(src, path, select))
    stats.passes.append(PassTiming("per-file rules",
                                   time.perf_counter() - t0, len(tier1)))

    # -- whole-program: one project, three passes ------------------------
    t0 = time.perf_counter()
    project = Project()
    for path, src in sources.items():
        project.add_source(src, path)
    project.link()
    stats.passes.append(PassTiming("call graph",
                                   time.perf_counter() - t0, 0))

    wp: list[Violation] = []
    for name, runner in (
            ("determinism taint", lambda: TaintPass(project).run()),
            ("race detection", lambda: RacePass(project).run()),
            ("grant escape", lambda: GrantEscapePass(project).run())):
        t0 = time.perf_counter()
        found = _filter(project, runner(), selected)
        stats.passes.append(PassTiming(name, time.perf_counter() - t0,
                                       len(found)))
        wp.extend(found)

    findings = tier1 + wp
    findings.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return WholeProgramRun(findings, stats)


def _filter(project: Project, violations, selected) -> list[Violation]:
    """Apply ``--select`` and suppression comments to pass findings."""
    by_path = {mod.path: mod.suppressions
               for mod in project.modules.values()}
    out = []
    for v in violations:
        if selected is not None and v.rule not in selected:
            continue
        sup = by_path.get(v.path)
        if sup is not None and sup.is_suppressed(v.rule, v.line):
            continue
        out.append(v)
    return out


# ----------------------------------------------------------------------
# output formats
# ----------------------------------------------------------------------
def to_sarif(findings) -> str:
    """SARIF 2.1.0, serialized deterministically (byte-identical for
    identical findings)."""
    from repro.analysis.rules import ALL_RULES

    rule_meta = {r.id: r.summary for r in ALL_RULES}
    for rid, _pass, summary in WHOLE_PROGRAM_RULES:
        rule_meta.setdefault(rid, summary)
    used = sorted({v.rule for v in findings})
    rules = [{"id": rid,
              "shortDescription": {"text": rule_meta.get(rid, rid)}}
             for rid in used]
    results = [{
        "ruleId": v.rule,
        "level": "error",
        "message": {"text": v.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": v.path.replace("\\", "/")},
                "region": {"startLine": v.line,
                           "startColumn": max(v.col, 0) + 1},
            }}],
    } for v in findings]
    doc = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {"name": "simlint",
                                "version": ENGINE_VERSION,
                                "rules": rules}},
            "results": results,
        }],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _escape_property(text: str) -> str:
    return (text.replace("%", "%25").replace("\r", "%0D")
            .replace("\n", "%0A").replace(":", "%3A").replace(",", "%2C"))


def _escape_data(text: str) -> str:
    return text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def to_github(findings) -> str:
    """GitHub Actions workflow commands: one ``::error`` annotation per
    finding, rendered on the PR diff by the CI job."""
    lines = []
    for v in findings:
        lines.append(
            f"::error file={_escape_property(v.path)},line={v.line},"
            f"col={max(v.col, 0) + 1},"
            f"title=simlint {v.rule}::{_escape_data(v.message)}")
    return "\n".join(lines) + ("\n" if lines else "")