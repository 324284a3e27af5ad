"""Whole-program driver: passes, incremental cache, baseline, SARIF.

``run_whole_program`` is the engine behind ``simlint --whole-program``:

1. hash every source file and consult the **run cache** — an identical
   (engine, select, file-hash set) run replays its recorded findings with
   zero re-analysis;
2. run the per-file tier-1 rules, reusing the **per-file cache** for any
   file whose content hash is unchanged;
3. build the project call graph once and run the three whole-program
   passes over it: determinism taint (:mod:`repro.analysis.taint`),
   cooperative-process races (:mod:`repro.analysis.races`) and
   interprocedural grant escape (:mod:`repro.analysis.summaries`);
4. honor ``# simlint: disable=`` comments for every finding, exactly as
   the per-file tier does.

The module also implements the **baseline** workflow (fingerprints that
survive line-number drift, so legacy findings can be frozen while new
ones gate CI) and the ``sarif`` / ``github`` output formats used by the
CI job.
"""

from __future__ import annotations

import hashlib
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

#: Bumping this invalidates every cache entry and baseline engine match.
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
    cached: bool = False


@dataclass
class WholeProgramStats:
    files_total: int = 0
    files_reanalysed: int = 0     # per-file lints actually executed
    run_cache_hit: bool = False
    passes: list[PassTiming] = field(default_factory=list)

    def format(self) -> str:
        lines = [f"files: {self.files_total} "
                 f"({self.files_reanalysed} re-analysed, "
                 f"run cache {'hit' if self.run_cache_hit else 'miss'})"]
        for p in self.passes:
            tag = "cached" if p.cached else f"{p.seconds * 1000:7.1f} ms"
            lines.append(f"  {p.name:<22} {tag:>10}  "
                         f"{p.findings} finding(s)")
        return "\n".join(lines)


@dataclass
class WholeProgramRun:
    """Findings plus bookkeeping of one whole-program analysis."""

    findings: list[Violation]
    stats: WholeProgramStats


# ----------------------------------------------------------------------
# serialization helpers
# ----------------------------------------------------------------------
def _to_dict(v: Violation) -> dict:
    return {"rule": v.rule, "path": v.path, "line": v.line,
            "col": v.col, "message": v.message}


def _from_dict(d: dict) -> Violation:
    return Violation(d["rule"], d["path"], d["line"], d["col"],
                     d["message"])


def _digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def run_whole_program(paths, select=None, cache_dir="results/lintcache",
                      use_cache: bool = True) -> WholeProgramRun:
    """Run tier-1 rules plus the whole-program passes over ``paths``."""
    selected = {r.upper() for r in select} if select is not None else None
    sel_key = ",".join(sorted(selected)) if selected is not None else "*"
    files = iter_python_files(paths)
    sources: dict[str, str] = {}
    for f in files:
        sources[str(f)] = Path(f).read_text(encoding="utf-8")
    hashes = {path: _digest(src) for path, src in sources.items()}

    stats = WholeProgramStats(files_total=len(files))
    cache = _Cache(cache_dir) if use_cache else None
    run_key = hashlib.sha256(repr(
        (ENGINE_VERSION, sel_key, sorted(hashes.items()))
    ).encode("utf-8")).hexdigest()

    if cache is not None:
        cached_run = cache.load_run(run_key)
        if cached_run is not None:
            stats.run_cache_hit = True
            findings = [_from_dict(d) for d in cached_run["findings"]]
            for p in cached_run["passes"]:
                stats.passes.append(PassTiming(p["name"], 0.0,
                                               p["findings"], cached=True))
            return WholeProgramRun(findings, stats)

    # -- tier 1: per-file rules through the per-file cache ---------------
    t0 = time.perf_counter()
    tier1: list[Violation] = []
    file_cache = cache.load_files() if cache is not None else {}
    for path, src in sources.items():
        key = f"{hashes[path]}:{sel_key}"
        entry = file_cache.get(key)
        if entry is not None and entry["path"] == path:
            tier1.extend(_from_dict(d) for d in entry["violations"])
            continue
        violations = lint_source(src, path, select)
        stats.files_reanalysed += 1
        tier1.extend(violations)
        file_cache[key] = {"path": path,
                           "violations": [_to_dict(v) for v in violations]}
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

    if cache is not None:
        cache.save_files(file_cache)
        cache.save_run(run_key, {
            "engine": ENGINE_VERSION,
            "findings": [_to_dict(v) for v in findings],
            "passes": [{"name": p.name, "findings": p.findings}
                       for p in stats.passes]})
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


class _Cache:
    """Content-hash caches under ``results/lintcache/``."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _read(self, name: str):
        try:
            return json.loads((self.root / name).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    def _write(self, name: str, payload) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / name).write_text(
            json.dumps(payload, sort_keys=True), encoding="utf-8")

    def load_run(self, key: str):
        data = self._read(f"run-{key}.json")
        if data is not None and data.get("engine") == ENGINE_VERSION:
            return data
        return None

    def save_run(self, key: str, payload: dict) -> None:
        self._write(f"run-{key}.json", payload)

    def load_files(self) -> dict:
        data = self._read("files.json")
        if isinstance(data, dict) \
                and data.get("engine") == ENGINE_VERSION:
            return data.get("entries", {})
        return {}

    def save_files(self, entries: dict) -> None:
        self._write("files.json",
                    {"engine": ENGINE_VERSION, "entries": entries})


# ----------------------------------------------------------------------
# baseline workflow
# ----------------------------------------------------------------------
def _line_text(sources: dict, v: Violation) -> str:
    src = sources.get(v.path)
    if src is None:
        try:
            src = Path(v.path).read_text(encoding="utf-8")
        except OSError:
            src = ""
        sources[v.path] = src
    lines = src.splitlines()
    if 1 <= v.line <= len(lines):
        return lines[v.line - 1].strip()
    return ""


def fingerprints(findings, sources: dict | None = None) -> list[str]:
    """One stable fingerprint per finding, aligned with ``findings``.

    ``sha1(rule|path|stripped source line|occurrence)`` — independent of
    line *numbers*, so unrelated edits above a legacy finding do not
    unbaseline it; the occurrence index disambiguates identical lines.
    """
    sources = {} if sources is None else sources
    counts: dict = {}
    out = []
    for v in findings:
        text = _line_text(sources, v)
        base = f"{v.rule}|{v.path}|{text}"
        idx = counts.get(base, 0)
        counts[base] = idx + 1
        out.append(hashlib.sha1(f"{base}|{idx}".encode("utf-8")).hexdigest())
    return out


def write_baseline(findings, path: str | Path,
                   sources: dict | None = None) -> int:
    """Freeze the given findings into a baseline file; returns the count."""
    prints = sorted(fingerprints(findings, sources))
    payload = {"engine": ENGINE_VERSION, "version": 1,
               "fingerprints": prints}
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n", encoding="utf-8")
    return len(prints)


def apply_baseline(findings, baseline_path: str | Path,
                   sources: dict | None = None):
    """Split findings into (new, baselined) against a baseline file."""
    try:
        data = json.loads(Path(baseline_path).read_text(encoding="utf-8"))
        known = set(data.get("fingerprints", ()))
    except (OSError, ValueError):
        known = set()
    new, baselined = [], []
    for v, fp in zip(findings, fingerprints(findings, sources)):
        (baselined if fp in known else new).append(v)
    return new, baselined


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