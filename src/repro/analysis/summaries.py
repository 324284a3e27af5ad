"""Interprocedural grant-responsibility summaries (RES/FLT lift).

The intraprocedural grant analysis (:mod:`repro.analysis.cfg`) closes a
tracked request the moment it is passed to *any* call: someone else is now
responsible.  That keeps the per-file tier free of false positives, but it
also means a helper that merely *reads* the request — or worse, waits on
it — launders the grant out of sight.

This module computes per-function **parameter summaries** over the project
call graph, with a fixpoint for helper chains:

* ``releases`` — parameter indices the function releases or cancels on
  some path (directly, or by forwarding to a releasing callee);
* ``escapes`` — indices the function re-escapes (stores, returns, aliases,
  or forwards to an unresolved call): responsibility genuinely moves on;
* ``waits`` — indices the function waits on raw (``yield p``) without
  timeout/cancellation protection, directly or transitively.

Two whole-program checks consume them:

* **RES301/RES302 lift** — the acquire/release walk re-runs with an
  *escape oracle*: passing the request to a resolved callee that neither
  releases nor re-escapes it is no longer an ownership transfer, so leaks
  across helper calls surface.  Only findings the intraprocedural tier
  missed are reported.
* **FLT501 lift** — a repair-path function that hands its raw request to
  a helper whose parameter is in ``waits`` is flagged at the call site:
  the wait happens out of line, but an injected fault still strands the
  queued request.  It walks the same unprotected roots as the per-file
  rule (:func:`~repro.analysis.cfg.unprotected_nodes`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.callgraph import FunctionInfo, Project
from repro.analysis.cfg import (
    RELEASE_METHODS,
    analyse_function,
    names_in,
    repair_requests,
    try_cleans,
    unprotected_nodes,
)
from repro.analysis.linter import Violation

_MAX_ROUNDS = 12


@dataclass
class ParamSummary:
    """What one function does with each of its parameters."""

    releases: set = field(default_factory=set)
    escapes: set = field(default_factory=set)
    waits: set = field(default_factory=set)

    def key(self):
        return (frozenset(self.releases), frozenset(self.escapes),
                frozenset(self.waits))


@dataclass
class _Forward:
    """One call site forwarding a parameter to a callee parameter."""

    param: int
    callees: tuple
    callee_param: int
    protected: bool


class GrantSummaries:
    """Fixpoint computation of per-function parameter summaries."""

    def __init__(self, project: Project):
        self.project = project
        self.summaries: dict[str, ParamSummary] = {}
        self._forwards: dict[str, list[_Forward]] = {}

    def run(self) -> "GrantSummaries":
        for fn in self.project.functions.values():
            self._collect_direct(fn)
        for _ in range(_MAX_ROUNDS):
            if not self._propagate():
                break
        return self

    # ------------------------------------------------------------------
    def summary_of(self, qualname: str) -> ParamSummary | None:
        return self.summaries.get(qualname)

    def transfers(self, callees, param_idx: int) -> bool:
        """Whether handing a grant to ``param_idx`` of these resolved
        callees moves responsibility out of the caller."""
        for callee in callees:
            s = self.summaries.get(callee.qualname)
            if s is None:
                return True
            if param_idx in s.releases or param_idx in s.escapes:
                return True
        return False

    def waits_on(self, callees, param_idx: int) -> bool:
        return any(param_idx in self.summaries.get(c.qualname,
                                                   ParamSummary()).waits
                   for c in callees)

    # ------------------------------------------------------------------
    def _collect_direct(self, fn: FunctionInfo) -> None:
        summary = ParamSummary()
        params = {name: i for i, name in enumerate(fn.params)}
        for i, name in enumerate(fn.kwonly):
            params[name] = len(fn.params) + i
        collector = _DirectCollector(self, fn, params, summary)
        collector.walk(fn.node.body, protected=False)
        self.summaries[fn.qualname] = summary
        self._forwards[fn.qualname] = collector.forwards

    def _propagate(self) -> bool:
        changed = False
        for qual, forwards in self._forwards.items():
            summary = self.summaries[qual]
            before = summary.key()
            for fwd in forwards:
                if not fwd.callees:
                    summary.escapes.add(fwd.param)
                    continue
                if self.transfers(fwd.callees, fwd.callee_param):
                    if any(fwd.callee_param
                           in self.summaries.get(c.qualname,
                                                 ParamSummary()).releases
                           for c in fwd.callees):
                        summary.releases.add(fwd.param)
                    else:
                        summary.escapes.add(fwd.param)
                if not fwd.protected and \
                        self.waits_on(fwd.callees, fwd.callee_param):
                    summary.waits.add(fwd.param)
            if summary.key() != before:
                changed = True
        return changed


class _DirectCollector:
    """One statement walk of a function recording parameter events.

    Tracks try/finally-or-except *protection* with the FLT501 cleanup
    predicate (:func:`~repro.analysis.cfg.try_cleans`): inside a try whose
    cleanup cancels/releases the parameter, waits on it are handled.  The
    walk still enters protected bodies, because releases and escapes there
    count too."""

    def __init__(self, owner: GrantSummaries, fn: FunctionInfo,
                 params: dict, summary: ParamSummary):
        self.owner = owner
        self.fn = fn
        self.params = params
        self.summary = summary
        self.forwards: list[_Forward] = []

    # ------------------------------------------------------------------
    def walk(self, stmts, protected: bool) -> None:
        for stmt in stmts:
            self._stmt(stmt, protected)

    def _stmt(self, stmt: ast.stmt, protected: bool) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            # Capturing a param in a nested def moves responsibility.
            for name, idx in self.params.items():
                if names_in(stmt, name):
                    self.summary.escapes.add(idx)
            return
        if isinstance(stmt, ast.Try):
            inner = protected or try_cleans(stmt, self.params)
            self.walk(stmt.body, inner)
            for handler in stmt.handlers:
                self.walk(handler.body, protected)
            self.walk(stmt.orelse, protected)
            self.walk(stmt.finalbody, protected)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._escaping_names(stmt.value)
                self._expr_events(stmt.value, protected)
            return
        if isinstance(stmt, (ast.If, ast.While, ast.For)):
            self._expr_events(stmt.iter if isinstance(stmt, ast.For)
                              else stmt.test, protected)
            self.walk(stmt.body, protected)
            self.walk(stmt.orelse, protected)
            return
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._expr_events(item.context_expr, protected)
            self.walk(stmt.body, protected)
            return
        self._expr_events(stmt, protected)

    # ------------------------------------------------------------------
    def _expr_events(self, root, protected: bool) -> None:
        for node in ast.walk(root):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if isinstance(node, ast.Yield) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in self.params:
                if not protected:
                    self.summary.waits.add(self.params[node.value.id])
            elif isinstance(node, ast.Call):
                self._call_events(node, protected)
            elif isinstance(node, ast.Assign):
                if isinstance(node.value, ast.Name) \
                        and node.value.id in self.params:
                    self.summary.escapes.add(self.params[node.value.id])
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        self._escaping_names(target)
            elif isinstance(node, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
                self._escaping_names(node, shallow=True)

    def _call_events(self, call: ast.Call, protected: bool) -> None:
        func = call.func
        # Direct release: `p.release()` / `p.cancel()` / `recv.release(p)`.
        if isinstance(func, ast.Attribute) and func.attr in RELEASE_METHODS:
            if isinstance(func.value, ast.Name) \
                    and func.value.id in self.params:
                self.summary.releases.add(self.params[func.value.id])
            for arg in call.args:
                if isinstance(arg, ast.Name) and arg.id in self.params:
                    self.summary.releases.add(self.params[arg.id])
            return
        passed = [(pos, arg) for pos, arg in enumerate(call.args)
                  if isinstance(arg, ast.Name) and arg.id in self.params]
        passed_kw = [(kw.arg, kw.value) for kw in call.keywords
                     if kw.arg is not None
                     and isinstance(kw.value, ast.Name)
                     and kw.value.id in self.params]
        if not passed and not passed_kw:
            return
        callees = tuple(self.owner.project.resolve_call(self.fn, call))
        for _, arg in passed + passed_kw:
            param = self.params[arg.id]
            if not callees:
                self.summary.escapes.add(param)
                continue
            mapped = [idx for idx, expr in
                      Project.map_arguments(callees[0], call)
                      if expr is arg]
            if not mapped:
                self.summary.escapes.add(param)
                continue
            self.forwards.append(_Forward(param, callees, mapped[0],
                                          protected))

    def _escaping_names(self, node, shallow: bool = False) -> None:
        if shallow:
            for n in ast.iter_child_nodes(node):
                if isinstance(n, ast.Name) and n.id in self.params:
                    self.summary.escapes.add(self.params[n.id])
            return
        # `p.attr` is a read of the grant, not an escape of it; a bare
        # `p` (returned, stored, packed in a container) transfers it.
        reads = {id(n.value) for n in ast.walk(node)
                 if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name)}
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and n.id in self.params \
                    and id(n) not in reads:
                self.summary.escapes.add(self.params[n.id])


# ----------------------------------------------------------------------
# Whole-program checks built on the summaries
# ----------------------------------------------------------------------
class GrantEscapePass:
    """Summary-aware RES301/RES302 re-check plus the FLT501 lift."""

    def __init__(self, project: Project,
                 summaries: GrantSummaries | None = None):
        self.project = project
        self.summaries = summaries if summaries is not None \
            else GrantSummaries(project).run()

    def run(self) -> list[Violation]:
        out: list[Violation] = []
        for fn in self.project.functions.values():
            out.extend(self._lifted_res(fn))
            out.extend(self._lifted_flt(fn))
        out.sort(key=lambda v: (v.path, v.line, v.rule))
        return out

    # ------------------------------------------------------------------
    def _oracle(self, fn: FunctionInfo):
        def escape(call: ast.Call, var: str) -> bool:
            callees = self.project.resolve_call(fn, call)
            if not callees:
                return True  # unresolved: assume ownership transfer
            mapped = [idx for idx, expr in
                      Project.map_arguments(callees[0], call)
                      if isinstance(expr, ast.Name) and expr.id == var]
            if not mapped:
                return True  # *args forwarding etc.
            return self.summaries.transfers(callees, mapped[0])
        return escape

    def _lifted_res(self, fn: FunctionInfo):
        base_findings = analyse_function(fn.node)
        base: set = set()
        for f in base_findings:
            base.update(("RES301", line) for line in f.leak_exits)
            base.update(("RES302", line) for line in f.unprotected_waits)
        for finding in analyse_function(fn.node, self._oracle(fn)):
            line = finding.site.stmt.lineno
            for exit_line in finding.leak_exits:
                if ("RES301", exit_line) in base:
                    continue
                yield Violation(
                    "RES301", fn.path, line, finding.site.stmt.col_offset,
                    f"`{finding.site.var}` acquired here is not released on "
                    f"the path exiting at line {exit_line}: the helpers it "
                    "is passed to neither release nor take ownership of it "
                    f"(in `{fn.qualname}`)")
            for wait_line in finding.unprotected_waits:
                if ("RES302", wait_line) in base:
                    continue
                yield Violation(
                    "RES302", fn.path, wait_line, 0,
                    f"grant `{finding.site.var}` (line "
                    f"{finding.site.stmt.lineno}) is still held across this "
                    "`yield`: the helper it is passed to neither releases "
                    f"nor takes ownership of it (in `{fn.qualname}`)")

    # ------------------------------------------------------------------
    def _lifted_flt(self, fn: FunctionInfo):
        if fn.layer not in ("cluster", "faults"):
            return
        tracked = repair_requests(fn.node)
        if not tracked:
            return
        for node in unprotected_nodes(fn.node.body, tracked):
            if not isinstance(node, ast.Call):
                continue
            for arg in node.args:
                if not (isinstance(arg, ast.Name) and arg.id in tracked):
                    continue
                callees = self.project.resolve_call(fn, node)
                if not callees:
                    continue
                mapped = [idx for idx, expr in
                          Project.map_arguments(callees[0], node)
                          if expr is arg]
                if mapped and self.summaries.waits_on(callees, mapped[0]):
                    names = ", ".join(sorted(c.name for c in callees)[:3])
                    yield Violation(
                        "FLT501", fn.path, node.lineno, node.col_offset,
                        f"repair-path `{fn.name}` hands grant `{arg.id}` "
                        f"to `{names}` which waits on it with no "
                        "timeout/cancellation handling; an injected fault "
                        "interrupting that wait strands the queued request")
