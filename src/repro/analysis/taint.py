"""Whole-program determinism taint (DET701/702/703).

SIM101/SIM102 flag a nondeterminism *source* at the call site, but only in
layers where any source is already forbidden.  This pass instead follows
the tainted **value** through assignments, containers, returns and calls
until it reaches a **sink** that feeds simulated behaviour — at which point
the laundering helper chain is irrelevant and the finding is real in any
layer:

* DET701 — tainted value reaches event scheduling (``*.timeout(...)``,
  ``*.schedule(...)``) or a resource request priority (``*.request(...)``);
* DET702 — tainted value reaches a metric name or label
  (``metrics.counter/gauge/histogram(...)`` arguments);
* DET703 — tainted value reaches scenario parameters (``Scenario(...)``).

Two taint kinds flow through the lattice:

* ``value`` — wall clock (``time.time``, ``perf_counter``, ...), unseeded
  RNG, ``os.environ``/``os.getenv``, ``id()``;
* ``order`` — iteration order of an unordered ``set``/``frozenset``.
  Order-insensitive aggregations (``sorted``, ``len``, ``sum``, ``min``,
  ``max``, ``any``, ``all``) sanitize *order* taint and only that: no
  amount of arithmetic launders a wall-clock read.

Function summaries (taint returned, params copied to the return value,
params flowing into a sink) are computed to fixpoint over the call graph,
so ``schedule_at(jitter())`` is caught even when ``jitter()`` hides
``time.time()`` two layers down.  Unresolved calls conservatively pass
their argument taint through to their result.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.callgraph import FunctionInfo, Project
from repro.analysis.cfg import dotted_name
from repro.analysis.linter import Violation
from repro.analysis.rules import _WALL_CLOCK_CALLS

#: kind -> human label.  Kinds are "value", "order", or ("param", index).
Taint = dict

_ORDER_SANITIZERS = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset"})

_RANDOM_GLOBALS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "expovariate", "normalvariate",
    "betavariate", "paretovariate", "lognormvariate", "triangular",
    "getrandbits", "randbytes",
})

#: Sink method names -> (rule, sink description).
_SCHED_SINKS = {
    "timeout": ("DET701", "event scheduling (timeout delay)"),
    "schedule": ("DET701", "event scheduling"),
    "request": ("DET701", "resource request priority"),
}
_METRIC_SINKS = frozenset({"counter", "gauge", "histogram"})

#: Container methods whose argument taints the receiver.
_CONTAINER_WRITES = frozenset(
    {"append", "add", "insert", "extend", "update", "setdefault",
     "appendleft", "push"})


def _merge(*taints: Taint) -> Taint:
    out: Taint = {}
    for t in taints:
        for kind, label in t.items():
            out.setdefault(kind, label)
    return out


def _real(taint: Taint) -> Taint:
    return {k: v for k, v in taint.items() if isinstance(k, str)}


def _symbolic(taint: Taint):
    return [(k[1], v) for k, v in taint.items() if isinstance(k, tuple)]


@dataclass
class FnSummary:
    """Interprocedural taint behaviour of one function."""

    returns: Taint = field(default_factory=dict)       # real kinds only
    param_to_return: set = field(default_factory=set)  # param indices
    #: (param_index, rule, sink description, where) — a tainted argument
    #: at this position eventually reaches a sink inside (or below) this
    #: function.
    param_sinks: list = field(default_factory=list)

    def key(self):
        return (tuple(sorted(self.returns)),
                tuple(sorted(self.param_to_return)),
                tuple(sorted((i, r, s) for i, r, s, _ in self.param_sinks)))


class TaintPass:
    """Run the determinism-taint analysis over a linked :class:`Project`."""

    MAX_ROUNDS = 8

    def __init__(self, project: Project):
        self.project = project
        self.summaries: dict[str, FnSummary] = {}

    # ------------------------------------------------------------------
    def run(self) -> list[Violation]:
        for qual in self.project.functions:
            self.summaries[qual] = FnSummary()
        for _ in range(self.MAX_ROUNDS):
            changed = False
            for fn in self.project.functions.values():
                summary, _ = self._analyse(fn, report=False)
                if summary.key() != self.summaries[fn.qualname].key():
                    self.summaries[fn.qualname] = summary
                    changed = True
            if not changed:
                break
        violations: list[Violation] = []
        seen: set[tuple] = set()
        for fn in self.project.functions.values():
            _, found = self._analyse(fn, report=True)
            for v in found:
                key = (v.rule, v.path, v.line, v.col, v.message)
                if key not in seen:
                    seen.add(key)
                    violations.append(v)
        return violations

    # ------------------------------------------------------------------
    def _analyse(self, fn: FunctionInfo, report: bool):
        walker = _FnWalker(self, fn, report)
        walker.walk()
        return walker.summary, walker.violations


class _FnWalker:
    """Forward taint walk of one function body.

    Branch bodies are walked in sequence against one shared environment;
    since taint only ever grows, the result over-approximates the union of
    paths.  Loop bodies are walked twice so taint created late in an
    iteration reaches uses early in the next one.
    """

    def __init__(self, owner: TaintPass, fn: FunctionInfo, report: bool):
        self.owner = owner
        self.fn = fn
        self.report = report
        self.summary = FnSummary()
        self.violations: list[Violation] = []
        self.env: dict[str, Taint] = {}
        for i, name in enumerate(fn.params):
            self.env[name] = {("param", i): name}
        for j, name in enumerate(fn.kwonly):
            self.env[name] = {("param", len(fn.params) + j): name}

    # -- statement walk ------------------------------------------------
    def walk(self) -> None:
        self._walk_body(self.fn.node.body)

    def _walk_body(self, stmts) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested defs are separate FunctionInfos
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._assign(stmt)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                taint = self._eval(stmt.value)
                self.summary.returns = _merge(self.summary.returns,
                                              _real(taint))
                for idx, _ in _symbolic(taint):
                    self.summary.param_to_return.add(idx)
            return
        if isinstance(stmt, ast.For):
            self._bind_target(stmt.target, self._iter_taint(stmt.iter))
            for _ in range(2):
                self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self._eval(stmt.test)
            for _ in range(2):
                self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
            return
        if isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
            return
        if isinstance(stmt, ast.Try):
            self._walk_body(stmt.body)
            for handler in stmt.handlers:
                self._walk_body(handler.body)
            self._walk_body(stmt.orelse)
            self._walk_body(stmt.finalbody)
            return
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                taint = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, taint)
            self._walk_body(stmt.body)
            return
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
            return
        # Everything else (pass, import, global, ...) carries no taint,
        # but nested expressions may still contain sinks.
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, ast.expr):
                self._eval(node)

    def _assign(self, stmt) -> None:
        value = getattr(stmt, "value", None)
        taint = self._eval(value) if value is not None else {}
        if isinstance(stmt, ast.AugAssign):
            taint = _merge(taint, self._eval_load(stmt.target))
            self._bind_target(stmt.target, taint)
            return
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        for target in targets:
            self._bind_target(target, taint)

    def _bind_target(self, target: ast.expr, taint: Taint) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = dict(taint)
        elif isinstance(target, ast.Attribute):
            dotted = dotted_name(target)
            if dotted is not None:
                self.env[dotted] = _merge(self.env.get(dotted, {}), taint)
        elif isinstance(target, ast.Subscript):
            # Storing a tainted element taints the whole container.
            base = target.value
            if isinstance(base, ast.Name):
                self.env[base.id] = _merge(self.env.get(base.id, {}), taint)
            else:
                dotted = dotted_name(base)
                if dotted is not None:
                    self.env[dotted] = _merge(self.env.get(dotted, {}), taint)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, taint)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, taint)

    # -- expression evaluation -----------------------------------------
    def _eval_load(self, node: ast.expr) -> Taint:
        """Taint of an expression read without re-triggering sinks."""
        if isinstance(node, ast.Name):
            return self.env.get(node.id, {})
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            stored = self.env.get(dotted, {}) if dotted else {}
            return _merge(stored, self._eval_load(node.value))
        if isinstance(node, ast.Subscript):
            return self._eval_load(node.value)
        return {}

    def _eval(self, node: ast.expr | None) -> Taint:
        if node is None:
            return {}
        if isinstance(node, ast.Name):
            return self.env.get(node.id, {})
        if isinstance(node, ast.Constant):
            return {}
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted == "os.environ":
                return {"value": "`os.environ`"}
            stored = self.env.get(dotted, {}) if dotted else {}
            return _merge(stored, self._eval(node.value))
        if isinstance(node, ast.Subscript):
            base = self._eval(node.value)
            self._eval(node.slice)
            return base
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, (ast.BinOp,)):
            return _merge(self._eval(node.left), self._eval(node.right))
        if isinstance(node, ast.BoolOp):
            return _merge(*[self._eval(v) for v in node.values])
        if isinstance(node, ast.Compare):
            return _merge(self._eval(node.left),
                          *[self._eval(c) for c in node.comparators])
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return _merge(self._eval(node.body), self._eval(node.orelse))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return _merge(*[self._eval(e) for e in node.elts])
        if isinstance(node, ast.Dict):
            parts = [self._eval(k) for k in node.keys if k is not None]
            parts += [self._eval(v) for v in node.values]
            return _merge(*parts) if parts else {}
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return self._eval_comp(node)
        if isinstance(node, ast.JoinedStr):
            return _merge(*[self._eval(v) for v in node.values]) \
                if node.values else {}
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                self._eval(node.value)
            return {}
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.Lambda):
            return {}
        if isinstance(node, ast.NamedExpr):
            taint = self._eval(node.value)
            self._bind_target(node.target, taint)
            return taint
        return {}

    def _eval_comp(self, node) -> Taint:
        taint: Taint = {}
        for gen in node.generators:
            self._bind_target(gen.target, self._iter_taint(gen.iter))
            for cond in gen.ifs:
                self._eval(cond)
        if isinstance(node, ast.DictComp):
            taint = _merge(self._eval(node.key), self._eval(node.value))
        else:
            taint = self._eval(node.elt)
        return taint

    def _iter_taint(self, it: ast.expr) -> Taint:
        """Taint a loop variable picks up from its iterable."""
        taint = dict(self._eval(it))
        if self._is_set_expr(it):
            taint.setdefault("order", "set iteration order")
        return taint

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))

    # -- calls: sources, sanitizers, sinks, summaries ------------------
    def _eval_call(self, call: ast.Call) -> Taint:
        arg_taints = [self._eval(a) for a in call.args]
        kw_taints = [self._eval(kw.value) for kw in call.keywords]
        all_args = _merge(*(arg_taints + kw_taints)) \
            if (arg_taints or kw_taints) else {}
        dotted = dotted_name(call.func)

        source = self._source_taint(call, dotted)
        if source:
            return _merge(source, all_args)

        if isinstance(call.func, ast.Name) \
                and call.func.id in _ORDER_SANITIZERS:
            return {k: v for k, v in all_args.items() if k != "order"}

        self._check_sinks(call, dotted, arg_taints, kw_taints)

        callees = self.owner.project.resolve_call(self.fn, call)
        if callees:
            taint_by_expr = {id(a): t for a, t in zip(call.args, arg_taints)}
            taint_by_expr.update(
                {id(kw.value): t for kw, t in zip(call.keywords, kw_taints)})
            out: Taint = {}
            for callee in callees:
                summary = self.owner.summaries.get(callee.qualname)
                if summary is None:
                    continue
                out = _merge(out, dict(summary.returns))
                pairs = Project.map_arguments(callee, call)
                for idx, arg in pairs:
                    arg_taint = taint_by_expr.get(id(arg), {})
                    if not arg_taint:
                        continue
                    if idx in summary.param_to_return:
                        out = _merge(out, arg_taint)
                    for (p_idx, rule, sink, where) in summary.param_sinks:
                        if p_idx != idx:
                            continue
                        self._sink_hit(
                            rule, call, arg_taint,
                            f"{sink} inside `{callee.qualname}` ({where})")
            return out

        # Unknown callee: taint flows through (arguments and receiver).
        recv = self._eval(call.func.value) \
            if isinstance(call.func, ast.Attribute) else {}
        if isinstance(call.func, ast.Attribute) \
                and call.func.attr in _CONTAINER_WRITES \
                and isinstance(call.func.value, ast.Name) and all_args:
            name = call.func.value.id
            self.env[name] = _merge(self.env.get(name, {}), all_args)
        return _merge(all_args, recv)

    def _source_taint(self, call: ast.Call, dotted: str | None) -> Taint:
        if dotted in _WALL_CLOCK_CALLS:
            return {"value": f"`{dotted}()`"}
        if dotted == "os.getenv":
            return {"value": "`os.getenv()`"}
        if isinstance(call.func, ast.Name) and call.func.id == "id":
            return {"value": "`id()`"}
        if dotted is not None and dotted.startswith("random.") \
                and dotted.count(".") == 1:
            attr = dotted.split(".", 1)[1]
            if attr in _RANDOM_GLOBALS:
                return {"value": f"global RNG `{dotted}()`"}
            if attr == "Random" and not call.args and not call.keywords:
                return {"value": "unseeded `random.Random()`"}
        if dotted in ("np.random.default_rng", "numpy.random.default_rng") \
                and not call.args and not call.keywords:
            return {"value": "unseeded `default_rng()`"}
        return {}

    def _check_sinks(self, call: ast.Call, dotted: str | None,
                     arg_taints, kw_taints) -> None:
        rule_sink = self._sink_of(call, dotted)
        if rule_sink is None:
            return
        rule, sink = rule_sink
        for taint, arg in zip(arg_taints, call.args):
            if taint:
                self._sink_hit(rule, arg, taint, sink)
        for taint, kw in zip(kw_taints, call.keywords):
            if taint:
                self._sink_hit(rule, kw.value, taint, sink)

    def _sink_of(self, call: ast.Call,
                 dotted: str | None) -> tuple[str, str] | None:
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr in _SCHED_SINKS:
                return _SCHED_SINKS[func.attr]
            if func.attr in _METRIC_SINKS:
                chain = dotted_name(func.value)
                parts = chain.lower().split(".") if chain else []
                if any("metric" in p or "registry" in p or p == "obs"
                       for p in parts):
                    return ("DET702", f"metric name/label "
                                      f"(`{chain}.{func.attr}`)")
            if func.attr == "Scenario":
                return ("DET703", "scenario parameters")
        elif isinstance(func, ast.Name) and func.id == "Scenario":
            return ("DET703", "scenario parameters")
        return None

    def _sink_hit(self, rule: str, node: ast.AST, taint: Taint,
                  sink: str) -> None:
        real = _real(taint)
        if real:
            if self.report:
                kind = next(iter(sorted(real)))
                self.violations.append(Violation(
                    rule, self.fn.path, node.lineno, node.col_offset,
                    f"nondeterministic {kind} from {real[kind]} reaches "
                    f"{sink}; thread a seeded/deterministic value instead "
                    f"(in `{self.fn.qualname}`)"))
        for idx, pname in _symbolic(taint):
            entry = (idx, rule, sink, f"arg `{pname}`")
            if entry not in self.summary.param_sinks:
                self.summary.param_sinks.append(entry)
