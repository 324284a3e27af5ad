"""Cooperative-process race detection (RACE801/RACE802).

The DES engine is cooperative: a process runs atomically between yields,
so single-interval read-modify-writes can never race.  What *does* race —
and surfaces only as a mysterious bit-identity break when the event
schedule shifts — is state observed on one side of a yield and acted on
on the other:

* **RACE801 — stale snapshot**: a local variable snapshots shared mutable
  state (an attribute some concurrently-live process writes), an
  unprotected yield passes, and the stale snapshot is then *used*.  A
  crash that lands during the wait is invisible to the decision made from
  the snapshot (check-then-act).
* **RACE802 — cross-yield write pair**: one process lineage writes a
  shared location, yields, then writes it again with an operand captured
  before the first write (an inverse-restore, a delayed publish).  With a
  second writer interleaved between the two halves, the compose/invert
  pair nests improperly and the location never returns to its intended
  value.

Model
-----
Each *extent* is one process generator, linearized with its resolved
callees inlined (``yield from`` helpers run inline; plain calls to
non-generators run inline; callees in the ``sim``/``obs`` layers are
engine primitives and stay opaque).  ``env.process(child(...))`` forks a
*strand*: the child's events inherit the parent's bindings but run after
an implicit unprotected yield — exactly how a spawned process interleaves.

Shared locations are attribute names; one is *concurrently written* when
two different process extents write it, or a single multiply-spawnable
extent does.  A closure variable mutated by a nested function that
*escapes* (is passed around as a value — the callback-registration
idiom) is shared too: the callback fires from whatever extent triggers
it, so every reader races with it.  Shared-ness follows bare-name
arguments through calls and spawns.  Yields inside a ``with <resource>.request(...)`` block are
grant-protected and exempt (the owning-grant idiom).  Writes whose
right-hand side is rebuilt in the current interval (``x.f = fresh()``)
and commutative counters (``+=``/``-=``) are never flagged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.callgraph import FunctionInfo, Project
from repro.analysis.cfg import IntervalWalker, own_nodes
from repro.analysis.linter import Violation

#: Layers whose callees are engine/observer primitives: kept opaque (their
#: internal attribute writes are synchronization, not shared app state).
_OPAQUE_LAYERS = frozenset({"sim", "obs"})

#: Mutating container methods: a call through an attribute receiver is a
#: write to that attribute's object.
_MUTATORS = frozenset({
    "add", "remove", "discard", "append", "appendleft", "extend", "insert",
    "pop", "popleft", "update", "clear", "setdefault", "sort", "reverse",
})

#: Augmented ops flagged for RACE802 when their operand is stale.
#: Commutative-group counters (+=, -=, |=, &=, ^=) are conventional and
#: interleave safely; multiplicative/positional ops do not.
_NONCOMMUTATIVE = (ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
                   ast.LShift, ast.RShift, ast.MatMult)

#: Constructors establish object identity before any process can observe
#: it; their attribute writes are initialization, not shared-state racing.
_INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__"})

#: Builtins whose single-argument call materializes the elements of its
#: argument — reading a shared collection through one of these is a
#: snapshot, same as a comprehension over it.
_COPIERS = frozenset({"set", "frozenset", "list", "tuple", "sorted", "dict"})

_MAX_INLINE_DEPTH = 6
_MAX_STRANDS = 64


@dataclass
class _Snap:
    """A local variable holding a snapshot of shared mutable state."""

    interval: int
    attrs: frozenset
    line: int
    reported: bool = False


@dataclass
class _Write:
    """One recorded write to a shared location."""

    interval: int
    line: int
    path: str


class RacePass:
    """Run the cooperative-process race analysis over a project."""

    def __init__(self, project: Project):
        self.project = project
        self.concurrent_attrs: dict[str, set] = {}   # attr -> writer extents
        self.many: set = set()                       # multiply-spawnable
        self.shared_locals: set = set()              # (owner_qual, name)
        self._bound_cache: dict[str, frozenset] = {}
        self.violations: list[Violation] = []
        self._seen: set = set()

    # ------------------------------------------------------------------
    def run(self) -> list[Violation]:
        self._compute_concurrency()
        self._compute_shared_locals()
        for fn in self.project.functions.values():
            if fn.is_process:
                strand = _Strand(self, fn)
                strand.bind_params(fn, closure=False)
                strand.walk_function(fn)
        self.violations.sort(key=lambda v: (v.path, v.line, v.rule))
        return self.violations

    def report(self, rule: str, path: str, line: int, col: int,
               message: str) -> None:
        key = (rule, path, line)
        if key not in self._seen:
            self._seen.add(key)
            self.violations.append(Violation(rule, path, line, col, message))

    # ------------------------------------------------------------------
    # which attributes are concurrently written
    # ------------------------------------------------------------------
    def _compute_concurrency(self) -> None:
        self._compute_many()
        direct: dict[str, set] = {}
        for fn in self.project.functions.values():
            if fn.layer in _OPAQUE_LAYERS or fn.name in _INIT_METHODS:
                continue
            attrs = _direct_attr_writes(fn.node)
            if attrs:
                direct[fn.qualname] = attrs
        writers: dict[str, set] = {}
        for fn in self.project.functions.values():
            if not fn.is_process:
                continue
            for reached in self._reachable(fn):
                for attr in direct.get(reached, ()):
                    writers.setdefault(attr, set()).add(fn.qualname)
        self.concurrent_attrs = {
            attr: extents for attr, extents in writers.items()
            if len(extents) >= 2
            or any(e in self.many for e in extents)}

    def _reachable(self, fn: FunctionInfo) -> set:
        out = {fn.qualname}
        todo = [fn]
        by_caller: dict[str, list] = {}
        for site in self.project.call_sites():
            by_caller.setdefault(site.caller.qualname, []).append(site)
        while todo:
            cur = todo.pop()
            for site in by_caller.get(cur.qualname, ()):
                for callee in site.callees:
                    if callee.layer in _OPAQUE_LAYERS:
                        continue
                    if callee.qualname not in out:
                        out.add(callee.qualname)
                        todo.append(callee)
        return out

    def _compute_shared_locals(self) -> None:
        """Closure variables mutated by escaping nested functions.

        When a nested function writes a variable of an enclosing scope and
        is itself passed around as a value (``faults.on_disk_failure(cb)``),
        the write fires from whatever process triggers the callback — the
        variable is shared state for every strand that can read it."""
        for g in self.project.functions.values():
            if g.parent is None:
                continue
            written = self._enclosing_writes(g)
            if written and self._escapes(g):
                for name in written:
                    scope = g.parent
                    while scope is not None:
                        if name in self.bound_names(scope):
                            self.shared_locals.add((scope.qualname, name))
                            break
                        scope = scope.parent

    def _enclosing_writes(self, g: FunctionInfo) -> set:
        """Names of enclosing scopes that ``g`` mutates."""
        local = self.bound_names(g)
        out: set = set()
        for node in own_nodes(g.node):
            if isinstance(node, ast.Nonlocal):
                out.update(node.names)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATORS \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id not in local:
                out.add(node.func.value.id)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, ast.Subscript) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id not in local:
                        out.add(target.value.id)
        return out

    def _escapes(self, g: FunctionInfo) -> bool:
        """Whether ``g`` is referenced as a value (not just called)."""
        inside = set()
        for node in ast.walk(g.node):
            inside.add(id(node))
        called: set = set()
        for node in ast.walk(g.module.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                called.add(id(node.func))
        for node in ast.walk(g.module.tree):
            if isinstance(node, ast.Name) and node.id == g.name \
                    and isinstance(node.ctx, ast.Load) \
                    and id(node) not in inside \
                    and id(node) not in called:
                return True
        return False

    def _compute_many(self) -> None:
        """Multiply-invoked functions and multiply-spawnable processes."""
        multi_invoked: set = set()
        for _ in range(len(self.project.modules) + 2):
            changed = False
            for site in self.project.call_sites():
                hot = site.in_loop \
                    or site.caller.qualname in multi_invoked
                if not hot:
                    continue
                for callee in site.callees:
                    if callee.qualname not in multi_invoked:
                        multi_invoked.add(callee.qualname)
                        changed = True
            if not changed:
                break
        spawns: dict[str, list] = {}
        for site in self.project.spawn_sites:
            if site.target is not None:
                spawns.setdefault(site.target.qualname, []).append(site)
        for qual, sites in spawns.items():
            if len(sites) >= 2 or any(
                    s.in_loop or s.caller.qualname in multi_invoked
                    for s in sites):
                self.many.add(qual)

    # ------------------------------------------------------------------
    def bound_names(self, fn: FunctionInfo) -> frozenset:
        cached = self._bound_cache.get(fn.qualname)
        if cached is not None:
            return cached
        names = set(fn.params) | set(fn.kwonly)
        node = fn.node
        if node.args.vararg:
            names.add(node.args.vararg.arg)
        if node.args.kwarg:
            names.add(node.args.kwarg.arg)
        for n in own_nodes(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                names.add(n.id)
            elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                pass
        for n in ast.walk(node):
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and n is not node:
                names.add(n.name)
        out = frozenset(names)
        self._bound_cache[fn.qualname] = out
        return out

    def resolve_key(self, fn: FunctionInfo, name: str):
        """(owner_qualname, name) for a variable visible in ``fn``;
        ``None`` when it is a module global / builtin."""
        scope = fn
        while scope is not None:
            if name in self.bound_names(scope):
                return (scope.qualname, name)
            scope = scope.parent
        return None


def _direct_attr_writes(fn: ast.AST) -> set:
    """Attribute names written (assigned, augmented, or mutated through a
    container method) directly in one function body."""
    out: set = set()
    for node in own_nodes(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                _attr_target(target, out)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            _attr_target(node.target, out)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATORS \
                and isinstance(node.func.value, ast.Attribute):
            out.add(node.func.value.attr)
    return out


def _attr_target(target: ast.expr, out: set) -> None:
    if isinstance(target, ast.Attribute):
        out.add(target.attr)
    elif isinstance(target, ast.Subscript) \
            and isinstance(target.value, ast.Attribute):
        out.add(target.value.attr)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _attr_target(elt, out)


def _lexical_attr_reads(expr: ast.expr) -> set:
    """Attribute names loaded lexically in one expression."""
    out: set = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


#: Accessor methods that return a *contained live object* rather than a
#: value derived from the container's current contents.
_ACCESSORS = frozenset({"get", "setdefault"})


def _is_live_alias(expr: ast.expr) -> bool:
    """True when *expr* evaluates to the shared object itself (or a live
    sub-object of it) rather than a value computed *from* it.

    ``x = self.shared`` or ``x = self.shared.setdefault(k, [])`` bind an
    alias — later reads through ``x`` see current state, so they are not
    stale snapshots.  By contrast a comprehension, a copier call or any
    arithmetic over the shared state materialises a value that freezes at
    bind time, which is exactly what RACE801 tracks.
    """
    if isinstance(expr, ast.Attribute):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute) \
            and expr.func.attr in _ACCESSORS:
        return True
    return False


def _operand_names(expr: ast.expr) -> set:
    """Name loads in an expression, excluding callables: the *values* the
    expression is built from.  ``f(x)`` contributes ``x`` but not ``f``;
    ``env.event()`` contributes nothing (fresh result)."""
    out: set = set()
    skip: set = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            for sub in ast.walk(node.func):
                skip.add(id(sub))
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and id(node) not in skip:
            out.add(node.id)
    return out


class _Strand(IntervalWalker):
    """One linearized execution strand of a process extent."""

    def __init__(self, owner: RacePass, root: FunctionInfo,
                 parent: "_Strand | None" = None):
        super().__init__()
        self.owner = owner
        self.root = root
        self.fn_stack: list[FunctionInfo] = []
        self.inline_stack: list[str] = []
        if parent is not None:
            self.interval = parent.interval
            self.yield_flags = list(parent.yield_flags)
            self.binds = dict(parent.binds)
            self.snaps = dict(parent.snaps)
            self.shared_alias = set(parent.shared_alias)
            self.writes = {loc: list(ws)
                           for loc, ws in parent.writes.items()}
            self.strand_count = parent.strand_count
            self.inline_stack = list(parent.inline_stack)
        else:
            self.binds: dict = {}       # (owner_qual, name) -> bind interval
            self.snaps: dict = {}       # (owner_qual, name) -> _Snap
            self.shared_alias: set = set()  # keys aliasing shared locals
            self.writes: dict = {}      # attr -> [_Write, ...]
            self.strand_count = [0]

    # -- scope helpers --------------------------------------------------
    @property
    def fn(self) -> FunctionInfo:
        return self.fn_stack[-1]

    def bind_params(self, fn: FunctionInfo, closure: bool) -> None:
        for name in list(fn.params) + list(fn.kwonly):
            key = (fn.qualname, name)
            self.binds[key] = self.interval
            self.snaps.pop(key, None)
            self.shared_alias.discard(key)
        del closure

    def _pass_args(self, callee: FunctionInfo, call: ast.Call,
                   into: "_Strand") -> None:
        """Carry snapshot/shared status of bare-name arguments onto the
        callee's parameters (evaluated in *this* strand's scope)."""
        for idx, arg in Project.map_arguments(callee, call):
            if not isinstance(arg, ast.Name):
                continue
            if idx < len(callee.params):
                pname = callee.params[idx]
            else:
                pname = callee.kwonly[idx - len(callee.params)]
            src = self._key(arg.id)
            if src is None:
                continue
            dst = (callee.qualname, pname)
            if src in self.snaps:
                into.snaps[dst] = self.snaps[src]
            if src in self.owner.shared_locals or src in self.shared_alias:
                into.shared_alias.add(dst)

    def walk_function(self, fn: FunctionInfo) -> None:
        self.fn_stack.append(fn)
        self.inline_stack.append(fn.qualname)
        try:
            self.walk_body(fn.node.body)
        finally:
            self.inline_stack.pop()
            self.fn_stack.pop()

    def _key(self, name: str):
        return self.owner.resolve_key(self.fn, name)

    def _is_shared_name(self, name: str) -> bool:
        key = self._key(name)
        return key is not None and (key in self.owner.shared_locals
                                    or key in self.shared_alias)

    def _shared_name_reads(self, value: ast.expr) -> set:
        """Shared closure collections whose *elements* this expression
        materializes: comprehension iteration or a copier builtin.  A mere
        membership test or ``len()`` reads the live collection and is not
        a snapshot."""
        out: set = set()
        for node in ast.walk(value):
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                 ast.GeneratorExp)):
                for gen in node.generators:
                    if isinstance(gen.iter, ast.Name) \
                            and self._is_shared_name(gen.iter.id):
                        out.add(gen.iter.id)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id in _COPIERS and node.args \
                    and isinstance(node.args[0], ast.Name) \
                    and self._is_shared_name(node.args[0].id):
                out.add(node.args[0].id)
        return out

    def _bind_interval(self, name: str) -> int:
        key = self._key(name)
        if key is None:
            return 0  # module global: treat as bound at extent start
        # Unbound-in-walk closure names were captured before this strand
        # started running: stale across any yield.
        return self.binds.get(key, -1)

    # -- IntervalWalker hooks -------------------------------------------
    def visit_expr(self, expr: ast.expr) -> None:
        self._eval(expr)

    def visit_for_target(self, stmt: ast.For) -> None:
        self._bind_target_names(stmt.target)

    def visit_with_vars(self, stmt: ast.With) -> None:
        for item in stmt.items:
            if item.optional_vars is not None:
                self._bind_target_names(item.optional_vars)

    def visit_assign(self, stmt) -> None:
        value = getattr(stmt, "value", None)
        if value is not None:
            self._eval(value)
        shared_attrs = frozenset()
        if value is not None and not _is_live_alias(value):
            shared_attrs = frozenset(
                (_lexical_attr_reads(value) & set(self.owner.concurrent_attrs))
                | self._shared_name_reads(value))
        if isinstance(stmt, ast.AugAssign):
            self._write_target(stmt.target, stmt, value, op=stmt.op)
            return
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        for target in targets:
            self._assign_target(target, stmt, value, shared_attrs)

    # -- assignment handling --------------------------------------------
    def _assign_target(self, target, stmt, value, shared_attrs) -> None:
        if isinstance(target, ast.Name):
            key = self._key(target.id) or (self.fn.qualname, target.id)
            self.binds[key] = self.interval
            self.snaps.pop(key, None)
            self.shared_alias.discard(key)
            if isinstance(value, ast.Name):
                # Bare-name alias: the new name carries whatever shared
                # status / staleness the old one had.
                src = self._key(value.id)
                if src is not None:
                    if src in self.snaps:
                        self.snaps[key] = self.snaps[src]
                    if self._is_shared_name(value.id):
                        self.shared_alias.add(key)
            if shared_attrs:
                self.snaps[key] = _Snap(self.interval, shared_attrs,
                                        stmt.lineno)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, stmt, value, shared_attrs)
            return
        if isinstance(target, ast.Starred):
            self._assign_target(target.value, stmt, value, shared_attrs)
            return
        self._write_target(target, stmt, value, op=None)

    def _write_target(self, target, stmt, value, op) -> None:
        """A write through an attribute/subscript: RACE802 candidate."""
        if isinstance(target, ast.Name):
            # Augmented assign to a local: a use plus a rebind.
            self._use_name(target.id, target)
            key = self._key(target.id) or (self.fn.qualname, target.id)
            self.binds.setdefault(key, self.interval)
            return
        loc = self._loc_of(target)
        if loc is None:
            return
        self._record_write(loc, stmt, value, op)

    def _loc_of(self, target) -> str | None:
        """The shared-location name a write lands on, or None if the
        target is rooted at a variable bound inside this strand (a
        per-instance object can't race with itself)."""
        if isinstance(target, ast.Attribute):
            return target.attr
        if isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Attribute):
                return base.attr
            if isinstance(base, ast.Name):
                key = self._key(base.id)
                if key is not None and key in self.binds \
                        and not self._is_param(key):
                    return None  # strand-local container
                return base.id
        return None

    def _is_param(self, key) -> bool:
        qual, name = key
        fn = self.owner.project.functions.get(qual)
        return fn is not None and (name in fn.params or name in fn.kwonly)

    def _record_write(self, loc: str, stmt, value, op) -> None:
        prior = self.writes.setdefault(loc, [])
        if self._op_flagged(op, value) and loc in self.owner.concurrent_attrs:
            stale = self._stale_operands(value, prior)
            if stale is not None:
                name, w1 = stale
                self.owner.report(
                    "RACE802", self.fn.path, stmt.lineno, stmt.col_offset,
                    f"`{loc}` is written here from `{name}`, captured "
                    f"before the write at line {w1.line} and at least one "
                    "unprotected yield ago; with concurrent writers the "
                    "compose/restore pair nests improperly — recompute "
                    "from current state or hold the owning grant "
                    f"(writers: {self._writer_names(loc)})")
        prior.append(_Write(self.interval, stmt.lineno, self.fn.path))

    def _op_flagged(self, op, value) -> bool:
        # Plain assignments publish a fresh value — overwriting is the
        # *intent*, so only compose/invert augmented ops are candidates.
        return op is not None and value is not None \
            and isinstance(op, _NONCOMMUTATIVE)

    def _stale_operands(self, value, prior):
        """A (name, earlier_write) pair proving the RHS was captured at or
        before a previous write with an unprotected yield since."""
        if value is None:
            return None
        for name in sorted(_operand_names(value)):
            bound = self._bind_interval(name)
            for w1 in prior:
                if bound <= w1.interval < self.interval \
                        and self.crossed_unprotected(w1.interval):
                    return name, w1
        return None

    def _writer_names(self, loc: str) -> str:
        extents = sorted(self.owner.concurrent_attrs.get(loc, ()))
        short = [q.rsplit(".", 1)[-1] for q in extents[:3]]
        return ", ".join(short) + ("…" if len(extents) > 3 else "")

    def _bind_target_names(self, target) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                key = self._key(node.id) or (self.fn.qualname, node.id)
                self.binds[key] = self.interval
                self.snaps.pop(key, None)

    # -- expression events ----------------------------------------------
    def _use_name(self, name: str, node) -> None:
        key = self._key(name)
        if key is None:
            return
        snap = self.snaps.get(key)
        if snap is None or snap.reported:
            return
        if self.crossed_unprotected(snap.interval):
            snap.reported = True
            attrs = ", ".join(f"`{a}`" for a in sorted(snap.attrs))
            self.owner.report(
                "RACE801", self.fn.path, node.lineno, node.col_offset,
                f"`{name}` snapshots shared state ({attrs}) at line "
                f"{snap.line}, before an unprotected yield; by this use "
                "the snapshot may be stale — recompute it after the wait "
                "or hold the owning grant across it")

    def _eval(self, node: ast.expr) -> None:
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                self._use_name(node.id, node)
            return
        if isinstance(node, ast.Attribute):
            self._eval(node.value)
            return
        if isinstance(node, ast.Call):
            self._eval_call(node)
            return
        if isinstance(node, ast.Yield):
            if node.value is not None:
                self._eval(node.value)
            self.boundary()
            return
        if isinstance(node, ast.YieldFrom):
            self._eval_yield_from(node)
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            for gen in node.generators:
                self._eval(gen.iter)
                self._bind_target_names(gen.target)
                for cond in gen.ifs:
                    self._eval(cond)
            if isinstance(node, ast.DictComp):
                self._eval(node.key)
                self._eval(node.value)
            else:
                self._eval(node.elt)
            return
        if isinstance(node, ast.Lambda):
            return
        if isinstance(node, ast.NamedExpr):
            self._eval(node.value)
            self._bind_target_names(node.target)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child)

    # -- calls: mutators, spawns, inlining ------------------------------
    def _eval_call(self, call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            self._eval(func.value)
        for arg in call.args:
            if not (isinstance(func, ast.Attribute)
                    and func.attr == "process"
                    and arg is call.args[0] and isinstance(arg, ast.Call)):
                self._eval(arg)
        for kw in call.keywords:
            self._eval(kw.value)

        # Mutating method through an attribute receiver: a write.
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS \
                and isinstance(func.value, ast.Attribute):
            loc = func.value.attr
            self.writes.setdefault(loc, []).append(
                _Write(self.interval, call.lineno, self.fn.path))

        # Spawn: fork a strand for the child process.
        if isinstance(func, ast.Attribute) and func.attr == "process" \
                and call.args and isinstance(call.args[0], ast.Call):
            inner = call.args[0]
            for arg in inner.args:
                self._eval(arg)
            for kw in inner.keywords:
                self._eval(kw.value)
            target = self._resolve_single(inner)
            if target is not None and target.is_generator:
                self._fork(target, inner)
            return

        callee = self._resolve_single(call)
        if callee is not None and not callee.is_generator:
            self._inline(callee, call)

    def _eval_yield_from(self, node: ast.YieldFrom) -> None:
        value = node.value
        if isinstance(value, ast.Call):
            callee = self._resolve_single(value)
            if isinstance(value.func, ast.Attribute):
                self._eval(value.func.value)
            for arg in value.args:
                self._eval(arg)
            for kw in value.keywords:
                self._eval(kw.value)
            if callee is not None and callee.is_generator:
                self._inline(callee, value)
                return
        else:
            self._eval(value)
        # Unresolvable delegation: assume at least one yield inside.
        self.boundary()

    def _resolve_single(self, call: ast.Call) -> FunctionInfo | None:
        candidates = self.owner.project.resolve_call(self.fn, call)
        return candidates[0] if len(candidates) == 1 else None

    def _inlinable(self, callee: FunctionInfo) -> bool:
        return (callee.layer not in _OPAQUE_LAYERS
                and callee.qualname not in self.inline_stack
                and len(self.inline_stack) < _MAX_INLINE_DEPTH)

    def _inline(self, callee: FunctionInfo, call: ast.Call) -> None:
        if not self._inlinable(callee):
            if callee.is_generator:
                self.boundary()  # opaque generator: it will yield
            return
        self.bind_params(callee, closure=False)
        self._pass_args(callee, call, self)
        self.walk_function(callee)

    def _fork(self, target: FunctionInfo, call: ast.Call) -> None:
        if not self._inlinable(target) \
                or self.strand_count[0] >= _MAX_STRANDS:
            return
        self.strand_count[0] += 1
        child = _Strand(self.owner, self.root, parent=self)
        child.bind_params(target, closure=False)
        self._pass_args(target, call, child)
        # The child starts running only after the engine schedules it: an
        # implicit unprotected yield separates the spawn from its body.
        child._protect_depth = 0
        child.yield_flags.append(False)
        child.interval += 1
        child.walk_function(target)