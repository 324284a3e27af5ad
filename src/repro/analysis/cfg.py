"""Control-flow walk for resource acquire/release pairing (RES301/RES302).

The analysis is a path-sensitive abstract interpretation over a function's
statements.  For each acquire site (``req = X.request(...)`` or
``.acquire(...)``) the tracked request walks a tiny state machine:

    NONE --request()--> PENDING --yield req--> OPEN --release(req)--> CLOSED

* **RES301** fires when any path reaches a function exit (fall-through,
  ``return`` or ``raise``) with the request still PENDING or OPEN — the
  grant (or queued waiter) leaks.
* **RES302** fires when an OPEN grant is held across a ``yield`` (a sim
  wait) that is not protected by a ``try``/``finally`` releasing it or a
  ``with`` block — a fault injected during the wait would leak the grant.

Ownership escapes end the analysis conservatively: returning the request,
passing it to a call other than ``release``/``cancel``, aliasing or storing
it all mark the request CLOSED (someone else is now responsible), which
keeps the rule free of false positives on the resource layer itself.

The module also owns the AST helpers every analysis pass shares, and the
FLT501 walk both tiers run: :func:`unprotected_nodes` yields what a
function evaluates outside each ``try`` whose cleanup releases or cancels
its repair-path requests.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

ACQUIRE_METHODS = frozenset({"request", "acquire"})
RELEASE_METHODS = frozenset({"release", "cancel"})

# Abstract states of the tracked request.
PENDING = "pending"   # requested, not yet granted
OPEN = "open"         # granted, not yet released
CLOSED = "closed"     # released / cancelled / ownership escaped


@dataclass(frozen=True)
class AcquireSite:
    """One ``var = <recv>.request(...)`` statement inside a function."""

    var: str
    stmt: ast.stmt
    call: ast.Call
    managed: bool  # acquired as a `with` context manager


@dataclass
class LeakFinding:
    """Outcome of analysing one acquire site."""

    site: AcquireSite
    leak_exits: list[int] = field(default_factory=list)      # RES301 lines
    unprotected_waits: list[int] = field(default_factory=list)  # RES302 lines


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def own_nodes(fn: ast.AST):
    """Every AST node beneath ``fn`` without entering nested functions."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def names_in(node: ast.AST, name: str) -> bool:
    """Whether the name ``name`` occurs anywhere in ``node``."""
    return any(isinstance(n, ast.Name) and n.id == name
               for n in ast.walk(node))


def is_release_of(node: ast.AST, names) -> bool:
    """Whether ``node`` releases or cancels one of ``names``:
    ``n.release()``, ``n.cancel()``, ``recv.release(n)`` or
    ``recv.cancel(n)``."""
    if not (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in RELEASE_METHODS):
        return False
    if isinstance(node.func.value, ast.Name) and node.func.value.id in names:
        return True
    return any(isinstance(a, ast.Name) and a.id in names for a in node.args)


def try_cleans(stmt: ast.Try, names) -> bool:
    """Whether a ``finally`` or ``except`` block of ``stmt`` releases or
    cancels one of ``names`` (a fault raised in the body then cannot
    strand the request)."""
    cleanup = list(stmt.finalbody)
    for handler in stmt.handlers:
        cleanup.extend(handler.body)
    return any(is_release_of(n, names)
               for s in cleanup for n in ast.walk(s))


# ----------------------------------------------------------------------
# FLT501: repair-path waits outside cleanup protection
# ----------------------------------------------------------------------
#: Function-name fragments that mark repair-path code — the code fault
#: injection interrupts (hedge timeouts, mid-repair crashes).
REPAIR_PATH_MARKERS = ("repair", "recover", "rebuild", "regenerat",
                       "decode", "fallback", "hedge")


def repair_requests(fn: ast.FunctionDef) -> set[str]:
    """Names a repair-path function binds to raw ``*.request(...)`` calls
    (empty for any other function).  A with-managed request cancels itself
    on exit, so withitems are not collected."""
    lowered = fn.name.lower()
    if not any(m in lowered for m in REPAIR_PATH_MARKERS):
        return set()
    return {t.id for n in own_nodes(fn)
            if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call)
            and isinstance(n.value.func, ast.Attribute)
            and n.value.func.attr == "request"
            for t in n.targets if isinstance(t, ast.Name)}


def unprotected_nodes(stmts, names):
    """Every node evaluated by ``stmts`` outside each ``try`` whose
    cleanup releases or cancels one of ``names`` (:func:`try_cleans`).

    A simple statement is a root as a whole; of ``if``/``while`` only the
    test is a root, of ``for`` the iterable, of ``with`` the context
    expressions, and their bodies are walked in turn.  Nested defs and
    classes are skipped.
    """
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        roots, bodies = [], []
        if isinstance(stmt, ast.Try):
            if not try_cleans(stmt, names):
                bodies.append(stmt.body)
            bodies += [h.body for h in stmt.handlers]
            bodies += [stmt.orelse, stmt.finalbody]
        elif isinstance(stmt, (ast.If, ast.While)):
            roots, bodies = [stmt.test], [stmt.body, stmt.orelse]
        elif isinstance(stmt, ast.For):
            roots, bodies = [stmt.iter], [stmt.body, stmt.orelse]
        elif isinstance(stmt, ast.With):
            roots = [item.context_expr for item in stmt.items]
            bodies = [stmt.body]
        else:
            roots = [stmt]
        for root in roots:
            yield root
            yield from own_nodes(root)
        for body in bodies:
            yield from unprotected_nodes(body, names)


# ----------------------------------------------------------------------
# RES301/RES302: the acquire/release walk
# ----------------------------------------------------------------------
def find_acquire_sites(fn: ast.FunctionDef) -> list[AcquireSite]:
    """Acquire sites assigned to a simple name inside this function."""
    sites: list[AcquireSite] = []
    for node in own_nodes(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and _is_acquire_call(node.value):
            sites.append(AcquireSite(node.targets[0].id, node, node.value,
                                     managed=False))
        elif isinstance(node, ast.With):
            for item in node.items:
                if _is_acquire_call(item.context_expr) and \
                        isinstance(item.optional_vars, ast.Name):
                    sites.append(AcquireSite(item.optional_vars.id, node,
                                             item.context_expr, managed=True))
    return sites


def _is_acquire_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ACQUIRE_METHODS)


class _Walker:
    """Walks one function body tracking one acquire site.

    ``escape_oracle(call, var)`` — when provided — decides whether passing
    the tracked request to that call transfers ownership (``True``, the
    intraprocedural default) or leaves this function responsible
    (``False``: the resolved callee neither releases nor re-escapes it).
    """

    def __init__(self, site: AcquireSite, fn: ast.FunctionDef,
                 escape_oracle=None):
        self.site = site
        self.fn = fn
        self.escape_oracle = escape_oracle
        self.finding = LeakFinding(site)
        self._loop_breaks: list[set[str]] = []

    # ------------------------------------------------------------------
    def run(self) -> LeakFinding:
        states = self._walk_body(self.fn.body, {None}, protected=False)
        live = {s for s in states if s in (PENDING, OPEN)}
        if live:
            last = self.fn.body[-1]
            self._record_leak(getattr(last, "end_lineno", last.lineno))
        return self.finding

    def _record_leak(self, line: int) -> None:
        if line not in self.finding.leak_exits:
            self.finding.leak_exits.append(line)

    def _record_wait(self, line: int) -> None:
        if line not in self.finding.unprotected_waits:
            self.finding.unprotected_waits.append(line)

    # ------------------------------------------------------------------
    def _walk_body(self, stmts, states: set, protected: bool) -> set:
        """Returns the possible states at fall-through of ``stmts``.

        An empty returned set means no path falls through (all paths
        return, raise, break or continue).
        """
        for stmt in stmts:
            if not states:
                return states
            states = self._walk_stmt(stmt, states, protected)
        return states

    def _walk_stmt(self, stmt, states: set, protected: bool) -> set:
        var = self.site.var

        if stmt is self.site.stmt and not self.site.managed:
            return {PENDING}

        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            # A nested function capturing the request takes ownership.
            if names_in(stmt, var):
                return {CLOSED}
            return states

        if isinstance(stmt, ast.Return):
            if stmt.value is not None and names_in(stmt.value, var):
                return set()  # ownership returned to the caller
            self._exit(states, protected, stmt.lineno)
            return set()

        if isinstance(stmt, ast.Raise):
            self._exit(states, protected, stmt.lineno)
            return set()

        if isinstance(stmt, (ast.Break, ast.Continue)):
            if self._loop_breaks:
                # A releasing finally enclosing this statement runs before
                # control transfers, so the grant is not carried along.
                self._loop_breaks[-1] |= {CLOSED} if protected else states
            return set()

        if isinstance(stmt, ast.If):
            out = self._walk_body(stmt.body, set(states), protected)
            out |= self._walk_body(stmt.orelse, set(states), protected)
            return out

        if isinstance(stmt, (ast.For, ast.While)):
            return self._walk_loop(stmt, states, protected)

        if isinstance(stmt, ast.Try):
            return self._walk_try(stmt, states, protected)

        if isinstance(stmt, ast.With):
            if stmt is self.site.stmt and self.site.managed:
                # `with X.request() as req:` — released by __exit__ on
                # every path, including faults; body runs with the grant.
                self._walk_body(stmt.body, {OPEN}, protected=True)
                return {CLOSED}
            states = self._scan_expr_stmt(stmt, states, protected,
                                          exprs=[i.context_expr
                                                 for i in stmt.items])
            return self._walk_body(stmt.body, states, protected)

        # Simple statements: scan the expression tree for events.
        return self._scan_expr_stmt(stmt, states, protected)

    # ------------------------------------------------------------------
    def _exit(self, states: set, protected: bool, line: int) -> None:
        """A function exit: leak unless protected by a releasing finally."""
        if protected:
            return
        if any(s in (PENDING, OPEN) for s in states):
            self._record_leak(line)

    def _walk_loop(self, stmt, states: set, protected: bool) -> set:
        self._loop_breaks.append(set())
        if isinstance(stmt, ast.For):
            states = self._scan_expr_stmt(stmt, states, protected,
                                          exprs=[stmt.iter])
        elif stmt.test is not None:
            states = self._scan_expr_stmt(stmt, states, protected,
                                          exprs=[stmt.test])
        seen = set(states)
        frontier = set(states)
        for _ in range(4):  # tiny fixpoint: the domain has three values
            out = self._walk_body(stmt.body, set(frontier), protected)
            if out <= seen:
                break
            seen |= out
            frontier = out
        breaks = self._loop_breaks.pop()
        infinite = (isinstance(stmt, ast.While)
                    and isinstance(stmt.test, ast.Constant)
                    and bool(stmt.test.value))
        fall = set() if infinite else set(seen)
        fall = self._walk_body(stmt.orelse, fall, protected) if stmt.orelse \
            else fall
        return fall | breaks

    def _walk_try(self, stmt: ast.Try, states: set, protected: bool) -> set:
        releases_here = any(self._stmt_releases(s) for s in stmt.finalbody)
        inner_protected = protected or releases_here
        ft_body = self._walk_body(stmt.body, set(states), inner_protected)
        # A handler can be entered from any point in the body: approximate
        # its input as everything observable at the body's boundaries.
        handler_in = set(states) | ft_body
        ft = set(ft_body)
        for handler in stmt.handlers:
            ft |= self._walk_body(handler.body, set(handler_in),
                                  inner_protected)
        if stmt.orelse:
            ft = self._walk_body(stmt.orelse, ft, inner_protected)
        if stmt.finalbody:
            ft = self._walk_body(stmt.finalbody, ft if ft else set(states),
                                 protected)
        return ft

    def _stmt_releases(self, stmt: ast.stmt) -> bool:
        """Whether a statement (sub)tree releases/cancels the tracked var."""
        return any(self._is_release_call(n) for n in ast.walk(stmt))

    def _is_release_call(self, node: ast.AST) -> bool:
        return is_release_of(node, (self.site.var,))

    # ------------------------------------------------------------------
    def _scan_expr_stmt(self, stmt, states: set, protected: bool,
                        exprs: list | None = None) -> set:
        """Apply the events of one simple statement to the state set."""
        var = self.site.var
        nodes = []
        if exprs is None:
            nodes = list(ast.walk(stmt))
        else:
            for e in exprs:
                nodes.extend(ast.walk(e))

        released = any(self._is_release_call(n) for n in nodes)
        grant_yield = any(isinstance(n, ast.Yield)
                          and isinstance(n.value, ast.Name)
                          and n.value.id == var for n in nodes)
        other_yield = any(isinstance(n, (ast.Yield, ast.YieldFrom))
                          and not (isinstance(n, ast.Yield)
                                   and isinstance(n.value, ast.Name)
                                   and n.value.id == var)
                          for n in nodes)
        escaped = self._escapes(nodes)

        out = set()
        for state in states:
            s = state
            if s == PENDING and grant_yield:
                s = OPEN
            if s == OPEN and other_yield and not protected:
                self._record_wait(stmt.lineno)
            if released or escaped:
                s = CLOSED
            out.add(s)
        return out

    def _escapes(self, nodes) -> bool:
        """Ownership escape: the bare request used outside grant/release."""
        var = self.site.var
        for node in nodes:
            if isinstance(node, ast.Call) and not self._is_release_call(node):
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if isinstance(arg, ast.Name) and arg.id == var:
                        if self.escape_oracle is None \
                                or self.escape_oracle(node, var):
                            return True
            if isinstance(node, ast.Assign):
                if isinstance(node.value, ast.Name) and node.value.id == var:
                    return True  # aliased
                for target in node.targets:
                    if not isinstance(target, ast.Name) and \
                            names_in(target, var):
                        return True  # stored into a container/attribute
            if isinstance(node, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
                if any(isinstance(e, ast.Name) and e.id == var
                       for e in ast.iter_child_nodes(node)):
                    return True
        return False


def analyse_function(fn: ast.FunctionDef,
                     escape_oracle=None) -> list[LeakFinding]:
    """Run the acquire/release analysis on every acquire site of ``fn``."""
    findings = []
    for site in find_acquire_sites(fn):
        if site.managed:
            continue  # `with` releases on every path by construction
        findings.append(_Walker(site, fn, escape_oracle).run())
    return findings


# ----------------------------------------------------------------------
# Yield-interval scaffolding (shared with the whole-program race pass)
# ----------------------------------------------------------------------
def is_request_with(stmt: ast.With) -> bool:
    """Whether a ``with`` statement acquires a resource grant — the *owning
    grant* that exempts the yields inside it from race reporting."""
    return any(_is_acquire_call(item.context_expr) for item in stmt.items)


class IntervalWalker:
    """Statement walk of one generator body with yield-*interval*
    bookkeeping.

    A process generator's execution splits into intervals separated by its
    yields: within one interval the process runs atomically (the engine is
    cooperative), across a yield arbitrary other processes interleave.
    This base class provides the shared walk order used by the race pass
    (:mod:`repro.analysis.races`):

    * loop bodies are walked **twice**, so state written late in an
      iteration meets uses early in the next one (cross-iteration pairs);
    * branch bodies are walked in sequence — an over-approximation of the
      path union, which only ever *adds* crossings;
    * ``with <resource>.request(...)`` bodies run with ``protected`` depth
      raised: their yield boundaries are flagged as grant-protected.

    Subclasses implement :meth:`visit_expr` (expression events: reads,
    yields, spawns) and :meth:`visit_assign` (writes), and call
    :meth:`boundary` when they meet a yield.
    """

    def __init__(self) -> None:
        self.interval = 0
        #: One entry per yield boundary: True when grant-protected.
        self.yield_flags: list[bool] = []
        self._protect_depth = 0

    # -- bookkeeping ----------------------------------------------------
    def boundary(self) -> None:
        """Record one yield: close the current interval."""
        self.yield_flags.append(self._protect_depth > 0)
        self.interval += 1

    def crossed_unprotected(self, since_interval: int) -> bool:
        """Whether an unprotected yield separates ``since_interval`` from
        the current interval."""
        return any(not protected
                   for protected in self.yield_flags[since_interval:])

    # -- subclass hooks -------------------------------------------------
    def visit_expr(self, expr: ast.expr) -> None:
        raise NotImplementedError

    def visit_assign(self, stmt: ast.stmt) -> None:
        raise NotImplementedError

    def visit_for_target(self, stmt: ast.For) -> None:
        """Hook: the loop variable binding (default: nothing)."""

    def visit_with_vars(self, stmt: ast.With) -> None:
        """Hook: ``as`` bindings of a with statement (default: nothing)."""

    def visit_nested_def(self, stmt: ast.stmt) -> None:
        """Hook: nested function/class definition (default: skipped)."""

    # -- the walk -------------------------------------------------------
    def walk_body(self, stmts) -> None:
        for stmt in stmts:
            self.walk_stmt(stmt)

    def walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            self.visit_nested_def(stmt)
            return
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            self.visit_assign(stmt)
            return
        if isinstance(stmt, ast.Expr):
            self.visit_expr(stmt.value)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.visit_expr(stmt.value)
            return
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.visit_expr(stmt.exc)
            return
        if isinstance(stmt, ast.If):
            self.visit_expr(stmt.test)
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self.visit_expr(stmt.test)
            for _ in range(2):
                self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
            return
        if isinstance(stmt, ast.For):
            self.visit_expr(stmt.iter)
            self.visit_for_target(stmt)
            for _ in range(2):
                self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
            return
        if isinstance(stmt, ast.Try):
            self.walk_body(stmt.body)
            for handler in stmt.handlers:
                self.walk_body(handler.body)
            self.walk_body(stmt.orelse)
            self.walk_body(stmt.finalbody)
            return
        if isinstance(stmt, ast.With):
            protected = is_request_with(stmt)
            for item in stmt.items:
                self.visit_expr(item.context_expr)
            self.visit_with_vars(stmt)
            if protected:
                self._protect_depth += 1
            self.walk_body(stmt.body)
            if protected:
                self._protect_depth -= 1
            return
        # Remaining simple statements (pass, del, assert, import, ...):
        # visit any embedded expressions.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self.visit_expr(child)
