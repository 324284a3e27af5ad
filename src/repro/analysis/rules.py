"""simlint rule definitions.

Rule IDs are stable and documented in README.md ("Static analysis &
invariants"):

======  ============================================================
SIM101  wall-clock call in a deterministic layer
SIM102  nondeterministic RNG (module-level ``random``, unseeded
        ``default_rng()``, legacy ``np.random.*`` globals)
SIM103  iteration over an unordered set display/call (autofixable:
        wrap in ``sorted(...)``)
GEN201  bare ``yield`` in a process generator
GEN202  process generator yields a non-event literal
GEN203  discarded return value of a fire-and-forget process
RES301  resource grant not released on every path
RES302  grant held across a sim wait without try/finally protection
LAY401  import layering violation
LAY402  mutable default argument
FLT501  repair-path wait on a fault-injectable resource grant outside
        a try whose finally/except releases or cancels it
OBS601  per-event metric registry lookup (``.counter(...)`` /
        ``.gauge(...)`` / ``.histogram(...)``) inside a loop of a
        process generator; hoist the handle before the loop
======  ============================================================

Every rule applies to a set of *layers* (``repro`` subpackages).  The
deterministic layers — everything whose behaviour feeds simulated results —
are ``sim``, ``cluster``, ``core``, ``trace``, ``codes``, ``gf`` and
``reliability``; the experiment CLI may use wall-clock time for progress
reporting but must still seed every RNG.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.cfg import (
    analyse_function,
    dotted_name,
    own_nodes,
    repair_requests,
    unprotected_nodes,
)
from repro.analysis.linter import Fix, Violation

#: Layers whose behaviour determines simulated numbers.
DETERMINISTIC_LAYERS = frozenset(
    {"sim", "cluster", "core", "trace", "codes", "gf", "faults",
     "reliability", "placement", "traffic"})

#: Layers where process generators live.
PROCESS_LAYERS = frozenset({"sim", "cluster", "core", "faults"})

#: Allowed intra-``repro`` imports per layer (the architecture DAG).
LAYER_DEPS: dict[str, frozenset] = {
    "": frozenset({"", "sim", "gf", "codes", "core", "trace", "obs",
                   "cluster", "faults", "reliability"}),
    "sim": frozenset({"sim"}),
    "gf": frozenset({"gf"}),
    "codes": frozenset({"codes", "gf"}),
    "core": frozenset({"core", "codes", "gf"}),
    "trace": frozenset({"trace"}),
    "obs": frozenset({"obs"}),
    # The fleet durability engine runs trials on the sim engine, reuses
    # the fault-plan generators, and enumerates PGs through the cluster
    # shape/placement registry; the analytic chain stays dependency-free.
    "reliability": frozenset({"reliability", "sim", "faults", "cluster",
                              "placement"}),
    # Fault plans/injectors touch only the engine and device fault state.
    "faults": frozenset({"faults", "sim"}),
    # Placement policies see only the cluster *shape* types
    # (repro.cluster.topology) — never disks, networks, or runtimes.
    "placement": frozenset({"placement", "cluster"}),
    # Traffic generation is pure sampling over numpy generators; the
    # serving side (repro.cluster.qos) lives in cluster, so the arrow
    # points cluster-ward only from the layers above.
    "traffic": frozenset({"traffic"}),
    "cluster": frozenset({"cluster", "codes", "core", "faults", "gf", "obs",
                          "placement", "sim", "trace"}),
    "analysis": frozenset({"analysis", "codes", "gf", "obs", "sim"}),
    # The runner orchestrates observers and invariant checks but never the
    # simulation itself; "" is the top-level package (for __version__).
    "runner": frozenset({"runner", "obs", "analysis", ""}),
    "experiments": frozenset({"experiments", "analysis", "cluster", "codes",
                              "core", "faults", "gf", "obs", "placement",
                              "reliability", "runner", "sim", "trace",
                              "traffic"}),
    # The benchmark harness drives everything below it but nothing imports
    # bench back; it sits beside experiments at the top of the DAG.  It may
    # time the analysis engine too (simlint cold/warm benchmarks).
    "bench": frozenset({"analysis", "bench", "cluster", "codes", "core",
                        "experiments", "gf", "obs", "placement",
                        "reliability", "runner", "sim", "traffic"}),
}

_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.localtime", "time.gmtime",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
})

_LEGACY_NP_RANDOM = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf", "sample",
    "choice", "shuffle", "permutation", "seed", "uniform", "normal",
    "lognormal", "exponential", "poisson", "binomial", "bytes",
})

_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
     "Counter", "deque"})


class Rule:
    """Base class: id, summary, layer scoping, and the AST check."""

    id: str = ""
    summary: str = ""
    autofixable: bool = False
    layers: frozenset | None = None  # None: every layer, even outside repro
    #: How the rule reasons: "syntactic" (pattern over one AST) or
    #: "cfg" (control-flow walk of one function).  Whole-program passes
    #: live outside this registry (see repro.analysis.wholeprogram).
    scope: str = "syntactic"

    def applies_to(self, layer: str | None) -> bool:
        if self.layers is None:
            return True
        return layer in self.layers

    def check(self, tree: ast.Module, source: str,
              path: str) -> Iterable[Violation]:
        raise NotImplementedError


class WallClockRule(Rule):
    id = "SIM101"
    summary = ("wall-clock time in a deterministic layer skews simulated "
               "results; use env.now or accept time as a parameter")
    layers = DETERMINISTIC_LAYERS

    def check(self, tree, source, path):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in _WALL_CLOCK_CALLS:
                    yield Violation(
                        self.id, path, node.lineno, node.col_offset,
                        f"call to wall clock `{name}()` in a deterministic "
                        "layer; simulated time must come from `env.now`")


class NondeterministicRngRule(Rule):
    id = "SIM102"
    summary = ("module-level/unseeded RNG breaks run-to-run reproducibility; "
               "thread a seeded Generator/Random through instead")
    layers = DETERMINISTIC_LAYERS | {"experiments"}

    def check(self, tree, source, path):
        has_random_import = any(
            isinstance(n, ast.Import) and any(a.name == "random"
                                              for a in n.names)
            for n in ast.walk(tree))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if has_random_import and name.startswith("random.") \
                    and name.count(".") == 1:
                attr = name.split(".", 1)[1]
                if attr == "Random":
                    if not node.args and not node.keywords:
                        yield Violation(
                            self.id, path, node.lineno, node.col_offset,
                            "unseeded `random.Random()`; pass the per-run "
                            "seed so identical seeds give identical results")
                else:
                    yield Violation(
                        self.id, path, node.lineno, node.col_offset,
                        f"module-level `{name}()` uses the shared global "
                        "RNG; use the per-run seeded instance")
            if name in ("np.random.default_rng", "numpy.random.default_rng") \
                    and not node.args and not node.keywords:
                yield Violation(
                    self.id, path, node.lineno, node.col_offset,
                    "`default_rng()` without a seed draws OS entropy; pass "
                    "the per-run seed")
            if name is not None and name.count(".") == 2:
                head, mid, attr = name.split(".")
                if head in ("np", "numpy") and mid == "random" \
                        and attr in _LEGACY_NP_RANDOM:
                    yield Violation(
                        self.id, path, node.lineno, node.col_offset,
                        f"legacy `{name}()` uses numpy's global RNG state; "
                        "use a seeded `np.random.Generator`")


class SetIterationRule(Rule):
    id = "SIM103"
    summary = ("iterating an unordered set feeds nondeterministic order "
               "into event scheduling; wrap in sorted(...)")
    autofixable = True
    layers = PROCESS_LAYERS

    def check(self, tree, source, path):
        iters: list[ast.expr] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if self._is_set_expr(it):
                segment = ast.get_source_segment(source, it)
                fix = None
                if segment is not None:
                    fix = Fix(it.lineno, it.col_offset, it.end_lineno,
                              it.end_col_offset, f"sorted({segment})")
                yield Violation(
                    self.id, path, it.lineno, it.col_offset,
                    "iteration over an unordered set; wrap in `sorted(...)` "
                    "so event scheduling order is deterministic", fix=fix)

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))


def _collect_process_generators(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """Generator functions used as simulation processes.

    A function is a process generator if its name is passed to some
    ``*.process(f(...))`` call in this module, or if it yields an obvious
    event construction (``*.timeout(...)``, ``*.process(...)``,
    ``*.all_of(...)``).
    """
    process_names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "process" and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Call):
                if isinstance(arg.func, ast.Name):
                    process_names.add(arg.func.id)
                elif isinstance(arg.func, ast.Attribute):
                    process_names.add(arg.func.attr)
    out: dict[str, ast.FunctionDef] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        yields = [n for n in ast.walk(node)
                  if isinstance(n, (ast.Yield, ast.YieldFrom))]
        if not yields:
            continue
        if node.name in process_names:
            out[node.name] = node
            continue
        for y in yields:
            value = getattr(y, "value", None)
            if isinstance(value, ast.Call) \
                    and isinstance(value.func, ast.Attribute) \
                    and value.func.attr in ("timeout", "process", "all_of"):
                out[node.name] = node
                break
    return out


class BareYieldRule(Rule):
    id = "GEN201"
    summary = "process generators must yield events, never a bare `yield`"
    layers = PROCESS_LAYERS

    def check(self, tree, source, path):
        for fn in _collect_process_generators(tree).values():
            for node in ast.walk(fn):
                if isinstance(node, ast.Yield) and node.value is None:
                    yield Violation(
                        self.id, path, node.lineno, node.col_offset,
                        f"bare `yield` in process generator "
                        f"`{fn.name}`; the engine requires an event")


class NonEventYieldRule(Rule):
    id = "GEN202"
    summary = "process generators must yield events, not plain values"
    layers = PROCESS_LAYERS

    def check(self, tree, source, path):
        for fn in _collect_process_generators(tree).values():
            for node in ast.walk(fn):
                if isinstance(node, ast.Yield) and isinstance(
                        node.value, (ast.Constant, ast.List, ast.Tuple,
                                     ast.Dict, ast.Set, ast.JoinedStr)):
                    yield Violation(
                        self.id, path, node.lineno, node.col_offset,
                        f"process generator `{fn.name}` yields a literal, "
                        "not an event; the engine will raise at runtime")


class DiscardedProcessReturnRule(Rule):
    id = "GEN203"
    summary = ("a fire-and-forget `env.process(f())` discards `f`'s return "
               "value; await the Process event to receive it")
    layers = PROCESS_LAYERS

    def check(self, tree, source, path):
        returning: set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if not any(isinstance(n, (ast.Yield, ast.YieldFrom))
                       for n in ast.walk(node)):
                continue
            for n in ast.walk(node):
                if isinstance(n, ast.Return) and n.value is not None \
                        and not (isinstance(n.value, ast.Constant)
                                 and n.value.value is None):
                    returning.add(node.name)
        if not returning:
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                call = node.value
                if isinstance(call.func, ast.Attribute) \
                        and call.func.attr == "process" and call.args \
                        and isinstance(call.args[0], ast.Call) \
                        and isinstance(call.args[0].func, ast.Name) \
                        and call.args[0].func.id in returning:
                    yield Violation(
                        self.id, path, node.lineno, node.col_offset,
                        f"return value of process generator "
                        f"`{call.args[0].func.id}` is discarded; assign the "
                        "Process event and yield it to receive the value")


class ResourceReleaseRule(Rule):
    id = "RES301"
    summary = "every resource grant must be released on every path"
    layers = None  # resource usage can appear anywhere
    scope = "cfg"

    def check(self, tree, source, path):
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for finding in analyse_function(node):
                line = finding.site.stmt.lineno
                for exit_line in finding.leak_exits:
                    yield Violation(
                        self.id, path, line, finding.site.stmt.col_offset,
                        f"`{finding.site.var}` acquired here is not released "
                        f"on the path exiting at line {exit_line}; release "
                        "in a try/finally or use `with`")


class UnprotectedWaitRule(Rule):
    id = "RES302"
    summary = ("grants held across sim waits need try/finally so injected "
               "faults cannot leak them")
    layers = None
    scope = "cfg"

    def check(self, tree, source, path):
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for finding in analyse_function(node):
                for wait_line in finding.unprotected_waits:
                    yield Violation(
                        self.id, path, wait_line, 0,
                        f"grant `{finding.site.var}` (line "
                        f"{finding.site.stmt.lineno}) held across this "
                        "`yield` without try/finally; a fault during the "
                        "wait leaks the grant")


class HedgelessRepairWaitRule(Rule):
    id = "FLT501"
    summary = ("repair-path code must not wait on a fault-injectable "
               "resource grant without timeout/cancellation handling")
    layers = frozenset({"cluster", "faults"})
    scope = "cfg"

    def check(self, tree, source, path):
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            tracked = repair_requests(fn)
            if not tracked:
                continue
            for node in unprotected_nodes(fn.body, tracked):
                if isinstance(node, ast.Yield) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id in tracked:
                    yield Violation(
                        self.id, path, node.lineno, node.col_offset,
                        f"repair-path `{fn.name}` waits on resource grant "
                        f"`{node.value.id}` with no timeout/cancellation "
                        "handling; an injected fault interrupting the wait "
                        "strands the queued request — use `with "
                        "...request(...)` or cancel it in try/finally")


class LayeringRule(Rule):
    id = "LAY401"
    summary = "intra-repro imports must follow the architecture DAG"
    layers = frozenset(LAYER_DEPS)

    def check(self, tree, source, path):
        from repro.analysis.linter import layer_of

        layer = layer_of(path)
        allowed = LAYER_DEPS.get(layer)
        if allowed is None:
            return
        for node in ast.walk(tree):
            targets: list[tuple[str, ast.stmt]] = []
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                targets.append((node.module, node))
            elif isinstance(node, ast.Import):
                targets.extend((a.name, node) for a in node.names)
            for module, stmt in targets:
                parts = module.split(".")
                if parts[0] != "repro":
                    continue
                target = parts[1] if len(parts) > 1 else ""
                if target not in allowed:
                    yield Violation(
                        self.id, path, stmt.lineno, stmt.col_offset,
                        f"layer `{layer or 'repro'}` must not import "
                        f"`{module}` (allowed: "
                        f"{', '.join(sorted(x for x in allowed if x)) or 'none'})")


class MutableDefaultRule(Rule):
    id = "LAY402"
    summary = "mutable default arguments are shared across calls"
    layers = None

    def check(self, tree, source, path):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    yield Violation(
                        self.id, path, default.lineno, default.col_offset,
                        f"mutable default argument in `{name}`; default to "
                        "None and construct inside the body")

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _MUTABLE_CONSTRUCTORS)


#: Registry accessor methods that hash labels and consult a dict per call.
_REGISTRY_LOOKUPS = frozenset({"counter", "gauge", "histogram"})


class HotLoopMetricLookupRule(Rule):
    id = "OBS601"
    summary = ("metric registry lookups inside process-generator loops must "
               "be hoisted to pre-bound handles")
    layers = frozenset({"sim", "cluster", "faults"})

    def check(self, tree, source, path):
        seen: set[tuple[int, int]] = set()
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            own = list(own_nodes(fn))
            if not any(isinstance(n, (ast.Yield, ast.YieldFrom))
                       for n in own):
                continue  # not a process generator: one-shot cost is fine
            for loop in own:
                if not isinstance(loop, (ast.For, ast.While)):
                    continue
                for node in own_nodes(loop):
                    if not (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr in _REGISTRY_LOOKUPS):
                        continue
                    chain = dotted_name(node.func.value)
                    if chain is None:
                        continue
                    parts = chain.lower().split(".")
                    if not any("metrics" in p or p == "obs" for p in parts):
                        continue
                    key = (node.lineno, node.col_offset)
                    if key in seen:
                        continue  # nested loops see the same call twice
                    seen.add(key)
                    yield Violation(
                        self.id, path, node.lineno, node.col_offset,
                        f"`{chain}.{node.func.attr}(...)` inside a loop of "
                        f"process generator `{fn.name}` looks the metric up "
                        "per iteration; hoist the handle before the loop")


ALL_RULES: tuple[Rule, ...] = (
    WallClockRule(), NondeterministicRngRule(), SetIterationRule(),
    BareYieldRule(), NonEventYieldRule(), DiscardedProcessReturnRule(),
    ResourceReleaseRule(), UnprotectedWaitRule(),
    LayeringRule(), MutableDefaultRule(), HedgelessRepairWaitRule(),
    HotLoopMetricLookupRule(),
)
