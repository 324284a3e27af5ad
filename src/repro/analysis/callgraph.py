"""Project-wide symbol table and call graph for whole-program passes.

The per-function rules in :mod:`repro.analysis.rules` see one module at a
time; the whole-program passes (determinism taint, cooperative-process race
detection, interprocedural grant-escape) need to know *who calls whom*
across the project.  This module parses every file once, builds a symbol
table of functions/methods/classes keyed by dotted qualname, and resolves
call sites to candidate callees:

* ``name(...)``            — lexically enclosing defs, then module scope,
  then ``from m import name`` targets;
* ``self.meth(...)``       — the enclosing class, then its project-resolvable
  bases (``cls.meth`` likewise);
* ``mod.func(...)``        — through ``import``/``from`` aliases;
* ``obj.meth(...)``        — unknown receiver: every project method of that
  name, provided the candidate set is small (``AMBIG_LIMIT``), so one
  badly-named helper cannot smear taint over the whole graph.

Resolution is deliberately *syntactic* — no type inference.  Passes must
treat an empty candidate list as "unknown callee" and pick their own
conservative default (taint drops it, grant-escape keeps today's
ownership-escape semantics).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.cfg import dotted_name, own_nodes
from repro.analysis.linter import Suppressions, iter_python_files, layer_of

#: An unknown-receiver method call resolves only when at most this many
#: project functions share the method name.
AMBIG_LIMIT = 6


@dataclass
class FunctionInfo:
    """One function or method definition anywhere in the project."""

    qualname: str                 # "repro.cluster.rcstor.RCStor._batch_read"
    name: str
    node: ast.FunctionDef
    module: "ModuleInfo"
    class_name: str | None = None      # enclosing class, if a method
    parent: "FunctionInfo | None" = None  # lexically enclosing function
    is_generator: bool = False
    is_process: bool = False           # spawned via *.process(...) somewhere

    #: Parameter names in positional order (posonly + args; ``self``/``cls``
    #: of methods included so indices line up with ``ast.Call`` receivers).
    params: list[str] = field(default_factory=list)
    kwonly: list[str] = field(default_factory=list)

    @property
    def path(self) -> str:
        return self.module.path

    @property
    def layer(self) -> str | None:
        return self.module.layer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<fn {self.qualname}>"


@dataclass
class ClassInfo:
    """One class definition: its methods and project-resolvable bases."""

    qualname: str
    name: str
    node: ast.ClassDef
    module: "ModuleInfo"
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    base_names: list[str] = field(default_factory=list)  # raw dotted names


@dataclass
class ModuleInfo:
    """One parsed source file."""

    name: str                     # dotted module name ("repro.sim.engine")
    path: str
    tree: ast.Module
    source: str
    layer: str | None
    #: ``import x.y as z`` -> {"z": "x.y"}; plain ``import x.y`` -> {"x": "x"}.
    import_aliases: dict[str, str] = field(default_factory=dict)
    #: ``from m import f as g`` -> {"g": ("m", "f")}.
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    suppressions: Suppressions | None = None


@dataclass(frozen=True)
class CallSite:
    """One resolved (or unresolved) call expression inside a function."""

    caller: FunctionInfo
    call: ast.Call
    callees: tuple[FunctionInfo, ...]   # empty: unknown callee
    in_loop: bool = False    # lexically inside a loop of the caller


@dataclass(frozen=True)
class SpawnSite:
    """One ``*.process(gen(...))`` call: a new cooperative process."""

    caller: FunctionInfo
    call: ast.Call
    target: FunctionInfo | None
    in_loop: bool    # lexically inside a loop of the spawning function


def _module_name(path: Path, root_hint: str = "repro") -> str:
    """Dotted module name for a file; rooted at the ``repro`` package when
    the path goes through one, else the relative parts joined."""
    parts = list(path.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts.pop()
    for i, part in enumerate(parts):
        if part == root_hint:
            return ".".join(parts[i:])
    # Outside any repro package (test fixture trees): keep it short but
    # unique enough — the last two components.
    return ".".join(parts[-2:]) if len(parts) >= 2 else ".".join(parts)


class Project:
    """The whole-program symbol table + call graph.

    Build once per run (:meth:`load`), then ask for :attr:`functions`,
    :meth:`call_sites`, :meth:`callers_of`, :attr:`spawn_sites`, and
    :meth:`resolve_call`.
    """

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}       # by dotted name
        self.functions: dict[str, FunctionInfo] = {}   # by qualname
        self.classes: dict[str, ClassInfo] = {}        # by qualname
        self._method_index: dict[str, list[FunctionInfo]] = {}
        self._call_sites: list[CallSite] | None = None
        self._callers: dict[str, list[CallSite]] | None = None
        self.spawn_sites: list[SpawnSite] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, paths) -> "Project":
        """Parse every ``.py`` file under ``paths`` and link the graph."""
        project = cls()
        for file in iter_python_files(paths):
            source = file.read_text(encoding="utf-8")
            project.add_source(source, file)
        project.link()
        return project

    def add_source(self, source: str, path: str | Path) -> ModuleInfo | None:
        """Parse one file into the symbol table (no linking yet)."""
        path = Path(path)
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            return None  # the per-file linter reports E999 for these
        mod = ModuleInfo(name=_module_name(path), path=str(path), tree=tree,
                         source=source, layer=layer_of(path),
                         suppressions=Suppressions(source))
        self._collect_imports(mod)
        self._collect_defs(mod, tree.body, prefix=mod.name, parent=None,
                           class_info=None)
        self.modules[mod.name] = mod
        return mod

    def _collect_imports(self, mod: ModuleInfo) -> None:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    mod.import_aliases[name] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                base = node.module
                if node.level:  # relative import: resolve against mod.name
                    parts = mod.name.split(".")
                    parts = parts[:len(parts) - node.level + 1]
                    base = ".".join(parts[:-1] + [node.module]) \
                        if parts else node.module
                for alias in node.names:
                    mod.from_imports[alias.asname or alias.name] = \
                        (base, alias.name)

    def _collect_defs(self, mod: ModuleInfo, body, prefix: str,
                      parent: FunctionInfo | None,
                      class_info: ClassInfo | None) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{node.name}"
                args = node.args
                params = [a.arg for a in args.posonlyargs + args.args]
                info = FunctionInfo(
                    qualname=qual, name=node.name, node=node, module=mod,
                    class_name=class_info.name if class_info else None,
                    parent=parent, params=params,
                    kwonly=[a.arg for a in args.kwonlyargs],
                    is_generator=any(
                        isinstance(n, (ast.Yield, ast.YieldFrom))
                        for n in own_nodes(node)))
                self.functions[qual] = info
                if class_info is not None:
                    class_info.methods[node.name] = info
                    self._method_index.setdefault(node.name, []).append(info)
                elif parent is None:
                    mod.functions[node.name] = info
                self._collect_defs(mod, node.body, qual, info, None)
            elif isinstance(node, ast.ClassDef):
                qual = f"{prefix}.{node.name}"
                cinfo = ClassInfo(
                    qualname=qual, name=node.name, node=node, module=mod,
                    base_names=[d for d in map(dotted_name, node.bases)
                                if d is not None])
                self.classes[qual] = cinfo
                mod.classes.setdefault(node.name, cinfo)
                self._collect_defs(mod, node.body, qual, parent, cinfo)
            elif isinstance(node, (ast.If, ast.Try)):
                # TYPE_CHECKING guards and import fallbacks still define.
                for sub in (getattr(node, "body", []),
                            getattr(node, "orelse", []),
                            getattr(node, "finalbody", [])):
                    self._collect_defs(mod, sub, prefix, parent, class_info)
                for handler in getattr(node, "handlers", []):
                    self._collect_defs(mod, handler.body, prefix, parent,
                                       class_info)

    def link(self) -> None:
        """Resolve calls/spawns after every module has been added."""
        self._call_sites = []
        self._callers = {}
        self.spawn_sites = []
        for fn in self.functions.values():
            self._link_function(fn)
        for site in self._call_sites:
            for callee in site.callees:
                self._callers.setdefault(callee.qualname, []).append(site)
        self._mark_processes()

    def _link_function(self, fn: FunctionInfo) -> None:
        loop_spans: list[tuple[int, int]] = [
            (n.lineno, n.end_lineno or n.lineno)
            for n in own_nodes(fn.node) if isinstance(n, (ast.For, ast.While))]

        def in_loop(node: ast.AST) -> bool:
            return any(lo <= node.lineno <= hi for lo, hi in loop_spans)

        for node in own_nodes(fn.node):
            if not isinstance(node, ast.Call):
                continue
            callees = tuple(self.resolve_call(fn, node))
            self._call_sites.append(
                CallSite(fn, node, callees, in_loop=in_loop(node)))
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "process" and node.args:
                target = self._spawn_target(fn, node.args[0])
                self.spawn_sites.append(
                    SpawnSite(fn, node, target, in_loop=in_loop(node)))

    def _spawn_target(self, fn: FunctionInfo,
                      arg: ast.expr) -> FunctionInfo | None:
        """The generator function behind ``env.process(<arg>)``."""
        if isinstance(arg, ast.Call):
            candidates = self.resolve_call(fn, arg)
            return candidates[0] if len(candidates) == 1 else None
        # A pre-built generator object (env.process(gen_obj)): untrackable.
        return None

    def _mark_processes(self) -> None:
        for site in self.spawn_sites:
            if site.target is not None:
                site.target.is_process = True
        # Yield-shape fallback, as in the per-file rules: a generator that
        # yields obvious event constructions is a process even if we never
        # saw its spawn site.
        for fn in self.functions.values():
            if fn.is_process or not fn.is_generator:
                continue
            for n in own_nodes(fn.node):
                value = getattr(n, "value", None) \
                    if isinstance(n, (ast.Yield, ast.YieldFrom)) else None
                if isinstance(value, ast.Call) \
                        and isinstance(value.func, ast.Attribute) \
                        and value.func.attr in ("timeout", "process",
                                                "all_of", "any_of"):
                    fn.is_process = True
                    break

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def call_sites(self) -> list[CallSite]:
        assert self._call_sites is not None, "call link() first"
        return self._call_sites

    def callers_of(self, fn: FunctionInfo) -> list[CallSite]:
        assert self._callers is not None, "call link() first"
        return self._callers.get(fn.qualname, [])

    def class_of(self, fn: FunctionInfo) -> ClassInfo | None:
        if fn.class_name is None:
            return None
        return self.classes.get(
            fn.qualname.rsplit(".", 1)[0])

    def methods_named(self, name: str) -> list[FunctionInfo]:
        return self._method_index.get(name, [])

    # ------------------------------------------------------------------
    # call resolution
    # ------------------------------------------------------------------
    def resolve_call(self, caller: FunctionInfo,
                     call: ast.Call) -> list[FunctionInfo]:
        """Candidate callees for one call expression (possibly empty)."""
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(caller, func.id)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute(caller, func)
        return []

    def _resolve_name(self, caller: FunctionInfo,
                      name: str) -> list[FunctionInfo]:
        # Lexically enclosing defs (closures) — innermost first.
        scope = caller
        while scope is not None:
            nested = scope.qualname + "." + name
            if nested in self.functions:
                return [self.functions[nested]]
            scope = scope.parent
        mod = caller.module
        if name in mod.functions:
            return [mod.functions[name]]
        if name in mod.classes:
            return self._constructor(mod.classes[name])
        if name in mod.from_imports:
            src_mod, orig = mod.from_imports[name]
            target = self.modules.get(src_mod)
            if target is not None:
                if orig in target.functions:
                    return [target.functions[orig]]
                if orig in target.classes:
                    return self._constructor(target.classes[orig])
            # ``from repro.sim import Environment`` re-exported via a
            # package __init__: chase one level of re-export.
            pkg = self.modules.get(src_mod)
            if pkg is not None and orig in pkg.from_imports:
                deeper, orig2 = pkg.from_imports[orig]
                target = self.modules.get(deeper)
                if target is not None and orig2 in target.functions:
                    return [target.functions[orig2]]
                if target is not None and orig2 in target.classes:
                    return self._constructor(target.classes[orig2])
        return []

    def _resolve_attribute(self, caller: FunctionInfo,
                           func: ast.Attribute) -> list[FunctionInfo]:
        attr = func.attr
        base = dotted_name(func.value)
        if base in ("self", "cls") and caller.class_name is not None:
            found = self._resolve_method(self.class_of(caller), attr)
            if found:
                return found
            return []
        if base is not None:
            mod = caller.module
            # mod_alias.func — through import aliases.
            head = base.split(".")[0]
            if head in mod.import_aliases:
                dotted = mod.import_aliases[head] + base[len(head):]
                target = self.modules.get(dotted)
                if target is not None:
                    if attr in target.functions:
                        return [target.functions[attr]]
                    if attr in target.classes:
                        return self._constructor(target.classes[attr])
            if base in mod.from_imports:
                # ``from repro import sim; sim.run(...)`` or an imported
                # class used as a namespace: ClassName.method.
                src_mod, orig = mod.from_imports[base]
                dotted = f"{src_mod}.{orig}"
                target = self.modules.get(dotted)
                if target is not None and attr in target.functions:
                    return [target.functions[attr]]
                cinfo = self._find_class(mod, base)
                if cinfo is not None:
                    return self._resolve_method(cinfo, attr)
            if base in mod.classes:
                return self._resolve_method(mod.classes[base], attr)
        # Unknown receiver: fall back to the project-wide method index.
        candidates = self.methods_named(attr)
        if 0 < len(candidates) <= AMBIG_LIMIT:
            return list(candidates)
        return []

    def _resolve_method(self, cinfo: ClassInfo | None,
                        name: str) -> list[FunctionInfo]:
        seen: set[str] = set()
        while cinfo is not None and cinfo.qualname not in seen:
            seen.add(cinfo.qualname)
            if name in cinfo.methods:
                return [cinfo.methods[name]]
            cinfo = self._first_base(cinfo)
        return []

    def _first_base(self, cinfo: ClassInfo) -> ClassInfo | None:
        for base in cinfo.base_names:
            found = self._find_class(cinfo.module, base)
            if found is not None:
                return found
        return None

    def _find_class(self, mod: ModuleInfo, name: str) -> ClassInfo | None:
        """Resolve a (possibly dotted/imported) class name from ``mod``."""
        head = name.split(".")[0]
        if name in mod.classes:
            return mod.classes[name]
        if head in mod.from_imports:
            src_mod, orig = mod.from_imports[head]
            target = self.modules.get(src_mod)
            if target is not None and orig in target.classes:
                return target.classes[orig]
            pkg = self.modules.get(src_mod)
            if pkg is not None and orig in pkg.from_imports:
                deeper, orig2 = pkg.from_imports[orig]
                target = self.modules.get(deeper)
                if target is not None and orig2 in target.classes:
                    return target.classes[orig2]
        if "." in name and head in mod.import_aliases:
            dotted = mod.import_aliases[head] + name[len(head):]
            mod_name, _, cls_name = dotted.rpartition(".")
            target = self.modules.get(mod_name)
            if target is not None and cls_name in target.classes:
                return target.classes[cls_name]
        return None

    def _constructor(self, cinfo: ClassInfo) -> list[FunctionInfo]:
        init = self._resolve_method(cinfo, "__init__")
        return init

    # ------------------------------------------------------------------
    # argument mapping
    # ------------------------------------------------------------------
    @staticmethod
    def map_arguments(callee: FunctionInfo,
                      call: ast.Call) -> list[tuple[int, ast.expr]]:
        """(param_index, argument_expr) pairs for one call of ``callee``.

        Methods called through a receiver expression get their ``self``
        slot (index 0) skipped, so indices always name ``callee.params``
        entries.  ``*args``/``**kwargs`` forwarding is ignored.
        """
        offset = 1 if callee.class_name is not None and callee.params \
            and callee.params[0] in ("self", "cls") else 0
        pairs: list[tuple[int, ast.expr]] = []
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break
            idx = i + offset
            if idx < len(callee.params):
                pairs.append((idx, arg))
        names = {p: i for i, p in enumerate(callee.params)}
        kw_names = {p: len(callee.params) + i
                    for i, p in enumerate(callee.kwonly)}
        for kw in call.keywords:
            if kw.arg is None:
                continue
            if kw.arg in names:
                pairs.append((names[kw.arg], kw.value))
            elif kw.arg in kw_names:
                pairs.append((kw_names[kw.arg], kw.value))
        return pairs
