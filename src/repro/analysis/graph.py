"""The project-wide semantic index behind the cross-module rules.

The single-file rules (RPL001-RPL004, RPL006, RPL007, RPL009)
deliberately see one module at a time, but the contracts they cannot
check are exactly the ones that span modules: an event type registered
in ``repro/engine/events.py`` and emitted from a dozen files, a fault
point named in ``repro/resilience/faults.py`` and injected in
``repro/_atomic.py``, a ``ReproError`` guarantee made by
``repro/exceptions.py`` and broken by a ``raise ValueError`` four
calls deep.  This module builds the index
those rules run against:

* :class:`FileFacts` — everything the project rules need from one
  module, extracted in a single AST pass, plus the module's parsed
  suppression pragmas;
* :class:`ProjectGraph` — the whole-program view assembled from all
  file facts: module/import graph (with cycle detection), symbol table
  with re-export resolution, a qualified call graph with reachability,
  and the contract indexes (event types registered/emitted, fault
  points declared/injected, kernels and backends registered/resolved).

Facts are *syntactic*: string literals at known contract call sites,
dotted call names as written, one-hop assignment taint for RNG seeds.
No type inference — the same trade the single-file rules make, for the
same reason (speed, predictability, zero dependencies).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Any

from .pragmas import PragmaIndex
from .sources import ModuleSource

__all__ = [
    "CallFact",
    "ContractSite",
    "FileFacts",
    "FunctionFacts",
    "ProjectGraph",
    "RaiseFact",
    "ResourceSite",
    "RngSite",
    "extract_facts",
]

#: Contract-site kinds (the ``kind`` field of :class:`ContractSite`).
#: ``*_register`` sites *define* a name; ``*_use`` sites consume one.
#: ``event_emit`` with ``argument=None`` is a dynamic emission (the
#: type flows through a variable) — visible but unverifiable.
_CONTRACT_KINDS = (
    "event_register",
    "event_emit",
    "fault_register",
    "fault_use",
    "kernel_register",
    "kernel_use",
    "backend_register",
    "backend_use",
)

#: Module-level dict literals whose string keys register the names
#: RPL014 resolves (``_ALIASES`` values must name a placement in turn).
_REGISTRY_DICTS = {
    "FAULT_POINTS": "fault_register",
    "KERNELS": "kernel_register",
    "PLACEMENTS": "backend_register",
    "_ALIASES": "backend_register",
}

#: Identifier fragments that mark a value as seed-derived for the RNG
#: taint classification (RPL013).
_SEED_NAME_RE = re.compile(r"seed|rng|random_state|entropy", re.IGNORECASE)

#: numpy.random constructors whose argument is a seed.
_RNG_CONSTRUCTORS = frozenset(
    {"default_rng", "RandomState", "SeedSequence", "PCG64", "Philox",
     "SFC64", "MT19937", "Generator"}
)

#: Calls considered seed-*transforms* when classifying a seed argument:
#: feeding them a tainted value yields a tainted value.
_SEED_TRANSFORMS = _RNG_CONSTRUCTORS | frozenset({"check_rng", "spawn", "int"})

#: Resource-constructor tails tracked by the lifecycle facts, mapped to
#: the module that must provide them (``None`` = project-specific name,
#: matched by tail alone).
_RESOURCE_TAILS: dict[str, str | None] = {
    "memmap": "numpy",
    "TemporaryDirectory": "tempfile",
    "NamedTemporaryFile": "tempfile",
    "mkdtemp": "tempfile",
    "ProcessPoolExecutor": "concurrent.futures",
    "ThreadPoolExecutor": "concurrent.futures",
    "SharedMemory": "multiprocessing.shared_memory",
    "CountingPool": None,
    "ShardedCountingPool": None,
}

#: Method names that release a tracked resource.
_CLOSERS = frozenset(
    {"close", "cleanup", "shutdown", "terminate", "unlink", "__exit__"}
)


# ----------------------------------------------------------------------
# fact records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ContractSite:
    """One string-literal argument to a known contract function."""

    kind: str
    argument: str | None  # None = dynamic (non-literal) argument
    line: int
    column: int
    qualname: str


@dataclass(frozen=True)
class RaiseFact:
    """One ``raise X(...)`` statement inside a function body."""

    exception: str  # dotted name as written ("ValueError", "exc.Wrapped")
    line: int
    column: int


@dataclass(frozen=True)
class CallFact:
    """One call site inside a function body (dotted name as written)."""

    target: str
    line: int


@dataclass(frozen=True)
class FunctionFacts:
    """One function or method: identity, calls out, raises."""

    qualname: str  # dotted within the module ("Class.method", "helper")
    line: int
    is_public: bool
    params: tuple[str, ...]
    calls: tuple[CallFact, ...]
    raises: tuple[RaiseFact, ...]


@dataclass(frozen=True)
class ResourceSite:
    """One resource-creation site with its lifecycle classification.

    ``management`` is one of:

    ``with``
        created as (part of) a ``with`` context expression, or the
        bound name is later entered via ``with``;
    ``finally``
        a closer method on the bound name runs in a ``finally`` block;
    ``finalizer``
        the bound name is handed to ``weakref.finalize`` /
        ``atexit.register``;
    ``escapes``
        the object leaves the creating scope (returned, yielded, stored
        on an attribute/container, passed to another call) — lifecycle
        owned elsewhere, out of intraprocedural reach;
    ``closed_unprotected``
        a closer is called, but not on all paths (plain statement, no
        ``try/finally``);
    ``unmanaged``
        nothing above applies — the resource leaks on any exception.
    """

    kind: str
    management: str
    line: int
    column: int
    qualname: str


@dataclass(frozen=True)
class RngSite:
    """One RNG-constructor call with its seed-argument classification.

    ``seed_kind``: ``int`` (literal), ``param`` (flows from a
    seed/rng-named parameter or attribute), ``derived`` (arithmetic or
    a seed transform over tainted inputs), ``entropy`` (explicit
    ``None`` or a zero-argument nested constructor), ``no-arg``
    (zero-argument call — RPL001's territory), ``opaque`` (cannot be
    traced to a seed).
    """

    seed_kind: str
    detail: str
    line: int
    column: int
    qualname: str


@dataclass
class FileFacts:
    """Everything the project rules need from one module."""

    path: str
    module: str
    module_imports: dict[str, str] = field(default_factory=dict)
    from_imports: dict[str, list[str]] = field(default_factory=dict)
    exports: list[str] | None = None
    classes: dict[str, int] = field(default_factory=dict)  # qualname -> line
    functions: list[FunctionFacts] = field(default_factory=list)
    contracts: list[ContractSite] = field(default_factory=list)
    resources: list[ResourceSite] = field(default_factory=list)
    rng_sites: list[RngSite] = field(default_factory=list)
    #: the module's suppression pragmas, shared by the file-rule and
    #: project-rule passes so each file's pragmas are parsed once.
    pragmas: PragmaIndex = field(default_factory=PragmaIndex)


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------
def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _resolve_relative(module: str, is_package: bool, node: ast.ImportFrom) -> str:
    """Absolute module path for a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module or ""
    parts = module.split(".")
    # For a package __init__, level 1 means the package itself.
    drop = node.level if is_package else node.level
    base = parts[: len(parts) - drop + (1 if is_package else 0)]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


def _value_escapes(expr: ast.expr | None, name: str) -> bool:
    """Whether the object bound to *name* can leave via *expr*.

    Only value positions count: the name itself, container elements,
    call arguments, conditional branches.  ``int(view.sum())`` reads
    through the name but escapes only a scalar — not a match.
    """
    if expr is None:
        return False
    if isinstance(expr, ast.Name):
        return expr.id == name
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        return any(_value_escapes(elt, name) for elt in expr.elts)
    if isinstance(expr, ast.Dict):
        return any(
            _value_escapes(value, name)
            for value in expr.values
            if value is not None
        )
    if isinstance(expr, ast.IfExp):
        return _value_escapes(expr.body, name) or _value_escapes(
            expr.orelse, name
        )
    if isinstance(expr, ast.Call):
        return any(_value_escapes(a, name) for a in expr.args) or any(
            _value_escapes(kw.value, name) for kw in expr.keywords
        )
    if isinstance(expr, ast.Starred):
        return _value_escapes(expr.value, name)
    if isinstance(expr, ast.Await):
        return _value_escapes(expr.value, name)
    return False


def _str_const(node: ast.expr | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _argument(
    call: ast.Call, position: int, keyword: str | None = None
) -> ast.expr | None:
    if keyword is not None:
        for kw in call.keywords:
            if kw.arg == keyword:
                return kw.value
    if len(call.args) > position:
        return call.args[position]
    return None


class _FactExtractor(ast.NodeVisitor):
    """Single-pass fact extraction over one module's AST."""

    def __init__(self, module: ModuleSource) -> None:
        is_package = module.path.endswith("/__init__.py")
        self.facts = FileFacts(
            path=module.path,
            module=module.module_name,
            pragmas=PragmaIndex.from_source(module.text),
        )
        self._module_name = module.module_name
        self._is_package = is_package
        self._scope: list[str] = []
        self._function_stack: list[dict[str, Any]] = []

    # -- scope bookkeeping ---------------------------------------------
    def _qualname(self) -> str:
        return ".".join(self._scope) or "<module>"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append(node.name)
        self.facts.classes[".".join(self._scope)] = node.lineno
        try:
            self.generic_visit(node)
        finally:
            self._scope.pop()

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._scope.append(node.name)
        qualname = ".".join(self._scope)
        is_public = all(
            not part.startswith("_") or part == "__init__"
            for part in self._scope
        )
        args = node.args
        params = [
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        ]
        record: dict[str, Any] = {
            "qualname": qualname,
            "line": node.lineno,
            "is_public": is_public,
            "params": tuple(params),
            "calls": [],
            "raises": [],
        }
        self._function_stack.append(record)
        try:
            self.generic_visit(node)
        finally:
            self._function_stack.pop()
            self._scope.pop()
        self.facts.functions.append(
            FunctionFacts(
                qualname=record["qualname"],
                line=record["line"],
                is_public=record["is_public"],
                params=record["params"],
                calls=tuple(record["calls"]),
                raises=tuple(record["raises"]),
            )
        )
        self._analyze_resources(node, qualname)
        self._analyze_rng(node, qualname, record["params"])

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- imports --------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.facts.module_imports[local] = target
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        target = _resolve_relative(self._module_name, self._is_package, node)
        for alias in node.names:
            if alias.name == "*":
                continue
            self.facts.from_imports[alias.asname or alias.name] = [
                target,
                alias.name,
            ]
        self.generic_visit(node)

    # -- __all__ / vocabulary literals ---------------------------------
    def _record_assignment(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name):
            return
        if target.id == "__all__" and isinstance(value, (ast.List, ast.Tuple)):
            self.facts.exports = [
                v for elt in value.elts if (v := _str_const(elt)) is not None
            ]
        elif target.id == "EVENT_TYPES" and isinstance(value, (ast.Set, ast.Call)):
            elts = (
                value.elts
                if isinstance(value, ast.Set)
                else self._frozenset_elts(value)
            )
            for elt in elts:
                name = _str_const(elt)
                if name is not None:
                    self._contract("event_register", name, elt)
        elif target.id in _REGISTRY_DICTS and isinstance(value, ast.Dict):
            for key, item in zip(value.keys, value.values):
                if (name := _str_const(key)) is not None:
                    self._contract(_REGISTRY_DICTS[target.id], name, key)
                if target.id == "_ALIASES" and (use := _str_const(item)):
                    self._contract("backend_use", use, item)

    @staticmethod
    def _frozenset_elts(call: ast.Call) -> list[ast.expr]:
        if (
            isinstance(call.func, ast.Name)
            and call.func.id in ("frozenset", "set")
            and call.args
            and isinstance(call.args[0], (ast.Set, ast.List, ast.Tuple))
        ):
            return list(call.args[0].elts)
        return []

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_assignment(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_assignment(node.target, node.value)
        self.generic_visit(node)

    # -- calls / raises -------------------------------------------------
    def _contract(self, kind: str, argument: str | None, node: ast.AST) -> None:
        self.facts.contracts.append(
            ContractSite(
                kind=kind,
                argument=argument,
                line=getattr(node, "lineno", 1),
                column=getattr(node, "col_offset", 0),
                qualname=self._qualname(),
            )
        )

    def _contract_arg(
        self, kind: str, call: ast.Call, position: int, keyword: str | None
    ) -> None:
        arg = _argument(call, position, keyword)
        if arg is None:
            return
        self._contract(kind, _str_const(arg), call)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            if self._function_stack:
                self._function_stack[-1]["calls"].append(
                    CallFact(target=dotted, line=node.lineno)
                )
            tail = dotted.split(".")[-1]
            if tail == "emit_event":
                if len(node.args) >= 2 or any(
                    kw.arg == "type" for kw in node.keywords
                ):
                    self._contract_arg("event_emit", node, 1, "type")
            elif tail == "emit" and node.args:
                # context.emit("type", ...) / local emit("type", ...);
                # sink.emit(Event(...)) passes a non-literal and is
                # recorded as a dynamic emission.
                self._contract("event_emit", _str_const(node.args[0]), node)
            elif tail == "maybe_inject":
                self._contract_arg("fault_use", node, 0, "point")
            elif tail == "FaultSpec":
                self._contract_arg("fault_use", node, 0, "point")
            elif tail == "register_fault_point":
                self._contract_arg("fault_register", node, 0, "name")
            elif tail == "resolve_kernel":
                self._contract_arg("kernel_use", node, 0, "name")
            elif tail == "CountingBackend":
                kind_arg = _argument(node, 0, "kind")
                if kind_arg is not None and _str_const(kind_arg) is not None:
                    self._contract("backend_use", _str_const(kind_arg), node)
        self.generic_visit(node)

    def visit_Raise(self, node: ast.Raise) -> None:
        if self._function_stack and node.exc is not None:
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            dotted = _dotted(exc)
            if dotted is not None:
                self._function_stack[-1]["raises"].append(
                    RaiseFact(
                        exception=dotted,
                        line=node.lineno,
                        column=node.col_offset,
                    )
                )
        self.generic_visit(node)

    # -- resource lifecycle --------------------------------------------
    def _resource_kind(self, call: ast.Call) -> str | None:
        dotted = _dotted(call.func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        tail = parts[-1]
        if tail not in _RESOURCE_TAILS:
            return None
        required = _RESOURCE_TAILS[tail]
        if required is None:
            return tail
        if len(parts) > 1:
            head = ".".join(parts[:-1])
            alias = self.facts.module_imports.get(parts[0])
            resolved = (
                head.replace(parts[0], alias, 1) if alias is not None else head
            )
            if resolved == required or required.startswith(resolved + "."):
                return f"{required}.{tail}"
            # ``np.memmap`` with np -> numpy handled above; anything
            # else with the same tail is not the tracked constructor.
            return None
        origin = self.facts.from_imports.get(tail)
        if origin is not None and origin[0] == required:
            return f"{required}.{tail}"
        return None

    def _analyze_resources(self, scope: ast.AST, qualname: str) -> None:
        """Classify resource-creation sites in one function body."""
        parents: dict[ast.AST, ast.AST] = {}
        nested: set[ast.AST] = set()

        def walk(node: ast.AST, inside_nested: bool) -> None:
            for child in ast.iter_child_nodes(node):
                parents[child] = node
                is_def = isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                )
                if inside_nested or (is_def and child is not scope):
                    nested.add(child)
                walk(child, inside_nested or (is_def and child is not scope))

        walk(scope, False)

        creations: list[tuple[ast.Call, str]] = []
        for node in parents:
            if node in nested or not isinstance(node, ast.Call):
                continue
            kind = self._resource_kind(node)
            if kind is not None:
                creations.append((node, kind))

        for call, kind in creations:
            management = self._classify_resource(call, scope, parents, nested)
            self.facts.resources.append(
                ResourceSite(
                    kind=kind,
                    management=management,
                    line=call.lineno,
                    column=call.col_offset,
                    qualname=qualname,
                )
            )

    def _classify_resource(
        self,
        call: ast.Call,
        scope: ast.AST,
        parents: dict[ast.AST, ast.AST],
        nested: set[ast.AST],
    ) -> str:
        # 1. immediate syntactic context of the creation call
        node: ast.AST = call
        while node in parents:
            parent = parents[node]
            if isinstance(parent, ast.withitem):
                return "with"
            if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
                return "escapes"
            if isinstance(parent, ast.Call) and node is not parent.func:
                return "escapes"  # argument to another call
            if isinstance(parent, ast.Attribute):
                return "escapes"  # method chained off the fresh object
            if isinstance(parent, ast.Assign):
                targets = parent.targets
                if len(targets) == 1 and isinstance(targets[0], ast.Name):
                    return self._classify_binding(
                        targets[0].id, scope, parents, nested
                    )
                return "escapes"  # tuple unpack / attribute target
            if isinstance(parent, (ast.stmt, ast.ExceptHandler)):
                break
            node = parent
        return "unmanaged"

    def _classify_binding(
        self,
        name: str,
        scope: ast.AST,
        parents: dict[ast.AST, ast.AST],
        nested: set[ast.AST],
    ) -> str:
        """Lifecycle of a resource bound to local *name* in *scope*."""
        closed_in_finally = False
        closed_plain = False
        escapes = False
        entered_with = False
        finalized = False

        finally_nodes: set[ast.AST] = set()
        for node in parents:
            if isinstance(node, ast.Try) and node not in nested:
                for stmt in node.finalbody:
                    finally_nodes.add(stmt)
                    for sub in ast.walk(stmt):
                        finally_nodes.add(sub)

        for node in parents:
            if node in nested:
                continue
            if isinstance(node, ast.withitem):
                expr = node.context_expr
                if isinstance(expr, ast.Name) and expr.id == name:
                    entered_with = True
                elif (
                    isinstance(expr, ast.Call)
                    and any(
                        isinstance(a, ast.Name) and a.id == name
                        for a in expr.args
                    )
                ):
                    entered_with = True  # with closing(res): ...
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func) or ""
                tail = dotted.split(".")[-1]
                arg_names = {
                    a.id for a in node.args if isinstance(a, ast.Name)
                }
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _CLOSERS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == name
                ):
                    if node in finally_nodes:
                        closed_in_finally = True
                    else:
                        closed_plain = True
                elif name in arg_names:
                    if tail in ("finalize", "register"):
                        finalized = True
                    else:
                        escapes = True
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if _value_escapes(getattr(node, "value", None), name):
                    escapes = True
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        if _value_escapes(node.value, name):
                            escapes = True

        if entered_with:
            return "with"
        if finalized:
            return "finalizer"
        if closed_in_finally:
            return "finally"
        if escapes:
            return "escapes"
        if closed_plain:
            return "closed_unprotected"
        return "unmanaged"

    # -- RNG taint ------------------------------------------------------
    def _analyze_rng(
        self, scope: ast.AST, qualname: str, params: tuple[str, ...]
    ) -> None:
        tainted = {p for p in params if _SEED_NAME_RE.search(p)}
        body = getattr(scope, "body", [])
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and node is not scope:
                    break
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name) and (
                            _SEED_NAME_RE.search(target.id)
                            or self._seed_class(node.value, tainted)
                            in ("int", "param", "derived")
                        ):
                            tainted.add(target.id)
                if not isinstance(node, ast.Call):
                    continue
                dotted = _dotted(node.func)
                if dotted is None:
                    continue
                tail = dotted.split(".")[-1]
                if tail not in _RNG_CONSTRUCTORS:
                    continue
                if not node.args and not node.keywords:
                    kind, detail = "no-arg", f"{tail}()"
                else:
                    seed = _argument(node, 0, "seed")
                    if seed is None:
                        seed = next(
                            (kw.value for kw in node.keywords), None
                        )
                    if seed is None:
                        kind, detail = "no-arg", f"{tail}()"
                    else:
                        kind = self._seed_class(seed, tainted)
                        detail = f"{tail}({ast.unparse(seed)})"
                self.facts.rng_sites.append(
                    RngSite(
                        seed_kind=kind,
                        detail=detail,
                        line=node.lineno,
                        column=node.col_offset,
                        qualname=qualname,
                    )
                )

    def _seed_class(self, expr: ast.expr, tainted: set[str]) -> str:
        if isinstance(expr, ast.Constant):
            if expr.value is None:
                return "entropy"
            if isinstance(expr.value, (int, bool)) or isinstance(
                expr.value, str
            ):
                return "int"
            return "opaque"
        if isinstance(expr, ast.Name):
            if expr.id in tainted or _SEED_NAME_RE.search(expr.id):
                return "param"
            return "opaque"
        if isinstance(expr, ast.Attribute):
            if _SEED_NAME_RE.search(expr.attr):
                return "param"
            return "opaque"
        if isinstance(expr, ast.Call):
            dotted = _dotted(expr.func) or ""
            tail = dotted.split(".")[-1]
            if tail in _SEED_TRANSFORMS or _SEED_NAME_RE.search(dotted):
                if not expr.args and not expr.keywords:
                    return "entropy"
                kinds = [
                    self._seed_class(a, tainted)
                    for a in (*expr.args, *(kw.value for kw in expr.keywords))
                ]
                if any(k in ("int", "param", "derived") for k in kinds):
                    return "derived"
                if all(k == "entropy" for k in kinds):
                    return "entropy"
                return "opaque"
            return "opaque"
        if isinstance(expr, ast.BinOp):
            left = self._seed_class(expr.left, tainted)
            right = self._seed_class(expr.right, tainted)
            if "param" in (left, right) or "derived" in (left, right):
                return "derived"
            if left == "int" and right == "int":
                return "int"
            return "opaque"
        if isinstance(expr, ast.UnaryOp):
            return self._seed_class(expr.operand, tainted)
        if isinstance(expr, ast.Subscript):
            return self._seed_class(expr.value, tainted)
        if isinstance(expr, ast.IfExp):
            body = self._seed_class(expr.body, tainted)
            orelse = self._seed_class(expr.orelse, tainted)
            ranked = ("entropy", "opaque", "derived", "param", "int")
            return min((body, orelse), key=ranked.index)
        return "opaque"


def extract_facts(module: ModuleSource) -> FileFacts:
    """One-pass fact extraction for *module*."""
    extractor = _FactExtractor(module)
    extractor.visit(module.tree)
    return extractor.facts


# ----------------------------------------------------------------------
# the project graph
# ----------------------------------------------------------------------
class ProjectGraph:
    """Whole-program view assembled from per-file facts."""

    def __init__(self, files: dict[str, FileFacts]) -> None:
        #: normalized path -> facts, insertion order irrelevant (all
        #: derived structures sort).
        self.files = dict(sorted(files.items()))
        self._modules: dict[str, str] = {}
        for path, facts in self.files.items():
            self._modules[facts.module] = path
        self._functions: dict[tuple[str, str], FunctionFacts] = {}
        for path, facts in self.files.items():
            for fn in facts.functions:
                self._functions[(facts.module, fn.qualname)] = fn

    # -- modules & imports ---------------------------------------------
    @property
    def modules(self) -> dict[str, str]:
        """Dotted module name -> normalized path."""
        return dict(self._modules)

    def facts_for_module(self, module: str) -> FileFacts | None:
        path = self._modules.get(module)
        return None if path is None else self.files[path]

    def import_edges(self) -> dict[str, set[str]]:
        """Project-internal import edges, module -> imported modules."""
        edges: dict[str, set[str]] = {}
        for facts in self.files.values():
            targets: set[str] = set()
            for target in facts.module_imports.values():
                if target in self._modules:
                    targets.add(target)
            for target, _orig in facts.from_imports.values():
                if target in self._modules:
                    targets.add(target)
                else:
                    # ``from pkg import name`` where pkg.name is a module
                    for local, (mod, orig) in facts.from_imports.items():
                        dotted = f"{mod}.{orig}"
                        if dotted in self._modules:
                            targets.add(dotted)
            edges[facts.module] = targets
        return edges

    def import_cycles(self) -> list[list[str]]:
        """Strongly connected components with more than one module (or a
        self-loop), each sorted, the list sorted — deterministic."""
        edges = self.import_edges()
        index_counter = [0]
        stack: list[str] = []
        lowlink: dict[str, int] = {}
        index: dict[str, int] = {}
        on_stack: set[str] = set()
        cycles: list[list[str]] = []

        def strongconnect(node: str) -> None:
            index[node] = lowlink[node] = index_counter[0]
            index_counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            for succ in sorted(edges.get(node, ())):
                if succ not in index:
                    strongconnect(succ)
                    lowlink[node] = min(lowlink[node], lowlink[succ])
                elif succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if lowlink[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in edges.get(node, ()):
                    cycles.append(sorted(component))

        for node in sorted(edges):
            if node not in index:
                strongconnect(node)
        return sorted(cycles)

    def exports(self, module: str) -> list[str] | None:
        """The module's ``__all__``, or None when it declares none."""
        facts = self.facts_for_module(module)
        return None if facts is None else facts.exports

    # -- symbols --------------------------------------------------------
    def resolve_symbol(
        self, module: str, name: str, _depth: int = 0
    ) -> tuple[str, str] | None:
        """Resolve *name* in *module* to its defining ``(module, qualname)``.

        Follows re-export chains (``from .impl import Thing`` in an
        ``__init__``) up to a bounded depth.  Returns None for external
        or unresolvable names.
        """
        if _depth > 16:
            return None
        facts = self.facts_for_module(module)
        if facts is None:
            return None
        head = name.split(".")[0]
        rest = name[len(head):]
        if (module, name) in self._functions or name in facts.classes:
            return (module, name)
        if head in facts.classes or (module, head) in self._functions:
            return (module, name)
        origin = facts.from_imports.get(head)
        if origin is not None:
            target_module, orig = origin
            # ``from pkg import submodule`` binds a module, not a symbol
            submodule = f"{target_module}.{orig}"
            if submodule in self._modules:
                if rest:
                    return self.resolve_symbol(
                        submodule, rest.lstrip("."), _depth + 1
                    )
                return None
            return self.resolve_symbol(
                target_module, orig + rest, _depth + 1
            )
        alias = facts.module_imports.get(head)
        if alias is not None and alias in self._modules and rest:
            return self.resolve_symbol(alias, rest.lstrip("."), _depth + 1)
        return None

    # -- call graph -----------------------------------------------------
    def function(self, module: str, qualname: str) -> FunctionFacts | None:
        return self._functions.get((module, qualname))

    def _as_function_key(
        self, module: str, qualname: str
    ) -> tuple[str, str] | None:
        """Snap a resolved symbol to a function key.

        A call to a class resolves to its ``__init__`` or — for
        dataclasses, whose generated ``__init__`` invokes it — to
        ``__post_init__``.
        """
        if (module, qualname) in self._functions:
            return (module, qualname)
        for implicit in ("__init__", "__post_init__"):
            candidate = f"{qualname}.{implicit}"
            if (module, candidate) in self._functions:
                return (module, candidate)
        return None

    def resolve_call(
        self, module: str, caller: str, target: str
    ) -> tuple[str, str] | None:
        """Resolve one call site to a project function key, or None."""
        facts = self.facts_for_module(module)
        if facts is None:
            return None
        parts = target.split(".")
        if parts[0] in ("self", "cls") and len(parts) >= 2:
            # method call within the enclosing class
            caller_parts = caller.split(".")
            for cut in range(len(caller_parts) - 1, 0, -1):
                prefix = caller_parts[:cut]
                candidate = ".".join(prefix + parts[1:])
                key = self._as_function_key(module, candidate)
                if key is not None:
                    return key
            return None
        resolved = self.resolve_symbol(module, target)
        if resolved is None:
            return None
        return self._as_function_key(*resolved)

    def entry_points(self, patterns: tuple[str, ...]) -> list[tuple[str, str]]:
        """Public functions of the modules matching *patterns*, sorted."""
        entries: list[tuple[str, str]] = []
        for path, facts in self.files.items():
            if not any(fnmatch(path, pattern) for pattern in patterns):
                continue
            for fn in facts.functions:
                if fn.is_public:
                    entries.append((facts.module, fn.qualname))
        return sorted(entries)

    def reachable_from(
        self, entries: list[tuple[str, str]]
    ) -> dict[tuple[str, str], tuple[str, str]]:
        """BFS over resolvable call edges.

        Returns ``{function key: entry key it was first reached from}``
        with deterministic tie-breaking (entries processed in sorted
        order, queue FIFO).
        """
        origin: dict[tuple[str, str], tuple[str, str]] = {}
        queue: list[tuple[str, str]] = []
        for entry in sorted(entries):
            if entry in self._functions and entry not in origin:
                origin[entry] = entry
                queue.append(entry)
        head = 0
        while head < len(queue):
            key = queue[head]
            head += 1
            module, qualname = key
            fn = self._functions[key]
            for call in fn.calls:
                callee = self.resolve_call(module, qualname, call.target)
                if callee is not None and callee not in origin:
                    origin[callee] = origin[key]
                    queue.append(callee)
        return origin

    # -- contract indexes ----------------------------------------------
    def contract_sites(
        self, kind: str, *, literal_only: bool = False
    ) -> list[tuple[str, ContractSite]]:
        """All ``(path, site)`` pairs of one contract kind, sorted."""
        if kind not in _CONTRACT_KINDS:
            raise ValueError(f"unknown contract kind {kind!r}")
        sites = [
            (path, site)
            for path, facts in self.files.items()
            for site in facts.contracts
            if site.kind == kind
            and (site.argument is not None or not literal_only)
        ]
        sites.sort(key=lambda item: (item[0], item[1].line, item[1].column))
        return sites

    def contract_names(self, kind: str) -> set[str]:
        """The distinct literal names at sites of one contract kind."""
        return {
            site.argument
            for _path, site in self.contract_sites(kind, literal_only=True)
            if site.argument is not None
        }
