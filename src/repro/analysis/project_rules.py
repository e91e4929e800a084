"""Cross-module contract rules (RPL010-RPL014).

These rules run against the :class:`~repro.analysis.graph.ProjectGraph`
rather than a single module AST — each one checks a contract whose two
halves live in different files:

=======  ==========================================================
RPL010   every emitted event type is in ``EVENT_TYPES``; every
         registered type has at least one emitter
RPL011   public entry points only let ``ReproError`` subclasses
         escape — bare builtin raises reachable from them are flagged
RPL012   memmap/pool/tempdir creations are closed on all paths
         (``with`` / ``try-finally`` / registered finalizer)
RPL013   a ``Generator`` must be seeded from a seed/rng parameter or
         an integer literal — entropy/opaque seeding is flagged
RPL014   fault-point / kernel / backend names resolve to a
         registration somewhere in the project
=======  ==========================================================

A project rule reports violations with file/line/qualname exactly like
the single-file rules, so pragmas, baseline, and reporters all work
unchanged.  The ``scope`` attribute ("project" here, "file" for the
PR-5 rules) is how the runner tells the two families apart.
"""

from __future__ import annotations

from fnmatch import fnmatch

from ..engine.events import EVENT_TYPES
from .config import LintConfig
from .graph import ProjectGraph
from .violations import Violation

__all__ = [
    "ALL_PROJECT_RULES",
    "ProjectRule",
    "RPL010EventContract",
    "RPL011ExceptionContract",
    "RPL012ResourceLifecycle",
    "RPL013RngTaint",
    "RPL014RegistryConsistency",
]


class ProjectRule:
    """Base class for whole-program rules.

    Subclasses set ``code``/``name``/``description`` and implement
    :meth:`check_project`; the runner collects the returned violations
    and then applies pragmas and the baseline uniformly.
    """

    code: str = "RPL000"
    name: str = "project-rule"
    description: str = ""
    scope: str = "project"

    def check_project(
        self, graph: ProjectGraph, config: LintConfig
    ) -> list[Violation]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    @staticmethod
    def _in_scope(path: str, patterns: tuple[str, ...]) -> bool:
        return any(fnmatch(path, pattern) for pattern in patterns)


class RPL010EventContract(ProjectRule):
    """Event vocabulary closed both ways.

    An emitted type missing from the vocabulary would raise at runtime
    — but only on the first run that reaches the emit site; a
    registered type with no emitter is dead vocabulary that consumers
    (trace tooling, the docs table) believe exists.  The vocabulary is
    the ``EVENT_TYPES`` literal of the linted tree; a tree without one
    (a single file, or ``tests/`` alone) is judged against the
    installed :data:`repro.engine.events.EVENT_TYPES`, and then only
    the emit direction applies.  Dynamic emissions (the type flows
    through a variable, e.g. the degradation ladder's ``_emit``
    forwarder) are visible in the graph but cannot prove a type live,
    so they satisfy neither direction.
    """

    code = "RPL010"
    name = "event-contract"
    description = (
        "every emitted event type must be registered and every "
        "registered type must have at least one literal emitter"
    )

    def check_project(
        self, graph: ProjectGraph, config: LintConfig
    ) -> list[Violation]:
        violations: list[Violation] = []
        registered = graph.contract_names("event_register") or EVENT_TYPES
        emitted = graph.contract_names("event_emit")
        for path, site in graph.contract_sites("event_emit", literal_only=True):
            if site.argument not in registered:
                violations.append(
                    Violation(
                        path=path,
                        line=site.line,
                        column=site.column,
                        code=self.code,
                        message=(
                            f"event type {site.argument!r} is emitted but "
                            "never registered in EVENT_TYPES"
                        ),
                        qualname=site.qualname,
                    )
                )
        for path, site in graph.contract_sites(
            "event_register", literal_only=True
        ):
            if site.argument not in emitted:
                violations.append(
                    Violation(
                        path=path,
                        line=site.line,
                        column=site.column,
                        code=self.code,
                        message=(
                            f"event type {site.argument!r} is registered "
                            "but never emitted anywhere in the project"
                        ),
                        qualname=site.qualname,
                    )
                )
        return violations


class RPL011ExceptionContract(ProjectRule):
    """Public API errors must be typed.

    ``repro.exceptions`` promises that every deliberate error derives
    from :class:`ReproError`, so callers can write one ``except``
    clause.  A bare ``raise ValueError`` four calls below a public
    entry point silently breaks that promise.  The rule walks the call
    graph from every public function in the entry-point modules and
    flags reachable raises of the banned builtin types; the fix is
    almost always a one-line switch to the matching typed subclass
    (``ValidationError`` *is a* ``ValueError``, ``ResourceError`` *is
    an* ``OSError``, so external callers keep working).
    """

    code = "RPL011"
    name = "exception-contract"
    description = (
        "public entry points may only let ReproError subclasses "
        "escape; bare builtin raises reachable from them are flagged"
    )

    def check_project(
        self, graph: ProjectGraph, config: LintConfig
    ) -> list[Violation]:
        entries = graph.entry_points(config.entry_point_modules)
        origin = graph.reachable_from(entries)
        banned = config.escape_exception_names
        violations: list[Violation] = []
        seen: set[tuple[str, int, str]] = set()
        for (module, qualname), entry in sorted(origin.items()):
            fn = graph.function(module, qualname)
            if fn is None:
                continue
            path = graph.modules.get(module)
            if path is None:
                continue
            for fact in fn.raises:
                tail = fact.exception.split(".")[-1]
                if tail not in banned:
                    continue
                # The local name may shadow the builtin with a typed
                # import (``from .exceptions import ValidationError as
                # ValueError`` would be perverse but legal) — resolve
                # and skip if it lands on a project symbol.
                if graph.resolve_symbol(module, fact.exception) is not None:
                    continue
                key = (path, fact.line, tail)
                if key in seen:
                    continue
                seen.add(key)
                violations.append(
                    Violation(
                        path=path,
                        line=fact.line,
                        column=fact.column,
                        code=self.code,
                        message=(
                            f"raise {tail} is reachable from public entry "
                            f"point {entry[0]}.{entry[1]}; raise a "
                            "ReproError subclass instead"
                        ),
                        qualname=qualname,
                    )
                )
        return violations


class RPL012ResourceLifecycle(ProjectRule):
    """OS-backed resources must be released on all paths.

    A memmap view holds a file descriptor, a pool holds worker
    processes, a temp directory holds disk — on the exception path an
    unmanaged creation leaks all three until interpreter exit.  The
    extractor classifies every creation site; this rule flags the two
    classifications with a provable leak path: ``unmanaged`` (never
    released) and ``closed_unprotected`` (released, but a raise between
    creation and the close skips it).  Objects that *escape* the
    creating function are owned by the caller and judged at that
    caller's site when it, in turn, creates-or-stores them.
    """

    code = "RPL012"
    name = "resource-lifecycle"
    description = (
        "memmap/pool/tempdir creations must be released via with, "
        "try/finally, or a registered finalizer on all paths"
    )

    _FLAGGED = {"unmanaged", "closed_unprotected"}

    def check_project(
        self, graph: ProjectGraph, config: LintConfig
    ) -> list[Violation]:
        violations: list[Violation] = []
        for path, facts in graph.files.items():
            if not self._in_scope(path, config.resource_checked_modules):
                continue
            for site in facts.resources:
                if site.management not in self._FLAGGED:
                    continue
                how = (
                    "is never released"
                    if site.management == "unmanaged"
                    else "is closed outside try/finally (leaks if an "
                    "exception interleaves)"
                )
                violations.append(
                    Violation(
                        path=path,
                        line=site.line,
                        column=site.column,
                        code=self.code,
                        message=f"{site.kind} created here {how}",
                        qualname=site.qualname,
                    )
                )
        return violations


class RPL013RngTaint(ProjectRule):
    """Generators must be seeded from the run's seed lineage.

    Reproducibility is the paper's headline claim; one Generator built
    from OS entropy anywhere in the counting path silently breaks it.
    The extractor traces each RNG constructor's seed argument: integer
    literals and values flowing from seed/rng-named parameters (one
    assignment hop, arithmetic, and seed transforms like ``spawn`` /
    ``check_rng`` included) are fine; explicit ``None`` and values the
    tracer cannot connect to a seed are flagged.  Zero-argument
    constructors are RPL001's single-file territory and skipped here.
    """

    code = "RPL013"
    name = "rng-taint"
    description = (
        "seeded Generators must flow from a seed/rng parameter or an "
        "integer literal; entropy or untraceable seeding is flagged"
    )

    _FLAGGED = {"entropy", "opaque"}

    def check_project(
        self, graph: ProjectGraph, config: LintConfig
    ) -> list[Violation]:
        violations: list[Violation] = []
        for path, facts in graph.files.items():
            if not self._in_scope(path, config.rng_taint_modules):
                continue
            if self._in_scope(path, config.rng_allowed_modules):
                continue
            for site in facts.rng_sites:
                if site.seed_kind not in self._FLAGGED:
                    continue
                why = (
                    "explicit None seed draws OS entropy"
                    if site.seed_kind == "entropy"
                    else "seed cannot be traced to a seed/rng parameter "
                    "or integer literal"
                )
                violations.append(
                    Violation(
                        path=path,
                        line=site.line,
                        column=site.column,
                        code=self.code,
                        message=f"{site.detail}: {why}",
                        qualname=site.qualname,
                    )
                )
        return violations


class RPL014RegistryConsistency(ProjectRule):
    """String names handed to name tables must resolve.

    ``maybe_inject("shard_raed")`` is a no-op typo today and a dead
    chaos test forever; ``CountingBackend(kind="natve")`` raises — but
    only on the path it was supposed to exercise.  Every literal name
    passed to a fault-injection, kernel, or backend lookup must be a key
    of the project's ``FAULT_POINTS``, ``KERNELS``, ``PLACEMENTS`` or
    ``_ALIASES`` dict literal (or a ``register_fault_point`` call), and
    every ``_ALIASES`` value must name a placement.  The reverse
    direction (defined-but-unused) is deliberately *not* checked: a
    table may hold entries the core never names.
    """

    code = "RPL014"
    name = "registry-consistency"
    description = (
        "fault-point, kernel, and backend names passed to lookups "
        "must match a registration somewhere in the project"
    )

    _PAIRS = (
        ("fault_use", "fault_register", "fault point"),
        ("kernel_use", "kernel_register", "kernel"),
        ("backend_use", "backend_register", "backend"),
    )

    def check_project(
        self, graph: ProjectGraph, config: LintConfig
    ) -> list[Violation]:
        violations: list[Violation] = []
        for use_kind, register_kind, label in self._PAIRS:
            registered = graph.contract_names(register_kind)
            for path, site in graph.contract_sites(
                use_kind, literal_only=True
            ):
                if site.argument in registered:
                    continue
                violations.append(
                    Violation(
                        path=path,
                        line=site.line,
                        column=site.column,
                        code=self.code,
                        message=(
                            f"{label} {site.argument!r} is not registered "
                            "anywhere in the project"
                        ),
                        qualname=site.qualname,
                    )
                )
        return violations


ALL_PROJECT_RULES: tuple[ProjectRule, ...] = (
    RPL010EventContract(),
    RPL011ExceptionContract(),
    RPL012ResourceLifecycle(),
    RPL013RngTaint(),
    RPL014RegistryConsistency(),
)
