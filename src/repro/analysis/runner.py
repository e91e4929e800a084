"""Drive the rules over a file tree and fold in pragmas + baseline.

Two rule families share one run:

* **file rules** (RPL001-RPL004, RPL006, RPL007, RPL009) check one
  module AST at a time;
* **project rules** (RPL010-RPL014) run against the
  :class:`~repro.analysis.graph.ProjectGraph` assembled from every
  file's extracted facts.

Every run is a single cold pass: each file is read, parsed and its
pragmas indexed exactly once, and both families share that index.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Sequence

from ..exceptions import ValidationError
from .baseline import Baseline
from .config import LintConfig
from .graph import FileFacts, ProjectGraph, extract_facts
from .pragmas import PragmaIndex
from .project_rules import ALL_PROJECT_RULES, ProjectRule
from .rules import RuleVisitor, rules_by_code
from .sources import ModuleSource, iter_python_files, normalize_path
from .violations import Violation

__all__ = [
    "LintResult",
    "all_rule_classes",
    "lint_paths",
    "lint_source",
    "select_rules",
]


@dataclass
class LintResult:
    """Everything one lint run produced.

    ``violations`` are the *actionable* findings (not suppressed, not
    grandfathered); ``baselined`` are matches absorbed by the baseline;
    ``errors`` are files that could not be parsed (reported as
    violations of pseudo-code ``RPL000`` so they still fail the gate).
    ``stale_baseline`` lists baseline keys that matched nothing this
    run — entries whose violation has been fixed and that should be
    pruned (``--update-baseline``) or failed on (``--check-baseline``).
    """

    violations: list[Violation] = field(default_factory=list)
    baselined: list[Violation] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    #: baseline keys (code, path, qualname, message) that matched nothing.
    stale_baseline: list[tuple[str, str, str, str]] = field(
        default_factory=list
    )

    @property
    def exit_code(self) -> int:
        return 1 if self.violations else 0


def all_rule_classes() -> dict[str, type]:
    """Every known rule class — file and project — keyed by code."""
    registry: dict[str, type] = dict(rules_by_code())
    for rule in ALL_PROJECT_RULES:
        registry[rule.code] = type(rule)
    return registry


def select_rules(
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> list[RuleVisitor | ProjectRule]:
    """Instantiate the rule set, honouring ``--select`` / ``--ignore``.

    Repeated codes are harmless: each selected rule runs once, in code
    order.
    """
    registry = all_rule_classes()
    for code in list(select or []) + list(ignore or []):
        if code not in registry:
            raise ValidationError(
                f"unknown rule code {code!r}; known: {', '.join(sorted(registry))}"
            )
    chosen = set(select) if select else set(registry)
    chosen -= set(ignore or ())
    return [registry[code]() for code in sorted(chosen)]


def lint_source(
    module: ModuleSource,
    rules: Sequence[RuleVisitor],
    config: LintConfig,
    pragmas: PragmaIndex | None = None,
) -> tuple[list[Violation], int]:
    """All un-suppressed violations in one module + suppressed count.

    *pragmas* is the module's already-parsed index, if the caller has
    one; otherwise it is parsed from ``module.text``.
    """
    if pragmas is None:
        pragmas = PragmaIndex.from_source(module.text)
    kept: list[Violation] = []
    suppressed = 0
    for rule in rules:
        if getattr(rule, "scope", "file") != "file":
            continue  # project rules need the graph, not one module
        for violation in rule.check(module, config):
            if pragmas.suppresses(violation):
                suppressed += 1
            else:
                kept.append(violation)
    return kept, suppressed


def lint_paths(
    paths: Sequence[Path | str],
    *,
    config: LintConfig | None = None,
    baseline: Baseline | None = None,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> LintResult:
    """Lint every python file under *paths* (file + project rules).

    Parse failures become ``RPL000`` violations rather than crashes, so
    one broken file cannot hide findings in the rest of the tree.  A
    path that does not exist raises :class:`ValidationError`.
    """
    config = config if config is not None else LintConfig()
    rules = select_rules(select, ignore)
    file_rules = [r for r in rules if getattr(r, "scope", "file") == "file"]
    project_rules = [r for r in rules if getattr(r, "scope", "file") == "project"]

    result = LintResult()
    facts_by_path: dict[str, FileFacts] = {}
    found: list[Violation] = []

    for file_path in iter_python_files([Path(p) for p in paths]):
        try:
            text = file_path.read_bytes().decode("utf-8")
            tree = ast.parse(text, filename=str(file_path))
        except (OSError, UnicodeDecodeError, SyntaxError) as exc:
            lineno = getattr(exc, "lineno", None) or 1
            result.violations.append(
                Violation(
                    path=str(file_path),
                    line=int(lineno),
                    column=0,
                    code="RPL000",
                    message=f"file does not parse: {exc.__class__.__name__}",
                )
            )
            continue
        module = ModuleSource(path=normalize_path(file_path), text=text, tree=tree)
        facts = extract_facts(module)
        file_found, suppressed = lint_source(
            module, file_rules, config, facts.pragmas
        )
        result.files_checked += 1
        result.suppressed += suppressed
        found.extend(file_found)
        facts_by_path[module.path] = facts

    # ------------------------------------------------------------------
    # project pass: one graph over every file's facts
    # ------------------------------------------------------------------
    if project_rules:
        graph = ProjectGraph(facts_by_path)
        for rule in project_rules:
            for violation in rule.check_project(graph, config):
                facts = facts_by_path.get(violation.path)
                if facts is not None and facts.pragmas.suppresses(violation):
                    result.suppressed += 1
                else:
                    found.append(violation)

    if baseline is not None:
        fresh, known = baseline.split(found)
        result.violations.extend(fresh)
        result.baselined.extend(known)
        matched = {v.key() for v in known}
        result.stale_baseline = sorted(
            key for key in baseline.keys() if key not in matched
        )
    else:
        result.violations.extend(found)
    result.violations.sort()
    result.baselined.sort()
    return result
