"""Source-file loading and path normalization for the linter.

Paths are normalized so rule allowlists and baseline entries are
machine-independent: a file inside a ``repro`` package tree is named
from that root (``repro/grid/parallel.py``) regardless of where the
checkout lives; anything else keeps its walk-relative posix path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path

from ..exceptions import ValidationError

__all__ = ["ModuleSource", "normalize_path", "iter_python_files"]


def normalize_path(path: Path) -> str:
    """Stable posix path: rooted at the innermost ``repro`` component."""
    parts = path.as_posix().split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return path.as_posix()


@dataclass
class ModuleSource:
    """One parsed python module handed to every rule."""

    path: str
    text: str
    tree: ast.Module

    @classmethod
    def parse(cls, file_path: Path) -> "ModuleSource":
        text = file_path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(file_path))
        return cls(path=normalize_path(file_path), text=text, tree=tree)

    @property
    def module_name(self) -> str:
        """Dotted module name (``repro.grid.parallel``) best-effort."""
        trimmed = self.path.removesuffix(".py").removesuffix("/__init__")
        return trimmed.replace("/", ".")

    def matches(self, patterns: tuple[str, ...]) -> bool:
        """Whether the normalized path matches any fnmatch pattern."""
        return any(fnmatch(self.path, pattern) for pattern in patterns)


def iter_python_files(roots: list[Path]) -> list[Path]:
    """All ``.py`` files under *roots* (files pass through), sorted.

    Hidden directories and ``__pycache__`` are skipped so a repo root
    can be linted directly.  A root that does not exist raises
    :class:`ValidationError`: a mistyped path must fail the gate, not
    lint nothing and pass it.  An existing but empty directory is fine.
    """
    seen: set[Path] = set()
    for root in roots:
        if not root.exists():
            raise ValidationError(f"lint path does not exist: {root}")
        if root.is_file():
            if root.suffix == ".py":
                seen.add(root)
            continue
        for candidate in root.rglob("*.py"):
            if any(
                part.startswith(".") or part == "__pycache__"
                for part in candidate.relative_to(root).parts
            ):
                continue
            seen.add(candidate)
    return sorted(seen)
