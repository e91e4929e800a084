"""Unit tests for ``repro.analysis.graph``: the project-wide index.

Covers the graph builder itself — import-cycle detection, re-export
resolution, ``__all__`` capture, call resolution — plus the fact
extractor, including the pragma index it hands to both lint passes.
"""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.graph import FileFacts, ProjectGraph, extract_facts
from repro.analysis.sources import ModuleSource


def facts_for(path: str, text: str) -> FileFacts:
    source = textwrap.dedent(text)
    module = ModuleSource(path=path, text=source, tree=ast.parse(source))
    return extract_facts(module)


def build_graph(files: dict) -> ProjectGraph:
    return ProjectGraph(
        {path: facts_for(path, text) for path, text in files.items()}
    )


class TestFactExtraction:
    def test_facts_carry_the_parsed_pragma_index(self):
        facts = facts_for(
            "repro/sample.py",
            """
            # repro-lint: disable-file=RPL003
            import time
            t = time.time()  # repro-lint: disable=RPL002, RPL009
            """,
        )
        assert facts.pragmas.file_codes == {"RPL003"}
        assert facts.pragmas.line_codes == {4: {"RPL002", "RPL009"}}

    def test_exports_and_classes_are_captured(self):
        facts = facts_for(
            "repro/sample.py",
            """
            __all__ = ["Alpha", "beta"]
            class Alpha:
                class Inner: ...
            def beta(): ...
            """,
        )
        assert facts.exports == ["Alpha", "beta"]
        assert set(facts.classes) == {"Alpha", "Alpha.Inner"}

    def test_module_without_all_reports_none(self):
        assert facts_for("repro/sample.py", "x = 1\n").exports is None

    def test_relative_imports_resolve_against_module_path(self):
        facts = facts_for(
            "repro/grid/reader.py",
            """
            from .cells import CellIndex
            from ..engine.events import emit_event
            """,
        )
        assert facts.from_imports["CellIndex"] == ["repro.grid.cells", "CellIndex"]
        assert facts.from_imports["emit_event"] == [
            "repro.engine.events", "emit_event",
        ]


class TestImportGraph:
    def test_cycle_detection_finds_scc(self):
        graph = build_graph(
            {
                "repro/a.py": "from repro.b import thing\n",
                "repro/b.py": "from repro.c import other\n",
                "repro/c.py": "from repro.a import thing\n",
                "repro/leaf.py": "from repro.a import thing\n",
            }
        )
        assert graph.import_cycles() == [["repro.a", "repro.b", "repro.c"]]

    def test_acyclic_tree_has_no_cycles(self):
        graph = build_graph(
            {
                "repro/a.py": "from repro.b import thing\n",
                "repro/b.py": "x = 1\n",
            }
        )
        assert graph.import_cycles() == []

    def test_cycles_are_deterministically_ordered(self):
        files = {
            "repro/a.py": "from repro.b import t\n",
            "repro/b.py": "from repro.a import t\n",
            "repro/x.py": "from repro.y import t\n",
            "repro/y.py": "from repro.x import t\n",
        }
        first = build_graph(files).import_cycles()
        second = build_graph(dict(reversed(list(files.items())))).import_cycles()
        assert first == second == [["repro.a", "repro.b"], ["repro.x", "repro.y"]]


class TestSymbolResolution:
    def test_resolves_symbol_defined_in_module(self):
        graph = build_graph({"repro/mod.py": "def helper(): ...\n"})
        assert graph.resolve_symbol("repro.mod", "helper") == (
            "repro.mod", "helper",
        )

    def test_follows_re_export_chain(self):
        graph = build_graph(
            {
                "repro/pkg/__init__.py": "from .impl import Thing\n",
                "repro/pkg/impl.py": "class Thing: ...\n",
                "repro/user.py": "from repro.pkg import Thing\n",
            }
        )
        assert graph.resolve_symbol("repro.user", "Thing") == (
            "repro.pkg.impl", "Thing",
        )

    def test_external_symbol_resolves_to_none(self):
        graph = build_graph({"repro/mod.py": "import numpy as np\n"})
        assert graph.resolve_symbol("repro.mod", "np.memmap") is None

    def test_call_resolution_crosses_modules(self):
        graph = build_graph(
            {
                "repro/core/api.py": (
                    "from repro.internal.helper import load\n"
                    "def entry(path):\n"
                    "    return load(path)\n"
                ),
                "repro/internal/helper.py": "def load(path): ...\n",
            }
        )
        assert graph.resolve_call("repro.core.api", "entry", "load") == (
            "repro.internal.helper", "load",
        )
        origin = graph.reachable_from([("repro.core.api", "entry")])
        assert ("repro.internal.helper", "load") in origin
