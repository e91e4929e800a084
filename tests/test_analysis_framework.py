"""Framework tests: pragmas, baseline, reporters, runner and CLI.

These lock the parts of ``repro.analysis`` that other tooling depends
on — the pragma grammar, the line-number-free baseline matching, the
JSON report schema (``REPORT_VERSION``) and the CLI exit-code
contract (0 clean / 1 violations / 2 usage error).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import Baseline, PragmaIndex, Violation, lint_paths
from repro.analysis.cli import main as lint_main
from repro.analysis.report import REPORT_VERSION, render_json, render_text
from repro.analysis.runner import select_rules
from repro.exceptions import ValidationError

UNSEEDED = "import numpy as np\nrng = np.random.default_rng()\n"
REPO_ROOT = Path(__file__).resolve().parents[1]


def _violation(**overrides):
    payload = {
        "path": "repro/sample.py",
        "line": 3,
        "column": 4,
        "code": "RPL001",
        "message": "unseeded rng",
        "qualname": "Sampler.draw",
    }
    payload.update(overrides)
    return Violation(**payload)


class TestPragmas:
    def test_line_pragma_suppresses_named_code_on_that_line(self):
        index = PragmaIndex.from_source(
            "x = 1\ny = clock()  # repro-lint: disable=RPL002\n"
        )
        assert index.suppresses(_violation(code="RPL002", line=2))
        assert not index.suppresses(_violation(code="RPL002", line=1))
        assert not index.suppresses(_violation(code="RPL001", line=2))

    def test_bare_disable_suppresses_every_code(self):
        index = PragmaIndex.from_source("y = f()  # repro-lint: disable\n")
        assert index.suppresses(_violation(code="RPL007", line=1))

    def test_file_pragma_suppresses_everywhere(self):
        index = PragmaIndex.from_source(
            "# repro-lint: disable-file=RPL001\nx = 1\ny = 2\n"
        )
        assert index.suppresses(_violation(code="RPL001", line=3))
        assert not index.suppresses(_violation(code="RPL002", line=3))

    def test_comma_separated_codes(self):
        index = PragmaIndex.from_source(
            "z = g()  # repro-lint: disable=RPL001, RPL003\n"
        )
        assert index.suppresses(_violation(code="RPL001", line=1))
        assert index.suppresses(_violation(code="RPL003", line=1))
        assert not index.suppresses(_violation(code="RPL002", line=1))

    def test_pragma_end_to_end(self, tmp_path):
        target = tmp_path / "repro" / "mod.py"
        target.parent.mkdir()
        target.write_text(
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro-lint: disable=RPL001\n"
        )
        result = lint_paths([tmp_path])
        assert result.violations == []
        assert result.suppressed == 1


class TestBaseline:
    def test_round_trip_preserves_entries_and_justifications(self, tmp_path):
        baseline = Baseline()
        violation = _violation()
        baseline.add(violation, "measured deadline enforcement")
        path = tmp_path / "baseline.json"
        baseline.save(path)

        loaded = Baseline.load(path)
        assert loaded.contains(violation)
        assert (
            loaded.justification_for(violation)
            == "measured deadline enforcement"
        )

    def test_matching_ignores_line_and_column(self, tmp_path):
        baseline = Baseline()
        baseline.add(_violation(line=3, column=4), "justified")
        moved = _violation(line=99, column=0)
        assert baseline.contains(moved)

    def test_empty_justification_is_rejected(self):
        with pytest.raises(ValidationError, match="justification"):
            Baseline().add(_violation(), "   ")

    def test_unknown_version_is_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValidationError, match="version"):
            Baseline.load(path)

    def test_corrupt_file_is_a_usage_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="not valid JSON"):
            Baseline.load(path)

    def test_baseline_absorbs_known_violations_in_runner(self, tmp_path):
        target = tmp_path / "repro" / "mod.py"
        target.parent.mkdir()
        target.write_text(UNSEEDED)
        raw = lint_paths([tmp_path])
        assert len(raw.violations) == 1

        baseline = Baseline.from_violations(raw.violations, "grandfathered")
        gated = lint_paths([tmp_path], baseline=baseline)
        assert gated.violations == []
        assert len(gated.baselined) == 1
        assert gated.exit_code == 0


class TestRunner:
    def test_unknown_rule_code_raises(self):
        with pytest.raises(ValidationError, match="unknown rule code"):
            select_rules(select=["RPL999"])

    def test_ignore_removes_codes(self):
        rules = select_rules(ignore=["RPL001", "RPL002"])
        assert sorted(r.code for r in rules) == [
            "RPL003", "RPL004", "RPL006", "RPL007", "RPL009",
            "RPL010", "RPL011", "RPL012", "RPL013", "RPL014",
        ]

    def test_parse_failure_becomes_rpl000(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        result = lint_paths([tmp_path])
        assert [v.code for v in result.violations] == ["RPL000"]
        assert result.exit_code == 1

    def test_pycache_and_hidden_dirs_are_skipped(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "cached.py").write_text(UNSEEDED)
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "secret.py").write_text(UNSEEDED)
        (tmp_path / "visible.py").write_text("x = 1\n")
        result = lint_paths([tmp_path])
        assert result.files_checked == 1
        assert result.violations == []


class TestReporters:
    def _result(self, tmp_path):
        target = tmp_path / "repro" / "mod.py"
        target.parent.mkdir()
        target.write_text(UNSEEDED)
        return lint_paths([tmp_path])

    def test_json_schema_is_locked(self, tmp_path):
        payload = json.loads(render_json(self._result(tmp_path)))
        assert payload["version"] == REPORT_VERSION
        assert sorted(payload) == [
            "baselined", "stale_baseline", "summary", "version",
            "violations",
        ]
        assert sorted(payload["summary"]) == [
            "baselined", "exit_code", "files_checked", "stale_baseline",
            "suppressed", "violations",
        ]
        (record,) = payload["violations"]
        assert sorted(record) == [
            "code", "column", "line", "message", "path", "qualname",
        ]
        assert record["code"] == "RPL001"

    def test_text_report_contains_location_and_summary(self, tmp_path):
        text = render_text(self._result(tmp_path))
        assert "repro/mod.py:2:" in text
        assert "RPL001" in text
        assert "1 violation(s)" in text

    def test_verbose_text_lists_baselined(self, tmp_path):
        raw = self._result(tmp_path)
        baseline = Baseline.from_violations(raw.violations, "grandfathered")
        gated = lint_paths([tmp_path / "repro"], baseline=baseline)
        text = render_text(gated, verbose=True)
        assert "baselined (1 grandfathered):" in text


class TestCli:
    def _write_dirty_tree(self, tmp_path):
        target = tmp_path / "repro" / "mod.py"
        target.parent.mkdir()
        target.write_text(UNSEEDED)
        return target

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert lint_main([str(clean)]) == 0

    def test_exit_one_on_violations(self, tmp_path, capsys):
        self._write_dirty_tree(tmp_path)
        assert lint_main([str(tmp_path), "--no-baseline"]) == 1
        assert "RPL001" in capsys.readouterr().out

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert lint_main([str(clean), "--select", "RPL999"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_baseline_flag_gates_known_violations(self, tmp_path, capsys):
        self._write_dirty_tree(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        assert (
            lint_main(
                [
                    str(tmp_path),
                    "--update-baseline",
                    "--baseline",
                    str(baseline_path),
                ]
            )
            == 0
        )
        assert baseline_path.exists()
        assert (
            lint_main([str(tmp_path), "--baseline", str(baseline_path)]) == 0
        )
        assert (
            lint_main([str(tmp_path), "--no-baseline"]) == 1
        )

    def test_json_format_emits_schema(self, tmp_path, capsys):
        self._write_dirty_tree(tmp_path)
        assert lint_main([str(tmp_path), "--no-baseline", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == REPORT_VERSION
        assert payload["summary"]["violations"] == 1

    def test_select_limits_rules(self, tmp_path, capsys):
        self._write_dirty_tree(tmp_path)
        assert (
            lint_main(
                [str(tmp_path), "--no-baseline", "--select", "RPL003"]
            )
            == 0
        )

    def test_repo_gate_is_green(self, capsys, monkeypatch):
        """CI's first lint step: ``repro-lint src/ --check-baseline``
        exits 0, so a stale baseline entry fails here, not only in CI."""
        monkeypatch.chdir(REPO_ROOT)
        assert lint_main(["src", "--check-baseline"]) == 0

    def test_repo_project_rules_gate_is_green(self, capsys, monkeypatch):
        """CI's second lint step: RPL010-RPL014 over ``src/`` and
        ``tests/`` with no baseline exits 0."""
        monkeypatch.chdir(REPO_ROOT)
        select = [
            arg
            for code in ("RPL010", "RPL011", "RPL012", "RPL013", "RPL014")
            for arg in ("--select", code)
        ]
        assert lint_main(["src", "tests", "--no-baseline", *select]) == 0


class TestDeterministicOrdering:
    def test_violations_sorted_by_path_line_code(self, tmp_path):
        """Output order is a stable (path, line, column, code, ...) sort,
        independent of file-discovery order."""
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "zeta.py").write_text(UNSEEDED)
        (pkg / "alpha.py").write_text(
            "import numpy as np\n"
            "a = np.random.default_rng()\n"
            "b = np.random.default_rng()\n"
        )
        result = lint_paths([tmp_path])
        rendered = [v.render() for v in result.violations]
        assert rendered == sorted(rendered)
        keys = [(v.path, v.line, v.column, v.code) for v in result.violations]
        assert keys == sorted(keys)
        assert keys[0][0] == "repro/alpha.py"
        assert keys[-1][0] == "repro/zeta.py"

    def test_order_stable_across_runs(self, tmp_path):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "one.py").write_text(UNSEEDED)
        (pkg / "two.py").write_text(UNSEEDED)
        first = lint_paths([tmp_path])
        second = lint_paths([tmp_path])
        assert [v.render() for v in first.violations] == [
            v.render() for v in second.violations
        ]


class TestSarifReport:
    def _result(self, tmp_path):
        target = tmp_path / "repro" / "mod.py"
        target.parent.mkdir()
        target.write_text(UNSEEDED)
        return lint_paths([tmp_path])

    def test_sarif_schema_is_locked(self, tmp_path):
        from repro.analysis.report import SARIF_VERSION, render_sarif

        payload = json.loads(render_sarif(self._result(tmp_path)))
        assert sorted(payload) == ["$schema", "runs", "version"]
        assert payload["version"] == SARIF_VERSION == "2.1.0"
        assert "sarif-schema-2.1.0.json" in payload["$schema"]
        (run,) = payload["runs"]
        assert sorted(run) == ["results", "tool"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        (rule,) = driver["rules"]
        assert sorted(rule) == ["id", "name", "shortDescription"]
        assert rule["id"] == "RPL001"
        (record,) = run["results"]
        assert sorted(record) == ["level", "locations", "message", "ruleId"]
        assert record["ruleId"] == "RPL001"
        assert record["level"] == "error"
        (location,) = record["locations"]
        physical = location["physicalLocation"]
        assert physical["artifactLocation"]["uri"] == "repro/mod.py"
        # SARIF regions are 1-based in both axes.
        assert physical["region"]["startLine"] >= 1
        assert physical["region"]["startColumn"] >= 1

    def test_baselined_findings_carry_suppression(self, tmp_path):
        from repro.analysis.report import render_sarif

        raw = self._result(tmp_path)
        baseline = Baseline.from_violations(raw.violations, "grandfathered")
        gated = lint_paths([tmp_path], baseline=baseline)
        payload = json.loads(render_sarif(gated))
        (record,) = payload["runs"][0]["results"]
        assert record["suppressions"] == [
            {"kind": "external", "justification": "baselined"}
        ]

    def test_cli_emits_sarif(self, tmp_path, capsys):
        target = tmp_path / "repro" / "mod.py"
        target.parent.mkdir()
        target.write_text(UNSEEDED)
        assert (
            lint_main([str(tmp_path), "--no-baseline", "--format", "sarif"])
            == 1
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"


class TestBaselineStaleness:
    def _dirty_tree(self, tmp_path):
        target = tmp_path / "repro" / "mod.py"
        target.parent.mkdir()
        target.write_text(UNSEEDED)
        return target

    def test_stale_entries_reported_in_result(self, tmp_path):
        target = self._dirty_tree(tmp_path)
        raw = lint_paths([tmp_path])
        baseline = Baseline.from_violations(raw.violations, "grandfathered")
        target.write_text("x = 1\n")  # fix the violation
        result = lint_paths([tmp_path], baseline=baseline)
        assert result.violations == []
        assert len(result.stale_baseline) == 1
        code, path, _qualname, _message = result.stale_baseline[0]
        assert (code, path) == ("RPL001", "repro/mod.py")

    def test_live_baseline_is_not_stale(self, tmp_path):
        self._dirty_tree(tmp_path)
        raw = lint_paths([tmp_path])
        baseline = Baseline.from_violations(raw.violations, "grandfathered")
        result = lint_paths([tmp_path], baseline=baseline)
        assert result.stale_baseline == []

    def test_check_baseline_fails_on_staleness(self, tmp_path, capsys):
        target = self._dirty_tree(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        assert (
            lint_main(
                [str(tmp_path), "--update-baseline", "--baseline",
                 str(baseline_path)]
            )
            == 0
        )
        target.write_text("x = 1\n")
        assert (
            lint_main(
                [str(tmp_path), "--check-baseline", "--baseline",
                 str(baseline_path)]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert "stale baseline" in err
        assert "RPL001" in err

    def test_check_baseline_passes_when_live(self, tmp_path, capsys):
        self._dirty_tree(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        lint_main(
            [str(tmp_path), "--update-baseline", "--baseline",
             str(baseline_path)]
        )
        assert (
            lint_main(
                [str(tmp_path), "--check-baseline", "--baseline",
                 str(baseline_path)]
            )
            == 0
        )

    def test_update_baseline_prunes_and_reports(self, tmp_path, capsys):
        target = self._dirty_tree(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        lint_main(
            [str(tmp_path), "--update-baseline", "--baseline",
             str(baseline_path)]
        )
        target.write_text("x = 1\n")
        assert (
            lint_main(
                [str(tmp_path), "--update-baseline", "--baseline",
                 str(baseline_path)]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "pruned 1 stale entr(y/ies)" in err
        refreshed = Baseline.load(baseline_path)
        assert len(refreshed) == 0

    def test_update_conflicts_with_check(self, tmp_path, capsys):
        self._dirty_tree(tmp_path)
        with pytest.raises(SystemExit):
            lint_main([str(tmp_path), "--update-baseline", "--check-baseline"])


class TestExitCodeContract:
    def test_clean_but_empty_source_dir_is_exit_zero(self, tmp_path, capsys):
        """Exit 2 means *usage error*; an empty tree is simply clean."""
        empty = tmp_path / "nothing_here"
        empty.mkdir()
        assert lint_main([str(empty), "--no-baseline"]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s) in 0 file(s)" in out
