"""Coverage for paths the module-focused suites touch only lightly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import EvolutionaryConfig, SubspaceOutlierDetector
from repro.core.results import ScoredProjection
from repro.core.subspace import Subspace
from repro.data.registry import load_dataset
from repro.eval.comparison import ComparisonRow, build_table1, render_table
from repro.eval.harness import timed_detection
from repro.search.outcome import GenerationRecord, SearchOutcome


class TestComparisonRowEdges:
    @pytest.fixture(scope="class")
    def cells(self):
        dataset = load_dataset("machine")
        config = EvolutionaryConfig(population_size=16, max_generations=10)
        brute = timed_detection(dataset, "brute")
        gen = timed_detection(dataset, "gen", config=config, random_state=0)
        gen_opt = timed_detection(dataset, "gen_opt", config=config, random_state=0)
        return dataset, brute, gen, gen_opt

    def test_star_requires_brute(self, cells):
        dataset, brute, gen, gen_opt = cells
        row = ComparisonRow(dataset.name, dataset.n_dims, None, gen, gen_opt)
        assert not row.gen_opt_matches_brute

    def test_star_requires_match(self, cells):
        dataset, brute, gen, gen_opt = cells
        row = ComparisonRow(dataset.name, dataset.n_dims, brute, gen, gen_opt)
        expected = abs(gen_opt.quality - brute.quality) <= max(
            1e-6, 1e-3 * abs(brute.quality)
        )
        assert row.gen_opt_matches_brute == expected

    def test_render_includes_star_marker(self, cells):
        dataset, brute, gen, gen_opt = cells
        # Force a star by reusing brute as gen_opt.
        forced = ComparisonRow(dataset.name, dataset.n_dims, brute, gen, brute)
        assert "(*)" in render_table([forced])

    def test_multi_dataset_table(self):
        config = EvolutionaryConfig(population_size=14, max_generations=8)
        rows = build_table1(
            [load_dataset("machine"), load_dataset("breast_cancer")],
            config=config,
            random_state=0,
        )
        text = render_table(rows)
        assert "machine (8)" in text
        assert "breast_cancer (14)" in text


class TestExperimentResultRow:
    def test_nan_quality_renders_none(self):
        dataset = load_dataset("machine")
        cell = timed_detection(dataset, "brute")
        import dataclasses

        broken = dataclasses.replace(cell, quality=float("nan"))
        assert broken.row()["quality"] is None

    def test_extra_fields(self):
        dataset = load_dataset("machine")
        cell = timed_detection(dataset, "brute")
        assert cell.extra["k"] >= 1
        assert cell.extra["phi"] == dataset.metadata["phi"]


class TestSearchOutcomeHistoryField:
    def test_history_tuple_coerced(self):
        record = GenerationRecord(
            restart=0,
            generation=0,
            best_coefficient=-1.0,
            best_set_size=1,
            population_best=-1.0,
            n_feasible=10,
            convergence=0.1,
        )
        outcome = SearchOutcome(
            projections=(ScoredProjection(Subspace((0,), (0,)), 1, -1.0),),
            history=[record],
        )
        assert isinstance(outcome.history, tuple)
        assert outcome.history[0].generation == 0


class TestDetectorRepeatedUse:
    def test_refit_replaces_state(self, rng):
        detector = SubspaceOutlierDetector(
            dimensionality=1, n_ranges=3, n_projections=3, method="brute_force"
        )
        first = detector.detect(rng.normal(size=(60, 2)))
        second = detector.detect(rng.normal(size=(80, 3)))
        assert detector.result_ is second
        assert detector.cells_.n_dims == 3
        assert first.n_points == 60

    def test_score_uses_latest_fit(self, rng):
        detector = SubspaceOutlierDetector(
            dimensionality=1, n_ranges=3, n_projections=3, method="brute_force"
        )
        detector.detect(rng.normal(size=(60, 2)))
        detector.detect(rng.normal(size=(80, 3)))
        assert detector.score(rng.normal(size=(5, 3))).shape == (5,)


class TestResultRankingStability:
    def test_ranked_outliers_deterministic(self, rng):
        data = rng.normal(size=(150, 4))
        detector = SubspaceOutlierDetector(
            dimensionality=2, n_ranges=3, n_projections=10, method="brute_force"
        )
        a = detector.detect(data).ranked_outliers()
        b = detector.detect(data).ranked_outliers()
        assert a == b


#: The checkout this test file belongs to.
REPO_ROOT = Path(__file__).resolve().parents[1]


class TestExampleSmoke:
    def test_quickstart_runs(self):
        # Run this checkout's example against this checkout's package,
        # whatever the caller's working directory and PYTHONPATH.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, "examples/quickstart.py"],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=REPO_ROOT,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr
        assert "quickstart OK" in completed.stdout


class TestVersionMetadata:
    def test_version_string(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name
