"""Tests for the extension features: deviation baseline, GA history,
multiple-testing statistics, and the new CLI subcommands."""

import json

import numpy as np
import pytest

from repro.baselines.deviation import SequentialDeviationDetector
from repro.cli import main
from repro.exceptions import ValidationError
from repro.search.evolutionary.config import EvolutionaryConfig
from repro.search.evolutionary.engine import EvolutionarySearch
from repro.search.outcome import GenerationRecord
from repro.sparsity.statistics import (
    bonferroni_significance,
    expected_abnormal_cubes,
    normal_tail_probability,
    significance_of_coefficient,
)


class TestSequentialDeviation:
    def test_finds_global_deviant(self, rng):
        data = rng.normal(size=(100, 3))
        data = np.vstack([data, [[20.0, 20.0, 20.0]]])
        result = SequentialDeviationDetector(
            n_outliers=1, random_state=0
        ).detect(data)
        assert result.outlier_indices[0] == 100

    def test_scores_nonnegative(self, rng):
        data = rng.normal(size=(50, 4))
        scores = SequentialDeviationDetector(random_state=0).scores(data)
        assert (scores >= -1e-9).all()

    def test_deterministic_with_seed(self, rng):
        data = rng.normal(size=(60, 3))
        a = SequentialDeviationDetector(random_state=5).scores(data)
        b = SequentialDeviationDetector(random_state=5).scores(data)
        np.testing.assert_allclose(a, b)

    def test_shuffle_averaging_reduces_order_noise(self, rng):
        data = rng.normal(size=(80, 3))
        data[11] += 8.0
        many = SequentialDeviationDetector(
            n_outliers=1, n_shuffles=20, random_state=0
        ).detect(data)
        assert many.outlier_indices[0] == 11

    def test_standardize_handles_scale(self, rng):
        # One attribute with huge units must not dominate by default.
        data = rng.normal(size=(100, 2))
        data[:, 0] *= 1e6
        data[23, 1] += 10.0  # the real deviant, in the small-unit attr
        result = SequentialDeviationDetector(
            n_outliers=1, n_shuffles=10, random_state=0
        ).detect(data)
        assert result.outlier_indices[0] == 23

    def test_flagged_sorted(self, rng):
        data = rng.normal(size=(60, 3))
        result = SequentialDeviationDetector(
            n_outliers=10, random_state=0
        ).detect(data)
        flagged = result.scores[result.outlier_indices]
        assert (np.diff(flagged) <= 0).all()

    def test_too_many_outliers(self, rng):
        with pytest.raises(ValidationError):
            SequentialDeviationDetector(n_outliers=99).detect(
                rng.normal(size=(5, 2))
            )

    def test_misses_subspace_anomaly(self, rng):
        # The contrast the paper draws: a subspace-local anomaly with
        # marginally normal coordinates is invisible to a full-dim
        # variance-based deviation scan with many noise dims.
        n = 400
        latent = rng.normal(size=n)
        data = rng.normal(size=(n, 40))
        data[:, 0] = latent + rng.normal(scale=0.1, size=n)
        data[:, 1] = latent + rng.normal(scale=0.1, size=n)
        data[42, 0] = np.quantile(data[:, 0], 0.05)
        data[42, 1] = np.quantile(data[:, 1], 0.95)
        result = SequentialDeviationDetector(
            n_outliers=5, n_shuffles=5, random_state=0
        ).detect(data)
        assert 42 not in result.outlier_indices


class TestHistoryTracking:
    def test_history_collected_when_enabled(self, small_counter):
        outcome = EvolutionarySearch(
            small_counter,
            2,
            5,
            config=EvolutionaryConfig(
                population_size=20, max_generations=10, track_history=True
            ),
            random_state=0,
        ).run()
        assert outcome.history
        assert isinstance(outcome.history[0], GenerationRecord)
        # One record per generation including generation 0.
        assert outcome.history[0].generation == 0
        assert len(outcome.history) == outcome.stats["generations"] + 1

    def test_history_empty_by_default(self, small_counter):
        outcome = EvolutionarySearch(
            small_counter,
            2,
            5,
            config=EvolutionaryConfig(population_size=20, max_generations=5),
            random_state=0,
        ).run()
        assert outcome.history == ()

    def test_best_coefficient_monotone(self, small_counter):
        outcome = EvolutionarySearch(
            small_counter,
            2,
            5,
            config=EvolutionaryConfig(
                population_size=24, max_generations=30, track_history=True
            ),
            random_state=1,
        ).run()
        best = [r.best_coefficient for r in outcome.history]
        assert all(b <= a + 1e-12 for a, b in zip(best, best[1:], strict=False))

    def test_restarts_recorded(self, small_counter):
        outcome = EvolutionarySearch(
            small_counter,
            2,
            5,
            config=EvolutionaryConfig(
                population_size=20,
                max_generations=5,
                restarts=3,
                track_history=True,
            ),
            random_state=0,
        ).run()
        assert {r.restart for r in outcome.history} == {0, 1, 2}

    def test_convergence_statistic_in_unit_interval(self, small_counter):
        outcome = EvolutionarySearch(
            small_counter,
            2,
            5,
            config=EvolutionaryConfig(
                population_size=20, max_generations=10, track_history=True
            ),
            random_state=2,
        ).run()
        for record in outcome.history:
            assert 0.0 < record.convergence <= 1.0
            assert 0 <= record.n_feasible <= 20


class TestMultipleTesting:
    def test_expected_abnormal_cubes(self):
        # 1e6 cubes at -3: expect ~1350 by chance.
        expected = expected_abnormal_cubes(1_000_000, -3.0)
        assert expected == pytest.approx(1_000_000 * normal_tail_probability(-3.0))
        assert 1000 < expected < 2000

    def test_bonferroni_reduces_significance(self):
        raw = significance_of_coefficient(-5.0)
        corrected = bonferroni_significance(-5.0, 1_000)
        assert corrected < raw
        assert corrected > 0

    def test_bonferroni_saturates(self):
        # -3 over a musk-size search space is expected by chance.
        assert bonferroni_significance(-3.0, 10_000_000) == 0.0

    def test_bonferroni_single_test_equals_raw(self):
        assert bonferroni_significance(-4.0, 1) == pytest.approx(
            significance_of_coefficient(-4.0)
        )

    def test_positive_coefficient_zero(self):
        assert bonferroni_significance(1.0, 100) == 0.0


class TestCliExtensions:
    def test_detect_json_output(self, capsys):
        code = main(
            [
                "detect",
                "--dataset",
                "machine",
                "--method",
                "brute_force",
                "--output",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format_version"] == 1
        assert payload["projections"]

    def test_save_then_score(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code = main(
            [
                "detect",
                "--dataset",
                "machine",
                "--method",
                "brute_force",
                "--save",
                str(model_path),
            ]
        )
        assert code == 0
        assert model_path.exists()
        capsys.readouterr()
        code = main(
            ["score", "--dataset", "machine", "--model", str(model_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "points covered" in out
        assert "score -" in out

    def test_score_missing_model_graceful(self, capsys):
        code = main(
            ["score", "--dataset", "machine", "--model", "/nonexistent.json"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_explain_json_output(self, capsys):
        code = main(
            [
                "explain",
                "--dataset",
                "machine",
                "--method",
                "brute_force",
                "--point",
                "0",
                "--output",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["point_index"] == 0
        assert "projections" in payload

    def test_experiment_housing(self, capsys):
        code = main(["experiment", "housing"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recall" in out
        assert "CRIM" in out


class TestLogging:
    def test_detector_logs_summary(self, rng, caplog):
        import logging

        from repro import SubspaceOutlierDetector

        data = rng.normal(size=(80, 4))
        with caplog.at_level(logging.INFO, logger="repro.core.detector"):
            SubspaceOutlierDetector(
                dimensionality=2, n_ranges=3, n_projections=5,
                method="brute_force",
            ).detect(data)
        messages = " ".join(record.message for record in caplog.records)
        assert "detect:" in messages
        assert "detect done:" in messages

    def test_brute_force_budget_warning(self, rng, caplog):
        import logging

        from repro.grid.counter import CubeCounter
        from repro.grid.discretizer import EquiDepthDiscretizer
        from repro.search.brute_force import BruteForceSearch

        data = rng.normal(size=(100, 8))
        counter = CubeCounter(EquiDepthDiscretizer(4).fit_transform(data))
        with caplog.at_level(logging.WARNING, logger="repro.search.brute_force"):
            BruteForceSearch(counter, 3, 5, max_evaluations=10).run()
        assert any(
            "stopped early" in r.message and "evaluation_cap" in r.message
            for r in caplog.records
        )


class TestPackedDetector:
    def test_packed_equals_dense(self, rng):
        data = rng.normal(size=(150, 6))
        kwargs = dict(
            dimensionality=2, n_ranges=4, n_projections=8, method="brute_force"
        )
        from repro import SubspaceOutlierDetector

        dense = SubspaceOutlierDetector(**kwargs).detect(data)
        packed = SubspaceOutlierDetector(packed=True, **kwargs).detect(data)
        assert [p.subspace for p in dense.projections] == [
            p.subspace for p in packed.projections
        ]
        np.testing.assert_array_equal(
            dense.outlier_indices, packed.outlier_indices
        )

    def test_deprecated_packed_spellings_are_no_ops(self, rng):
        # The bit-packed layout is the only one; the old library
        # spellings stay accepted (the pipeline benchmark uses both)
        # and change nothing.
        from repro import (
            CountingBackend,
            CubeCounter,
            PackedCubeCounter,
            SubspaceOutlierDetector,
        )
        from repro.core.subspace import Subspace
        from repro.grid.discretizer import EquiDepthDiscretizer
        from repro.model import GridModel

        data = rng.normal(size=(150, 6))
        cells = EquiDepthDiscretizer(4).fit_transform(data)
        cubes = [Subspace((0, 2), (r, 3 - r)) for r in range(4)]
        native = PackedCubeCounter(cells, backend=CountingBackend(kind="native"))
        try:
            assert PackedCubeCounter is CubeCounter
            np.testing.assert_array_equal(
                native.count_batch(cubes), CubeCounter(cells).count_batch(cubes)
            )
        finally:
            native.close()

        kwargs = dict(dimensionality=2, n_ranges=4, n_projections=8, random_state=3)
        plain = SubspaceOutlierDetector(**kwargs).detect(data)
        packed = SubspaceOutlierDetector(packed=True, **kwargs).detect(data)
        assert packed.projections == plain.projections
        model = GridModel.fit(data, n_ranges=4, packed=True)
        assert model.counter.mask_memory_bytes() == CubeCounter(
            cells
        ).mask_memory_bytes()
