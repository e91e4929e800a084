"""Tests for persistence: JSON round-trips and saved models."""

import json

import numpy as np
import pytest

from repro.core.detector import SubspaceOutlierDetector
from repro.core.results import ScoredProjection
from repro.core.subspace import Subspace
from repro.exceptions import NotFittedError, ValidationError
from repro.persist import (
    load_model,
    projection_from_dict,
    projection_to_dict,
    result_from_dict,
    result_to_dict,
    save_model,
    subspace_from_dict,
    subspace_to_dict,
)


@pytest.fixture
def fitted(rng):
    n = 300
    latent = rng.normal(size=n)
    data = rng.normal(size=(n, 6))
    data[:, 0] = latent + rng.normal(scale=0.1, size=n)
    data[:, 1] = latent + rng.normal(scale=0.1, size=n)
    data[7, 0] = np.quantile(data[:, 0], 0.05)
    data[7, 1] = np.quantile(data[:, 1], 0.95)
    detector = SubspaceOutlierDetector(
        dimensionality=2, n_ranges=5, n_projections=10, method="brute_force"
    )
    result = detector.detect(data, feature_names=[f"f{i}" for i in range(6)])
    return detector, result, data


class TestSubspaceRoundTrip:
    def test_roundtrip(self):
        cube = Subspace((1, 4), (0, 3))
        assert subspace_from_dict(subspace_to_dict(cube)) == cube

    def test_json_serializable(self):
        payload = subspace_to_dict(Subspace((0,), (2,)))
        assert json.loads(json.dumps(payload)) == payload

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            subspace_from_dict({"dims": [0]})


class TestProjectionRoundTrip:
    def test_roundtrip(self):
        projection = ScoredProjection(Subspace((0, 2), (1, 1)), 3, -2.75)
        restored = projection_from_dict(projection_to_dict(projection))
        assert restored == projection

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            projection_from_dict({"count": 1})


class TestResultRoundTrip:
    def test_roundtrip_preserves_everything(self, fitted):
        _, result, _ = fitted
        restored = result_from_dict(result_to_dict(result))
        assert restored.projections == result.projections
        np.testing.assert_array_equal(
            restored.outlier_indices, result.outlier_indices
        )
        assert restored.coverage == {
            int(k): tuple(v) for k, v in result.coverage.items()
        }
        assert restored.dimensionality == result.dimensionality

    def test_json_round_trip(self, fitted):
        _, result, _ = fitted
        text = json.dumps(result_to_dict(result))
        restored = result_from_dict(json.loads(text))
        assert restored.n_outliers == result.n_outliers

    def test_point_scores_survive(self, fitted):
        _, result, _ = fitted
        restored = result_from_dict(result_to_dict(result))
        for point in result.outlier_indices[:5]:
            assert restored.point_score(int(point)) == result.point_score(
                int(point)
            )


class TestLifecycleFieldsRoundTrip:
    """The PR-3 lifecycle fields must survive the JSON round trip."""

    def test_stopped_reason_survives(self, fitted):
        _, result, _ = fitted
        restored = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert restored.stats["stopped_reason"] == result.stats["stopped_reason"]
        assert restored.stopped_reason == result.stopped_reason
        assert restored.stats["completed"] == result.stats["completed"]

    def test_backend_health_and_degraded_flag_survive(self, fitted):
        _, result, _ = fitted
        restored = result_from_dict(result_to_dict(result))
        assert restored.backend_health == result.backend_health
        assert restored.backend_degraded == result.backend_degraded

    def test_degraded_run_round_trips_true(self, fitted):
        _, result, _ = fitted
        payload = result_to_dict(result)
        payload["stats"]["backend_health"] = {
            "retries": 2, "timeouts": 1, "rebuilds": 1,
            "fallbacks": 3, "pool_degraded": True,
        }
        restored = result_from_dict(json.loads(json.dumps(payload)))
        assert restored.backend_degraded is True
        assert restored.backend_health["fallbacks"] == 3

    def test_event_counters_survive(self, fitted):
        _, result, _ = fitted
        assert "events" in result.stats  # stats-assembly sink ran
        restored = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert restored.stats["events"] == result.stats["events"]


class TestTraceSinkConfiguration:
    """A detector configured with an event sink still persists cleanly."""

    @pytest.fixture
    def traced(self, rng, tmp_path):
        from repro.engine.events import InMemoryEventSink

        data = rng.normal(size=(150, 5))
        sink = InMemoryEventSink()
        detector = SubspaceOutlierDetector(
            dimensionality=2,
            n_ranges=4,
            n_projections=5,
            method="brute_force",
            event_sink=sink,
            random_state=0,
        )
        result = detector.detect(data)
        return detector, result, data, sink

    def test_sink_received_events(self, traced):
        _, result, _, sink = traced
        assert len(sink) > 0
        assert sink.of_type("engine_finished")
        # The sink sees the same event tally the stats record keeps.
        assert result.stats["events"]["engine_finished"] == len(
            sink.of_type("engine_finished")
        )

    def test_model_round_trip_unaffected_by_sink(self, traced, tmp_path):
        detector, _, data, _ = traced
        model = load_model(save_model(detector, tmp_path / "traced.json"))
        np.testing.assert_allclose(
            model.score(data), detector.score(data), equal_nan=True
        )

    def test_result_round_trip_with_sink_stats(self, traced):
        _, result, _, _ = traced
        restored = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert restored.stats["events"] == result.stats["events"]
        assert restored.stopped_reason == result.stopped_reason


class TestDetectorScorePredict:
    def test_score_matches_result_scores(self, fitted):
        detector, result, data = fitted
        scores = detector.score(data)
        for point in result.outlier_indices:
            assert scores[point] == pytest.approx(result.point_score(int(point)))

    def test_uncovered_points_nan(self, fitted):
        detector, result, data = fitted
        scores = detector.score(data)
        uncovered = ~result.outlier_mask()
        assert np.isnan(scores[uncovered]).all()

    def test_predict_mask(self, fitted):
        detector, result, data = fitted
        np.testing.assert_array_equal(
            detector.predict(data), result.outlier_mask()
        )

    def test_new_data_scored(self, fitted, rng):
        detector, _, data = fitted
        new = rng.normal(size=(50, data.shape[1]))
        scores = detector.score(new)
        assert scores.shape == (50,)

    def test_score_before_detect_raises(self):
        detector = SubspaceOutlierDetector(dimensionality=2)
        with pytest.raises(NotFittedError):
            detector.score(np.zeros((3, 2)))


class TestSavedModel:
    def test_save_load_score_identical(self, fitted, tmp_path):
        detector, _, data = fitted
        path = save_model(detector, tmp_path / "model.json")
        model = load_model(path)
        np.testing.assert_allclose(
            model.score(data), detector.score(data), equal_nan=True
        )

    def test_predict_identical(self, fitted, tmp_path):
        detector, _, data = fitted
        model = load_model(save_model(detector, tmp_path / "m.json"))
        np.testing.assert_array_equal(model.predict(data), detector.predict(data))

    def test_feature_names_preserved(self, fitted, tmp_path):
        detector, _, _ = fitted
        model = load_model(save_model(detector, tmp_path / "m.json"))
        assert model.feature_names == detector.cells_.feature_names

    def test_save_unfitted_raises(self, tmp_path):
        detector = SubspaceOutlierDetector(dimensionality=2)
        with pytest.raises(NotFittedError):
            save_model(detector, tmp_path / "m.json")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_model(tmp_path / "nope.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="JSON"):
            load_model(path)

    def test_load_malformed_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_ranges": 5}))
        with pytest.raises(ValidationError, match="malformed"):
            load_model(path)

    def test_future_result_version_rejected(self, fitted):
        _, result, _ = fitted
        payload = result_to_dict(result)
        payload["format_version"] = 999
        with pytest.raises(ValidationError, match="format version"):
            result_from_dict(payload)

    def test_missing_version_defaults_to_one(self, fitted):
        _, result, _ = fitted
        payload = result_to_dict(result)
        del payload["format_version"]
        assert result_from_dict(payload).n_outliers == result.n_outliers
