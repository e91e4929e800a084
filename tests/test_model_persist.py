"""Persistence schema v3 and hot-reload serving for ``repro.model``.

Pins the acceptance contract of the incremental model layer:

* a model saved as a schema-v3 container restores — in the same process
  *and* in a fresh interpreter — and answers ``score(points)``
  byte-identically, as does its JSON-compatible v2 payload;
* the full incremental state (sketch, occupancy, lifecycle counters,
  version, policy) round-trips, so a reloaded model keeps updating and
  drift-checking where the saved one left off, bit for bit;
* the same model always saves to the same bytes, whatever the clock;
* v1 snapshots (grid + projections only) load via migration;
* a doctored snapshot — missing, unknown or mistyped
  ``format_version`` — raises a typed :class:`PersistError` naming the
  file and the version found, never a silent misread;
* :class:`ModelHandle` hot reload: stamp-unchanged and byte-identical
  rewrites are served from cache, genuine rewrites reload exactly once
  and emit ``model_updated``/``hot_reload``.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.detector import SubspaceOutlierDetector
from repro.engine.events import InMemoryEventSink
from repro.exceptions import PersistError, ValidationError
from repro.model import GridModel, ModelHandle
from repro.persist import (
    MODEL_FORMAT_VERSION,
    load_model,
    model_payload,
    save_model,
)

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def mined():
    """A detector run whose model carries real mined projections."""
    rng = np.random.default_rng(12345)
    latents = rng.normal(size=(300, 2))
    data = rng.normal(size=(300, 8))
    data[:, 0] += 2.0 * latents[:, 0]
    data[:, 1] -= latents[:, 0]
    data[:, 2] += 1.5 * latents[:, 1]
    detector = SubspaceOutlierDetector(
        dimensionality=2, n_ranges=4, method="brute_force"
    )
    detector.detect(data)
    return detector.model_, data


class TestV2RoundTrip:
    def test_score_parity_after_reload(self, mined, tmp_path):
        model, data = mined
        path = save_model(model, tmp_path / "model.json")
        loaded = load_model(path)
        assert loaded.is_serving
        np.testing.assert_array_equal(loaded.score(data), model.score(data))
        np.testing.assert_array_equal(loaded.predict(data), model.predict(data))

    def test_incremental_state_round_trips(self, mined, tmp_path, rng):
        model, data = mined
        fresh = GridModel.fit(data, n_ranges=4, rebin_policy="auto")
        fresh.projections = model.projections
        fresh.update(rng.normal(size=(25, data.shape[1])))
        path = save_model(fresh, tmp_path / "m.json")
        loaded = load_model(path)
        assert loaded.version == fresh.version
        assert loaded.n_points == fresh.n_points
        assert loaded.rebin_policy == "auto"
        assert loaded.drift_threshold == fresh.drift_threshold
        np.testing.assert_array_equal(loaded.occupancy, fresh.occupancy)
        stats, ref = loaded.stats_dict(), fresh.stats_dict()
        for key in ("updates", "rows_appended", "merges", "rebins",
                    "drift_events"):
            assert stats[key] == ref[key], key
        # The sketch came back too: the loaded model keeps absorbing.
        assert loaded.discretizer.sketch.n_seen == fresh.n_points
        before = loaded.version
        loaded.update(rng.normal(size=(10, data.shape[1])))
        assert loaded.version == before + 1

    def test_sketch_materialized_for_sketchless_model(self, mined, tmp_path):
        model, data = mined
        assert model.discretizer.sketch is None  # plain detect never sketches
        payload = model_payload(model)
        assert payload["sketch"] is not None
        assert payload["sketch"]["n_seen"] == data.shape[0]
        assert model.discretizer.sketch is None  # saving did not mutate

    def test_save_detector_routes_through_model(self, mined, tmp_path):
        detector = SubspaceOutlierDetector(
            dimensionality=2, n_ranges=4, method="brute_force"
        )
        _, data = mined
        detector.detect(data)
        path = save_model(detector, tmp_path / "d.json")
        with zipfile.ZipFile(path) as archive:
            payload = json.loads(archive.read("manifest.json"))
        assert payload["format_version"] == MODEL_FORMAT_VERSION
        assert payload["kind"] == "grid_model"
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.score(data), detector.score(data))

    def test_fresh_process_score_parity(self, mined, tmp_path):
        model, data = mined
        model_path = save_model(model, tmp_path / "model.json")
        np.save(tmp_path / "points.npy", data)
        script = (
            "import sys, numpy as np\n"
            "from repro.persist import load_model\n"
            "model = load_model(sys.argv[1])\n"
            "np.save(sys.argv[3], model.score(np.load(sys.argv[2])))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
        subprocess.run(
            [sys.executable, "-c", script, str(model_path),
             str(tmp_path / "points.npy"), str(tmp_path / "scores.npy")],
            check=True, env=env, cwd=tmp_path,
        )
        fresh = np.load(tmp_path / "scores.npy")
        here = model.score(data)
        assert fresh.tobytes() == here.tobytes()  # byte-identical, NaNs included


class TestV3Container:
    def test_layout(self, mined, tmp_path):
        model, data = mined
        path = save_model(model, tmp_path / "model.json")
        assert path == tmp_path / "model.json"  # no extension appended
        assert path.read_bytes().startswith(b"PK\x03\x04")
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
            assert [i.filename for i in infos] == [
                "manifest.json", "sketch_rows.npy", "occupancy.npy"
            ]
            assert {i.compress_type for i in infos} == {zipfile.ZIP_STORED}
            manifest = json.loads(archive.read("manifest.json"))
            rows = np.load(io.BytesIO(archive.read("sketch_rows.npy")))
            occupancy = np.load(io.BytesIO(archive.read("occupancy.npy")))
        payload = model_payload(model)
        assert payload["format_version"] == 2
        assert set(manifest) == set(payload) - {"occupancy"}
        assert manifest["sketch"] == {
            k: v for k, v in payload["sketch"].items() if k != "rows"
        }
        assert rows.dtype == np.dtype("<f8")
        assert rows.shape == (data.shape[0], data.shape[1])
        np.testing.assert_array_equal(rows, payload["sketch"]["rows"])
        assert occupancy.dtype == np.dtype("<i8")
        np.testing.assert_array_equal(occupancy, payload["occupancy"])

    def test_same_model_saves_same_bytes_whatever_the_clock(
        self, mined, tmp_path, monkeypatch
    ):
        import time

        model, _ = mined
        first = save_model(model, tmp_path / "a.json").read_bytes()
        monkeypatch.setattr(time, "time", lambda: 2_000_000_000.0)
        second = save_model(model, tmp_path / "b.json").read_bytes()
        assert first == second

    def test_scores_match_the_v2_payload(self, mined, tmp_path):
        model, data = mined
        from_v3 = load_model(save_model(model, tmp_path / "m.json"))
        v2 = tmp_path / "m2.json"
        v2.write_text(json.dumps(model_payload(model)))
        from_v2 = load_model(v2)
        assert from_v3.score(data).tobytes() == model.score(data).tobytes()
        assert from_v3.score(data).tobytes() == from_v2.score(data).tobytes()

    def test_reservoir_stream_resumes_bit_identically(self, mined, tmp_path, rng):
        model, data = mined
        live = GridModel.fit(data, n_ranges=4, sketch_size=64)
        live.projections = model.projections
        live.update(rng.normal(size=(90, data.shape[1])))
        loaded = load_model(save_model(live, tmp_path / "m.json"))
        more = rng.normal(size=(70, data.shape[1]))
        for m in (live, loaded):
            m.update(more)
        ours, theirs = loaded.discretizer.sketch, live.discretizer.sketch
        assert ours.n_seen == theirs.n_seen
        assert ours.rows.tobytes() == theirs.rows.tobytes()
        assert ours.state_dict()["rng_state"] == theirs.state_dict()["rng_state"]
        np.testing.assert_array_equal(loaded.occupancy, live.occupancy)
        assert loaded.version == live.version


class TestV1Migration:
    def v1_payload(self, mined):
        model, _ = mined
        payload = model_payload(model)
        return {
            "format_version": 1,
            "n_ranges": payload["n_ranges"],
            "boundaries": payload["boundaries"],
            "feature_names": payload["feature_names"],
            "projections": payload["projections"],
        }

    def test_v1_snapshot_loads(self, mined, tmp_path):
        model, data = mined
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(self.v1_payload(mined)))
        loaded = load_model(path)
        assert loaded.is_serving
        assert loaded.version == 0
        assert loaded.n_points == 0
        np.testing.assert_array_equal(loaded.score(data), model.score(data))

    def test_migrated_model_updates(self, mined, tmp_path, rng):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(self.v1_payload(mined)))
        loaded = load_model(path)
        rows = rng.normal(size=(12, loaded.n_dims))
        loaded.update(rows)  # empty incremental state, but fully live
        assert loaded.n_points == 12
        assert loaded.version == 1


class TestDoctoredSnapshots:
    """The schema-version guard: typed errors naming file and version."""

    def doctor(self, mined, tmp_path, **edits):
        model, _ = mined
        payload = model_payload(model)
        for key, value in edits.items():
            if value is ...:
                payload.pop(key, None)
            else:
                payload[key] = value
        path = tmp_path / "doctored.json"
        path.write_text(json.dumps(payload))
        return path

    def test_missing_version(self, mined, tmp_path):
        path = self.doctor(mined, tmp_path, format_version=...)
        with pytest.raises(PersistError, match="missing format_version") as err:
            load_model(path)
        assert str(path) in str(err.value)
        assert "1..3" in str(err.value)

    def test_future_version(self, mined, tmp_path):
        path = self.doctor(mined, tmp_path, format_version=99)
        with pytest.raises(PersistError, match="unsupported format version 99"):
            load_model(path)

    @pytest.mark.parametrize("bad", ["2", 2.0, True, None, []])
    def test_mistyped_version(self, mined, tmp_path, bad):
        path = self.doctor(mined, tmp_path, format_version=bad)
        with pytest.raises(PersistError):
            load_model(path)

    def test_truncated_payload(self, mined, tmp_path):
        path = self.doctor(mined, tmp_path, boundaries=...)
        with pytest.raises(PersistError, match="malformed model payload"):
            load_model(path)

    def test_non_object_payload(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(PersistError, match="expected an object"):
            load_model(path)

    def test_persist_error_is_validation_error(self):
        # Callers catching the historical ValidationError keep working.
        assert issubclass(PersistError, ValidationError)


class TestModelHandle:
    def saved(self, mined, tmp_path, sink=None):
        model, data = mined
        path = save_model(model, tmp_path / "m.json")
        return ModelHandle(path, event_sink=sink), data

    def test_unchanged_file_served_from_cache(self, mined, tmp_path):
        handle, _ = self.saved(mined, tmp_path)
        first = handle.current()
        assert handle.current() is first
        assert handle.reloads == 0

    def test_touched_but_identical_bytes_no_reload(self, mined, tmp_path):
        handle, _ = self.saved(mined, tmp_path)
        first = handle.current()
        content = handle.path.read_bytes()
        handle.path.write_bytes(content)
        os.utime(handle.path, ns=(1, 1))  # force a new stamp
        assert handle.current() is first
        assert handle.reloads == 0

    def test_external_rewrite_reloads_once(self, mined, tmp_path):
        sink = InMemoryEventSink()
        handle, data = self.saved(mined, tmp_path, sink)
        first = handle.current()
        rewritten = load_model(handle.path)
        rewritten.update(data[:5])
        handle.path.write_text(json.dumps(model_payload(rewritten)))
        os.utime(handle.path, ns=(2, 2))
        second = handle.current()
        assert second is not first
        assert second.version == first.version + 1
        assert handle.reloads == 1
        (event,) = [
            e for e in sink.of_type("model_updated")
            if e.payload.get("action") == "hot_reload"
        ]
        assert event.payload["path"] == str(handle.path)
        # And it is cached again afterwards.
        assert handle.current() is second

    def test_own_save_not_reloaded(self, mined, tmp_path):
        handle, data = self.saved(mined, tmp_path)
        model = handle.current()
        model.update(data[:5])
        handle.save(model)
        assert handle.current() is model
        assert handle.reloads == 0

    def test_unchanged_resaves_are_byte_identical_and_not_reloaded(
        self, mined, tmp_path
    ):
        handle, _ = self.saved(mined, tmp_path)
        model = handle.current()
        handle.save(model)
        first = handle.path.read_bytes()
        handle.save(model)
        assert handle.path.read_bytes() == first
        assert first.startswith(b"PK\x03\x04")
        assert handle.current() is model
        os.utime(handle.path, ns=(3, 3))  # a new stamp, the same bytes
        assert handle.current() is model
        assert handle.reloads == 0

    def test_missing_file_raises(self, tmp_path):
        handle = ModelHandle(tmp_path / "absent.json")
        with pytest.raises(PersistError, match="not found"):
            handle.current()
