"""Migration fixtures: snapshots written by earlier schemas keep loading.

``tests/golden/persist/`` holds a v1 and a v2 JSON snapshot written by
the schema-v2 writer (the release before the v3 container), plus the
scores each gave on a fixed batch at that release (``scores.json``).
The files are history: never regenerate them.  A loaded snapshot must
score that batch byte-identically, NaNs included, and the v2 one must
keep its incremental state, also once it is re-saved as v3.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.persist import load_model, save_model

GOLDEN = Path(__file__).resolve().parent / "golden" / "persist"


@pytest.fixture(scope="module")
def golden():
    return json.loads((GOLDEN / "scores.json").read_text())


def _batch(golden) -> np.ndarray:
    return np.asarray(golden["batch"], dtype=np.float64)


@pytest.mark.parametrize("version", ["v1", "v2"])
def test_snapshot_scores_as_when_written(golden, version):
    loaded = load_model(GOLDEN / f"{version}.json")
    expected = np.asarray(golden[version], dtype=np.float64)
    assert loaded.score(_batch(golden)).tobytes() == expected.tobytes()


def test_v1_snapshot_starts_with_empty_incremental_state():
    loaded = load_model(GOLDEN / "v1.json")
    assert loaded.version == 0
    assert loaded.n_points == 0
    assert loaded.discretizer.sketch is None


def test_v2_snapshot_keeps_its_incremental_state():
    payload = json.loads((GOLDEN / "v2.json").read_text())
    loaded = load_model(GOLDEN / "v2.json")
    assert payload["format_version"] == 2
    assert loaded.version == payload["model_version"]
    assert loaded.n_points == payload["n_points"]
    assert loaded.rebin_policy == payload["rebin_policy"]
    assert loaded.drift_threshold == payload["drift_threshold"]
    stats = loaded.stats_dict()
    for key, value in payload["counters"].items():
        assert stats[key] == value, key
    np.testing.assert_array_equal(loaded.occupancy, payload["occupancy"])
    sketch = loaded.discretizer.sketch
    assert sketch.n_seen == payload["sketch"]["n_seen"]
    np.testing.assert_array_equal(sketch.rows, payload["sketch"]["rows"])


def test_v2_snapshot_resaved_as_v3_is_unchanged(golden, tmp_path):
    from_v2 = load_model(GOLDEN / "v2.json")
    path = save_model(from_v2, tmp_path / "v3.json")
    assert path.read_bytes().startswith(b"PK\x03\x04")
    from_v3 = load_model(path)
    batch = _batch(golden)
    assert from_v3.score(batch).tobytes() == from_v2.score(batch).tobytes()
    assert from_v3.to_dict() == from_v2.to_dict()
