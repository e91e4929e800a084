"""Differential suite for the incremental model layer (``repro.model``).

The layer's defining invariant: **any** interleaving of
``GridModel.update`` / ``GridModel.merge`` / ``GridModel.rebin``
followed by a final ``rebin()`` yields grid cuts, cell codes and cube
counts bit-identical to a one-shot batch fit on the concatenated rows —
and therefore ``detect_model`` mines exactly the projections and
outliers a fresh ``detect`` would.  This suite locks that invariant:

1. three distinct interleavings (update/update, merge/update,
   update/merge), swept under every registered counting backend;
2. an append-at-every-row-boundary sweep over the in-memory counter
   (memoised and memo-free) and the sharded counter, against counts
   taken straight from the codes, mirroring
   ``tests/test_sharded_differential.py`` — ragged packed bytes and
   ragged tail shards included;
3. a hypothesis property: merging discretizers fitted on arbitrary
   row splits then rebinning equals the one-shot fit, for any split;
4. the satellite regressions — ``fit_transform`` reusing fit-time
   codes, drift detection + auto-rebin, event emission, and
   serving-mode refusals.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BACKEND_KINDS, oracle_count
from repro.core.detector import SubspaceOutlierDetector
from repro.core.params import CountingBackend
from repro.core.subspace import Subspace
from repro.engine.events import InMemoryEventSink
from repro.exceptions import NotFittedError, ValidationError
from repro.grid.cells import CellAssignment
from repro.grid.counter import CubeCounter
from repro.grid.discretizer import EquiDepthDiscretizer
from repro.grid.sharded import ShardedCounter, ShardedMaskStore
from repro.model import GridModel

PHI = 4


def make_blocks(seed=7, d=5):
    """Three row blocks with deliberately different distributions.

    Block B is shifted and C is scaled, so updates genuinely move the
    equi-depth cut points at the next rebin — an interleaving bug that
    skipped or double-counted rows would not cancel out.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(90, d))
    b = rng.normal(loc=2.5, size=(60, d))
    c = rng.normal(scale=3.0, size=(45, d))
    return a, b, c


def all_cubes(n_dims, n_ranges, max_k=2):
    out = []
    for k in range(1, max_k + 1):
        for dims in itertools.combinations(range(n_dims), k):
            for rngs in itertools.product(range(n_ranges), repeat=k):
                out.append(Subspace(dims, rngs))
    return out


def grow(interleaving, blocks, counter_factory=None):
    """Build a model from *blocks* through one named interleaving."""
    a, b, c = blocks
    model = GridModel.fit(a, n_ranges=PHI, counter_factory=counter_factory)
    if interleaving == "update-update":
        model.update(b)
        model.update(c)
    elif interleaving == "merge-update":
        model.merge(GridModel.fit(b, n_ranges=PHI))
        model.update(c)
    elif interleaving == "update-merge":
        model.update(b)
        model.merge(GridModel.fit(c, n_ranges=PHI))
    else:  # pragma: no cover - guard against typos in parametrize
        raise AssertionError(interleaving)
    assert model.rebin() is True
    return model


INTERLEAVINGS = ("update-update", "merge-update", "update-merge")


class TestInterleavingDifferential:
    """Grown-then-rebinned model ≡ one-shot batch fit, bit for bit."""

    @pytest.fixture(scope="class")
    def blocks(self):
        return make_blocks()

    @pytest.fixture(scope="class")
    def batch(self, blocks):
        """The one-shot reference model on the concatenated rows."""
        return GridModel.fit(np.concatenate(blocks, axis=0), n_ranges=PHI)

    @pytest.mark.parametrize("interleaving", INTERLEAVINGS)
    def test_grid_and_codes_bit_identical(self, interleaving, blocks, batch):
        model = grow(interleaving, blocks)
        assert model.n_points == batch.n_points
        for grown, ref in zip(model.boundaries, batch.boundaries):
            np.testing.assert_array_equal(grown, ref)
        np.testing.assert_array_equal(model.cells.codes, batch.cells.codes)

    @pytest.mark.parametrize(
        "interleaving,kind",
        list(itertools.product(INTERLEAVINGS, BACKEND_KINDS)),
    )
    def test_counts_bit_identical_under_every_backend(
        self, interleaving, kind, blocks, batch
    ):
        backend = (
            None
            if kind == "serial"
            else CountingBackend(kind=kind, n_workers=2, chunk_size=16)
        )
        factory = lambda cells: CubeCounter(cells, backend=backend)
        model = grow(interleaving, blocks, counter_factory=factory)
        cubes = all_cubes(model.n_dims, PHI)
        try:
            grown = model.counter.count_batch(cubes)
        finally:
            model.close()
        np.testing.assert_array_equal(grown, batch.counter.count_batch(cubes))

    @pytest.mark.parametrize("interleaving", INTERLEAVINGS)
    def test_detect_model_matches_one_shot_detect(self, interleaving, blocks):
        def fresh():
            return SubspaceOutlierDetector(
                dimensionality=2, n_ranges=PHI, method="brute_force"
            )

        reference = fresh().detect(np.concatenate(blocks, axis=0))
        model = grow(interleaving, blocks)
        result = fresh().detect_model(model)
        assert result.projections == reference.projections
        np.testing.assert_array_equal(
            result.outlier_indices, reference.outlier_indices
        )
        # The mined projections are installed on the model for serving.
        assert model.projections == reference.projections
        assert result.stats["model"]["model_version"] == model.version

    def test_rebin_is_lazy(self, blocks):
        a, _, _ = blocks
        model = GridModel.fit(a, n_ranges=PHI)
        assert model.rebin() is False  # nothing absorbed since fit
        assert model.rebin(force=True) is True


class TestAppendBoundarySweep:
    """``append_rows`` at every split point ≡ a from-scratch build.

    Mirrors the sharded differential harness: the packed masks pad
    rows to whole bytes, so splits that land mid-byte (any non-multiple
    of 8) exercise the byte-stitching path; the sharded counter
    additionally re-packs its ragged tail shard.  The memo-free counter
    answers every post-append count from the stitched stack itself.
    """

    N, D = 40, 4
    SHARD_ROWS = 16

    @pytest.fixture(scope="class")
    def codes(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 3, size=(self.N, self.D), dtype=np.int16)
        codes[rng.random(codes.shape) < 0.1] = -1  # missing values too
        return codes

    @pytest.fixture(scope="class")
    def cubes(self):
        return all_cubes(self.D, 3)

    @pytest.fixture(scope="class")
    def reference(self, codes, cubes):
        return np.array([oracle_count(codes, cube) for cube in cubes])

    def check_split(self, make_counter, codes, cubes, reference, split):
        head = CellAssignment(codes=codes[:split], n_ranges=3)
        counter = make_counter(head)
        try:
            # Warm the memo on the prefix so append advances cached
            # counts by popcount deltas rather than recounting.
            counter.count_batch(cubes)
            assert counter.append_rows(codes[split:]) == self.N - split
            np.testing.assert_array_equal(counter.count_batch(cubes), reference)
            np.testing.assert_array_equal(counter.cells.codes, codes)
        finally:
            counter.close()

    @pytest.mark.parametrize("split", range(1, N + 1))
    def test_cube_counter_every_boundary(self, codes, cubes, reference, split):
        self.check_split(CubeCounter, codes, cubes, reference, split)

    @pytest.mark.parametrize("split", range(1, N + 1))
    def test_packed_counter_every_boundary(self, codes, cubes, reference, split):
        self.check_split(
            lambda cells: CubeCounter(cells, cache_size=0),
            codes, cubes, reference, split,
        )

    @pytest.mark.parametrize(
        "split",
        # Around every shard boundary (16, 32) plus ragged-byte splits.
        [1, 7, 15, 16, 17, 31, 32, 33, 39],
    )
    def test_sharded_counter_boundaries(
        self, codes, cubes, reference, split, tmp_path
    ):
        def make(cells):
            store = ShardedMaskStore.build(
                cells, tmp_path / f"store{split}", shard_rows=self.SHARD_ROWS
            )
            return ShardedCounter(store, cells)

        self.check_split(make, codes, cubes, reference, split)

    @pytest.mark.parametrize("split", [1, 7, 15, 16, 17, 31, 32, 33, 39])
    def test_sharded_store_append_matches_build_bytes(
        self, codes, split, tmp_path
    ):
        """The on-disk layout: a store grown by ``append_rows`` holds
        the same manifest (every shard ``sha256`` and the
        ``codes_sha256`` included) and the same shard file bytes as a
        build over the concatenated codes, and ``rebuild_shard``
        rewrites each shard byte for byte."""

        def store_bytes(store):
            return {
                path.name: path.read_bytes()
                for path in sorted(store.directory.iterdir())
            }

        head = codes[:split]
        grown = ShardedMaskStore.build(
            CellAssignment(codes=head, n_ranges=3),
            tmp_path / "grown", shard_rows=self.SHARD_ROWS,
        ).append_rows(codes[split:], prior_codes=head)
        built = ShardedMaskStore.build(
            CellAssignment(codes=codes, n_ranges=3),
            tmp_path / "built", shard_rows=self.SHARD_ROWS,
        )
        assert store_bytes(grown) == store_bytes(built)
        original = store_bytes(built)
        for index in range(built.n_shards):
            built.rebuild_shard(index, codes)
        assert store_bytes(built) == original


class TestDiscretizerMergeProperty:
    """Hypothesis: merge over arbitrary row splits ≡ one-shot fit."""

    @given(
        data=st.data(),
        n_rows=st.integers(min_value=8, max_value=60),
        n_dims=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_one_shot_fit(self, data, n_rows, n_dims, seed):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n_rows, n_dims)) * rng.uniform(0.5, 20)
        cut_indices = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=n_rows - 1),
                min_size=0,
                max_size=4,
                unique=True,
            ).map(sorted)
        )
        parts = np.split(rows, cut_indices)
        parts = [p for p in parts if p.shape[0] > 0]

        merged = EquiDepthDiscretizer(PHI)
        merged.fit(parts[0])
        merged.enable_sketch(parts[0])
        for part in parts[1:]:
            shard = EquiDepthDiscretizer(PHI)
            shard.fit(part)
            shard.enable_sketch(part)
            merged.merge(shard)
        merged.rebin()

        reference = EquiDepthDiscretizer(PHI).fit(rows)
        for got, want in zip(merged.boundaries, reference.boundaries):
            np.testing.assert_array_equal(got, want)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_model_merge_commutes_with_rebin(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(30, 3))
        b = rng.normal(loc=rng.uniform(-3, 3), size=(20, 3))
        model = GridModel.fit(a, n_ranges=PHI)
        model.merge(GridModel.fit(b, n_ranges=PHI))
        model.rebin()
        reference = GridModel.fit(np.concatenate([a, b]), n_ranges=PHI)
        for got, want in zip(model.boundaries, reference.boundaries):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            model.cells.codes, reference.cells.codes
        )


class TestFitTransformReuse:
    """``fit_transform`` must reuse fit-time codes, not re-transform."""

    def test_transform_not_called_during_fit_transform(
        self, small_data, monkeypatch
    ):
        disc = EquiDepthDiscretizer(5)
        calls = {"n": 0}
        original = EquiDepthDiscretizer.transform

        def spy(self, data):
            calls["n"] += 1
            return original(self, data)

        monkeypatch.setattr(EquiDepthDiscretizer, "transform", spy)
        disc.fit_transform(small_data)
        assert calls["n"] == 0

    def test_bit_identical_to_fit_then_transform(self, small_data):
        fused = EquiDepthDiscretizer(5).fit_transform(small_data)
        staged = EquiDepthDiscretizer(5).fit(small_data).transform(small_data)
        np.testing.assert_array_equal(fused.codes, staged.codes)


class TestDriftAndEvents:
    def drifting_pair(self, sink=None, **kwargs):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(120, 4))
        shifted = rng.normal(loc=8.0, size=(80, 4))
        model = GridModel.fit(base, n_ranges=PHI, event_sink=sink, **kwargs)
        return model, shifted

    def test_update_emits_model_updated(self):
        sink = InMemoryEventSink()
        model, shifted = self.drifting_pair(sink)
        model.update(shifted[:10])
        (event,) = sink.of_type("model_updated")
        assert event.payload["action"] == "update"
        assert event.payload["rows"] == 10
        assert event.payload["version"] == model.version == 1

    def test_shifted_batch_trips_drift(self):
        sink = InMemoryEventSink()
        model, shifted = self.drifting_pair(sink)
        report = model.update(shifted)
        assert report.drifted
        assert report.max_divergence > model.drift_threshold
        (event,) = sink.of_type("grid_drift_detected")
        assert event.payload["drifted_dims"] == [0, 1, 2, 3]
        assert model.stats_dict()["drift_events"] == 1
        assert model.last_drift is report

    def test_in_distribution_update_stays_quiet(self):
        sink = InMemoryEventSink()
        rng = np.random.default_rng(5)
        base = rng.normal(size=(400, 4))
        model = GridModel.fit(base, n_ranges=PHI, event_sink=sink)
        report = model.update(rng.normal(size=(200, 4)))
        assert not report.drifted
        assert sink.of_type("grid_drift_detected") == []

    def test_auto_policy_rebins_on_drift(self):
        sink = InMemoryEventSink()
        model, shifted = self.drifting_pair(sink, rebin_policy="auto")
        version_before = model.version
        model.update(shifted)
        (rebin,) = sink.of_type("rebin_triggered")
        assert rebin.payload["reason"] == "drift"
        stats = model.stats_dict()
        assert stats["rebins"] == 1
        assert model.version > version_before + 1  # update + rebin both bump
        # The recut grid covers the shifted rows again: occupancy reset.
        assert model.occupancy.sum() == 0

    def test_manual_policy_does_not_rebin(self):
        model, shifted = self.drifting_pair()
        model.update(shifted)
        assert model.stats_dict()["rebins"] == 0

    def test_score_emits_score_request(self, small_data):
        sink = InMemoryEventSink()
        detector = SubspaceOutlierDetector(
            dimensionality=2, n_ranges=PHI, method="brute_force"
        )
        detector.detect(small_data)
        model = detector.model_
        model.event_sink = sink
        scores = model.score(small_data[:25])
        (event,) = sink.of_type("score_request")
        assert event.payload["n_points"] == 25
        assert event.payload["n_flagged"] == int(
            np.count_nonzero(~np.isnan(scores))
        )

    def test_rebin_clears_projections(self, small_data):
        detector = SubspaceOutlierDetector(
            dimensionality=2, n_ranges=PHI, method="brute_force"
        )
        detector.detect(small_data)
        model = detector.model_
        assert model.projections
        model.update(small_data[:5])
        model.rebin()
        assert model.projections == ()
        with pytest.raises(NotFittedError, match="rebin clears them"):
            model.score(small_data)


class TestServingMode:
    @pytest.fixture()
    def serving(self, small_data):
        full = GridModel.fit(small_data, n_ranges=PHI)
        return GridModel.from_snapshot(
            boundaries=[c.tolist() for c in full.boundaries],
            n_ranges=PHI,
        )

    def test_flags(self, serving):
        assert serving.is_serving
        assert not serving.can_rebin
        assert serving.counter is None and serving.raw_data is None

    def test_rebin_refuses(self, serving):
        with pytest.raises(ValidationError, match="serving"):
            serving.rebin()

    def test_merge_refuses(self, serving, small_data):
        with pytest.raises(ValidationError, match="serving"):
            serving.merge(GridModel.fit(small_data, n_ranges=PHI))

    def test_update_tracks_sketch_and_occupancy(self, serving, rng):
        rows = rng.normal(size=(30, serving.n_dims))
        serving.update(rows)
        assert serving.n_points == 30
        assert serving.occupancy.sum() == serving.n_dims * 30
        assert serving.discretizer.sketch.n_seen == 30

    def test_detect_model_refuses_serving(self, serving):
        detector = SubspaceOutlierDetector(dimensionality=2, n_ranges=PHI)
        with pytest.raises(ValidationError, match="serving"):
            detector.detect_model(serving)
