"""Differential suite for the one-pass scorer (``repro.core.results``).

``score_cells`` tests every mined cube against a block of rows at once
through a :class:`~repro.core.results.CubeTable`.  The reference here is
the loop it replaced: one :meth:`Subspace.covers` per cube, folded with
``np.fmin``.  Scores must be equal, NaNs included, on:

1. random codes with ``MISSING_CELL`` entries against mixed-k mined sets
   (k = 0 cubes, tied coefficients, ranges off the grid, the empty set),
   with requests that cross the row-block boundary;
2. the error contract ``covers`` defines (codes that are not 2-D, a cube
   dimension past the code columns), message for message;
3. the live surfaces: ``GridModel.score`` across projection swaps and
   ``SubspaceOutlierDetector.score``.

It also locks the model's amortized row retention: rows absorbed by
``update``/``merge`` read back (``raw_data``, ``rebin``) exactly as the
concatenation of every block, whenever they are read.

The default run draws a few dozen examples; ``-m slow`` runs the deep
sweep (more examples, longer requests).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import results
from repro.core.detector import SubspaceOutlierDetector
from repro.core.results import CubeTable, ScoredProjection, score_cells
from repro.core.subspace import Subspace
from repro.exceptions import ValidationError
from repro.grid.cells import MISSING_CELL
from repro.model import GridModel

BLOCK = results._SCORE_BLOCK_ROWS

#: A few distinct values, so draws tie often.
COEFFICIENTS = (-4.0, -2.5, -1.0, 0.0, 1.5)


def reference_scores(codes, projections) -> np.ndarray:
    """The per-cube loop ``score_cells`` replaced."""
    codes = np.asarray(codes)
    scores = np.full(len(codes), np.nan)
    for projection in projections:
        covered = projection.subspace.covers(codes)
        scores[covered] = np.fmin(scores[covered], projection.coefficient)
    return scores


def one_pass(codes, projections) -> np.ndarray:
    return score_cells(codes, CubeTable.from_projections(projections))


@st.composite
def mined_sets(draw, n_dims, n_ranges, max_size=12):
    """Mixed-k projections over *n_dims* columns (k = 0 included)."""
    size = draw(st.integers(0, max_size))
    projections = []
    for _ in range(size):
        k = draw(st.integers(0, min(n_dims, 4)))
        dims = sorted(draw(st.permutations(range(n_dims)))[:k])
        # One past the grid: a cube no code can match.
        ranges = [draw(st.integers(0, n_ranges)) for _ in dims]
        projections.append(
            ScoredProjection(
                Subspace(tuple(dims), tuple(ranges)),
                count=draw(st.integers(0, 50)),
                coefficient=draw(st.sampled_from(COEFFICIENTS)),
            )
        )
    return projections


def random_codes(seed, n_rows, n_dims, n_ranges, missing) -> np.ndarray:
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, n_ranges, size=(n_rows, n_dims), dtype=np.int16)
    codes[rng.random(codes.shape) < missing] = MISSING_CELL
    return codes


def assert_same_scores(codes, projections) -> None:
    expected = reference_scores(codes, projections)
    got = one_pass(codes, projections)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected, equal_nan=True)


def _check_random_request(data, max_rows) -> None:
    n_dims = data.draw(st.integers(1, 6), label="d")
    n_ranges = data.draw(st.integers(1, 4), label="phi")
    projections = data.draw(mined_sets(n_dims, n_ranges), label="mined")
    codes = random_codes(
        data.draw(st.integers(0, 2**32 - 1), label="seed"),
        data.draw(st.integers(0, max_rows), label="rows"),
        n_dims,
        n_ranges,
        data.draw(st.sampled_from([0.0, 0.2]), label="missing"),
    )
    block = data.draw(st.sampled_from([1, 3, 7, BLOCK]), label="block")
    with mock.patch.object(results, "_SCORE_BLOCK_ROWS", block):
        assert_same_scores(codes, projections)


class TestOnePassMatchesLoop:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_requests(self, data):
        _check_random_request(data, max_rows=40)

    @pytest.mark.slow
    @settings(
        max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(st.data())
    def test_random_requests_deep(self, data):
        _check_random_request(data, max_rows=400)

    @pytest.mark.parametrize("n_rows", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5])
    def test_requests_across_the_block_boundary(self, n_rows):
        codes = random_codes(n_rows, n_rows, 5, 3, 0.1)
        projections = [
            ScoredProjection(Subspace((0, 3), (1, 2)), 0, -2.0),
            ScoredProjection(Subspace((2,), (0,)), 0, -1.0),
            ScoredProjection(Subspace((1, 2, 4), (2, 0, 1)), 0, -2.0),
        ]
        assert_same_scores(codes, projections)

    def test_k0_cube_covers_every_row(self):
        codes = random_codes(0, 30, 3, 2, 0.3)
        projections = [
            ScoredProjection(Subspace((0,), (1,)), 0, -3.0),
            ScoredProjection(Subspace.empty(), 0, -1.0),
        ]
        scores = one_pass(codes, projections)
        assert not np.isnan(scores).any()
        assert_same_scores(codes, projections)
        assert_same_scores(codes, projections[1:])

    def test_empty_mined_set_scores_nan(self):
        codes = random_codes(0, 10, 3, 2, 0.0)
        assert np.isnan(one_pass(codes, [])).all()
        assert one_pass(np.empty((0, 3), dtype=np.int16), []).shape == (0,)

    def test_zero_column_codes(self):
        codes = np.empty((4, 0), dtype=np.int16)
        assert_same_scores(codes, [ScoredProjection(Subspace.empty(), 0, -1.0)])


class TestErrorContract:
    """``score_cells`` raises what the first failing ``covers`` raised."""

    @staticmethod
    def _messages(codes, projections) -> tuple[str, str]:
        with pytest.raises(ValidationError) as expected:
            reference_scores(codes, projections)
        with pytest.raises(ValidationError) as got:
            one_pass(codes, projections)
        return str(got.value), str(expected.value)

    @pytest.mark.parametrize("codes", [np.zeros(5, dtype=np.int16),
                                       np.zeros((2, 3, 4), dtype=np.int16)],
                             ids=["1d", "3d"])
    def test_codes_not_2d(self, codes):
        got, expected = self._messages(codes, [ScoredProjection(Subspace.empty(), 0, -1.0)])
        assert got == expected

    def test_first_too_wide_cube_is_named(self):
        codes = np.zeros((5, 3), dtype=np.int16)
        projections = [
            ScoredProjection(Subspace.empty(), 0, -1.0),
            ScoredProjection(Subspace((0, 1), (0, 0)), 0, -1.0),
            ScoredProjection(Subspace((1, 4), (0, 0)), 0, -1.0),
            ScoredProjection(Subspace((7,), (0,)), 0, -1.0),
        ]
        got, expected = self._messages(codes, projections)
        assert got == expected
        assert "dimension 4" in got

    def test_empty_mined_set_checks_nothing(self):
        codes = np.zeros(5, dtype=np.int16)
        assert np.array_equal(
            one_pass(codes, []), reference_scores(codes, []), equal_nan=True
        )


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(400, 5))
    data[rng.random(data.shape) < 0.05] = np.nan
    detector = SubspaceOutlierDetector(2, 4, 6, method="brute_force")
    detector.detect(data)
    return detector, rng.normal(size=(150, 5))


class TestLiveSurfaces:
    def test_detector_score(self, fitted):
        detector, batch = fitted
        codes = detector.discretizer_.transform(batch).codes
        expected = reference_scores(codes, detector.result_.projections)
        assert np.array_equal(detector.score(batch), expected, equal_nan=True)

    def test_model_rebuilds_its_table_on_every_projection_set(self, fitted):
        detector, batch = fitted
        mined = detector.result_.projections
        model = GridModel.fit(np.random.default_rng(4).normal(size=(300, 5)), n_ranges=4)
        codes = model.discretizer.transform(batch).codes
        for projections in (mined, mined[:1], (), mined[::-1]):
            model.projections = projections
            assert np.array_equal(
                model.score(batch),
                reference_scores(codes, projections),
                equal_nan=True,
            )

    def test_construction_tabulates_projections(self, fitted):
        detector, batch = fitted
        model = GridModel(detector.discretizer_, projections=detector.result_.projections)
        assert np.array_equal(model.score(batch), detector.score(batch), equal_nan=True)


class TestAmortizedRetention:
    """Absorbed blocks are joined only when read, and read back exactly."""

    @staticmethod
    def _blocks(seed=5):
        rng = np.random.default_rng(seed)
        return [rng.normal(loc=i, size=(40 + 7 * i, 4)) for i in range(5)]

    @pytest.mark.parametrize("read_after", [(), (1,), (0, 2, 3)])
    def test_update_then_rebin_matches_one_shot_fit(self, read_after):
        blocks = self._blocks()
        model = GridModel.fit(blocks[0], n_ranges=4)
        for i, block in enumerate(blocks[1:]):
            model.update(block)
            if i in read_after:
                model.raw_data  # joins the pending blocks mid-stream
        everything = np.concatenate(blocks)
        assert np.array_equal(model.raw_data, everything)
        assert model.rebin(force=True)
        batch = GridModel.fit(everything, n_ranges=4)
        for ours, theirs in zip(model.boundaries, batch.boundaries, strict=True):
            assert np.array_equal(ours, theirs)
        assert np.array_equal(model.cells.codes, batch.cells.codes)
        cubes = [Subspace((0, 2), (1, 3)), Subspace((1,), (0,)), Subspace((0, 1, 3), (2, 2, 0))]
        assert [model.counter.count(c) for c in cubes] == [batch.counter.count(c) for c in cubes]
        assert np.array_equal(model.raw_data, everything)

    def test_merge_joins_the_other_models_pending_rows(self):
        a, b, c, d, _ = self._blocks()
        left = GridModel.fit(a, n_ranges=4)
        left.update(b)
        right = GridModel.fit(c, n_ranges=4)
        right.update(d)
        left.merge(right)
        assert np.array_equal(left.raw_data, np.concatenate([a, b, c, d]))
        assert np.array_equal(right.raw_data, np.concatenate([c, d]))

    def test_retained_rows_do_not_alias_the_callers_buffer(self):
        a, b, *_ = self._blocks()
        model = GridModel.fit(a, n_ranges=4)
        buffer = b.copy()
        model.update(buffer)
        buffer[:] = np.nan
        assert np.array_equal(model.raw_data, np.concatenate([a, b]))
