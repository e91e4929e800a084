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

Requests are served by :func:`repro.grid.backends.score_rows`, which
codes raw floats and scores them in one pass (in C once the C library
has passed its gate).  On raw requests (NaN, ±0.0, values equal to a
cut, φ on both sides of the comparison/binary-search cutover, C,
Fortran and strided layouts) against mixed-k sets of up to 130 cubes:

4. the C routine equals ``score_cells`` on the reference codes bit for
   bit, NaN positions and the sign of zero included (a tie keeps the
   first covering cube's coefficient);
5. ``GridModel.score`` equals the loaded model's, and both scorers equal
   the reference;
6. each scorer raises what ``transform`` then ``score_cells`` raised.

It also locks the model's amortized row retention: rows absorbed by
``update``/``merge`` read back (``raw_data``, ``rebin``) exactly as the
concatenation of every block, whenever they are read.

The default run draws a few dozen examples; ``-m slow`` runs the deep
sweep (more examples, longer requests).
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import native_tier, native_tiers
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._validation import check_matrix
from repro.core import results
from repro.core.detector import SubspaceOutlierDetector
from repro.core.results import CubeTable, ScoredProjection, score_cells
from repro.core.subspace import Subspace
from repro.exceptions import DiscretizationError, NotFittedError, ValidationError
from repro.grid import backends
from repro.grid.cells import MISSING_CELL
from repro.grid.kernels import range_codes_block
from repro.grid.native import native_score_rows
from repro.model import GridModel
from repro.persist import load_model, save_model

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


# ----------------------------------------------------------------------
# Raw requests: ``score_rows`` codes and scores in one pass (in C when
# the C library passed its gate), and both scorers serve through it.

#: φ = 70 puts 69 cuts past the comparison limit, so codes come from the
#: binary search.
PHIS = (2, 10, 70)

#: Coefficients of the drawn tables: NaN, both zeros and ties.  Half
#: the tables draw from the second set, so rows whose best covering
#: coefficient is a zero tie are common.
RAW_COEFFICIENTS = ((-2.0, -1.0, -0.0, 0.0, np.nan, 1.5), (-0.0, 0.0, np.nan, 1.5))


def same_bits(got, expected) -> bool:
    """Equal scores with NaN in the same places and every zero signed alike."""
    got, expected = np.asarray(got), np.asarray(expected)
    nan = np.isnan(expected)
    return (
        got.shape == expected.shape
        and np.array_equal(np.isnan(got), nan)
        and np.array_equal(got[~nan], expected[~nan])
        and np.array_equal(np.signbit(got[~nan]), np.signbit(expected[~nan]))
    )


def assert_first_wins(got, codes, projections) -> None:
    """*got* is ``score_cells``' answer bit for bit, and the per-cube
    loop's up to the sign of zero (elementwise ``np.fmin`` does not pin
    which zero of a tie it keeps)."""
    expected = score_cells(codes, CubeTable.from_projections(projections))
    assert same_bits(got, expected)
    loop = reference_scores(codes, projections)
    assert np.array_equal(expected, loop, equal_nan=True)


def grid_cuts(rng, n_dims, phi) -> np.ndarray:
    """A sorted ``(d, φ−1)`` cut matrix on a 0.1 lattice, so values tie it."""
    return np.sort(np.round(rng.normal(size=(n_dims, phi - 1)), 1), axis=1)


@st.composite
def raw_requests(draw, min_rows=0, max_rows=40):
    """``(request, cuts)``: raw floats with NaN, ±0.0 and values equal to
    a cut, in C, Fortran or strided layout."""
    phi = draw(st.sampled_from(PHIS), label="phi")
    n_dims = draw(st.integers(1, 5), label="d")
    n_rows = draw(st.integers(min_rows, max_rows), label="rows")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    cuts = grid_cuts(rng, n_dims, phi)
    values = np.round(rng.normal(size=(2 * n_rows, 2 * n_dims)), 1)
    salt = rng.random(values.shape)
    values[salt < 0.1] = np.nan
    values[(salt >= 0.1) & (salt < 0.2)] = 0.0
    values[(salt >= 0.2) & (salt < 0.3)] = -0.0
    on_cut = (salt >= 0.3) & (salt < 0.5)
    wide_cuts = np.tile(cuts, (2, 1))
    picks = rng.integers(0, phi - 1, size=values.shape)
    values[on_cut] = np.take_along_axis(wide_cuts.T, picks, axis=0)[on_cut]
    layout = draw(st.sampled_from(["C", "F", "strided"]), label="layout")
    if layout == "strided":
        return values[::2, ::2], cuts
    request = values[:n_rows, :n_dims]
    if layout == "F":
        request = np.asfortranarray(request)
    return np.ascontiguousarray(request) if layout == "C" else request, cuts


def raw_table(seed, codes, phi, size):
    """``(table, projections)``: *size* mixed-k cubes (k = 0..4, padded
    in the table) over *codes*' columns.

    Most cubes copy a row's codes, so they cover it; a missing code
    becomes a range drawn from ``[0, φ]`` (``φ`` is off the grid)."""
    rng = np.random.default_rng(seed)
    n, d = codes.shape
    palette = RAW_COEFFICIENTS[int(rng.integers(2))]
    projections = []
    for _ in range(size):
        k = int(rng.integers(0, min(d, 4) + 1))
        dims = np.sort(rng.choice(d, size=k, replace=False))
        ranges = codes[rng.integers(n), dims] if n else np.full(k, -1)
        ranges = np.where(ranges < 0, rng.integers(0, phi + 1, size=k), ranges)
        projections.append(
            ScoredProjection(
                Subspace(tuple(int(x) for x in dims), tuple(int(r) for r in ranges)),
                count=0,
                coefficient=float(rng.choice(palette)),
            )
        )
    return CubeTable.from_projections(projections), projections


#: The kernel ``select_kernel`` must pick inside ``native_tier(tier)``.
NATIVE_KERNEL = {"numpy": "numpy", "c": "native"}


def _table_arrays(table):
    return table.dims, table.ranges, table.coefficients, table.free


class TestScoreRowsMatchesReference:
    """``score_rows`` equals ``score_cells`` on the reference codes, bit for bit."""

    @staticmethod
    def _check(data, scorer):
        request, cuts = data.draw(raw_requests(), label="request")
        phi = cuts.shape[1] + 1
        codes = range_codes_block(request, cuts)
        size = data.draw(st.sampled_from([0, 1, 63, 64, 65, 130]), label="m")
        seed = data.draw(st.integers(0, 2**32 - 1), label="table seed")
        table, projections = raw_table(seed, codes, phi, size)
        got = scorer(request, cuts, *_table_arrays(table))
        assert_first_wins(got, codes, projections)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_c_routine(self, data):
        with native_tier("c"):
            self._check(data, native_score_rows)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_served_tier(self, data):
        self._check(data, backends.score_rows)

    @pytest.mark.parametrize("tier", ["numpy", "c"])
    def test_both_tiers_serve_the_same_bits(self, tier):
        rng = np.random.default_rng(11)
        for phi in PHIS:
            cuts = grid_cuts(rng, 4, phi)
            request = np.round(rng.normal(size=(300, 4)), 1)
            request[rng.random(request.shape) < 0.1] = np.nan
            codes = range_codes_block(request, cuts)
            table, _ = raw_table(phi, codes, phi, 130)
            with native_tier(tier):
                assert backends.select_kernel()[0] == NATIVE_KERNEL[tier]
                got = backends.score_rows(request, cuts, *_table_arrays(table))
            assert same_bits(got, score_cells(codes, table)), phi

    def test_ties_keep_the_first_zero(self):
        """``np.fmin.reduce`` keeps either zero of a tie, lane by lane;
        the scorers keep the first covering cube's."""
        codes = np.zeros((3, 1), dtype=np.int16)
        for first, later in ((0.0, -0.0), (-0.0, 0.0)):
            projections = [ScoredProjection(Subspace((0,), (1,)), 0, -5.0)] + [
                ScoredProjection(Subspace.empty(), 0, first if i == 0 else later)
                for i in range(40)
            ]
            table = CubeTable.from_projections(projections)
            assert same_bits(score_cells(codes, table), np.full(3, first))
            request, cuts = np.zeros((3, 1)), np.zeros((1, 1))
            for tier in native_tiers():
                with native_tier(tier):
                    got = backends.score_rows(request, cuts, *_table_arrays(table))
                assert same_bits(got, np.full(3, first)), tier
            if "c" in native_tiers():
                got = native_score_rows(request, cuts, *_table_arrays(table))
                assert same_bits(got, np.full(3, first))


class TestScorersServeOnePath:
    """``GridModel.score`` (live and loaded) and the detector's ``score``
    equal the per-cube reference on raw requests."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_live_and_loaded_model(self, data):
        request, _ = data.draw(raw_requests(min_rows=1), label="request")
        phi = data.draw(st.sampled_from(PHIS), label="grid phi")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        train = np.round(rng.normal(size=(300, request.shape[1])), 1)
        model = GridModel.fit(train, n_ranges=phi)
        codes = model.discretizer.transform(request).codes
        size = data.draw(st.sampled_from([1, 64, 65]), label="m")
        seed = data.draw(st.integers(0, 2**32 - 1), label="table seed")
        _, projections = raw_table(seed, codes, phi, size)
        model.projections = projections
        live = model.score(request)
        assert_first_wins(live, codes, projections)
        with tempfile.TemporaryDirectory() as directory:
            path = save_model(model, Path(directory) / "model.zip")
            assert same_bits(load_model(path).score(request), live)

    @pytest.mark.parametrize("phi", PHIS)
    def test_detector(self, phi):
        rng = np.random.default_rng(phi)
        train = np.round(rng.normal(size=(500, 4)), 1)
        detector = SubspaceOutlierDetector(2, phi, 20, method="brute_force")
        detector.detect(train)
        cuts = np.array(detector.discretizer_.boundaries)
        request = np.round(rng.normal(size=(200, 4)), 1)
        request[rng.random(request.shape) < 0.1] = np.nan
        request[::7, 0] = cuts[0, phi // 3]
        request[1::5, 1] = -0.0
        codes = detector.discretizer_.transform(request).codes
        projections = detector.result_.projections
        assert_first_wins(detector.score(request), codes, projections)
        assert same_bits(detector.model_.score(request), detector.score(request))


class TestRequestErrors:
    """Each scorer validates once and raises what the two-step path
    (``transform``, then ``score_cells``) raised, message for message."""

    @pytest.fixture
    def model(self):
        data = np.random.default_rng(8).normal(size=(200, 3))
        model = GridModel.fit(data, n_ranges=4)
        model.projections = [ScoredProjection(Subspace((0, 2), (1, 1)), 0, -1.0)]
        return model

    @staticmethod
    def _message(error, call, *args):
        with pytest.raises(error) as raised:
            call(*args)
        return str(raised.value)

    def test_column_count(self, model):
        request = np.zeros((5, 4))
        transform = model.discretizer.transform
        expected = self._message(DiscretizationError, transform, request)
        assert self._message(DiscretizationError, model.score, request) == expected

    def test_cube_past_the_request(self, model):
        projections = [
            ScoredProjection(Subspace.empty(), 0, -1.0),
            ScoredProjection(Subspace((1, 5), (0, 0)), 0, -1.0),
            ScoredProjection(Subspace((7,), (0,)), 0, -1.0),
        ]
        model.projections = projections
        request = np.zeros((5, 3))
        codes = model.discretizer.transform(request).codes
        expected = self._message(
            ValidationError, score_cells, codes, CubeTable.from_projections(projections)
        )
        got = self._message(ValidationError, model.score, request)
        assert got == expected
        assert got == "subspace uses dimension 5 but cells has only 3 columns"

    def test_public_boundary_checks(self, model):
        hostile = [[np.inf, 0, 0]]
        expected = self._message(ValidationError, check_matrix, hostile, "points")
        assert self._message(ValidationError, model.score, hostile) == expected
        fresh = GridModel.fit(np.zeros((10, 3)) + np.arange(10)[:, None], n_ranges=2)
        with pytest.raises(NotFittedError, match="no mined projections"):
            fresh.score(np.zeros((2, 3)))
        with pytest.raises(NotFittedError, match="before score"):
            SubspaceOutlierDetector(2, 4, 5).score(np.zeros((2, 3)))

    def test_detector_column_count(self, fitted):
        detector, batch = fitted
        expected = self._message(
            DiscretizationError, detector.discretizer_.transform, batch[:, :3]
        )
        got = self._message(DiscretizationError, detector.score, batch[:, :3])
        assert got == expected


class TestNativeScoringGate:
    @pytest.fixture(autouse=True)
    def _c_tier(self):
        with native_tier("c"):
            yield

    def test_wrapper_refuses_mistyped_tables(self):
        request, cuts = np.zeros((4, 2)), np.zeros((2, 3))
        table, _ = raw_table(0, np.zeros((1, 2), dtype=np.int16), 4, 3)
        good = list(_table_arrays(table))
        for position, bad in ((0, good[0].astype(np.int32)),
                              (1, good[1][:, :0]),
                              (2, good[2].astype(np.float32)),
                              (3, good[3].astype(np.uint8)),
                              (0, np.asfortranarray(np.zeros((3, 2), dtype=np.int64)))):
            arrays = list(good)
            arrays[position] = bad
            with pytest.raises(ValidationError, match="native scoring"):
                native_score_rows(request, cuts, *arrays)
        with pytest.raises(ValidationError, match="cut matrix"):
            native_score_rows(request, np.zeros((3, 3)), *good)

    def test_gate_refuses_a_diverging_scorer(self, monkeypatch):
        real = backends.native_score_rows

        def flipped(*args):
            scores = real(*args)
            return np.where(scores == 0.0, -scores, scores)

        monkeypatch.setattr(backends, "native_score_rows", flipped)
        monkeypatch.setattr(backends, "_VERIFIED", backends._VERIFIED - {"native"})
        name, reason = backends.select_kernel()
        assert name == "numpy"
        assert "cannot score requests" in reason
