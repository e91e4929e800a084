"""Tests for the equi-depth / equi-width grid discretizers."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.exceptions import DiscretizationError, NotFittedError, ValidationError
from repro.grid.cells import MISSING_CELL
from repro.grid.discretizer import (
    EquiDepthDiscretizer,
    EquiWidthDiscretizer,
    StreamingReservoir,
)
from repro.grid.kernels import _MAX_COMPARE_CUTS

from conftest import native_tier, native_tiers


class TestEquiDepthBasics:
    def test_fit_transform_shape_and_dtype(self, small_data):
        cells = EquiDepthDiscretizer(5).fit_transform(small_data)
        assert cells.codes.shape == small_data.shape
        assert cells.codes.dtype == np.int16
        assert cells.n_ranges == 5

    def test_codes_in_range(self, small_data):
        cells = EquiDepthDiscretizer(7).fit_transform(small_data)
        assert cells.codes.min() >= 0
        assert cells.codes.max() <= 6

    def test_equi_depth_balance_continuous(self, rng):
        # With continuous data every range holds N/φ records up to
        # quantile rounding.
        data = rng.normal(size=(1000, 3))
        cells = EquiDepthDiscretizer(10).fit_transform(data)
        for dim in range(3):
            counts = cells.range_counts(dim)
            assert counts.sum() == 1000
            assert counts.min() >= 90
            assert counts.max() <= 110

    def test_monotone_assignment(self, rng):
        # Larger values never get a smaller range code.
        data = rng.normal(size=(500, 1))
        cells = EquiDepthDiscretizer(8).fit_transform(data)
        order = np.argsort(data[:, 0])
        codes_sorted = cells.codes[order, 0]
        assert (np.diff(codes_sorted) >= 0).all()

    def test_boundaries_exposed(self, small_data):
        disc = EquiDepthDiscretizer(4).fit(small_data)
        assert len(disc.boundaries) == small_data.shape[1]
        for cuts in disc.boundaries:
            assert cuts.shape == (3,)
            assert (np.diff(cuts) >= 0).all()

    def test_is_fitted_flag(self, small_data):
        disc = EquiDepthDiscretizer(4)
        assert not disc.is_fitted
        disc.fit(small_data)
        assert disc.is_fitted


class TestMissingValues:
    def test_nan_maps_to_missing_cell(self):
        data = np.array([[1.0], [np.nan], [3.0], [2.0]])
        cells = EquiDepthDiscretizer(2).fit_transform(data)
        assert cells.codes[1, 0] == MISSING_CELL
        assert (cells.codes[[0, 2, 3], 0] >= 0).all()

    def test_boundaries_ignore_nan(self):
        with_nan = np.array([[1.0], [np.nan], [2.0], [3.0], [4.0]])
        without = np.array([[1.0], [2.0], [3.0], [4.0]])
        cuts_a = EquiDepthDiscretizer(2).fit(with_nan).boundaries[0]
        cuts_b = EquiDepthDiscretizer(2).fit(without).boundaries[0]
        np.testing.assert_allclose(cuts_a, cuts_b)

    def test_all_nan_column_allowed(self):
        data = np.column_stack([np.full(5, np.nan), np.arange(5.0)])
        cells = EquiDepthDiscretizer(3).fit_transform(data)
        assert (cells.codes[:, 0] == MISSING_CELL).all()
        assert (cells.codes[:, 1] >= 0).all()

    def test_missing_fraction(self):
        data = np.array([[1.0, np.nan], [2.0, 3.0]])
        cells = EquiDepthDiscretizer(2).fit_transform(data)
        assert cells.missing_fraction == pytest.approx(0.25)


class TestEdgeCases:
    def test_constant_column_single_bin(self):
        data = np.column_stack([np.ones(50), np.arange(50.0)])
        cells = EquiDepthDiscretizer(5).fit_transform(data)
        assert (cells.codes[:, 0] == 0).all()

    def test_single_row(self):
        cells = EquiDepthDiscretizer(3).fit_transform([[1.0, 2.0]])
        assert cells.codes.shape == (1, 2)

    def test_heavy_ties_keep_codes_valid(self):
        data = np.array([[0.0]] * 90 + [[1.0]] * 10)
        cells = EquiDepthDiscretizer(10).fit_transform(data)
        assert cells.codes.min() >= 0
        assert cells.codes.max() < 10

    def test_transform_clamps_out_of_range(self, small_data):
        disc = EquiDepthDiscretizer(4).fit(small_data)
        extreme = np.full((2, small_data.shape[1]), 1e6)
        extreme[1] = -1e6
        cells = disc.transform(extreme)
        assert (cells.codes[0] == 3).all()
        assert (cells.codes[1] == 0).all()

    def test_transform_before_fit_raises(self, small_data):
        with pytest.raises(NotFittedError):
            EquiDepthDiscretizer(4).transform(small_data)

    def test_boundaries_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            EquiDepthDiscretizer(4).boundaries

    def test_column_count_mismatch(self, small_data):
        disc = EquiDepthDiscretizer(4).fit(small_data)
        with pytest.raises(DiscretizationError, match="columns"):
            disc.transform(small_data[:, :3])

    def test_feature_names_length_checked(self, small_data):
        with pytest.raises(DiscretizationError, match="feature_names"):
            EquiDepthDiscretizer(4).fit(small_data, feature_names=["a"])

    def test_feature_names_propagate(self, small_data):
        names = [f"f{i}" for i in range(small_data.shape[1])]
        cells = EquiDepthDiscretizer(4).fit_transform(small_data, feature_names=names)
        assert cells.feature_names == tuple(names)

    def test_rejects_inf(self):
        with pytest.raises(ValidationError):
            EquiDepthDiscretizer(4).fit([[np.inf], [0.0]])

    def test_invalid_n_ranges(self):
        with pytest.raises(ValidationError):
            EquiDepthDiscretizer(0)


class TestEquiWidth:
    def test_equal_width_cuts(self):
        data = np.arange(0.0, 10.0).reshape(-1, 1)
        cuts = EquiWidthDiscretizer(3).fit(data).boundaries[0]
        np.testing.assert_allclose(cuts, [3.0, 6.0])

    def test_skew_concentrates_mass(self, rng):
        # Log-normal data: equi-width packs most records into low bins,
        # unlike equi-depth.  This is the paper's argument for
        # equi-depth ranges.
        data = np.exp(rng.normal(size=(1000, 1)) * 1.5)
        width_counts = EquiWidthDiscretizer(10).fit_transform(data).range_counts(0)
        depth_counts = EquiDepthDiscretizer(10).fit_transform(data).range_counts(0)
        assert width_counts.max() > 2 * depth_counts.max()

    def test_constant_column(self):
        data = np.ones((10, 1))
        cells = EquiWidthDiscretizer(4).fit_transform(data)
        assert (cells.codes == 0).all()


@settings(max_examples=50, deadline=None)
@given(
    n_ranges=st.integers(2, 12),
    values=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=200
    ),
)
def test_property_codes_bounded_and_monotone(n_ranges, values):
    """For any data: codes in [0, φ) and order-compatible with values."""
    data = np.asarray(values).reshape(-1, 1)
    cells = EquiDepthDiscretizer(n_ranges).fit_transform(data)
    codes = cells.codes[:, 0]
    assert codes.min() >= 0
    assert codes.max() < n_ranges
    order = np.argsort(data[:, 0], kind="stable")
    assert (np.diff(codes[order]) >= 0).all()


# -- reference equality ----------------------------------------------------
# Column kinds for the reference sweep; values come from a seeded numpy
# generator so the larger-N variant stays fast.
_COLUMN_KINDS = {
    "spread": lambda rng, n: rng.normal(size=n) * 10.0 ** rng.integers(-300, 300),
    "ties": lambda rng, n: rng.integers(-3, 4, size=n).astype(np.float64),
    "signed_zeros": lambda rng, n: rng.choice([-0.0, 0.0, -1.0, 1.0], size=n),
    "constant": lambda rng, n: np.full(n, rng.normal()),
    "all_nan": lambda rng, n: np.full(n, np.nan),
}


def _matrix(seed, n_rows, kinds, nan_fraction):
    rng = np.random.default_rng(seed)
    data = np.column_stack([_COLUMN_KINDS[kind](rng, n_rows) for kind in kinds])
    data[rng.random(data.shape) < nan_fraction] = np.nan
    return data


def _reference_cuts(data, n_ranges, equi_width):
    """Per-column cuts as computed before the array path: ``np.quantile``
    of the finite values (equi-depth) or a ``linspace`` over their span
    (equi-width)."""
    boundaries = []
    for j in range(data.shape[1]):
        finite = data[:, j][~np.isnan(data[:, j])]
        if finite.size == 0:
            cuts = np.zeros(n_ranges - 1)
        elif not equi_width:
            cuts = np.quantile(finite, np.arange(1, n_ranges) / n_ranges)
        elif finite.min() == finite.max():
            cuts = np.full(n_ranges - 1, float(finite.min()))
        else:
            cuts = np.linspace(finite.min(), finite.max(), n_ranges + 1)[1:-1]
        boundaries.append(cuts)
    return boundaries


def _reference_codes(data, boundaries):
    """Per-column ``searchsorted(cuts, column, side="left")``, NaN missing."""
    codes = np.empty(data.shape, dtype=np.int16)
    for j, cuts in enumerate(boundaries):
        column = data[:, j]
        col_codes = np.searchsorted(cuts, column, side="left").astype(np.int16)
        col_codes[np.isnan(column)] = MISSING_CELL
        codes[:, j] = col_codes
    return codes


def _assert_matches_reference_on_every_tier(data, n_ranges):
    """:func:`_assert_matches_reference` on the C library and on the
    numpy references alike."""
    for tier in native_tiers():
        with native_tier(tier):
            _assert_matches_reference(data, n_ranges)


def _assert_matches_reference(data, n_ranges):
    """Every fit and transform entry point of both discretizers against
    the oracle: codes byte for byte, cuts by value (a tied zero's sign
    may differ, and no comparison can see it)."""
    shifted = data * 2.0 - 1.0  # out-of-range values clamp to the tails
    for cls in (EquiDepthDiscretizer, EquiWidthDiscretizer):
        cuts = _reference_cuts(data, n_ranges, cls is EquiWidthDiscretizer)
        codes = _reference_codes(data, cuts).tobytes()
        shifted_codes = _reference_codes(shifted, cuts).tobytes()
        split = data.shape[0] // 3
        streamed = cls(n_ranges).partial_fit(data[:split]).partial_fit(data[split:])
        chunked = cls(n_ranges).fit_from_chunks([data[:split], data[split:]])
        for fitted in (cls(n_ranges).fit(data), streamed.rebin(), chunked):
            assert all(np.array_equal(a, b) for a, b in zip(fitted.boundaries, cuts))
            assert fitted.transform(data).codes.tobytes() == codes
            assert fitted.transform(shifted).codes.tobytes() == shifted_codes
        fused = cls(n_ranges).fit_transform(data)
        assert all(np.array_equal(a, b) for a, b in zip(fused.boundaries, cuts))
        assert fused.codes.tobytes() == codes


_KIND_LISTS = st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=5)
# φ−1 on both sides of the comparison-count / searchsorted cutover.
_N_RANGES = st.integers(2, 2 * _MAX_COMPARE_CUTS)
_NAN_FRACTIONS = st.sampled_from([0.0, 0.1, 0.4])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 400),
    kinds=_KIND_LISTS,
    n_ranges=_N_RANGES,
    nan_fraction=_NAN_FRACTIONS,
)
@example(seed=0, n_rows=9000, kinds=["spread", "ties", "signed_zeros"],
         n_ranges=10, nan_fraction=0.1)  # several row blocks, a partial last one
@example(seed=1, n_rows=300, kinds=["spread", "ties"],
         n_ranges=_MAX_COMPARE_CUTS + 1, nan_fraction=0.1)  # last counted φ
@example(seed=2, n_rows=300, kinds=["spread", "ties"],
         n_ranges=_MAX_COMPARE_CUTS + 2, nan_fraction=0.1)  # first searchsorted φ
def test_array_path_matches_per_column_reference(
    seed, n_rows, kinds, n_ranges, nan_fraction
):
    """Sorted-copy quantiles and comparison-count codes equal the
    per-column ``np.quantile`` + ``searchsorted`` algorithm, with ties,
    NaN, constant and all-NaN columns and signed zeros, on every native
    tier.  Codes match
    byte for byte; cuts match under ``np.array_equal``, because
    ``np.sort`` and ``np.partition`` may order tied ``-0.0``/``+0.0``
    differently."""
    _assert_matches_reference_on_every_tier(
        _matrix(seed, n_rows, kinds, nan_fraction), n_ranges
    )


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 50_000),
    kinds=_KIND_LISTS,
    n_ranges=_N_RANGES,
    nan_fraction=_NAN_FRACTIONS,
)
def test_array_path_matches_per_column_reference_large(
    seed, n_rows, kinds, n_ranges, nan_fraction
):
    """The reference-equality sweep over larger N on every native tier
    (``-m slow``)."""
    _assert_matches_reference_on_every_tier(
        _matrix(seed, n_rows, kinds, nan_fraction), n_ranges
    )


def scalar_algorithm_r(rows: np.ndarray, capacity: int, seed: int) -> np.ndarray:
    """Algorithm R one row at a time: row t past the fill draws one
    slot uniformly from 0..t and overwrites it when the slot is held."""
    rng = np.random.default_rng(seed)
    reservoir = []
    for t, row in enumerate(rows):
        if t < capacity:
            reservoir.append(row)
            continue
        slot = int(rng.random() * (t + 1))
        if slot < capacity:
            reservoir[slot] = row
    return np.array(reservoir)


class TestReservoirMatchesScalarAlgorithmR:
    """The vectorised overwrite (the last survivor of each slot wins)
    against the scalar loop, with capacities small enough that slots
    are drawn many times within one chunk."""

    @pytest.mark.parametrize("capacity", [1, 3, 7, 50])
    @pytest.mark.parametrize("chunks", [(400,), (5, 1, 94, 300), (2,) * 200])
    def test_same_rows_in_the_same_slots(self, capacity, chunks):
        rows = np.random.default_rng(capacity).normal(size=(400, 3))
        reservoir = StreamingReservoir(capacity, random_state=9)
        start = 0
        for size in chunks:
            reservoir.update(rows[start : start + size])
            start += size
        np.testing.assert_array_equal(
            reservoir.rows, scalar_algorithm_r(rows, capacity, seed=9)
        )
