"""The grid build on every native tier: pack, codes and column copies.

:func:`repro.grid.backends.pack_codes`, :func:`~repro.grid.backends.range_codes`
and :func:`~repro.grid.backends.column_copies` serve the C library when
it passes the conformance gate and the numpy references otherwise.
Both tiers must give the references' bytes: packed masks equal to
:func:`~repro.grid.kernels.pack_codes_block`, codes equal to a
per-column ``searchsorted(side="left")`` with NaN missing, and exact
column copies.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ValidationError
from repro.grid import backends
from repro.grid.cells import MISSING_CELL
from repro.grid.kernels import _MAX_COMPARE_CUTS, pack_codes_block
from repro.grid.native import (
    native_gather_columns,
    native_pack_codes,
    native_range_codes,
)

from conftest import native_tier, native_tiers

#: Row counts around the byte and 64-bit word edges of a packed row.
_EDGE_ROWS = st.sampled_from([0, 1, 7, 8, 63, 64, 65])
#: φ on both sides of the comparison/binary-search cutover, and the
#: largest φ an int16 code allows.
_PHIS = st.sampled_from([2, _MAX_COMPARE_CUTS + 1, _MAX_COMPARE_CUTS + 2, 1 << 15])


def _served_tier(tier: str) -> None:
    """The grid build inside ``native_tier(tier)`` runs on *tier*."""
    assert backends.select_kernel()[0] == {"c": "native", "numpy": "numpy"}[tier]


def _codes_block(seed: int, n_rows: int, n_dims: int, phi: int) -> np.ndarray:
    """Random codes with missing entries and whole missing rows."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, phi, size=(n_rows, n_dims)).astype(np.int16)
    codes[rng.random(codes.shape) < 0.2] = MISSING_CELL
    codes[rng.random(n_rows) < 0.1] = MISSING_CELL
    if n_rows:
        codes[0, 0] = phi - 1  # the last range is always reached
    return codes


def _values_and_cuts(seed: int, n_rows: int, n_dims: int, phi: int):
    """Values that hit cuts exactly, signed zeros, NaN, both tails and
    ±inf (which ``check_matrix`` refuses before any transform, but the
    routines map like any value past the tails)."""
    rng = np.random.default_rng(seed)
    cuts = np.round(rng.normal(size=(n_dims, phi - 1)), 1)
    cuts[:, 0] = 0.0
    cuts.sort(axis=1)
    pool = np.concatenate(
        [cuts.ravel()[: 4 * (phi + 1)], [0.0, -0.0, np.nan, -1e9, 1e9, -np.inf, np.inf]]
    )
    values = np.round(rng.normal(size=(n_rows, n_dims)), 1)
    picked = rng.random(values.shape) < 0.5
    values[picked] = rng.choice(pool, size=int(picked.sum()))
    return values, cuts


def _searchsorted_codes(values: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Per-column ``searchsorted(side="left")``; NaN is missing."""
    codes = np.empty(values.shape, dtype=np.int16)
    for j, column_cuts in enumerate(cuts):
        codes[:, j] = np.searchsorted(column_cuts, values[:, j], side="left")
    codes[np.isnan(values)] = MISSING_CELL
    return codes


def _check_pack(seed, n_rows, n_dims, phi):
    codes = _codes_block(seed, n_rows, n_dims, phi)
    expected = pack_codes_block(codes, phi)
    for tier in native_tiers():
        with native_tier(tier):
            _served_tier(tier)
            for block in (codes, np.asfortranarray(codes)):
                got = backends.pack_codes(block, phi)
                assert got.dtype == np.uint8, tier
                assert got.tobytes() == expected.tobytes(), tier


def _check_codes(seed, n_rows, n_dims, phi):
    values, cuts = _values_and_cuts(seed, n_rows, n_dims, phi)
    expected = _searchsorted_codes(values, cuts)
    for tier in native_tiers():
        with native_tier(tier):
            _served_tier(tier)
            for matrix in (values, np.asfortranarray(values)):
                got = backends.range_codes(matrix, cuts)
                assert got.dtype == np.int16, tier
                assert got.tobytes() == expected.tobytes(), tier
            if n_dims > 1:
                # A strided column slice is read in place.
                got = backends.range_codes(values[:, ::2], cuts[::2])
                assert np.array_equal(got, expected[:, ::2]), tier


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=_EDGE_ROWS,
    n_dims=st.integers(1, 4),
    phi=_PHIS,
)
def test_pack_matches_reference(seed, n_rows, n_dims, phi):
    """Packed masks equal ``pack_codes_block`` byte for byte on every tier,
    with missing codes and rows, ragged 64-bit tails and d = 1."""
    _check_pack(seed, n_rows, n_dims, phi)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=_EDGE_ROWS,
    n_dims=st.integers(1, 4),
    phi=_PHIS,
)
def test_codes_match_searchsorted(seed, n_rows, n_dims, phi):
    """Codes equal per-column ``searchsorted(side="left")`` on every tier,
    with NaN, signed zeros, values equal to a cut and both sides of the
    comparison/binary-search cutover."""
    _check_codes(seed, n_rows, n_dims, phi)


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(0, 5_000),
    n_dims=st.integers(1, 8),
    phi=st.integers(2, 3 * _MAX_COMPARE_CUTS),
)
def test_grid_build_matches_references_large(seed, n_rows, n_dims, phi):
    """Pack and codes against their references over larger N and φ up to
    three times the cutover (``-m slow``; φ = 2^15 stays in the short
    tests, whose reference packer needs a dense φ × N mask)."""
    _check_pack(seed, n_rows, n_dims, phi)
    _check_codes(seed, n_rows, n_dims, phi)


@pytest.mark.parametrize("layout", ["C", "F", "slice"])
def test_column_copies_are_exact_and_contiguous(layout):
    rng = np.random.default_rng(3)
    data = rng.normal(size=(1_100, 11))
    data[rng.random(data.shape) < 0.1] = np.nan
    matrix = {
        "C": data,
        "F": np.asfortranarray(data),
        "slice": data[::3, 1::2],
    }[layout]
    for tier in native_tiers():
        with native_tier(tier):
            _served_tier(tier)
            columns = [column.copy() for column in backends.column_copies(matrix)]
        assert len(columns) == matrix.shape[1], tier
        for j, column in enumerate(columns):
            assert column.flags.c_contiguous, tier
            assert np.array_equal(column, matrix[:, j], equal_nan=True), tier


class TestNativeWrappersRefuse:
    """The C wrappers refuse, before entering C, what could address memory
    outside their arrays."""

    @pytest.fixture(autouse=True)
    def _c_tier(self):
        with native_tier("c"):
            yield

    def test_pack_refuses_codes_outside_the_grid(self):
        for bad in (3, -2):
            codes = np.zeros((9, 2), dtype=np.int16)
            codes[4, 1] = bad
            with pytest.raises(ValidationError, match="codes in"):
                native_pack_codes(codes, 3)

    def test_pack_refuses_other_dtypes_and_shapes(self):
        with pytest.raises(ValidationError, match="int16"):
            native_pack_codes(np.zeros((4, 2), dtype=np.int64), 3)
        with pytest.raises(ValidationError, match="int16"):
            native_pack_codes(np.zeros(4, dtype=np.int16), 3)

    def test_codes_refuse_a_mismatched_cut_matrix(self):
        values = np.zeros((5, 3))
        with pytest.raises(ValidationError, match="cut matrix"):
            native_range_codes(values, np.zeros((2, 4)))
        with pytest.raises(ValidationError, match="float64"):
            native_range_codes(values, np.zeros((3, 4), dtype=np.float32))
        with pytest.raises(ValidationError, match="float64"):
            native_range_codes(values.astype(np.float32), np.zeros((3, 4)))

    def test_gather_refuses_a_buffer_that_does_not_fit(self):
        values = np.zeros((5, 3))
        with pytest.raises(ValidationError, match="buffer"):
            native_gather_columns(values, 2, np.empty((2, 5)))
        with pytest.raises(ValidationError, match="buffer"):
            native_gather_columns(values, 0, np.empty((2, 4)))
        with pytest.raises(ValidationError, match="buffer"):
            native_gather_columns(values, 0, np.empty((5, 2)).T)


def _broken(routine: str, real):
    """*real* with its first output element nudged off the reference."""

    def pack(codes, n_ranges):
        stack = real(codes, n_ranges)
        if stack.size:
            stack.flat[0] ^= 1
        return stack

    def codes(values, cuts):
        out = real(values, cuts)
        out[0, 0] += 1
        return out

    def gather(values, first, out):
        real(values, first, out)
        out[0, 0] += 1.0

    return {
        "native_pack_codes": pack,
        "native_range_codes": codes,
        "native_gather_columns": gather,
    }[routine]


@pytest.mark.parametrize(
    "routine", ["native_pack_codes", "native_range_codes", "native_gather_columns"]
)
def test_gate_refuses_a_diverging_grid_routine(routine, monkeypatch, small_data):
    """A C grid routine off the reference fails the conformance gate, so
    the whole C library is refused and everything serves the references,
    with no degradation recorded."""
    from repro.grid.counter import CubeCounter
    from repro.grid.discretizer import EquiDepthDiscretizer

    if "c" not in native_tiers():
        pytest.skip("the C kernel does not build on this machine")
    monkeypatch.setattr(backends, routine, _broken(routine, getattr(backends, routine)))
    monkeypatch.setattr(backends, "_VERIFIED", backends._VERIFIED - {"native"})
    name, reason = backends.select_kernel()
    assert name == "numpy"
    assert "cannot build grids" in reason
    cells = EquiDepthDiscretizer(5).fit_transform(small_data)
    assert cells.codes.tobytes() == _searchsorted_codes(
        small_data, np.array(cells.boundaries)
    ).tobytes()
    counter = CubeCounter(cells)
    assert counter._stack8.tobytes() == pack_codes_block(cells.codes, 5).tobytes()
    assert counter.kernel_info()["kernel"] == "numpy"
    assert counter.resilience.ladder == {}
