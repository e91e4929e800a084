"""Property-based tests: sparsity-coefficient and equi-depth invariants.

Hypothesis hunts the algebraic corners the example-based suites cannot
enumerate:

* Equation 1 is strictly monotone in ``n(D)`` (emptier cube ⇒ more
  negative coefficient), vanishes at the exact null expectation
  ``N·f^k``, and agrees between its scalar and vectorized forms — and
  at ``n(D) = 0`` with §2.4's closed-form empty-cube bound.
* The equi-depth discretizer balances its buckets (no bucket above
  ``ceil(n/φ)`` for distinct values), keeps ties together, maps NaN to
  the missing sentinel, and stays a partition of the observed rows no
  matter how pathological the tie structure.
* The counting kernels' core identity — popcount(AND of membership
  masks) equals the brute boolean-intersection count — holds for
  arbitrary mask widths (ragged final words included), all-zero and
  all-one masks, on every kernel tier a counter can select.
"""

from __future__ import annotations

import math
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
import pytest

from repro.core.params import empty_cube_sparsity
from repro.core.subspace import Subspace
from repro.grid.cells import MISSING_CELL, CellAssignment
from repro.grid.counter import CubeCounter
from repro.grid.discretizer import EquiDepthDiscretizer, StreamingReservoir
from repro.grid.kernels import batch_counts
from repro.grid.sharded import ShardedCounter, ShardedMaskStore
from repro.sparsity.coefficient import (
    expected_count,
    sparsity_coefficient,
    sparsity_coefficients,
)

from conftest import native_counts, native_tier, native_tiers

# Keep N, φ, k in ranges where Equation 1's arithmetic is far from any
# float precision cliff (N·f^k spans ~1e-6 .. 1e6 here).
n_points_st = st.integers(min_value=2, max_value=1_000_000)
phi_st = st.integers(min_value=2, max_value=20)
k_st = st.integers(min_value=1, max_value=6)


class TestSparsityCoefficientInvariants:
    @settings(max_examples=200, deadline=None)
    @given(n_points=n_points_st, phi=phi_st, k=k_st, data=st.data())
    def test_strictly_monotone_in_count(self, n_points, phi, k, data):
        low = data.draw(st.integers(0, n_points - 1), label="low")
        high = data.draw(st.integers(low + 1, n_points), label="high")
        s_low = sparsity_coefficient(low, n_points, phi, k)
        s_high = sparsity_coefficient(high, n_points, phi, k)
        assert s_low < s_high

    @settings(max_examples=200, deadline=None)
    @given(phi=phi_st, k=st.integers(1, 5), mult=st.integers(1, 50))
    def test_zero_at_exact_expectation(self, phi, k, mult):
        # N = m·φ^k makes the expectation exactly m points; a cube
        # holding exactly its expectation is not abnormal at all.
        n_points = mult * phi**k
        expected = expected_count(n_points, phi, k)
        assert math.isclose(expected, mult, rel_tol=1e-12)
        assert abs(sparsity_coefficient(mult, n_points, phi, k)) < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(n_points=n_points_st, phi=phi_st, k=k_st, data=st.data())
    def test_sign_matches_side_of_expectation(self, n_points, phi, k, data):
        count = data.draw(st.integers(0, n_points), label="count")
        coefficient = sparsity_coefficient(count, n_points, phi, k)
        expected = expected_count(n_points, phi, k)
        if count < expected:
            assert coefficient < 0
        elif count > expected:
            assert coefficient > 0

    @settings(max_examples=100, deadline=None)
    @given(n_points=n_points_st, phi=phi_st, k=k_st)
    def test_empty_cube_matches_closed_form(self, n_points, phi, k):
        # S(n=0) must equal §2.4's bound −sqrt(N / (φ^k − 1)), which is
        # derived independently in params.py.
        direct = sparsity_coefficient(0, n_points, phi, k)
        closed = empty_cube_sparsity(n_points, phi, k)
        assert math.isclose(direct, closed, rel_tol=1e-12)
        # ...and it is the minimum over all attainable counts.
        assert direct < sparsity_coefficient(1, n_points, phi, k)

    @settings(max_examples=100, deadline=None)
    @given(n_points=n_points_st, phi=phi_st, k=k_st, data=st.data())
    def test_vectorized_matches_scalar(self, n_points, phi, k, data):
        counts = data.draw(
            st.lists(st.integers(0, n_points), min_size=1, max_size=20),
            label="counts",
        )
        vectorized = sparsity_coefficients(np.array(counts), n_points, phi, k)
        scalar = [sparsity_coefficient(c, n_points, phi, k) for c in counts]
        np.testing.assert_allclose(vectorized, scalar, rtol=1e-12, atol=0)


# Columns with adversarial tie structure: drawn from a tiny alphabet of
# finite floats (many exact duplicates), optionally salted with NaN.
_tied_column = st.lists(
    st.one_of(
        st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.25, 1.0, 3.0]),
        st.floats(
            min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
        ),
        st.just(float("nan")),
    ),
    min_size=2,
    max_size=120,
)


class TestEquiDepthBucketBalance:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), phi=st.integers(2, 10))
    def test_distinct_values_balance(self, data, phi):
        # With all-distinct values, no bucket may exceed ceil(n/φ):
        # that is what "equi-depth" means.
        values = data.draw(
            st.lists(
                st.integers(-10_000, 10_000),
                min_size=2,
                max_size=200,
                unique=True,
            ),
            label="values",
        )
        column = np.array(values, dtype=float).reshape(-1, 1)
        cells = EquiDepthDiscretizer(phi).fit_transform(column)
        counts = np.bincount(cells.codes[:, 0], minlength=phi)
        assert int(counts.sum()) == len(values)
        assert int(counts.max()) <= math.ceil(len(values) / phi)

    @settings(max_examples=150, deadline=None)
    @given(column=_tied_column, phi=st.integers(2, 8))
    def test_partition_under_ties_and_missing(self, column, phi):
        array = np.array(column, dtype=float).reshape(-1, 1)
        observed = ~np.isnan(array[:, 0])
        if not observed.any():
            return  # all-missing columns are covered below
        codes = EquiDepthDiscretizer(phi).fit_transform(array).codes[:, 0]
        # NaN ⇒ the missing sentinel, observed ⇒ a valid range: exactly.
        assert np.all(codes[~observed] == MISSING_CELL)
        assert np.all(codes[observed] >= 0)
        assert np.all(codes[observed] < phi)
        # The observed rows are partitioned: bucket counts resum to n.
        counts = np.bincount(codes[observed], minlength=phi)
        assert int(counts.sum()) == int(observed.sum())

    @settings(max_examples=150, deadline=None)
    @given(column=_tied_column, phi=st.integers(2, 8))
    def test_ties_share_a_bucket(self, column, phi):
        # Equal values are indistinguishable to a rank-based grid, so
        # they must land in the same range — never split across a cut.
        array = np.array(column, dtype=float).reshape(-1, 1)
        codes = EquiDepthDiscretizer(phi).fit_transform(array).codes[:, 0]
        by_value: dict[float, set] = {}
        for value, code in zip(array[:, 0], codes, strict=True):
            if not np.isnan(value):
                by_value.setdefault(value, set()).add(int(code))
        for value, buckets in by_value.items():
            assert len(buckets) == 1, f"value {value} split across {buckets}"

    @settings(max_examples=150, deadline=None)
    @given(column=_tied_column, phi=st.integers(2, 8))
    def test_codes_monotone_in_value(self, column, phi):
        # Rank-based grids preserve order: a larger value never gets a
        # smaller range code.
        array = np.array(column, dtype=float).reshape(-1, 1)
        codes = EquiDepthDiscretizer(phi).fit_transform(array).codes[:, 0]
        observed = ~np.isnan(array[:, 0])
        values = array[observed, 0]
        kept = codes[observed]
        order = np.argsort(values, kind="stable")
        assert np.all(np.diff(kept[order]) >= 0)

    def test_all_missing_column_is_all_sentinel(self):
        array = np.full((10, 1), np.nan)
        codes = EquiDepthDiscretizer(4).fit_transform(array).codes[:, 0]
        assert np.all(codes == MISSING_CELL)


# ----------------------------------------------------------------------
# popcount kernel identity
# ----------------------------------------------------------------------
def _pack_stack(stack: np.ndarray) -> np.ndarray:
    """Pack an arbitrary boolean (d, φ, N) stack in the counter's layout:
    bits along the point axis, rows padded to a uint64 boundary (the
    padding stays zero), viewed as uint64 words."""
    d, phi, n = stack.shape
    n_bytes = -(-n // 8)
    n_words = -(-n_bytes // 8)
    packed8 = np.zeros((d, phi, n_words * 8), dtype=np.uint8)
    packed8[:, :, :n_bytes] = np.packbits(stack, axis=-1)
    return packed8.view(np.uint64)


def _brute_counts(stack, dims_arr, rng_arr):
    """The defining identity's right-hand side: materialize the boolean
    intersection per cube and count True rows."""
    out = []
    for dims, rngs in zip(dims_arr, rng_arr, strict=True):
        acc = np.ones(stack.shape[2], dtype=bool)
        for dim, rng in zip(dims, rngs, strict=True):
            acc &= stack[dim, rng]
        out.append(int(acc.sum()))
    return out


class TestPopcountKernelIdentity:
    """popcount(AND of masks) == brute boolean intersection — for every
    kernel the backend registry can select, on arbitrary mask widths
    (ragged final words included) and degenerate all-zero / all-one
    masks."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_brute_intersection(self, data):
        n = data.draw(st.integers(1, 150), label="n_points")
        d = data.draw(st.integers(1, 3), label="d")
        phi = data.draw(st.integers(1, 3), label="phi")
        stack = data.draw(hnp.arrays(np.bool_, (d, phi, n)), label="stack")
        k = data.draw(st.integers(1, d), label="k")
        n_cubes = data.draw(st.integers(1, 6), label="n_cubes")
        dims_arr = np.empty((n_cubes, k), dtype=np.int64)
        rng_arr = np.empty((n_cubes, k), dtype=np.int64)
        for i in range(n_cubes):
            order = data.draw(st.permutations(range(d)), label=f"dims{i}")
            dims_arr[i] = sorted(order[:k])
            for j in range(k):
                rng_arr[i, j] = data.draw(
                    st.integers(0, phi - 1), label=f"rng{i}.{j}"
                )
        expected = _brute_counts(stack, dims_arr, rng_arr)
        packed = _pack_stack(stack)
        ref_packed, _ = batch_counts(packed, dims_arr, rng_arr)
        assert ref_packed.tolist() == expected
        for tier in native_tiers():
            with native_tier(tier):
                got_packed = native_counts(packed, dims_arr, rng_arr, tier)
            assert got_packed.tolist() == expected, tier

    @pytest.mark.parametrize("n", [1, 7, 63, 64, 65, 127, 200])
    @pytest.mark.parametrize("fill", [False, True], ids=["zeros", "ones"])
    def test_degenerate_masks_at_ragged_widths(self, n, fill):
        # All-zero and all-one stacks at widths straddling word
        # boundaries: counts must be exactly 0 or exactly n, and the
        # zero padding in the ragged final word must stay inert.
        stack = np.full((2, 2, n), fill, dtype=bool)
        dims_arr = np.array([[0, 1], [0, 1]], dtype=np.int64)
        rng_arr = np.array([[0, 1], [1, 0]], dtype=np.int64)
        expected = [n if fill else 0] * 2
        packed = _pack_stack(stack)
        for tier in native_tiers():
            with native_tier(tier):
                got_packed = native_counts(packed, dims_arr, rng_arr, tier)
            assert got_packed.tolist() == expected, tier


# ----------------------------------------------------------------------
# out-of-core invariants: streamed fits and shard-merged counts
# ----------------------------------------------------------------------
def _split_chunks(array: np.ndarray, cuts: list[int]):
    """Re-block *array*'s rows at the given sorted cut positions."""
    bounds = [0, *cuts, array.shape[0]]
    return [array[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


_chunkable_matrix = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 80), st.integers(1, 3)),
    elements=st.floats(
        min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False
    ),
)


class TestStreamedFitAgreement:
    """fit_from_chunks must agree with fit() on the rows it saw."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), phi=st.integers(2, 6))
    def test_small_stream_fits_exactly(self, data, phi):
        # While the stream fits in the reservoir, the streamed fit is
        # *exactly* the in-memory fit — identical cut points, for any
        # chunking of the same rows.
        array = data.draw(_chunkable_matrix, label="rows")
        cuts = data.draw(
            st.lists(st.integers(0, array.shape[0]), max_size=4).map(sorted),
            label="cuts",
        )
        whole = EquiDepthDiscretizer(phi).fit(array)
        streamed = EquiDepthDiscretizer(phi).fit_from_chunks(
            _split_chunks(array, cuts), sample_size=array.shape[0]
        )
        for a, b in zip(whole.boundaries, streamed.boundaries, strict=True):
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), capacity=st.integers(1, 30))
    def test_reservoir_invariant_to_chunking(self, data, capacity):
        # Beyond the fill, the reservoir draws one variate per row — so
        # any two chunkings of the same row sequence sample the exact
        # same rows, and the fits over them are identical.
        array = data.draw(_chunkable_matrix, label="rows")
        cuts_a = data.draw(
            st.lists(st.integers(0, array.shape[0]), max_size=4).map(sorted),
            label="cuts_a",
        )
        cuts_b = data.draw(
            st.lists(st.integers(0, array.shape[0]), max_size=4).map(sorted),
            label="cuts_b",
        )
        first = StreamingReservoir(capacity, random_state=3)
        second = StreamingReservoir(capacity, random_state=3)
        for chunk in _split_chunks(array, cuts_a):
            first.update(chunk)
        for chunk in _split_chunks(array, cuts_b):
            second.update(chunk)
        np.testing.assert_array_equal(first.rows, second.rows)
        assert first.n_seen == second.n_seen == array.shape[0]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), capacity=st.integers(1, 20))
    def test_reservoir_rows_come_from_the_stream(self, data, capacity):
        array = data.draw(_chunkable_matrix, label="rows")
        reservoir = StreamingReservoir(capacity, random_state=1)
        reservoir.update(array)
        rows = reservoir.rows
        assert rows.shape[0] == min(capacity, array.shape[0])
        seen = {tuple(row) for row in array}
        for row in rows:
            assert tuple(row) in seen


class TestShardMergeIdentity:
    """Shard-merged counts == whole-array counts, for arbitrary splits.

    The algebraic heart of the out-of-core path: popcounts are additive
    across row shards, so *any* shard_rows choice must reproduce the
    in-memory counter's numbers exactly — missing codes, ragged
    final shards and single-row shards included.
    """

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_sharded_counts_match_in_memory(self, data):
        n = data.draw(st.integers(1, 120), label="n_points")
        d = data.draw(st.integers(1, 3), label="d")
        phi = data.draw(st.integers(2, 4), label="phi")
        codes = data.draw(
            hnp.arrays(
                np.int16, (n, d), elements=st.integers(-1, phi - 1)
            ),
            label="codes",
        )
        shard_rows = data.draw(st.integers(1, n), label="shard_rows")
        cells = CellAssignment(codes=codes, n_ranges=phi)
        k = data.draw(st.integers(1, d), label="k")
        n_cubes = data.draw(st.integers(1, 5), label="n_cubes")
        cubes = []
        for i in range(n_cubes):
            dims = tuple(
                sorted(data.draw(st.permutations(range(d)), label=f"dims{i}")[:k])
            )
            rngs = tuple(
                data.draw(st.integers(0, phi - 1), label=f"rng{i}.{j}")
                for j in range(k)
            )
            cubes.append(Subspace(dims, rngs))
        memory = CubeCounter(cells, cache_size=0)
        expected = memory.count_batch(cubes).tolist()
        memory.close()
        with tempfile.TemporaryDirectory() as tmp:
            store = ShardedMaskStore.build(cells, tmp, shard_rows=shard_rows)
            assert store.n_shards == -(-n // shard_rows)
            sharded = ShardedCounter(store, cache_size=0)
            try:
                assert sharded.count_batch(cubes).tolist() == expected
            finally:
                sharded.close()
