"""Tests for CubeCounter (the n(D) engine)."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.subspace import Subspace
from repro.exceptions import ValidationError
from repro.grid.cells import CellAssignment, MISSING_CELL
from repro.grid.counter import CubeCounter

from conftest import naive_cube_count


def counter_from(codes, phi):
    return CubeCounter(CellAssignment(np.asarray(codes, dtype=np.int16), phi))


class TestCounting:
    def test_empty_subspace_counts_all(self, small_counter):
        assert small_counter.count(Subspace.empty()) == small_counter.n_points

    def test_one_dim_count_equals_range_count(self, small_counter):
        expected = small_counter.cells.range_counts(2)
        for rng_ in range(small_counter.n_ranges):
            assert small_counter.count(Subspace((2,), (rng_,))) == expected[rng_]

    def test_matches_naive_on_random_cubes(self, small_counter, rng):
        for _ in range(25):
            k = int(rng.integers(1, 4))
            dims = tuple(sorted(rng.choice(6, size=k, replace=False).tolist()))
            ranges = tuple(int(r) for r in rng.integers(0, 5, size=k))
            cube = Subspace(dims, ranges)
            assert small_counter.count(cube) == naive_cube_count(
                small_counter.cells.codes, cube
            )

    def test_counts_monotone_under_extension(self, small_counter):
        base = Subspace((0,), (1,))
        base_count = small_counter.count(base)
        for rng_ in range(small_counter.n_ranges):
            assert small_counter.count(base.extended(3, rng_)) <= base_count

    def test_missing_points_match_nothing(self):
        counter = counter_from([[MISSING_CELL], [0], [0]], phi=2)
        assert counter.count(Subspace((0,), (0,))) == 2
        assert counter.count(Subspace((0,), (1,))) == 0

    def test_mask_fresh_copy(self, small_counter):
        cube = Subspace((0,), (0,))
        mask = small_counter.mask(cube)
        mask[:] = False
        assert small_counter.count(cube) > 0


class TestCoveredPoints:
    def test_indices_sorted_and_consistent(self, small_counter):
        cube = Subspace((1, 3), (0, 4))
        points = small_counter.covered_points(cube)
        assert (np.diff(points) > 0).all() or len(points) <= 1
        assert len(points) == small_counter.count(cube)

    def test_fraction(self, small_counter):
        cube = Subspace((0,), (0,))
        assert small_counter.fraction(cube) == pytest.approx(
            small_counter.count(cube) / small_counter.n_points
        )


class TestCache:
    def test_cache_hit_counted(self, small_cells):
        counter = CubeCounter(small_cells, cache_size=10)
        cube = Subspace((0, 1), (0, 0))
        first = counter.count(cube)
        second = counter.count(cube)
        assert first == second
        assert counter.n_cache_hits == 1

    def test_cache_disabled(self, small_cells):
        counter = CubeCounter(small_cells, cache_size=0)
        cube = Subspace((0,), (0,))
        counter.count(cube)
        counter.count(cube)
        assert counter.n_cache_hits == 0
        assert counter.cache_stats()["cache_entries"] == 0

    def test_cache_eviction_bounded(self, small_cells):
        counter = CubeCounter(small_cells, cache_size=3)
        for rng_ in range(5):
            counter.count(Subspace((0,), (rng_,)))
        assert counter.cache_stats()["cache_entries"] <= 3

    def test_clear_cache(self, small_counter):
        small_counter.count(Subspace((0,), (0,)))
        small_counter.clear_cache()
        assert small_counter.cache_stats()["cache_entries"] == 0

    def test_cache_size_zero_allocates_no_cache(self, small_cells):
        # Regression: cache_size=0 used to keep a dead OrderedDict on
        # the hot path; now caching is truly disabled.
        counter = CubeCounter(small_cells, cache_size=0)
        assert counter._cache is None
        counter.count(Subspace((0,), (0,)))
        counter.clear_cache()  # must not raise with no cache
        assert counter._cache is None

    def test_hit_miss_accounting(self, small_cells):
        counter = CubeCounter(small_cells, cache_size=10)
        a, b = Subspace((0,), (0,)), Subspace((0,), (1,))
        counter.count(a)   # miss
        counter.count(a)   # hit
        counter.count(b)   # miss
        counter.count(a)   # hit
        stats = counter.cache_stats()
        assert stats["count_calls"] == 4
        assert stats["cache_hits"] == 2
        assert stats["cache_misses"] == 2
        assert stats["cache_entries"] == 2

    def test_lru_eviction_order(self, small_cells):
        counter = CubeCounter(small_cells, cache_size=2)
        a, b, c = (Subspace((0,), (r,)) for r in range(3))
        counter.count(a)
        counter.count(b)
        counter.count(a)   # refresh a: b is now least recently used
        counter.count(c)   # evicts b
        hits = counter.n_cache_hits
        counter.count(a)   # still cached
        assert counter.n_cache_hits == hits + 1
        counter.count(b)   # evicted => recount, not a hit
        assert counter.n_cache_hits == hits + 1

    def test_batch_duplicates_count_as_hits(self, small_cells):
        counter = CubeCounter(small_cells, cache_size=10)
        cube = Subspace((0, 1), (0, 0))
        counts = counter.count_batch([cube, cube, cube])
        assert len(set(counts.tolist())) == 1
        stats = counter.cache_stats()
        # One real count; the in-batch duplicates resolve via dedup.
        assert stats["cache_hits"] == 2
        assert stats["cache_misses"] == 1
        # A later batch answers straight from the memo.
        counter.count_batch([cube])
        assert counter.cache_stats()["cache_hits"] == 3

    def test_batch_with_cache_disabled_matches(self, small_cells):
        cached = CubeCounter(small_cells, cache_size=10)
        uncached = CubeCounter(small_cells, cache_size=0)
        cubes = [Subspace((0, 1), (r, r)) for r in range(5)] * 2
        assert cached.count_batch(cubes).tolist() == (
            uncached.count_batch(cubes).tolist()
        )
        assert uncached.cache_stats()["cache_entries"] == 0


class TestCountCubes:
    """The memo-free array entry point agrees with count_batch."""

    def test_matches_count_batch_without_touching_memo(self, small_cells):
        counter = CubeCounter(small_cells, cache_size=10)
        dims = np.array([[0, 1], [0, 1], [2, 5], [3, 4]])
        ranges = np.array([[0, 0], [1, 4], [2, 2], [0, 3]])
        cubes = [Subspace(tuple(d), tuple(r)) for d, r in zip(dims, ranges)]
        reference = CubeCounter(small_cells).count_batch(cubes)
        assert counter.count_cubes(dims, ranges).tolist() == reference.tolist()
        stats = counter.cache_stats()
        assert stats["cache_entries"] == 0
        assert stats["cache_hits"] == 0
        assert (stats["batch_calls"], stats["batch_cubes"], stats["count_calls"]) == (
            1, 4, 4,
        )

    def test_zero_dimensional_and_empty_batches(self, small_counter):
        n = small_counter.n_points
        empty_cubes = np.empty((3, 0), dtype=np.intp)
        assert small_counter.count_cubes(empty_cubes, empty_cubes).tolist() == [n] * 3
        none = np.empty((0, 2), dtype=np.intp)
        assert small_counter.count_cubes(none, none).tolist() == []

    @pytest.mark.parametrize(
        "dims, ranges",
        [
            ([[0, 6]], [[0, 0]]),  # dimension out of bounds
            ([[0, 1]], [[0, 5]]),  # range out of bounds for φ=5
            ([[1, 0]], [[0, 0]]),  # dims not ascending
            ([[0, 0]], [[0, 1]]),  # repeated dimension
            ([[-1, 0]], [[0, 0]]),  # negative dimension
            ([[0, 1]], [[0, -1]]),  # negative range
            ([[0.0, 1.0]], [[0, 0]]),  # not integer-typed
            ([[0, 1]], [[0, 0, 0]]),  # shape mismatch
            ([0, 1], [0, 0]),  # not 2-d
        ],
    )
    def test_rejects_invalid_arrays(self, small_counter, dims, ranges):
        with pytest.raises(ValidationError):
            small_counter.count_cubes(np.array(dims), np.array(ranges))


class TestValidationErrors:
    def test_rejects_non_cells(self):
        with pytest.raises(ValidationError):
            CubeCounter(np.zeros((2, 2)))

    def test_rejects_foreign_subspace_dim(self, small_counter):
        with pytest.raises(ValidationError):
            small_counter.count(Subspace((99,), (0,)))

    def test_rejects_out_of_range_range(self, small_counter):
        with pytest.raises(ValidationError):
            small_counter.count(Subspace((0,), (99,)))

    def test_rejects_non_subspace(self, small_counter):
        with pytest.raises(ValidationError):
            small_counter.count("*1*")


@settings(max_examples=30, deadline=None)
@given(data=st.data(), phi=st.integers(2, 5))
def test_property_count_equals_naive(data, phi):
    """CubeCounter agrees with row-by-row scanning for arbitrary grids."""
    n_points = data.draw(st.integers(1, 40))
    n_dims = data.draw(st.integers(1, 4))
    codes = data.draw(
        st.lists(
            st.lists(st.integers(-1, phi - 1), min_size=n_dims, max_size=n_dims),
            min_size=n_points,
            max_size=n_points,
        )
    )
    counter = counter_from(codes, phi)
    k = data.draw(st.integers(1, n_dims))
    dims = tuple(sorted(data.draw(
        st.lists(st.integers(0, n_dims - 1), min_size=k, max_size=k, unique=True)
    )))
    ranges = tuple(data.draw(
        st.lists(st.integers(0, phi - 1), min_size=len(dims), max_size=len(dims))
    ))
    cube = Subspace(dims, ranges)
    assert counter.count(cube) == naive_cube_count(np.asarray(codes), cube)


class _LruModel:
    """Reference memo: an ``OrderedDict`` LRU fed one counting call at a time.

    A call's in-batch duplicates are hits; its distinct cubes are
    looked up in first-occurrence order (a hit refreshes recency), and
    the misses are then memoised in the same order, evicting the least
    recently used beyond *size*.
    """

    def __init__(self, size):
        self.size = size
        self.memo = OrderedDict()
        self.hits = 0

    def call(self, cubes):
        distinct = list(dict.fromkeys(cubes))
        self.hits += len(cubes) - len(distinct)
        misses = []
        for cube in distinct:
            if cube in self.memo:
                self.hits += 1
                self.memo.move_to_end(cube)
            else:
                misses.append(cube)
        if self.size:
            self.memo.update((cube, None) for cube in misses)
            while len(self.memo) > self.size:
                self.memo.popitem(last=False)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    wide=st.booleans(),
    cache_size=st.sampled_from([0, 1, 3, 200_000]),
)
def test_property_memo_matches_uncached_counter_and_lru_model(
    data, seed, wide, cache_size
):
    """Mixed-k count_batch / count_memoised / count sequences with
    duplicates and interleaved appends: counts equal a memo-free
    counter's, and the hit and entry figures equal an LRU model's.
    Wide grids make (d·φ)^k overflow int64, so no key can rely on it."""
    rng = np.random.default_rng(seed)
    if wide:
        n_dims, phi, max_k = 60, 64, 6
        assert (n_dims * phi) ** max_k >= 2**63
    else:
        n_dims, phi = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        max_k = n_dims

    def codes(n_rows):
        return rng.integers(-1, phi, size=(n_rows, n_dims)).astype(np.int16)

    initial = codes(int(rng.integers(1, 40)))
    counter = CubeCounter(CellAssignment(initial, phi), cache_size=cache_size)
    reference = CubeCounter(CellAssignment(initial, phi), cache_size=0)
    model = _LruModel(cache_size)

    def draw_cube():
        k = data.draw(st.integers(0, max_k))
        dims = sorted(rng.choice(n_dims, size=k, replace=False).tolist())
        return tuple(dims), tuple(rng.integers(0, phi, size=k).tolist())

    pool = [draw_cube() for _ in range(data.draw(st.integers(1, 6)))]
    for _ in range(data.draw(st.integers(1, 12))):
        op = data.draw(st.sampled_from(["batch", "memoised", "count", "append"]))
        if op == "append":
            block = codes(int(rng.integers(0, 10)))
            assert counter.append_rows(block) == reference.append_rows(block)
            continue
        picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
        if op == "count":
            cube = picks[0]
            assert counter.count(Subspace(*cube)) == reference.count(Subspace(*cube))
            model.call([cube])
        elif op == "batch":
            cubes = [Subspace(*cube) for cube in picks]
            assert (
                counter.count_batch(cubes).tolist()
                == reference.count_batch(cubes).tolist()
            )
            # A mixed-k batch reaches the core grouped by ascending k.
            model.call(sorted(picks, key=lambda cube: len(cube[0])))
        else:
            k = len(picks[0][0])
            same_k = [cube for cube in picks if len(cube[0]) == k]
            dims = np.array([cube[0] for cube in same_k], dtype=np.intp)
            ranges = np.array([cube[1] for cube in same_k], dtype=np.intp)
            assert (
                counter.count_memoised(dims, ranges).tolist()
                == reference.count_cubes(dims, ranges).tolist()
            )
            model.call(same_k)
        stats = counter.cache_stats()
        assert stats["cache_hits"] == model.hits
        assert stats["cache_entries"] == len(model.memo)
    assert counter.count_batch([Subspace(*cube) for cube in pool]).tolist() == (
        reference.count_batch([Subspace(*cube) for cube in pool]).tolist()
    )
