"""Tests for the Figure 2 brute-force enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.params import CountingBackend
from repro.core.subspace import Subspace
from repro.exceptions import ValidationError
from repro.grid.cells import MISSING_CELL, CellAssignment
from repro.grid.counter import CubeCounter
from repro.search.brute_force import (
    BruteForceSearch,
    _child_blocks,
    _children,
    _level_arrays,
    search_space_size,
)


def exhaustive_reference(cells, k, require_nonempty=True):
    """All k-dimensional cubes scored by direct enumeration.

    Independent of every counter: each count is a row scan of the grid
    codes and each coefficient is Equation 1 written out,
    ``(n(D) - N·f^k) / sqrt(N·f^k·(1 - f^k))`` with ``f = 1/φ``.
    """
    codes, n, phi = cells.codes, cells.n_points, cells.n_ranges
    p = (1.0 / phi) ** k
    expected, std = n * p, math.sqrt(n * p * (1.0 - p))
    results = []
    for dims in itertools.combinations(range(cells.n_dims), k):
        columns = codes[:, list(dims)]
        for ranges in itertools.product(range(phi), repeat=k):
            count = int(np.count_nonzero(np.all(columns == ranges, axis=1)))
            if require_nonempty and count == 0:
                continue
            results.append(((count - expected) / std, Subspace(dims, ranges), count))
    results.sort(key=lambda item: item[0])
    return results


def nested_loop_children(level, stop, phi):
    """The tuple-list child generation the array generator replaced."""
    children = []
    for dims, rngs in level:
        lo = dims[-1] + 1 if dims else 0
        for dim in range(lo, stop):
            for rng in range(phi):
                children.append((dims + (dim,), rngs + (rng,)))
    return children


class TestSearchSpaceSize:
    def test_paper_example(self):
        # d=20, k=4, phi=10 -> ~7 * 10^7 possibilities.
        assert search_space_size(20, 4, 10) == 4845 * 10_000

    def test_simple(self):
        assert search_space_size(3, 2, 2) == 3 * 4

    def test_k_exceeds_d(self):
        with pytest.raises(ValidationError):
            search_space_size(3, 4, 2)


class TestCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_exhaustive_reference(self, small_counter, k):
        outcome = BruteForceSearch(small_counter, k, n_projections=10).run()
        reference = exhaustive_reference(small_counter.cells, k)[:10]
        got = [(p.coefficient, p.count) for p in outcome.projections]
        want = [(c, n) for c, _, n in reference]
        assert got == pytest.approx(want)

    def test_each_cube_generated_once(self, small_counter):
        # Evaluations = number of scored cubes at the last level; with
        # canonical ordering this is exactly C(d,k) * phi^k.
        outcome = BruteForceSearch(
            small_counter, 2, n_projections=5, require_nonempty=False
        ).run()
        assert outcome.stats["evaluations"] == search_space_size(
            small_counter.n_dims, 2, small_counter.n_ranges
        )

    def test_projection_dimensionality(self, small_counter):
        outcome = BruteForceSearch(small_counter, 3, n_projections=5).run()
        assert all(p.dimensionality == 3 for p in outcome.projections)

    def test_nonempty_filter(self, small_counter):
        outcome = BruteForceSearch(small_counter, 3, n_projections=20).run()
        assert all(p.count >= 1 for p in outcome.projections)

    def test_threshold_mode(self, small_counter):
        outcome = BruteForceSearch(
            small_counter, 2, n_projections=None, threshold=-1.0
        ).run()
        assert all(p.coefficient <= -1.0 for p in outcome.projections)
        reference = [
            c for c, _, _ in exhaustive_reference(small_counter.cells, 2) if c <= -1.0
        ]
        assert len(outcome.projections) == len(reference)

    def test_with_missing_values(self, rng):
        data = rng.normal(size=(100, 4))
        data[rng.random(data.shape) < 0.2] = np.nan
        from repro.grid.discretizer import EquiDepthDiscretizer

        cells = EquiDepthDiscretizer(3).fit_transform(data)
        counter = CubeCounter(cells)
        outcome = BruteForceSearch(counter, 2, n_projections=5).run()
        reference = exhaustive_reference(cells, 2)[:5]
        got = [p.coefficient for p in outcome.projections]
        assert got == pytest.approx([c for c, _, _ in reference])


@st.composite
def small_grids(draw):
    """A random grid (d <= 8, φ <= 5, some missing cells) and a k <= 3."""
    n_dims = draw(st.integers(1, 8))
    phi = draw(st.integers(2, 5))
    n_points = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, phi, size=(n_points, n_dims))
    codes[rng.random(codes.shape) < 0.1] = MISSING_CELL
    k = draw(st.integers(1, min(3, n_dims)))
    return CellAssignment(codes.astype(np.int16), phi), k


COUNTERS = {
    "default": lambda cells: CubeCounter(cells),
    "native": lambda cells: CubeCounter(
        cells, backend=CountingBackend(kind="native")
    ),
}


class TestOracle:
    """Every counter flavour against the codes-only oracle."""

    @settings(max_examples=25, deadline=None)
    @given(grid=small_grids(), m=st.integers(1, 8))
    def test_strategies_match_oracle(self, grid, m):
        cells, k = grid
        reference = exhaustive_reference(cells, k)[:m]
        want = [(c, n) for c, _, n in reference]
        for name, make in COUNTERS.items():
            counter = make(cells)
            try:
                outcome = BruteForceSearch(counter, k, n_projections=m).run()
                got = [(p.coefficient, p.count) for p in outcome.projections]
                assert got == pytest.approx(want), name
                for p in outcome.projections:
                    dims = list(p.subspace.dims)
                    assert p.count == int(np.count_nonzero(
                        np.all(cells.codes[:, dims] == p.subspace.ranges, axis=1)
                    ))
            finally:
                counter.close()


class TestChildGeneration:
    @settings(max_examples=60, deadline=None)
    @given(
        n_dims=st.integers(1, 7),
        phi=st.integers(2, 4),
        depth=st.integers(0, 3),
        keep=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_array_generator_matches_nested_loops(
        self, n_dims, phi, depth, keep, seed, data
    ):
        # A randomly pruned frontier of canonical depth-cubes, as the
        # non-empty filter leaves it, extended up to a random stop.
        rng = np.random.default_rng(seed)
        level = [
            (dims, rngs)
            for dims in itertools.combinations(range(n_dims), depth)
            for rngs in itertools.product(range(phi), repeat=depth)
            if rng.random() < keep
        ]
        stop = data.draw(st.integers(0, n_dims))
        dims, ranges = _level_arrays(
            [[list(dm), list(rg)] for dm, rg in level], depth
        )
        child_dims, child_ranges = _children(dims, ranges, stop, phi)
        want = nested_loop_children(level, stop, phi)
        assert child_dims.shape == child_ranges.shape == (len(want), depth + 1)
        got = [
            (tuple(dm), tuple(rg))
            for dm, rg in zip(child_dims.tolist(), child_ranges.tolist())
        ]
        assert got == want

        # The streamed level: blocks of consecutive parents that
        # concatenate to the same children, none over chunk + d·φ rows.
        chunk = data.draw(st.integers(1, 40))
        blocks = list(_child_blocks(dims, ranges, stop, phi, chunk))
        if not len(child_dims):
            assert blocks == []
            return
        assert all(0 < len(bd) <= chunk + n_dims * phi for bd, _ in blocks)
        np.testing.assert_array_equal(
            np.concatenate([bd for bd, _ in blocks]), child_dims
        )
        np.testing.assert_array_equal(
            np.concatenate([br for _, br in blocks]), child_ranges
        )


class TestBudgets:
    def test_max_evaluations_partial(self, small_counter):
        self._check_evaluation_cap(small_counter, require_nonempty=True)

    def test_max_evaluations_partial_level_batch(self, small_counter):
        # Without the non-empty filter no inner level is counted.
        self._check_evaluation_cap(small_counter, require_nonempty=False)

    @staticmethod
    def _check_evaluation_cap(counter, require_nonempty):
        outcome = BruteForceSearch(
            counter, 3, n_projections=5, max_evaluations=10,
            require_nonempty=require_nonempty,
        ).run()
        assert not outcome.completed
        assert outcome.stopped_reason == "evaluation_cap"
        assert outcome.stats["evaluations"] == 10

    def test_zero_second_budget_incomplete(self, small_counter):
        outcome = BruteForceSearch(
            small_counter, 3, n_projections=5, max_seconds=0.0
        ).run()
        # May score a few cubes before the first clock check, but must
        # flag the run as not completed.
        assert not outcome.completed


class TestValidation:
    def test_k_exceeds_dims(self, small_counter):
        with pytest.raises(ValidationError):
            BruteForceSearch(small_counter, small_counter.n_dims + 1)

    def test_rejects_non_counter(self):
        with pytest.raises(ValidationError):
            BruteForceSearch("counter", 2)

    def test_rejects_phi_one(self):
        cells = CellAssignment(np.zeros((5, 3), dtype=np.int16), 1)
        with pytest.raises(ValidationError, match="φ >= 2"):
            BruteForceSearch(CubeCounter(cells), 2)


class TestOutcome:
    def test_stats_populated(self, small_counter):
        outcome = BruteForceSearch(small_counter, 2, n_projections=5).run()
        assert outcome.completed
        assert outcome.stats["algorithm"] == "brute_force"
        assert outcome.stats["elapsed_seconds"] >= 0
        assert outcome.stats["search_space_size"] == search_space_size(
            small_counter.n_dims, 2, small_counter.n_ranges
        )

    def test_best_and_mean_coefficient(self, small_counter):
        outcome = BruteForceSearch(small_counter, 2, n_projections=5).run()
        assert outcome.best_coefficient == outcome.projections[0].coefficient
        assert outcome.mean_coefficient(top=1) == outcome.best_coefficient

    def test_empty_outcome_nan(self):
        from repro.search.outcome import SearchOutcome

        empty = SearchOutcome(projections=())
        assert empty.best_coefficient != empty.best_coefficient
        assert empty.mean_coefficient() != empty.mean_coefficient()


class TestOneCountingPath:
    """Every brute-force run streams its levels block by block through
    ``count_cubes``, or, where the C library serves the counter
    in-process, through ``count_level``, which books the same figures."""

    def test_streamed_leaf_level_bounds_traced_memory(self, uncertified):
        import tracemalloc

        from repro.grid.discretizer import EquiDepthDiscretizer

        data = np.random.default_rng(0).normal(size=(2000, 12))
        counter = CubeCounter(EquiDepthDiscretizer(6).fit_transform(data))
        tracemalloc.start()
        try:
            outcome = BruteForceSearch(counter, 4, 20).run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.stats["evaluations"] == 641_514
        # Holding the whole leaf level (C(12,4)·6^4 rows) peaks at ~66 MB.
        assert peak < 16 * 2**20
        assert counter.cache_stats()["batch_cubes"] >= 641_514

    def test_detect_counts_through_the_pool(self, small_data):
        from repro.core.detector import SubspaceOutlierDetector

        result = SubspaceOutlierDetector(
            dimensionality=2, n_ranges=5, n_projections=5,
            method="brute_force",
            counting=CountingBackend(kind="process", n_workers=2, chunk_size=64),
        ).detect(small_data)
        stats = result.stats["counter_stats"]
        assert stats["parallel_chunks"] > 0
        assert stats["count_calls"] > 0
        assert result.stats["strategy"] == "level_batch"
