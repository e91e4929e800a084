"""Tests for the bit-packed mask layout of the cube counter.

The reference throughout is a count straight from the grid codes
(``oracle_count`` / ``oracle_mask``), never another counter.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_count, oracle_mask
from repro.core.subspace import Subspace
from repro.grid.cells import CellAssignment
from repro.grid.counter import CubeCounter
from repro.grid.discretizer import EquiDepthDiscretizer
from repro.search.brute_force import BruteForceSearch
from repro.search.evolutionary.config import EvolutionaryConfig
from repro.search.evolutionary.engine import EvolutionarySearch


@pytest.fixture
def packed(small_cells):
    return CubeCounter(small_cells)


class TestEquivalence:
    def test_counts_match_boolean_counter(self, small_cells, packed, rng):
        for _ in range(50):
            k = int(rng.integers(1, 4))
            dims = tuple(sorted(rng.choice(6, size=k, replace=False).tolist()))
            ranges = tuple(int(r) for r in rng.integers(0, 5, size=k))
            cube = Subspace(dims, ranges)
            assert packed.count(cube) == oracle_count(small_cells.codes, cube)

    def test_masks_match(self, small_cells, packed):
        cube = Subspace((0, 3), (1, 2))
        np.testing.assert_array_equal(
            packed.mask(cube), oracle_mask(small_cells.codes, cube)
        )
        assert packed.mask(cube).dtype == bool

    def test_empty_subspace_counts_all(self, packed):
        assert packed.count(Subspace.empty()) == packed.n_points

    def test_covered_points_match(self, small_cells, packed):
        cube = Subspace((1,), (3,))
        np.testing.assert_array_equal(
            packed.covered_points(cube),
            np.nonzero(oracle_mask(small_cells.codes, cube))[0],
        )

    def test_non_multiple_of_eight_points(self):
        # Padding bits in the last packed word must never count.
        codes = np.zeros((13, 2), dtype=np.int16)
        cells = CellAssignment(codes, 3)
        packed = CubeCounter(cells)
        assert packed.count(Subspace.empty()) == 13
        assert packed.count(Subspace((0,), (0,))) == 13
        assert packed.count(Subspace((0,), (1,))) == 0

    def test_missing_values(self, rng):
        data = rng.normal(size=(97, 4))
        data[rng.random(data.shape) < 0.3] = np.nan
        cells = EquiDepthDiscretizer(3).fit_transform(data)
        counter = CubeCounter(cells)
        for dim in range(4):
            for rng_ in range(3):
                cube = Subspace((dim,), (rng_,))
                assert counter.count(cube) == oracle_count(cells.codes, cube)

    def test_memory_is_eighth(self, small_cells):
        # One byte per point per (dimension, range) pair, were the masks
        # stored as bools.
        dense = small_cells.n_dims * small_cells.n_ranges * small_cells.n_points
        packed = CubeCounter(small_cells).mask_memory_bytes()
        # Each packed row is zero-padded to an 8-byte (uint64 word)
        # boundary for the batch kernel: up to 7 slack bytes per mask.
        assert packed <= dense // 8 + small_cells.n_dims * small_cells.n_ranges * 8


def assert_counts_from_codes(outcome, cells) -> None:
    assert outcome.projections
    for projection in outcome.projections:
        assert projection.count == oracle_count(cells.codes, projection.subspace)


class TestSearcherCompatibility:
    def test_brute_force_same_result(self, small_cells):
        outcome = BruteForceSearch(CubeCounter(small_cells), 2, 10).run()
        assert_counts_from_codes(outcome, small_cells)

    def test_evolutionary_same_result(self, small_cells):
        config = EvolutionaryConfig(population_size=20, max_generations=15)
        outcome = EvolutionarySearch(
            CubeCounter(small_cells), 2, 5, config=config, random_state=3
        ).run()
        assert_counts_from_codes(outcome, small_cells)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), phi=st.integers(2, 5))
def test_property_packed_equals_dense(data, phi):
    """The packed counter matches the codes on arbitrary grids and cubes."""
    n_points = data.draw(st.integers(1, 50))
    n_dims = data.draw(st.integers(1, 4))
    codes = np.asarray(
        data.draw(
            st.lists(
                st.lists(
                    st.integers(-1, phi - 1), min_size=n_dims, max_size=n_dims
                ),
                min_size=n_points,
                max_size=n_points,
            )
        ),
        dtype=np.int16,
    )
    cells = CellAssignment(codes, phi)
    packed = CubeCounter(cells)
    k = data.draw(st.integers(1, n_dims))
    dims = tuple(
        sorted(
            data.draw(
                st.lists(
                    st.integers(0, n_dims - 1), min_size=k, max_size=k, unique=True
                )
            )
        )
    )
    ranges = tuple(
        data.draw(st.lists(st.integers(0, phi - 1), min_size=len(dims), max_size=len(dims)))
    )
    cube = Subspace(dims, ranges)
    assert packed.count(cube) == oracle_count(codes, cube)
    np.testing.assert_array_equal(packed.mask(cube), oracle_mask(codes, cube))
