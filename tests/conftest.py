"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid.counter import CubeCounter
from repro.grid.discretizer import EquiDepthDiscretizer


@pytest.fixture
def rng():
    """A deterministic generator for test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_data(rng):
    """200 x 6 standard normal matrix."""
    return rng.normal(size=(200, 6))


@pytest.fixture
def correlated_data(rng):
    """300 x 8: dims 0-1 and 2-3 strongly correlated, rest noise."""
    data = rng.normal(size=(300, 8))
    latent_a = rng.normal(size=300)
    latent_b = rng.normal(size=300)
    data[:, 0] = latent_a + rng.normal(scale=0.1, size=300)
    data[:, 1] = latent_a + rng.normal(scale=0.1, size=300)
    data[:, 2] = latent_b + rng.normal(scale=0.1, size=300)
    data[:, 3] = latent_b + rng.normal(scale=0.1, size=300)
    return data


@pytest.fixture
def small_cells(small_data):
    """Equi-depth φ=5 grid over small_data."""
    return EquiDepthDiscretizer(5).fit_transform(small_data)


@pytest.fixture
def small_counter(small_cells):
    """Cube counter over the φ=5 grid."""
    return CubeCounter(small_cells)


def naive_cube_count(cells_codes: np.ndarray, subspace) -> int:
    """Reference implementation of n(D) by direct row scanning."""
    count = 0
    for row in cells_codes:
        if all(row[dim] == rng_ for dim, rng_ in subspace):
            count += 1
    return count


def oracle_mask(cells_codes: np.ndarray, subspace) -> np.ndarray:
    """Rows inside *subspace*, straight from the grid codes (vectorized)."""
    codes = np.asarray(cells_codes)
    ranges = np.asarray(subspace.ranges, dtype=codes.dtype)
    return np.all(codes[:, list(subspace.dims)] == ranges, axis=1)


def oracle_count(cells_codes: np.ndarray, subspace) -> int:
    """n(D) straight from the grid codes: the counters' reference oracle."""
    return int(np.count_nonzero(oracle_mask(cells_codes, subspace)))
