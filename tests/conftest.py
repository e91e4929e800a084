"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.exceptions import ResourceError
from repro.grid import backends, native
from repro.grid.cells import CellAssignment
from repro.grid.counter import CubeCounter
from repro.grid.discretizer import EquiDepthDiscretizer
from repro.search.best_set import BestProjectionSet

#: What serves a counter's counts: the compiled C kernel, or — when the
#: C build failed — the numpy reference.
NATIVE_TIERS = ("c", "numpy")

#: Every ``CountingBackend.kind`` the library accepts: the two
#: placements and their deprecated aliases ``native`` /
#: ``process-native``.
BACKEND_KINDS = ("native", "process", "process-native", "serial")


@pytest.fixture
def rng():
    """A deterministic generator for test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def uncertified(monkeypatch):
    """The best set's floor certificate turned off for one test.

    A search then runs to its own terminus (convergence, caps, a whole
    level) even where its set reaches the floor early.  Only for tests
    of mid-run mechanics — a kill and resume, a library failing after
    the first generation, one call per block — whose data would certify
    before those mechanics show.
    """
    monkeypatch.setattr(BestProjectionSet, "certified", lambda self: False)


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


def native_tiers() -> tuple[str, ...]:
    """The native tiers this machine can run (``numpy`` always)."""
    return NATIVE_TIERS if native.kernel_info()["tier"] == "c" else ("numpy",)


def _failed_build():
    raise ResourceError("native kernel unavailable: no C compiler (simulated)")


@contextmanager
def native_tier(tier: str):
    """Count on kernel *tier* inside the block.

    ``numpy`` simulates a process whose C build failed: the private
    loader raises and the kernel has not passed the conformance gate,
    so counters that choose their kernel inside the block serve the
    numpy reference, exactly as on a machine without a compiler.  ``c``
    skips where the build fails.
    """
    with pytest.MonkeyPatch.context() as patch:
        if tier == "numpy":
            patch.setattr(native, "_load_kernel", _failed_build)
            patch.setattr(backends, "_VERIFIED", backends._VERIFIED - {"native"})
        elif tier not in native_tiers():
            pytest.skip("the C kernel does not build on this machine")
        yield


def native_counts(stack: np.ndarray, dims_arr, rng_arr, tier: str) -> np.ndarray:
    """Counts for a raw packed *stack* as a default counter on *tier*
    serves them; on ``c`` the C kernel itself must have served them."""
    n_dims, n_ranges = stack.shape[:2]
    counter = CubeCounter(
        CellAssignment(np.zeros((1, n_dims), dtype=np.int16), n_ranges)
    )
    counts, _ = counter._invoke_kernel(stack, dims_arr, rng_arr)
    assert counter.resilience.ladder == {}, tier
    assert counter.kernel_info()["tier"] == tier
    return counts
