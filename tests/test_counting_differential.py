"""Differential harness: every counting path must agree exactly.

Three independent implementations of n(D) are compared on randomized
small grids (N <= 200, d <= 6, phi <= 4), with and without missing
values:

1. a naive O(N*k) row scan (``naive_cube_count`` — the reference),
2. ``CubeCounter.count`` and ``CubeCounter.mask`` (bit-packed masks,
   AND + popcount),
3. ``count_batch`` (the batch kernel), under EVERY
   accepted counting backend (the two placements and their deprecated
   aliases).

Any divergence — on any enumerable cube, including empty and
degenerate ones — is a bug in one of the engines, so the assertions
are strict equality on integer counts.

The conformance classes parametrize over every accepted backend name;
counting is additionally run on each kernel tier (the compiled C
kernel, and the numpy reference every counter serves when the C build
fails), and the pool is exercised under worker-fault chaos.

The default run sweeps a handful of seeds; ``-m slow`` unlocks the
deep sweep (more seeds, exhaustive cube enumeration at higher k).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.params import CountingBackend
from repro.core.subspace import Subspace
from repro.grid.counter import CubeCounter
from repro.grid.discretizer import CellAssignment
from repro.resilience import FaultSpec, fault_injection

from conftest import (
    BACKEND_KINDS,
    NATIVE_TIERS,
    naive_cube_count,
    native_tier,
    oracle_mask,
)

PROCESS_BACKEND = CountingBackend(kind="process", n_workers=2, chunk_size=16)


def conformance_backend(kind: str) -> CountingBackend | None:
    """A small-but-real backend config for the conformance sweep."""
    if kind == "serial":
        return None  # the default path most of the suite runs under
    if kind in ("process", "process-native"):
        return CountingBackend(kind=kind, n_workers=2, chunk_size=16)
    return CountingBackend(kind=kind)


def random_cells(rng, n_points, n_dims, n_ranges, missing=0.0) -> CellAssignment:
    """A random grid assignment, bypassing the discretizer.

    Codes are drawn uniformly; a *missing* fraction of entries becomes
    the missing sentinel (-1), exercising the mask-stack handling of
    incomplete rows.
    """
    codes = rng.integers(0, n_ranges, size=(n_points, n_dims), dtype=np.int16)
    if missing:
        codes[rng.random(codes.shape) < missing] = -1
    return CellAssignment(codes=codes, n_ranges=n_ranges)


def all_cubes(n_dims, n_ranges, max_k):
    """Every cube of dimensionality 1..max_k, lexicographic order."""
    for k in range(1, max_k + 1):
        for dims in itertools.combinations(range(n_dims), k):
            for rngs in itertools.product(range(n_ranges), repeat=k):
                yield Subspace(dims, rngs)


def _check_grid(cells, max_k, backend=None):
    """Assert all implementations agree on every cube of the grid."""
    cubes = list(all_cubes(cells.n_dims, cells.n_ranges, max_k))
    expected = [naive_cube_count(cells.codes, cube) for cube in cubes]
    counter = CubeCounter(cells, backend=backend)
    try:
        for cube, want in zip(cubes, expected, strict=True):
            assert counter.count(cube) == want, cube
            np.testing.assert_array_equal(
                counter.mask(cube), oracle_mask(cells.codes, cube)
            )
        # A fresh counter for the batch path, independent of the
        # per-cube calls above.
        batch = CubeCounter(cells, backend=backend)
        try:
            assert batch.count_batch(cubes).tolist() == expected
        finally:
            batch.close()
    finally:
        counter.close()


class TestSerialDifferential:
    """All engines vs the naive reference, serial backend."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_grids(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 201))
        d = int(rng.integers(2, 7))
        phi = int(rng.integers(2, 5))
        _check_grid(random_cells(rng, n, d, phi), max_k=min(3, d))

    @pytest.mark.parametrize("seed", [3, 4])
    def test_random_grids_with_missing(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 201))
        d = int(rng.integers(2, 6))
        phi = int(rng.integers(2, 5))
        _check_grid(
            random_cells(rng, n, d, phi, missing=0.2), max_k=min(3, d)
        )

    def test_sparse_grid_with_empty_cubes(self):
        # phi^k >> N guarantees many cubes count zero — the branch where
        # require_nonempty pruning and popcount-of-nothing must agree.
        rng = np.random.default_rng(99)
        _check_grid(random_cells(rng, 25, 4, 4), max_k=3)

    def test_tiny_grid_exhaustive(self):
        # Small enough to enumerate every cube at full depth k = d.
        rng = np.random.default_rng(7)
        _check_grid(random_cells(rng, 50, 3, 3), max_k=3)

    def test_batch_order_and_duplicates(self, rng):
        cells = random_cells(rng, 120, 5, 3)
        cubes = list(all_cubes(5, 3, 2))
        shuffled = [cubes[i] for i in rng.permutation(len(cubes))]
        with_dups = shuffled + shuffled[:10] + [Subspace((), ())]
        counter = CubeCounter(cells)
        try:
            got = counter.count_batch(with_dups).tolist()
        finally:
            counter.close()
        expected = [naive_cube_count(cells.codes, c) for c in with_dups]
        assert got == expected


class TestProcessDifferential:
    """The process-pool backend must be count-identical to serial."""

    def test_process_backend_matches(self):
        rng = np.random.default_rng(11)
        _check_grid(random_cells(rng, 150, 5, 3), max_k=3,
                    backend=PROCESS_BACKEND)

    def test_process_backend_missing_values(self):
        rng = np.random.default_rng(12)
        _check_grid(random_cells(rng, 90, 4, 4, missing=0.15), max_k=3,
                    backend=PROCESS_BACKEND)

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_worker_count_is_irrelevant(self, n_workers):
        rng = np.random.default_rng(13)
        cells = random_cells(rng, 100, 4, 3)
        cubes = list(all_cubes(4, 3, 3))
        serial = CubeCounter(cells)
        parallel = CubeCounter(
            cells,
            backend=CountingBackend(
                kind="process", n_workers=n_workers, chunk_size=8
            ),
        )
        try:
            assert (
                parallel.count_batch(cubes).tolist()
                == serial.count_batch(cubes).tolist()
            )
        finally:
            serial.close()
            parallel.close()


class TestBackendConformance:
    """Every accepted backend must be count-identical to the naive
    reference — on the same grids, including missing values."""

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_backend_matches_reference(self, kind):
        rng = np.random.default_rng(21)
        _check_grid(
            random_cells(rng, 140, 4, 3),
            max_k=3,
            backend=conformance_backend(kind),
        )

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_backend_matches_with_missing(self, kind):
        rng = np.random.default_rng(22)
        _check_grid(
            random_cells(rng, 110, 4, 4, missing=0.2),
            max_k=3,
            backend=conformance_backend(kind),
        )

    @pytest.mark.parametrize("tier", NATIVE_TIERS)
    def test_native_every_tier(self, tier, caplog):
        # Run each tier explicitly — in particular 'numpy', what every
        # counter serves when the C build fails.
        rng = np.random.default_rng(23)
        with native_tier(tier):
            _check_grid(
                random_cells(rng, 130, 4, 3, missing=0.1),
                max_k=3,
                backend=CountingBackend(kind="native"),
            )
        # A default detect() counts on the tier's kernel, reports it,
        # and mines exactly what the numpy reference mines.  Choosing
        # the reference because the C build failed is no degradation:
        # nothing is logged and no ladder step is recorded.
        from repro.core.detector import SubspaceOutlierDetector

        data = rng.normal(size=(400, 6))

        def detect():
            return SubspaceOutlierDetector(
                dimensionality=2, n_ranges=4, n_projections=6,
                random_state=1,
            ).detect(data)

        with native_tier("numpy"):
            reference = detect()
        with caplog.at_level("WARNING"), native_tier(tier):
            result = detect()
        assert result.projections == reference.projections
        np.testing.assert_array_equal(
            result.outlier_indices, reference.outlier_indices
        )
        counter_stats = result.stats["counter_stats"]
        assert counter_stats["kernel_tier"] == tier
        assert ("kernel_reason" in counter_stats) == (tier == "numpy")
        assert result.stats["resilience"]["degraded"] is False
        assert result.stats["resilience"]["ladder"] == {}
        assert caplog.records == []

    def test_native_fallback_without_numba(self):
        # The no-compiler story: the C build fails, a counter asking for
        # the deprecated 'native' name serves the numpy reference
        # without a ladder step, says why, and the counts stay exact.
        rng = np.random.default_rng(24)
        cells = random_cells(rng, 90, 4, 4)
        with native_tier("numpy"):
            _check_grid(cells, max_k=3, backend=CountingBackend(kind="native"))
            counter = CubeCounter(cells, backend=CountingBackend(kind="native"))
            counter.count_batch(list(all_cubes(4, 4, 3)))
        report = counter.resilience.as_dict()
        assert report["ladder"] == {}
        assert report["degradations"] == []
        info = counter.kernel_info()
        assert (info["kernel"], info["tier"]) == ("numpy", "numpy")
        assert "no C compiler" in info["reason"]

    @pytest.mark.parametrize(
        "fault",
        [
            FaultSpec("worker_kill", trigger=1, times=1),
            FaultSpec("worker_init", trigger=0),
        ],
        ids=["kill-worker", "shm-attach-fail"],
    )
    def test_pool_wrapped_native_under_chaos(self, fault):
        # The native kernel inside pool workers must survive worker
        # death and shm-attach failures without corrupting a count.
        rng = np.random.default_rng(25)
        cells = random_cells(rng, 120, 4, 3, missing=0.1)
        cubes = list(all_cubes(4, 3, 3))
        expected = [naive_cube_count(cells.codes, c) for c in cubes]
        counter = CubeCounter(
            cells,
            backend=CountingBackend(
                kind="process-native",
                n_workers=2,
                chunk_size=8,
            ),
        )
        try:
            with fault_injection(fault):
                assert counter.count_batch(cubes).tolist() == expected
        finally:
            counter.close()


@pytest.mark.slow
class TestDeepSweep:
    """Exhaustive multi-seed sweep (run with ``-m slow``)."""

    @pytest.mark.parametrize("seed", range(10))
    def test_many_random_grids(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(20, 201))
        d = int(rng.integers(2, 7))
        phi = int(rng.integers(2, 5))
        missing = float(rng.choice([0.0, 0.1, 0.3]))
        _check_grid(random_cells(rng, n, d, phi, missing), max_k=min(4, d))

    @pytest.mark.parametrize("seed", range(3))
    def test_process_backend_deep(self, seed):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(20, 201))
        d = int(rng.integers(2, 6))
        phi = int(rng.integers(2, 5))
        _check_grid(
            random_cells(rng, n, d, phi, missing=0.1),
            max_k=min(4, d),
            backend=PROCESS_BACKEND,
        )


class TestFailedNativeBuild:
    """No C compiler: every backend counts on the numpy reference,
    bit-identical to ``serial``, without a degradation, and the build
    runs only once."""

    def test_native_detects_match_serial_without_a_compiler(
        self, monkeypatch, tmp_path, caplog
    ):
        import subprocess
        from types import SimpleNamespace

        from repro.core.detector import SubspaceOutlierDetector
        from repro.grid import backends, native

        builds, compiles = [], []
        build_kernel = native._build_kernel

        def counting_build():
            builds.append(1)
            return build_kernel()

        def counting_run(*args, **kwargs):
            compiles.append(args[0])
            return subprocess.run(*args, **kwargs)

        monkeypatch.setenv("REPRO_CC", "false")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setattr(native, "_build_kernel", counting_build)
        monkeypatch.setattr(native, "subprocess", SimpleNamespace(run=counting_run))
        monkeypatch.setattr(native, "_BUILD", None)
        monkeypatch.setattr(backends, "_VERIFIED", backends._VERIFIED - {"native"})

        data = np.random.default_rng(7).normal(size=(150, 5))

        def detect(kind):
            detector = SubspaceOutlierDetector(
                dimensionality=2, n_ranges=4, n_projections=5,
                method="brute_force", random_state=0,
                counting=CountingBackend(kind=kind, n_workers=2, chunk_size=8),
            )
            return detector.detect(data)

        with caplog.at_level("WARNING"):
            serial = detect("serial")
            for kind in BACKEND_KINDS:
                result = detect(kind)
                assert result.projections == serial.projections, kind
                np.testing.assert_array_equal(
                    result.outlier_indices, serial.outlier_indices
                )
                report = result.stats["resilience"]
                assert report["degraded"] is False, kind
                assert report["ladder"] == {}, kind
                counter_stats = result.stats["counter_stats"]
                assert counter_stats["kernel"] == "numpy", kind
                assert "false" in counter_stats["kernel_reason"], kind
        assert caplog.records == []
        info = native.kernel_info()
        assert info["tier"] == "numpy"
        assert "false" in info["reason"]
        # One build per process, its failure cached; inside it the
        # compiler runs with -march=native and once more without.
        assert len(builds) == 1
        assert 1 <= len(compiles) <= 2
