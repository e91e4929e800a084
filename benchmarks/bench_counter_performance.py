"""Substrate micro-benchmark: cube-counting engines.

Not a paper table — this measures the reproduction's own engine-room
(DESIGN.md "Counting" decision): the bit-packed counter's mask memory
and per-cube counting vs naive row scanning of the grid codes, at a
scale larger than any paper dataset, plus the memoisation hit rate a GA-shaped workload
achieves, plus the batched kernel's speedup over per-cube counting on
a GA-population-sized batch (the headline number for the batch API),
the compiled C kernel's speedup over the numpy reference kernel on the
same batch, and the sharded out-of-core counter's overhead.

It reports and asserts the counts and speedups; it keeps no history.
Performance is gated end to end by the pipeline benchmark
(``benchmarks/pipeline/``, see docs/testing.md).
"""

from __future__ import annotations

import tempfile
import time

import numpy as np
import pytest

from repro.core.subspace import Subspace
from repro.grid.cells import CellAssignment
from repro.grid.counter import CubeCounter
from repro.grid.kernels import batch_counts, pack_codes_block
from repro.grid.native import kernel_info, native_batch_counts
from repro.grid.sharded import ShardedCounter, ShardedMaskStore

N_POINTS = 100_000
N_DIMS = 32
PHI = 8
N_CUBES = 300
# The batch scenario mirrors the paper's running example (d=20,
# phi=10, k=4) with a GA population of 500 strings over N=50k points.
BATCH_N = 50_000
BATCH_D = 20
BATCH_PHI = 10
BATCH_K = 4
BATCH_P = 500

#: Best-of-N repetitions for the batched timings — the min is far more
#: stable than the mean on shared machines.
REPS = 3

_LINES: list[str] = []


@pytest.fixture(scope="module")
def cells():
    rng = np.random.default_rng(5)
    codes = rng.integers(0, PHI, size=(N_POINTS, N_DIMS)).astype(np.int16)
    return CellAssignment(codes, PHI)


@pytest.fixture(scope="module")
def cubes():
    rng = np.random.default_rng(6)
    out = []
    for _ in range(N_CUBES):
        k = int(rng.integers(2, 5))
        dims = tuple(sorted(rng.choice(N_DIMS, size=k, replace=False).tolist()))
        ranges = tuple(int(r) for r in rng.integers(0, PHI, size=k))
        out.append(Subspace(dims, ranges))
    return out


def _count_all(counter, cubes):
    return [counter.count(cube) for cube in cubes]


def _best_of(fn, reps=REPS):
    """Return (result, best_seconds) over *reps* timed calls of *fn*."""
    best = float("inf")
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def _naive_scan(codes, cubes):
    """n(D) by scanning the grid codes row-wise, no masks at all."""
    return [
        int(np.count_nonzero(
            np.all(codes[:, list(cube.dims)] == np.asarray(cube.ranges), axis=1)
        ))
        for cube in cubes
    ]


def test_packed_counter(benchmark, cells, cubes):
    counter = CubeCounter(cells, cache_size=0)
    t0 = time.perf_counter()
    reference = _naive_scan(cells.codes, cubes)
    naive_seconds = time.perf_counter() - t0
    counts, counter_seconds = benchmark.pedantic(
        lambda: _best_of(lambda: _count_all(counter, cubes), reps=1),
        rounds=1, iterations=1,
    )
    _LINES.append(
        f"{'bit-packed masks':<22}{counter.mask_memory_bytes() / 1e6:>12.1f} MB"
    )
    _LINES.append(
        f"{'counter vs naive scan':<22}"
        f"{naive_seconds / counter_seconds:>11.1f}x  "
        f"({N_CUBES} cubes: {naive_seconds:.2f}s scan vs "
        f"{counter_seconds:.2f}s counter)"
    )
    assert counts == reference


def test_cache_effectiveness(benchmark, cells, cubes):
    # A GA re-evaluates converging populations: simulate 10x repetition.
    counter = CubeCounter(cells)

    def repeated():
        for _ in range(10):
            _count_all(counter, cubes)
        return counter.cache_stats()

    stats = benchmark.pedantic(repeated, rounds=1, iterations=1)
    hit_rate = stats["cache_hits"] / stats["count_calls"]
    _LINES.append(f"{'memoisation hit rate':<22}{hit_rate:>12.1%}")
    assert hit_rate > 0.85


def test_batch_speedup(benchmark):
    # Acceptance: count_batch on a population-sized batch
    # must beat per-cube counting by >= 1.5x, and the C kernel must
    # beat the numpy reference kernel by >= 2x when it builds.
    # Per-cube counting ANDs the same packed words the batch kernel does,
    # so the batch gain is prefix sharing plus one vectorized pass
    # instead of 500 Python-level calls.
    rng = np.random.default_rng(7)
    codes = rng.integers(0, BATCH_PHI, size=(BATCH_N, BATCH_D)).astype(np.int16)
    cells = CellAssignment(codes, BATCH_PHI)
    population = []
    for _ in range(BATCH_P):
        dims = tuple(
            sorted(rng.choice(BATCH_D, size=BATCH_K, replace=False).tolist())
        )
        ranges = tuple(int(r) for r in rng.integers(0, BATCH_PHI, size=BATCH_K))
        population.append(Subspace(dims, ranges))

    per_cube = CubeCounter(cells, cache_size=0)
    reference, per_cube_seconds = _best_of(
        lambda: _count_all(per_cube, population)
    )

    serial = CubeCounter(cells, cache_size=0)
    counts, batch_seconds = benchmark.pedantic(
        lambda: _best_of(lambda: serial.count_batch(population)),
        rounds=1, iterations=1,
    )
    kernel = serial.kernel_info()["kernel"]

    # The two kernels head to head on the same packed stack and batch.
    stack = pack_codes_block(codes, BATCH_PHI).view(np.uint64)
    dims_arr = np.array([cube.dims for cube in population], dtype=np.intp)
    rng_arr = np.array([cube.ranges for cube in population], dtype=np.intp)
    (numpy_counts, _), numpy_seconds = _best_of(
        lambda: batch_counts(stack, dims_arr, rng_arr)
    )
    tier = kernel_info()["tier"]
    if tier == "c":
        (c_counts, _), c_seconds = _best_of(
            lambda: native_batch_counts(stack, dims_arr, rng_arr)
        )
        assert c_counts.tolist() == reference

    # The out-of-core counter over the same data: 8 mmapped row shards
    # streamed through the same kernel.  The interesting number is the
    # overhead vs the all-in-RAM counter (mmap opens + per-shard kernel
    # launches + the accumulator), reported beside the kernels.
    with tempfile.TemporaryDirectory() as mask_dir:
        store = ShardedMaskStore.build(
            cells, mask_dir, shard_rows=-(-BATCH_N // 8)
        )
        sharded = ShardedCounter(store, cache_size=0)
        sharded_counts, sharded_seconds = _best_of(
            lambda: sharded.count_batch(population)
        )
        n_shards = store.n_shards
        sharded.close()

    speedup = per_cube_seconds / batch_seconds
    _LINES.append(
        f"{'batch API speedup':<22}{speedup:>11.1f}x  "
        f"(p={BATCH_P}, k={BATCH_K}, N={BATCH_N:,}, {kernel} kernel: "
        f"{per_cube_seconds * 1e3:.2f}ms per-cube vs "
        f"{batch_seconds * 1e3:.2f}ms batched)"
    )
    if tier == "c":
        native_speedup = numpy_seconds / c_seconds
        _LINES.append(
            f"{'C vs numpy kernel':<22}{native_speedup:>11.1f}x  "
            f"({c_seconds * 1e3:.2f}ms vs {numpy_seconds * 1e3:.2f}ms)"
        )
    sharded_overhead = sharded_seconds / batch_seconds
    _LINES.append(
        f"{'sharded (out-of-core)':<22}{sharded_overhead:>11.1f}x  "
        f"(vs in-RAM: {sharded_seconds * 1e3:.2f}ms over "
        f"{n_shards} mmapped shards)"
    )
    assert counts.tolist() == reference
    assert numpy_counts.tolist() == reference
    assert sharded_counts.tolist() == reference
    assert speedup >= 1.5
    if tier == "c":
        # Without a compiler every counter serves the numpy reference:
        # correct but not fast; the 2x gate applies to the C kernel.
        assert native_speedup >= 2.0


def test_report(benchmark):
    lines = benchmark.pedantic(
        lambda: [
            f"N={N_POINTS:,}, d={N_DIMS}, phi={PHI}; {N_CUBES} random cubes "
            "(k in 2..4)",
            "",
        ]
        + _LINES,
        rounds=1,
        iterations=1,
    )
    from conftest import register_report

    register_report("Substrate - cube counting engines", lines)
