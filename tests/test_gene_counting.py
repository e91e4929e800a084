"""Differential tests for ``CubeCounter.count_genes``, the GA's counting entry.

``count_genes`` counts an ``(n, d)`` gene matrix (``-1`` is ``*``) of
mixed dimensionality in one call of the counting core, padding every row
to the batch's largest k by repeating its last ``(dim, range)`` pair.
Hypothesis draws gene matrices with k from 0 to d, all-``*`` rows,
duplicate rows, φ ∈ {2, 10} and 1–200 rows, and three things must hold
on every kernel tier, on the process pool and on sharded counters (with
and without shard checkpoints):

1. ``count_genes`` equals per-row ``count(Subspace)``;
2. ``partial_fitness_batch`` and ``score_batch`` equal per-row
   ``partial_fitness`` and ``score`` bit for bit, with the same
   ``n_evaluations`` and ``count_calls``;
3. a refused matrix raises ``ValidationError`` and leaves the counter's
   stats untouched.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.params import CountingBackend
from repro.core.subspace import Subspace
from repro.exceptions import ValidationError
from repro.grid.cells import CellAssignment
from repro.grid.counter import CubeCounter
from repro.grid.sharded import ShardCheckpointer, ShardedCounter, ShardedMaskStore
from repro.run.checkpoint import CheckpointStore
from repro.search.evolutionary import FitnessEvaluator, Solution

from conftest import NATIVE_TIERS, native_tier

N_POINTS, N_DIMS = 150, 6
PHIS = (2, 10)
# 150 rows in 40-row shards: a ragged last shard, ragged words in each.
SHARD_ROWS = 40


def make_cells(phi: int) -> CellAssignment:
    rng = np.random.default_rng(phi)
    codes = rng.integers(0, phi, size=(N_POINTS, N_DIMS), dtype=np.int16)
    codes[rng.random(codes.shape) < 0.1] = -1  # missing values
    return CellAssignment(codes=codes, n_ranges=phi)


@st.composite
def gene_cases(draw):
    """``(φ, genes, k)``: a gene matrix of mixed k and a run's k."""
    phi = draw(st.sampled_from(PHIS))
    ks = draw(st.lists(st.integers(0, N_DIMS), min_size=1, max_size=200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    genes = np.full((len(ks), N_DIMS), -1, dtype=np.int64)
    for row, k in zip(genes, ks, strict=True):
        dims = rng.choice(N_DIMS, size=k, replace=False)
        row[dims] = rng.integers(0, phi, size=k)
    if draw(st.booleans()):
        genes[-1] = genes[0]  # a duplicate row
    return phi, genes, draw(st.integers(1, N_DIMS))


def row_cube(row: np.ndarray) -> Subspace:
    dims = np.flatnonzero(row != -1)
    return Subspace(tuple(dims.tolist()), tuple(row[dims].tolist()))


def check_gene_paths(counter: CubeCounter, genes: np.ndarray, k: int) -> None:
    """The three paths over *genes* on *counter* against their per-row twins."""
    live = genes[(genes != -1).any(axis=1)]
    expected = [counter.count(row_cube(row)) for row in live]
    np.testing.assert_array_equal(counter.count_genes(live), expected)

    batch, single = FitnessEvaluator(counter, k), FitnessEvaluator(counter, k)
    calls = counter.cache_stats()["count_calls"]
    got = batch.partial_fitness_batch(genes)
    batch_calls = counter.cache_stats()["count_calls"] - calls
    want = np.array([single.partial_fitness(Solution(row)) for row in genes])
    assert got.tobytes() == want.tobytes()
    assert batch.n_evaluations == single.n_evaluations == len(live)
    assert batch_calls == len(live)

    got = batch.score_batch(genes)
    want = [single.score(Solution(row)) for row in genes]
    assert got == want
    assert [s and s.coefficient.hex() for s in got] == [
        s and s.coefficient.hex() for s in want
    ]
    assert batch.n_evaluations == single.n_evaluations


@pytest.mark.parametrize("tier", NATIVE_TIERS)
@settings(max_examples=25, deadline=None)
@given(case=gene_cases())
def test_every_kernel_tier(tier, case):
    phi, genes, k = case
    with native_tier(tier):
        counter = CubeCounter(make_cells(phi))
        check_gene_paths(counter, genes, k)
        assert counter.kernel_info()["tier"] == tier


@pytest.fixture(scope="module")
def pool_counters():
    counters = {
        phi: CubeCounter(
            make_cells(phi),
            backend=CountingBackend(kind="process", n_workers=2, chunk_size=8),
        )
        for phi in PHIS
    }
    yield counters
    for counter in counters.values():
        counter.close()


@settings(max_examples=15, deadline=None)
@given(case=gene_cases())
def test_process_pool(pool_counters, case):
    phi, genes, k = case
    counter = pool_counters[phi]
    chunks = counter.cache_stats()["parallel_chunks"]
    check_gene_paths(counter, genes, k)
    if (genes != -1).any(axis=1).sum() > 8:
        assert counter.cache_stats()["parallel_chunks"] > chunks
    assert counter.resilience.ladder == {}


@pytest.fixture(scope="module")
def sharded_counters(tmp_path_factory):
    counters = {}
    for phi in PHIS:
        store = ShardedMaskStore.build(
            make_cells(phi), tmp_path_factory.mktemp(f"shards{phi}"),
            shard_rows=SHARD_ROWS,
        )
        checkpoints = CheckpointStore(tmp_path_factory.mktemp(f"progress{phi}"))
        counters[phi] = (
            ShardedCounter(store),
            ShardedCounter(store, checkpointer=ShardCheckpointer(checkpoints)),
        )
    yield counters
    for pair in counters.values():
        for counter in pair:
            counter.close()


@settings(max_examples=15, deadline=None)
@given(case=gene_cases())
def test_sharded_counter(sharded_counters, case):
    phi, genes, k = case
    for counter in sharded_counters[phi]:
        shards = counter.cache_stats()["shards_counted"]
        check_gene_paths(counter, genes, k)
        if (genes != -1).any():
            assert counter.cache_stats()["shards_counted"] > shards


def test_padded_group_shape():
    counter = CubeCounter(make_cells(10))
    genes = np.array([
        [-1, 3, -1, 7, -1, -1],
        [2, -1, -1, -1, -1, -1],
        [1, 2, 3, -1, -1, 4],
    ])
    dims, ranges = counter._gene_group(genes)
    np.testing.assert_array_equal(dims, [[1, 3, 3, 3], [0, 0, 0, 0], [0, 1, 2, 5]])
    np.testing.assert_array_equal(ranges, [[3, 7, 7, 7], [2, 2, 2, 2], [1, 2, 3, 4]])
    assert counter.count_genes(np.empty((0, N_DIMS), dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize(
    "genes",
    [
        pytest.param(np.zeros((3, N_DIMS - 1), dtype=np.int64), id="wrong-width"),
        pytest.param(np.zeros(N_DIMS, dtype=np.int64), id="one-dimensional"),
        pytest.param(np.zeros((3, N_DIMS)), id="float-dtype"),
        pytest.param(np.full((3, N_DIMS), 2), id="gene-at-phi"),
        pytest.param(np.full((3, N_DIMS), -2), id="gene-below-wildcard"),
        pytest.param(
            np.array([[0, 1, -1, -1, -1, -1], [-1] * N_DIMS]), id="all-wildcard-row"
        ),
    ],
)
def test_refusals_leave_stats_untouched(genes):
    counter = CubeCounter(make_cells(2))
    counter.count_genes(np.array([[0, -1, 1, -1, -1, -1]]))
    before = counter.cache_stats()
    with pytest.raises(ValidationError):
        counter.count_genes(genes)
    assert counter.cache_stats() == before
