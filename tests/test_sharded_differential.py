"""Differential suite: out-of-core sharded counting vs the in-memory truth.

The sharded counter's contract is *bit-identity*: popcounts are additive
across row shards, so streaming the packed mask shards from disk must
reproduce the in-memory counters' numbers exactly — for every registered
backend, every native kernel tier, ragged final shards, duplicate and
prefix-sharing cubes, and missing values.  This suite pins that contract
plus the store's integrity envelope (atomic build, reuse, tamper
rejection) and the mmap worker pool's fault tolerance.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from repro.core.params import CountingBackend
from repro.core.subspace import Subspace
from repro.engine.events import InMemoryEventSink
from repro.exceptions import ValidationError
from repro.grid.cells import CellAssignment
from repro.grid.counter import CubeCounter
from repro.grid.sharded import (
    ShardedCounter,
    ShardedMaskStore,
    group_digest,
)
from repro.resilience import FaultSpec, fault_injection
from repro.search.evolutionary import EvolutionaryConfig, EvolutionarySearch

from conftest import native_tier, native_tiers

# N deliberately not a multiple of shard_rows: the last shard is ragged
# (3 rows), and 100-row shards leave ragged packed words inside every
# shard (100 bits = 12.5 bytes -> 16-byte padded rows).
N_POINTS = 1003
SHARD_ROWS = 100


def make_cells(seed=0, n=N_POINTS, d=5, phi=3, missing=0.0) -> CellAssignment:
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, phi, size=(n, d), dtype=np.int16)
    if missing:
        codes[rng.random(codes.shape) < missing] = -1
    return CellAssignment(codes=codes, n_ranges=phi)


def all_cubes(n_dims, n_ranges, max_k):
    out = []
    for k in range(1, max_k + 1):
        for dims in itertools.combinations(range(n_dims), k):
            for rngs in itertools.product(range(n_ranges), repeat=k):
                out.append(Subspace(dims, rngs))
    return out


@pytest.fixture(scope="module")
def cells():
    return make_cells(missing=0.15)


@pytest.fixture(scope="module")
def store(cells, tmp_path_factory):
    directory = tmp_path_factory.mktemp("mask_store")
    return ShardedMaskStore.build(cells, directory, shard_rows=SHARD_ROWS)


@pytest.fixture(scope="module")
def cubes(cells):
    batch = all_cubes(cells.n_dims, cells.n_ranges, 3)
    # Salt the batch with exact duplicates — folded through the memo on
    # both sides, so they must not perturb the miss-set kernels.
    return batch + batch[:7]


@pytest.fixture(scope="module")
def reference_counts(cells, cubes):
    counter = CubeCounter(cells)
    try:
        return counter.count_batch(cubes).tolist()
    finally:
        counter.close()


# ----------------------------------------------------------------------
class TestStoreBuild:
    def test_layout_and_ragged_final_shard(self, store):
        assert store.n_points == N_POINTS
        assert store.n_shards == 11
        assert store.shard_bounds(0) == (0, 100)
        assert store.shard_bounds(10) == (1000, 1003)
        # Every shard's packed rows are uint64-padded.
        for index in range(store.n_shards):
            assert store.shard_row_bytes(index) % 8 == 0
            stack8 = store.shard_stack8(index)
            assert stack8.shape == (
                store.n_dims, store.n_ranges, store.shard_row_bytes(index),
            )
            assert not stack8.flags.writeable

    def test_reuse_does_not_rewrite(self, cells, store):
        before = {
            path.name: path.stat().st_mtime_ns
            for path in store.directory.glob("shard_*.bin")
        }
        again = ShardedMaskStore.build(
            cells, store.directory, shard_rows=SHARD_ROWS
        )
        after = {
            path.name: path.stat().st_mtime_ns
            for path in again.directory.glob("shard_*.bin")
        }
        assert before == after
        assert again.fingerprint == store.fingerprint

    def test_changed_codes_rebuild(self, cells, tmp_path):
        first = ShardedMaskStore.build(cells, tmp_path, shard_rows=SHARD_ROWS)
        changed = CellAssignment(
            codes=np.ascontiguousarray(cells.codes[::-1]),
            n_ranges=cells.n_ranges,
        )
        second = ShardedMaskStore.build(changed, tmp_path, shard_rows=SHARD_ROWS)
        assert second.fingerprint != first.fingerprint

    def test_build_from_chunks_is_chunking_invariant(self, cells, tmp_path):
        whole = ShardedMaskStore.build(
            cells, tmp_path / "whole", shard_rows=SHARD_ROWS
        )
        # Re-block the same rows with awkward, uneven chunk sizes.
        splits = [0, 1, 64, 65, 257, 600, 999, N_POINTS]
        chunks = (
            cells.codes[lo:hi] for lo, hi in zip(splits, splits[1:])
        )
        ragged = ShardedMaskStore.build_from_chunks(
            chunks, tmp_path / "ragged",
            n_ranges=cells.n_ranges, shard_rows=SHARD_ROWS,
        )
        assert ragged.fingerprint == whole.fingerprint
        for index in range(whole.n_shards):
            a = whole.shard_stack8(index)
            b = ragged.shard_stack8(index)
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))

    def test_zero_rows_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="zero rows"):
            ShardedMaskStore.build_from_chunks(
                iter(()), tmp_path, n_ranges=3
            )

    def test_column_mismatch_rejected(self, tmp_path):
        chunks = [np.zeros((4, 3), dtype=np.int16), np.zeros((4, 2), dtype=np.int16)]
        with pytest.raises(ValidationError, match="columns"):
            ShardedMaskStore.build_from_chunks(chunks, tmp_path, n_ranges=3)

    def test_out_of_range_codes_rejected(self, tmp_path):
        chunk = np.full((4, 2), 5, dtype=np.int16)
        with pytest.raises(ValidationError, match="φ=3"):
            ShardedMaskStore.build_from_chunks([chunk], tmp_path, n_ranges=3)

    def test_non_2d_chunk_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="2-D"):
            ShardedMaskStore.build_from_chunks(
                [np.zeros(4, dtype=np.int16)], tmp_path, n_ranges=3
            )


class TestStoreIntegrity:
    @pytest.fixture
    def small_store(self, tmp_path):
        return ShardedMaskStore.build(
            make_cells(seed=9, n=70, d=3), tmp_path, shard_rows=32
        )

    def test_open_round_trips(self, small_store):
        reopened = ShardedMaskStore.open(small_store.directory)
        assert reopened.fingerprint == small_store.fingerprint
        assert reopened.n_shards == small_store.n_shards

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="missing manifest"):
            ShardedMaskStore.open(tmp_path)

    def test_corrupt_manifest_rejected(self, small_store):
        path = small_store.directory / "manifest.json"
        path.write_text(path.read_text()[:25])
        with pytest.raises(ValidationError, match="unreadable"):
            ShardedMaskStore.open(small_store.directory)

    def test_unknown_format_version_rejected(self, small_store):
        path = small_store.directory / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["format_version"] = 99
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="format version"):
            ShardedMaskStore.open(small_store.directory)

    def test_truncated_shard_file_rejected(self, small_store):
        victim = small_store.directory / "shard_00001.bin"
        victim.write_bytes(victim.read_bytes()[:-8])
        with pytest.raises(ValidationError, match="wrong size"):
            ShardedMaskStore.open(small_store.directory)

    def test_missing_shard_file_rejected(self, small_store):
        (small_store.directory / "shard_00000.bin").unlink()
        with pytest.raises(ValidationError, match="missing or"):
            ShardedMaskStore.open(small_store.directory)

    def test_row_gap_rejected(self, small_store):
        path = small_store.directory / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["shards"][1]["start"] += 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="starts at row"):
            ShardedMaskStore.open(small_store.directory)

    def test_group_digest_sensitivity(self, small_store):
        dims = np.array([[0, 1]], dtype=np.int64)
        rngs = np.array([[0, 2]], dtype=np.int64)
        base = group_digest(small_store.fingerprint, dims, rngs)
        assert group_digest(small_store.fingerprint, dims, rngs) == base
        assert group_digest("other", dims, rngs) != base
        assert group_digest(
            small_store.fingerprint, dims, rngs[:, ::-1]
        ) != base


# ----------------------------------------------------------------------
class TestShardedDifferential:
    """Shard-merged counts == in-memory counts, on every backend."""

    @pytest.mark.parametrize(
        "kind", ["serial", "native", "process", "process-native"]
    )
    def test_count_batch_matches_in_memory(
        self, store, cells, cubes, reference_counts, kind
    ):
        counter = ShardedCounter(
            store, backend=CountingBackend(kind=kind, n_workers=2)
        )
        try:
            assert counter.count_batch(cubes).tolist() == reference_counts
        finally:
            counter.close()

    def test_every_native_tier_matches(self, store, cubes, reference_counts):
        for tier in native_tiers():
            counter = ShardedCounter(
                store, backend=CountingBackend(kind="native")
            )
            try:
                with native_tier(tier):
                    got = counter.count_batch(cubes).tolist()
            finally:
                counter.close()
            assert got == reference_counts, tier
            assert counter.resilience.ladder == {}, tier
            assert counter.kernel_info()["tier"] == tier

    def test_single_cube_paths_match(self, store, cells):
        memory = CubeCounter(cells)
        sharded = ShardedCounter(store)
        probes = [
            Subspace((), ()),  # empty cube: the ragged tail-mask path
            Subspace((0,), (1,)),
            Subspace((1, 3), (0, 2)),
            Subspace((0, 2, 4), (2, 1, 0)),
        ]
        try:
            for subspace in probes:
                assert sharded.count(subspace) == memory.count(subspace)
                np.testing.assert_array_equal(
                    sharded.mask(subspace), memory.mask(subspace)
                )
                np.testing.assert_array_equal(
                    sharded.covered_points(subspace),
                    memory.covered_points(subspace),
                )
                assert sharded.fraction(subspace) == memory.fraction(subspace)
        finally:
            memory.close()
            sharded.close()

    def test_single_shard_store_matches(self, cells, cubes, reference_counts, tmp_path):
        # shard_rows >= N: the degenerate one-shard store must behave
        # exactly like the multi-shard one.
        one = ShardedMaskStore.build(cells, tmp_path, shard_rows=1 << 20)
        assert one.n_shards == 1
        counter = ShardedCounter(one)
        try:
            assert counter.count_batch(cubes).tolist() == reference_counts
        finally:
            counter.close()

    def test_counter_validation(self, store, cells):
        with pytest.raises(ValidationError, match="ShardedMaskStore"):
            ShardedCounter(cells)  # type: ignore[arg-type]
        mismatched = make_cells(seed=1, n=N_POINTS - 1)
        with pytest.raises(ValidationError, match="do not match the store"):
            ShardedCounter(store, cells=mismatched)
        with pytest.raises(ValidationError, match="ShardCheckpointer"):
            ShardedCounter(store, checkpointer=object())  # type: ignore[arg-type]

    def test_evolutionary_search_parity(self, store, cells):
        # The GA counts its population and every optimized-crossover
        # partial cube through the memoised batch path, which reaches
        # the sharded counter's _count_group: mined projections, the
        # evaluation count and the memo figures must match in-memory.
        config = EvolutionaryConfig(population_size=20, max_generations=8)

        def run(counter):
            try:
                outcome = EvolutionarySearch(
                    counter, 3, 10, config=config, random_state=0
                ).run()
                return outcome, counter.cache_stats()
            finally:
                counter.close()

        memory, memory_stats = run(CubeCounter(cells))
        sharded, sharded_stats = run(ShardedCounter(store))
        assert sharded.projections == memory.projections
        assert sharded.stats["evaluations"] == memory.stats["evaluations"]
        for key in ("count_calls", "cache_hits", "batch_calls", "batch_cubes"):
            assert sharded_stats[key] == memory_stats[key], key
        # More batches than generations + seed: crossover stages counted
        # on the shards too, not just the populations.
        assert sharded_stats["batch_calls"] > sharded.stats["generations"] + 1
        assert sharded_stats["shards_counted"] > 0

    def test_memory_and_stats_accounting(self, store, cubes):
        counter = ShardedCounter(store)
        try:
            counter.count_batch(cubes[:30])
            stats = counter.cache_stats()
        finally:
            counter.close()
        assert counter.mask_memory_bytes() == 0
        assert stats["n_shards"] == store.n_shards
        assert stats["shard_rows"] == SHARD_ROWS
        assert stats["store_bytes"] == store.nbytes_on_disk()
        assert stats["shards_counted"] > 0
        assert stats["shards_resumed"] == 0


# ----------------------------------------------------------------------
class TestShardedPoolChaos:
    """The mmap worker pool under injected faults: counts never change."""

    def run_sharded(self, store, cubes, *specs, **backend_kwargs):
        backend_kwargs.setdefault("kind", "process")
        backend_kwargs.setdefault("n_workers", 2)
        backend_kwargs.setdefault("retry_backoff", 0.01)
        counter = ShardedCounter(store, backend=CountingBackend(**backend_kwargs))
        try:
            with fault_injection(*specs):
                counts = counter.count_batch(cubes).tolist()
            return counts, counter.backend_health()
        finally:
            counter.close()

    def test_worker_kill_recovers_bit_identical(
        self, store, cubes, reference_counts
    ):
        counts, health = self.run_sharded(
            store, cubes, FaultSpec("worker_kill", trigger=1, times=None)
        )
        assert counts == reference_counts
        assert health["retries"] >= 1
        assert health["fallbacks"] >= 1
        assert health["chunks_serial"] >= 1

    def test_store_open_failure_rebuilds_then_recovers(
        self, store, cubes, reference_counts
    ):
        counts, health = self.run_sharded(
            store, cubes, FaultSpec("worker_init", trigger=0)
        )
        assert counts == reference_counts
        assert health["rebuilds"] >= 1
        assert health["fallbacks"] == 0
        assert health["chunks_parallel"] > 0

    def test_rebuild_exhaustion_degrades_to_serial(
        self, store, cubes, reference_counts
    ):
        counts, health = self.run_sharded(
            store, cubes,
            FaultSpec("worker_kill", trigger=0, times=None),
            max_rebuilds=0,
        )
        assert counts == reference_counts
        assert health["pool_degraded"]
        assert health["chunks_serial"] >= 1

    def test_abandoned_pool_keeps_one_ledger(
        self, store, cubes, reference_counts
    ):
        # Regression: shards swept serially after the pool was abandoned
        # reached backend_health but not stats["resilience"], and the
        # counting-pool ladder step bypassed the event stream.
        backend = CountingBackend(
            kind="process", n_workers=2, chunk_size=16, retry_backoff=0.01,
            max_rebuilds=0,
        )
        counter = ShardedCounter(store, backend=backend)
        sink = InMemoryEventSink()
        try:
            with counter.runtime_binding(None, sink), fault_injection(
                FaultSpec("worker_kill", trigger=1)
            ):
                counts = counter.count_batch(cubes).tolist()
            health = counter.backend_health()
            resilience = counter.resilience.as_dict()
            counter_stats = counter.cache_stats()
        finally:
            counter.close()
        assert counts == reference_counts
        assert health["pool_degraded"]
        assert (
            resilience["recoveries"].get("pool_serial_fallback", 0)
            == health["fallbacks"]
        )
        assert (
            health["chunks_parallel"] + health["chunks_serial"]
            == counter_stats["parallel_chunks"]
        )
        assert health["chunk_latency"]["count"] == health["chunks_parallel"]
        steps = [
            event for event in sink.of_type("degradation_applied")
            if event.payload["chain"] == "counting-pool"
        ]
        assert len(steps) == 1
