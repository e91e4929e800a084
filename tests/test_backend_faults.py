"""Chaos harness: the process counting backend under injected faults.

Every scenario the pool's fault points (``worker_kill``,
``worker_stall``, ``worker_init`` in :mod:`repro.resilience.faults`) can
express — worker death (``BrokenProcessPool``), a hung chunk caught by
the watchdog timeout, a failed shared-memory attach, and a pool-rebuild
storm that exhausts ``max_rebuilds`` — must end the same way: counts
(and therefore full detection results) bit-identical to the serial
backend, with the degradation recorded in ``backend_health``.

The faults are keyed calls (on the run-wide chunk dispatch sequence and
attempt, or the pool generation), so every scenario here is exactly
reproducible.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest
from concurrent.futures import BrokenExecutor

from repro import PackedCubeCounter
from repro.core.detector import SubspaceOutlierDetector
from repro.core.params import CountingBackend
from repro.core.subspace import Subspace
from repro.engine.events import InMemoryEventSink
from repro.exceptions import ValidationError
from repro.grid.cells import CellAssignment
from repro.grid.counter import CubeCounter
from repro.grid.parallel import CountingPool, _count_chunk
from repro.resilience import FaultSpec, fault_injection, maybe_inject


def make_cells(seed=0, n=150, d=5, phi=3, missing=0.0) -> CellAssignment:
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
    return make_cells()


@pytest.fixture(scope="module")
def cubes(cells):
    return all_cubes(cells.n_dims, cells.n_ranges, 3)


@pytest.fixture(scope="module")
def serial_counts(cells, cubes):
    counter = CubeCounter(cells)
    try:
        return counter.count_batch(cubes).tolist()
    finally:
        counter.close()


def faulty_backend(**kwargs) -> CountingBackend:
    kwargs.setdefault("kind", "process")
    kwargs.setdefault("n_workers", 2)
    kwargs.setdefault("chunk_size", 16)
    kwargs.setdefault("retry_backoff", 0.01)
    return CountingBackend(**kwargs)


def kill(chunk: int, times: int | None = None) -> FaultSpec:
    """Kill the worker on *chunk*, on every attempt by default."""
    return FaultSpec("worker_kill", trigger=chunk, times=times)


#: The first pool generation's initializers fail; the rebuild attaches.
ATTACH_FAILS_ONCE = FaultSpec("worker_init", trigger=0)


def run_batch(cells, cubes, backend, *specs, counter_cls=CubeCounter):
    counter = counter_cls(cells, backend=backend)
    try:
        with fault_injection(*specs):
            counts = counter.count_batch(cubes).tolist()
        return counts, counter.backend_health()
    finally:
        counter.close()


class TestFaultPlanValidation:
    def test_negative_chunk_rejected(self):
        with pytest.raises(ValidationError):
            FaultSpec("worker_kill", trigger=-1)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValidationError):
            FaultSpec("worker_stall", trigger=0.5)

    def test_trigger_limit_positive(self):
        with pytest.raises(ValidationError):
            FaultSpec("worker_kill", trigger=0, times=0)

    def test_applies_semantics(self):
        # A keyed call matches iff key == trigger and attempt <= times.
        # An explicit error keeps worker_kill from ending this process.
        def fires(spec, key, attempt):
            with fault_injection(spec) as injector:
                try:
                    maybe_inject("worker_kill", key=key, attempt=attempt)
                except RuntimeError:
                    return True
                finally:
                    assert injector.invocations("worker_kill") == 0
                    assert injector.fired() == 0
                return False

        marker = RuntimeError("injected kill")
        always = FaultSpec("worker_kill", trigger=0, times=None, error=marker)
        assert fires(always, 0, 1) and fires(always, 0, 100)
        assert not fires(always, 1, 1)
        once = FaultSpec("worker_kill", trigger=0, times=1, error=marker)
        assert fires(once, 0, 1) and not fires(once, 0, 2)

    def test_backend_rejects_bad_policy(self):
        with pytest.raises(ValidationError):
            CountingBackend(kind="process", timeout=0.0)
        with pytest.raises(ValidationError):
            CountingBackend(kind="process", retry_backoff=-1.0)
        # The backend carries no chaos knob: pool faults are armed
        # through the repro.resilience worker_* fault points.
        with pytest.raises(TypeError):
            CountingBackend(kind="process", fault_plan="kill")  # type: ignore[call-arg]


class TestNoFaultBaseline:
    """No fault configured ⇒ zero degradation telemetry, full parallelism."""

    def test_clean_run_records_nothing(self, cells, cubes, serial_counts):
        counts, health = run_batch(cells, cubes, faulty_backend())
        assert counts == serial_counts
        assert health["retries"] == 0
        assert health["timeouts"] == 0
        assert health["rebuilds"] == 0
        assert health["fallbacks"] == 0
        assert health["chunks_serial"] == 0
        assert health["chunks_parallel"] > 0
        assert health["chunk_latency"]["count"] == health["chunks_parallel"]

    def test_serial_backend_records_nothing(self, cells, cubes, serial_counts):
        counter = CubeCounter(cells)
        try:
            assert counter.count_batch(cubes).tolist() == serial_counts
            health = counter.backend_health()
        finally:
            counter.close()
        assert not any(
            health[key]
            for key in ("retries", "timeouts", "rebuilds", "fallbacks")
        )
        assert health["chunks_parallel"] == 0


class TestWorkerKill:
    """A worker dying hard must not change a single count."""

    def test_kill_recovers_bit_identical(self, cells, cubes, serial_counts):
        counts, health = run_batch(cells, cubes, faulty_backend(), kill(1))
        assert counts == serial_counts
        # The killed chunk exhausts its retries (the fault re-fires on
        # every attempt) and degrades to the serial kernel.
        assert health["fallbacks"] >= 1
        assert health["rebuilds"] >= 1
        assert health["retries"] >= 1
        assert health["chunks_serial"] >= 1

    def test_kill_recovers_packed(self, cells, cubes, serial_counts):
        counts, health = run_batch(
            cells, cubes, faulty_backend(), kill(2),
            counter_cls=PackedCubeCounter,
        )
        assert counts == serial_counts
        assert health["fallbacks"] >= 1

    def test_kill_with_missing_values(self):
        cells = make_cells(seed=3, missing=0.2)
        cubes = all_cubes(cells.n_dims, cells.n_ranges, 3)
        serial = CubeCounter(cells)
        try:
            expected = serial.count_batch(cubes).tolist()
        finally:
            serial.close()
        counts, health = run_batch(cells, cubes, faulty_backend(), kill(0))
        assert counts == expected
        assert health["fallbacks"] >= 1


class TestChunkTimeout:
    """The watchdog catches a hung chunk; results stay identical."""

    def test_hung_chunk_retries_then_succeeds(self, cells, cubes, serial_counts):
        backend = faulty_backend(timeout=0.3)
        stall_once = FaultSpec("worker_stall", trigger=0, times=1)
        counts, health = run_batch(cells, cubes, backend, stall_once)
        assert counts == serial_counts
        assert health["timeouts"] >= 1
        assert health["retries"] >= 1
        # The stall fired only on the first attempt, so the retry
        # succeeded on the rebuilt pool: no serial fallback needed.
        assert health["rebuilds"] >= 1

    def test_persistently_hung_chunk_falls_back(self, cells, cubes, serial_counts):
        backend = faulty_backend(timeout=0.3, max_retries=1)
        stall_always = FaultSpec("worker_stall", trigger=0, times=None)
        counts, health = run_batch(cells, cubes, backend, stall_always)
        assert counts == serial_counts
        assert health["timeouts"] >= 1
        assert health["fallbacks"] >= 1


class TestShmAttachFailure:
    """Worker initializers failing once ⇒ one rebuild, then healthy."""

    def test_first_generation_fails_then_recovers(self, cells, cubes, serial_counts):
        counts, health = run_batch(
            cells, cubes, faulty_backend(), ATTACH_FAILS_ONCE
        )
        assert counts == serial_counts
        assert health["rebuilds"] >= 1
        assert health["retries"] >= 1
        # The rebuilt pool attaches fine: everything completes parallel.
        assert health["fallbacks"] == 0
        assert health["chunks_parallel"] > 0


class TestRebuildStorm:
    """Exhausting max_rebuilds abandons the pool, run completes serially."""

    def test_degrades_to_serial_and_completes(self, cells, cubes, serial_counts):
        backend = faulty_backend(max_rebuilds=0)
        counts, health = run_batch(cells, cubes, backend, kill(1))
        assert counts == serial_counts
        assert health["pool_degraded"]
        assert health["chunks_serial"] >= 1
        assert health["rebuilds"] == 0

    def test_bounded_storm_still_recovers(self, cells, cubes, serial_counts):
        backend = faulty_backend(max_retries=3, max_rebuilds=10)
        counts, health = run_batch(cells, cubes, backend, kill(1))
        assert counts == serial_counts
        # Each re-fire of the kill breaks the pool again: a storm of
        # rebuilds, bounded by the retry budget of the poisoned chunk.
        assert health["rebuilds"] >= 2
        assert not health["pool_degraded"]

    def test_abandoned_pool_keeps_one_ledger(self, cells, cubes, serial_counts):
        # Regression: chunks swept serially after the pool was abandoned
        # reached backend_health but not stats["resilience"], and the
        # counting-pool ladder step bypassed the event stream.
        backend = faulty_backend(max_rebuilds=0)
        counter = CubeCounter(cells, backend=backend)
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
        assert counts == serial_counts
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


class TestDetectorUnderFaults:
    """Acceptance: detect() completes bit-identically under a worker kill."""

    @pytest.fixture(scope="class")
    def data(self):
        return np.random.default_rng(42).normal(size=(100, 4))

    def _detect(self, data, counting=None, **kwargs):
        kwargs.setdefault("dimensionality", 2)
        kwargs.setdefault("n_ranges", 3)
        kwargs.setdefault("n_projections", 8)
        kwargs.setdefault("method", "evolutionary")
        kwargs.setdefault("random_state", 7)
        detector = SubspaceOutlierDetector(counting=counting, **kwargs)
        return detector.detect(data)

    def test_detect_with_worker_kill_matches_serial(self, data):
        # The acceptance scenario: a worker dies mid-generation of the
        # GA; detect() must still complete with results bit-identical
        # to the serial backend, and record the degradation.
        baseline = self._detect(data)
        with fault_injection(kill(1)):
            faulted = self._detect(data, counting=faulty_backend(chunk_size=8))
        assert [
            (p.subspace.dims, p.subspace.ranges, p.count, p.coefficient)
            for p in baseline.projections
        ] == [
            (p.subspace.dims, p.subspace.ranges, p.count, p.coefficient)
            for p in faulted.projections
        ]
        np.testing.assert_array_equal(
            baseline.outlier_indices, faulted.outlier_indices
        )
        health = faulted.stats["backend_health"]
        assert health["fallbacks"] >= 1
        assert faulted.backend_degraded
        assert not baseline.backend_degraded

    def test_level_batch_brute_force_with_kill(self, cells, serial_counts):
        # Brute force is the other batched-count consumer; run it
        # straight against a worker kill.
        from repro.search.brute_force import BruteForceSearch

        def mine(backend=None):
            counter = CubeCounter(cells, backend=backend)
            try:
                outcome = BruteForceSearch(counter, 2, n_projections=6).run()
                return outcome, counter.backend_health()
            finally:
                counter.close()

        baseline, _ = mine()
        with fault_injection(kill(1)):
            faulted, health = mine(faulty_backend(chunk_size=8))
        assert [
            (p.subspace.dims, p.subspace.ranges, p.count)
            for p in baseline.projections
        ] == [
            (p.subspace.dims, p.subspace.ranges, p.count)
            for p in faulted.projections
        ]
        assert health["fallbacks"] >= 1

    def test_clean_detect_records_no_degradation(self, data):
        result = self._detect(data, counting=faulty_backend(chunk_size=8))
        health = result.stats["backend_health"]
        assert health["retries"] == 0
        assert health["rebuilds"] == 0
        assert health["fallbacks"] == 0
        assert not result.backend_degraded


class TestCloseIdempotency:
    """Regression (PR 2): close() must be safe under a broken executor."""

    def test_pool_close_is_idempotent(self, cells):
        counter = CubeCounter(cells, backend=faulty_backend())
        pool = counter._ensure_pool()
        assert pool is not None
        pool.close()
        pool.close()  # second close is a no-op, not an error
        counter.close()
        counter.close()

    def test_close_after_broken_executor_does_not_hang(self, cells):
        stack = CubeCounter(cells)._stack
        pool = CountingPool(stack, faulty_backend())
        dims = np.zeros((1, 1), dtype=np.intp)
        rngs = np.zeros((1, 1), dtype=np.intp)
        # Bypass the resilient dispatcher to leave the executor broken.
        with fault_injection(kill(0)):
            future = pool._executor.submit(_count_chunk, (0, 1, dims, rngs))
            with pytest.raises(BrokenExecutor):
                future.result(timeout=60)
        start = time.perf_counter()
        pool.close()
        pool.close()
        assert time.perf_counter() - start < 30.0
        assert pool.is_degraded

    def test_counter_close_after_degraded_run(self, cells, cubes, serial_counts):
        counter = CubeCounter(cells, backend=faulty_backend(max_rebuilds=0))
        try:
            with fault_injection(kill(0)):
                assert counter.count_batch(cubes).tolist() == serial_counts
        finally:
            counter.close()
            counter.close()
        # The degraded pool was released mid-run; later batches must
        # still answer (plain serial path), without resurrecting it.
        assert counter.count_batch(cubes).tolist() == serial_counts
        assert counter._pool is None


@pytest.mark.slow
class TestChaosSweep:
    """Randomized multi-scenario sweep (run with ``-m slow``)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_grid_random_fault(self, seed):
        rng = np.random.default_rng(5000 + seed)
        cells = make_cells(
            seed=5000 + seed,
            n=int(rng.integers(40, 200)),
            d=int(rng.integers(3, 6)),
            phi=int(rng.integers(2, 4)),
            missing=float(rng.choice([0.0, 0.15])),
        )
        cubes = all_cubes(cells.n_dims, cells.n_ranges, 3)
        serial = CubeCounter(cells)
        try:
            expected = serial.count_batch(cubes).tolist()
        finally:
            serial.close()
        # Size chunks off the batch so every run dispatches at least
        # three of them — otherwise a small random grid could leave the
        # killed chunk id (or the whole pool) undispatched and the
        # degradation assertion below would be vacuous.
        chunk_size = max(1, len(cubes) // int(rng.integers(3, 7)))
        plans = [
            (kill(int(rng.integers(0, 3))),),
            (ATTACH_FAILS_ONCE,),
            (kill(int(rng.integers(0, 3))), ATTACH_FAILS_ONCE),
        ]
        plan = plans[seed % len(plans)]
        backend = faulty_backend(chunk_size=chunk_size)
        counts, health = run_batch(cells, cubes, backend, *plan)
        assert counts == expected
        assert health["rebuilds"] >= 1 or health["pool_degraded"]
