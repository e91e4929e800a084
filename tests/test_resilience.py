"""Chaos matrix for ``repro.resilience``: every fault point, both pools.

The failure envelope (docs/resilience.md) makes two promises, and this
suite checks both for **every registered fault point**:

* a *recoverable* injected fault — transient I/O error, one corrupt
  shard, a failed in-memory allocation — is survived, the completed
  run is **bit-identical** to the fault-free run, and the recovery is
  recorded in ``result.stats["resilience"]``;
* an *unrecoverable* fault surfaces as a typed
  :class:`~repro.exceptions.ReproError` subclass — never a raw
  ``OSError`` or ``MemoryError``.

Injection is deterministic (per-point invocation counters, no clocks,
no RNG), so every scenario replays exactly.
"""

from __future__ import annotations

import ast
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core.detector import SubspaceOutlierDetector
from repro.core.params import CountingBackend
from repro.engine.events import InMemoryEventSink
from repro.exceptions import (
    CheckpointError,
    ReproError,
    ResourceError,
    SearchCancelled,
    ValidationError,
)
from repro.grid.cells import CellAssignment
from repro.grid.counter import CubeCounter
from repro.grid.sharded import ShardedCounter, ShardedMaskStore
from repro.resilience import (
    FAULT_POINTS,
    DegradationLadder,
    FaultSpec,
    RetryPolicy,
    ResilienceReport,
    active_injector,
    fault_injection,
    maybe_inject,
)
from repro.run.checkpoint import CheckpointStore
from repro.run.controller import RunController
from tests.test_backend_faults import all_cubes

_REPO_ROOT = Path(__file__).resolve().parents[1]

N_POINTS, N_DIMS, N_RANGES = 96, 4, 3
SHARD_ROWS = 24  # -> 4 shards


def make_data(seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(N_POINTS, N_DIMS))
    data[:4] += 6.0  # a planted sparse corner
    return data


DATA = make_data()


def run_detect(**kwargs) -> object:
    kwargs.setdefault("dimensionality", 2)
    kwargs.setdefault("n_ranges", N_RANGES)
    kwargs.setdefault("n_projections", 5)
    kwargs.setdefault("method", "brute_force")
    kwargs.setdefault("random_state", 0)
    detector = SubspaceOutlierDetector(**kwargs)
    return detector.detect(DATA)


def signature(result) -> tuple:
    """Everything result-shaped that must be bit-identical."""
    return (
        [
            (p.subspace.dims, p.subspace.ranges, p.coefficient)
            for p in result.projections
        ],
        result.outlier_indices.tolist(),
        {k: tuple(v) for k, v in result.coverage.items()},
    )


@pytest.fixture(scope="module")
def baseline():
    """Fault-free in-memory run (serial backend)."""
    return signature(run_detect())


@pytest.fixture(scope="module")
def cells() -> CellAssignment:
    rng = np.random.default_rng(3)
    codes = rng.integers(0, N_RANGES, size=(N_POINTS, N_DIMS), dtype=np.int16)
    return CellAssignment(codes=codes, n_ranges=N_RANGES)


@pytest.fixture(scope="module")
def cubes(cells):
    return all_cubes(cells.n_dims, cells.n_ranges, 2)


@pytest.fixture(scope="module")
def serial_counts(cells, cubes):
    counter = CubeCounter(cells)
    try:
        return counter.count_batch(cubes).tolist()
    finally:
        counter.close()


# ======================================================================
# unit layer: injection, retry, report, ladder
# ======================================================================
class TestFaultInjection:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultSpec("not_a_point")  # repro-lint: disable=RPL014

    def test_trigger_and_times_are_deterministic(self):
        with fault_injection(
            FaultSpec("shard_read", trigger=1, times=2)
        ) as injector:
            maybe_inject("shard_read")  # invocation 0: below trigger
            with pytest.raises(OSError):
                maybe_inject("shard_read")  # 1: fires
            with pytest.raises(OSError):
                maybe_inject("shard_read")  # 2: fires (times=2)
            maybe_inject("shard_read")  # 3: exhausted
            assert injector.invocations("shard_read") == 4
            assert injector.fired() == 2

    def test_persistent_fault_fires_forever(self):
        with fault_injection(FaultSpec("checkpoint_load", times=None)):
            for _ in range(5):
                with pytest.raises(OSError):
                    maybe_inject("checkpoint_load")

    def test_unarmed_points_are_noops(self):
        assert active_injector() is None
        maybe_inject("atomic_write")  # no injector: free pass

    def test_nested_arming_rejected(self):
        with fault_injection(FaultSpec("shard_read")):
            with pytest.raises(RuntimeError, match="already active"):
                with fault_injection(FaultSpec("shard_open")):
                    pass

    def test_custom_error_instance(self):
        marker = OSError("very specific")
        with fault_injection(FaultSpec("shard_read", error=marker)):
            with pytest.raises(OSError, match="very specific"):
                maybe_inject("shard_read")


def _touch_in_worker(point: str, key: int | None = None) -> str:
    """Pool task: hit *point* once in this worker and report the outcome."""
    try:
        maybe_inject(point, key=key)
    except (OSError, RuntimeError):
        return "fault"
    return "ok"


def _touch_four_times(point: str, key: int | None = None) -> list[str]:
    # One worker, so the order in which its counter advances is fixed.
    with ProcessPoolExecutor(max_workers=1) as pool:
        return list(pool.map(_touch_in_worker, [point] * 4, [key] * 4))


class TestForkedWorkerCounters:
    """Forked workers inherit a copy of the parent's counters at fork."""

    def test_parent_fired_spec_never_fires_in_workers(self):
        with fault_injection(FaultSpec("shard_read", trigger=0, times=1)):
            with pytest.raises(OSError):
                maybe_inject("shard_read")
            assert _touch_four_times("shard_read") == ["ok"] * 4

    def test_untouched_spec_fires_on_the_workers_first_touch(self):
        with fault_injection(FaultSpec("shard_read", trigger=0, times=1)):
            outcomes = _touch_four_times("shard_read")
            # The parent's own counter never moved.
            assert active_injector().invocations("shard_read") == 0
        assert outcomes == ["fault", "ok", "ok", "ok"]

    def test_keyed_calls_ignore_inherited_counters(self):
        spec = FaultSpec(
            "worker_init", trigger=0, times=1, error=RuntimeError("keyed")
        )
        with fault_injection(spec):
            with pytest.raises(RuntimeError, match="keyed"):
                maybe_inject("worker_init", key=0)
            assert _touch_four_times("worker_init", key=0) == ["fault"] * 4
            assert _touch_four_times("worker_init", key=1) == ["ok"] * 4


def _named_calls(path: Path, callee: str) -> set[str]:
    """Literal first arguments of every ``callee(...)`` call in *path*."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None
        )
        first = node.args[0]
        if name == callee and isinstance(first, ast.Constant):
            names.add(first.value)
    return names


class TestFaultPointCoverage:
    """Every registered point is reachable from src/ and armed in tests/."""

    def test_every_point_has_an_injection_site_and_a_test(self):
        injected = set().union(
            *(
                _named_calls(path, "maybe_inject")
                for path in (_REPO_ROOT / "src").rglob("*.py")
            )
        )
        armed = set().union(
            *(
                _named_calls(path, "FaultSpec")
                for path in (_REPO_ROOT / "tests").rglob("*.py")
            )
        )
        points = set(FAULT_POINTS)
        assert points - injected == set(), "no maybe_inject site under src/"
        assert points - armed == set(), "no FaultSpec under tests/"


class TestRetryPolicy:
    def test_recovers_after_transient_failures(self):
        calls = {"n": 0}
        recovered = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(max_attempts=3, backoff=0.0)
        out = policy.call(flaky, sleep=lambda s: None,
                          on_recover=recovered.append)
        assert out == "ok"
        assert calls["n"] == 3
        assert recovered == [2]

    def test_reraises_after_budget_exhausted(self):
        policy = RetryPolicy(max_attempts=2, backoff=0.0)
        with pytest.raises(OSError, match="persistent"):
            policy.call(
                lambda: (_ for _ in ()).throw(OSError("persistent")),
                sleep=lambda s: None,
            )

    def test_non_retryable_propagates_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValueError("not transient")

        policy = RetryPolicy(max_attempts=5, backoff=0.0)
        with pytest.raises(ValueError):
            policy.call(broken, sleep=lambda s: None)
        assert calls["n"] == 1

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(max_attempts=9, backoff=0.1, backoff_cap=0.35)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.35)
        assert policy.delay(8) == pytest.approx(0.35)

    def test_jitter_is_deterministic(self):
        policy = RetryPolicy(jitter=0.5)
        assert policy.delay(3) == policy.delay(3)


class TestReportAndLadder:
    def test_report_accumulates_and_serializes(self):
        report = ResilienceReport()
        assert not report.degraded
        report.record_retry("shard.read", 2)
        report.record_recovery("shard_read")
        report.record_degradation("counting-pool", "process", "serial", "x")
        report.record_quarantine(3, "checksum mismatch")
        snap = report.as_dict()
        assert snap["degraded"] is True
        assert snap["retries"] == {"shard.read": 2}
        assert snap["recoveries"] == {"shard_read": 1}
        assert snap["ladder"] == {"counting-pool": "serial"}
        assert snap["quarantines"] == [
            {"shard": 3, "reason": "checksum mismatch"}
        ]

    def test_merge_folds_child_into_parent(self):
        parent, child = ResilienceReport(), ResilienceReport()
        parent.record_retry("a")
        child.record_retry("a")
        child.record_degradation("kernel", "native", "numpy", "crash")
        parent.merge(child)
        assert parent.retries == {"a": 2}
        assert parent.ladder == {"kernel": "numpy"}

    def test_guarded_falls_back_and_records(self):
        report = ResilienceReport()
        sink = InMemoryEventSink()
        ladder = DegradationLadder(report, lambda: sink)
        seen = []

        out = ladder.guarded(
            "kernel", "native", "numpy",
            primary=lambda: (_ for _ in ()).throw(RuntimeError("segv")),
            fallback=lambda: 42,
            on_downgrade=seen.append,
        )
        assert out == 42
        assert len(seen) == 1
        assert report.ladder == {"kernel": "numpy"}
        [event] = sink.of_type("degradation_applied")
        assert event.payload["from"] == "native"
        assert event.payload["to"] == "numpy"

    def test_guarded_never_swallows_cancellation(self):
        ladder = DegradationLadder(ResilienceReport())

        def cancelled():
            raise SearchCancelled("stop")

        with pytest.raises(SearchCancelled):
            ladder.guarded("kernel", "a", "b", cancelled, lambda: 0)


# ======================================================================
# chaos matrix: fault point x recoverable / unrecoverable
# ======================================================================
class TestShardReadFaults:
    def test_transient_read_recovers_bit_identical(self, tmp_path, baseline):
        with fault_injection(FaultSpec("shard_read", times=1)):
            result = run_detect(
                mmap_dir=tmp_path / "store", shard_rows=SHARD_ROWS
            )
        assert signature(result) == baseline
        resilience = result.stats["resilience"]
        assert resilience["retries"].get("shard.read", 0) >= 1
        assert resilience["recoveries"].get("shard_read", 0) >= 1

    def test_persistent_read_without_codes_is_typed(self, cells, tmp_path):
        from repro.core.subspace import Subspace

        store = ShardedMaskStore.build(
            cells, tmp_path / "store", shard_rows=SHARD_ROWS
        )
        counter = ShardedCounter(store)  # no cells: nothing to rebuild from
        with fault_injection(FaultSpec("shard_read", times=None)):
            with pytest.raises(ResourceError, match="no grid codes"):
                counter.count_batch([Subspace((0,), (0,))])

    def test_persistent_read_after_rebuild_is_typed(self, cells, tmp_path):
        from repro.core.subspace import Subspace

        store = ShardedMaskStore.build(
            cells, tmp_path / "store", shard_rows=SHARD_ROWS
        )
        counter = ShardedCounter(store, cells=cells)
        with fault_injection(FaultSpec("shard_read", times=None)):
            with pytest.raises(ReproError, match="still unreadable"):
                counter.count_batch([Subspace((0,), (0,))])


class TestShardOpenFaults:
    def test_transient_open_rebuilds_and_matches(self, tmp_path, baseline):
        directory = tmp_path / "store"
        first = run_detect(mmap_dir=directory, shard_rows=SHARD_ROWS)
        assert signature(first) == baseline
        # Second run would reuse the store; the injected open failure
        # forces a silent rebuild from codes instead.
        with fault_injection(FaultSpec("shard_open", times=1)) as injector:
            second = run_detect(mmap_dir=directory, shard_rows=SHARD_ROWS)
            assert injector.fired() == 1
        assert signature(second) == baseline

    def test_persistent_open_is_typed(self, cells, tmp_path):
        directory = tmp_path / "store"
        ShardedMaskStore.build(cells, directory, shard_rows=SHARD_ROWS)
        with fault_injection(FaultSpec("shard_open", times=None)):
            with pytest.raises(ValidationError, match="unreadable"):
                ShardedMaskStore.open(directory)


class TestCheckpointLoadFaults:
    def test_transient_load_recovers_payload(self, tmp_path):
        report = ResilienceReport()
        store = CheckpointStore(tmp_path, report=report)
        store.save("search", {"state": [1, 2, 3]})
        with fault_injection(FaultSpec("checkpoint_load", times=1)):
            payload = store.load("search")
        assert payload == {"state": [1, 2, 3]}
        assert report.retries == {"checkpoint.load": 1}
        assert report.recoveries == {"checkpoint_load": 1}

    def test_persistent_load_is_typed(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("search", {"state": 1})
        store.save("search", {"state": 2})  # rotates a .prev fallback
        with fault_injection(FaultSpec("checkpoint_load", times=None)):
            with pytest.raises(CheckpointError, match="corrupt"):
                store.load("search")


class TestAtomicWriteFaults:
    def test_checkpoint_disk_full_survives_bit_identical(self, tmp_path):
        clean_ctl = RunController(checkpoint_dir=tmp_path / "clean")
        clean = run_detect(controller=clean_ctl)
        faulty_ctl = RunController(checkpoint_dir=tmp_path / "chaos")
        with fault_injection(FaultSpec("atomic_write", times=1)):
            result = run_detect(controller=faulty_ctl)
        assert signature(result) == signature(clean)
        resilience = result.stats["resilience"]
        assert resilience["recoveries"].get("atomic_write", 0) >= 1

    def test_persistent_disk_full_on_store_build_is_typed(
        self, cells, tmp_path
    ):
        with fault_injection(FaultSpec("atomic_write", times=None)):
            with pytest.raises(ResourceError, match="disk full"):
                ShardedMaskStore.build(
                    cells, tmp_path / "store", shard_rows=SHARD_ROWS
                )


class TestPackedAllocFaults:
    def test_memory_error_spills_to_sharded(self, tmp_path, baseline):
        sink = InMemoryEventSink()
        with fault_injection(FaultSpec("packed_alloc", times=1)):
            result = run_detect(spill_dir=tmp_path / "spill", event_sink=sink)
        assert signature(result) == baseline
        resilience = result.stats["resilience"]
        assert resilience["ladder"] == {"mask-storage": "sharded"}
        [step] = resilience["degradations"]
        assert step["from"] == "in-memory"
        assert step["to"] == "sharded"
        assert "MemoryError" in step["reason"]
        assert resilience["recoveries"].get("packed_alloc", 0) >= 1
        assert (tmp_path / "spill" / "manifest.json").exists()
        assert len(sink.of_type("degradation_applied")) == 1
        assert len(sink.of_type("fault_recovered")) == 1

    def test_memory_error_spills_packed_counter_too(self, tmp_path, baseline):
        with fault_injection(FaultSpec("packed_alloc", times=1)):
            result = run_detect(packed=True, spill_dir=tmp_path / "spill")
        assert signature(result) == baseline
        assert result.stats["resilience"]["degraded"] is True

    def test_unrecoverable_oom_is_typed(self, tmp_path):
        with fault_injection(FaultSpec("packed_alloc", times=None)):
            with pytest.raises(ResourceError, match="out of memory"):
                run_detect(spill_dir=tmp_path / "spill")

    def test_spill_without_spill_dir_uses_tempdir(self, baseline):
        with fault_injection(FaultSpec("packed_alloc", times=1)):
            result = run_detect()
        assert signature(result) == baseline
        assert result.stats["resilience"]["degraded"] is True


class TestShardQuarantine:
    """Satellite: one corrupt shard is rebuilt, exactly, bit-identically."""

    def test_corrupt_shard_is_quarantined_and_rebuilt(
        self, tmp_path, baseline
    ):
        directory = tmp_path / "store"
        first = run_detect(mmap_dir=directory, shard_rows=SHARD_ROWS)
        assert signature(first) == baseline
        shard_path = directory / "shard_00001.bin"
        original = shard_path.read_bytes()
        corrupted = bytes(b ^ 0xFF for b in original[:64]) + original[64:]
        shard_path.write_bytes(corrupted)

        second = run_detect(
            mmap_dir=directory, shard_rows=SHARD_ROWS, verify_shards=True
        )
        assert signature(second) == baseline
        resilience = second.stats["resilience"]
        assert len(resilience["quarantines"]) == 1
        assert resilience["quarantines"][0]["shard"] == 1
        assert "checksum mismatch" in resilience["quarantines"][0]["reason"]
        # The rebuild restored the exact build-time bytes on disk.
        assert shard_path.read_bytes() == original

    def test_rebuild_refuses_mismatched_codes(self, cells, tmp_path):
        store = ShardedMaskStore.build(
            cells, tmp_path / "store", shard_rows=SHARD_ROWS
        )
        other = np.array(cells.codes)
        other[0, 0] = (other[0, 0] + 1) % N_RANGES
        with pytest.raises(ValidationError, match="does not reproduce"):
            store.rebuild_shard(0, other)


class TestPoolChaosMatrix:
    """Both pool types under injected faults: counts stay bit-identical."""

    def test_sharded_pool_survives_shard_read_faults(
        self, cells, cubes, serial_counts, tmp_path
    ):
        store = ShardedMaskStore.build(
            cells, tmp_path / "store", shard_rows=SHARD_ROWS
        )
        backend = CountingBackend(
            kind="process", n_workers=2, chunk_size=8, retry_backoff=0.01
        )
        counter = ShardedCounter(store, cells=cells, backend=backend)
        try:
            # The parent has not read a shard yet, so every forked
            # worker inherits a zero counter and fires on its first
            # read; the pool retries and the parent-side serial path
            # reads through the resilient reader.
            with fault_injection(FaultSpec("shard_read", times=1)):
                counts = counter.count_batch(cubes).tolist()
        finally:
            counter.close()
        assert counts == serial_counts

    def test_counting_pool_survives_alloc_fault_via_spill(
        self, tmp_path, baseline
    ):
        backend = CountingBackend(
            kind="process", n_workers=2, chunk_size=8, retry_backoff=0.01
        )
        with fault_injection(FaultSpec("packed_alloc", times=1)):
            result = run_detect(
                spill_dir=tmp_path / "spill", counting=backend
            )
        assert signature(result) == baseline
        assert result.stats["resilience"]["ladder"] == {
            "mask-storage": "sharded"
        }


class TestStatsPlumbing:
    def test_clean_run_reports_not_degraded(self, baseline):
        result = run_detect()
        assert signature(result) == baseline
        resilience = result.stats["resilience"]
        assert resilience["degraded"] is False
        assert resilience["retries"] == {}
        assert resilience["degradations"] == []

    def test_spill_dir_with_mmap_dir_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="spill_dir"):
            SubspaceOutlierDetector(
                mmap_dir=tmp_path / "a", spill_dir=tmp_path / "b"
            )
