"""Fault-tolerant process-pool backends for batched cube counting.

Two pools share one resilient dispatcher (:class:`_ResilientPool`):

:class:`CountingPool`
    The shared-memory pool.  The counter's packed mask stack is
    copied once into POSIX shared memory; each worker attaches a
    zero-copy numpy view over it at initialization and then runs the
    *same* batch kernel the serial path uses.  The counter hands the
    pool the name of the kernel it chose
    (:func:`repro.grid.backends.select_kernel`: the compiled C kernel,
    :func:`repro.grid.native.native_batch_counts`, when it builds, the
    numpy reference :func:`repro.grid.kernels.batch_counts` otherwise),
    and every worker resolves that name from the ``KERNELS`` table.  Task
    payloads are only the small ``(chunk_id, attempt, dims, ranges)``
    index arrays.

:class:`ShardedCountingPool`
    The out-of-core pool for :class:`~repro.grid.sharded.ShardedCounter`.
    There is **no shared-memory copy of anything**: each worker opens
    the :class:`~repro.grid.sharded.ShardedMaskStore` itself and counts
    whole shards through its own read-only mmap view (the OS page cache
    is the only sharing).  Task payloads are ``(chunk_id, attempt,
    shard_id, dims, ranges)``; the in-parent serial recovery path opens
    the same mmap view, so recovered shards are bit-identical.

Chunk results are reassembled in submission order, so results are
bit-identical to the serial backend for any worker count — including
when chunks are retried, the pool is rebuilt, or individual chunks
degrade to the in-process kernel.

Fault tolerance (the shared dispatcher in :meth:`_ResilientPool.map_chunks`):

* per-chunk dispatch with a configurable timeout
  (``CountingBackend.timeout``; disabled by default),
* bounded retry with exponential backoff (``max_retries`` /
  ``retry_backoff``),
* automatic pool rebuild on ``BrokenProcessPool`` or a wedged worker,
  bounded by ``max_rebuilds``,
* graceful degradation: a chunk that exhausts its retries — or every
  chunk, once the pool is abandoned — is recovered in-process by the
  same kernel, which is bit-identical by construction.

Every fault is recorded once, through the counter's
:class:`~repro.resilience.ladder.DegradationLadder`, into its
:class:`~repro.resilience.ladder.ResilienceReport` (retry sites
``pool.chunk`` / ``pool.rebuild``; recovery points ``pool_timeout``,
``pool_serial_fallback`` and ``pool_abandoned``; the ``counting-pool``
ladder step).  Successful chunks carry their wall latency back with
their result, so the counter keeps the throughput side of
``backend_health`` itself.  Deterministic chaos goes
through the named fault points of :mod:`repro.resilience.faults`: both
initializers call the ``worker_init`` point keyed on the pool
generation, and both task functions call ``worker_stall`` then
``worker_kill`` keyed on the run-wide chunk id and dispatch attempt.
Workers see the specs a test armed because they are forked inside its
:func:`~repro.resilience.faults.fault_injection` block.

This module is imported lazily by ``CubeCounter._ensure_pool``; if
pool or shared-memory creation fails (restricted containers, missing
/dev/shm), the counter logs a warning and counts in-process on its
backend's ladder fallback.
"""

from __future__ import annotations

import logging
import time
import weakref
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from multiprocessing import shared_memory

import numpy as np

from ..core.params import CountingBackend
from ..engine.events import emit_event
from ..exceptions import SearchCancelled
from ..resilience.faults import maybe_inject
from ..resilience.ladder import DegradationLadder, ResilienceReport
from .backends import resolve_kernel

__all__ = ["CountingPool", "ShardedCountingPool"]

logger = logging.getLogger(__name__)


def _reclaim_pool_resources(resources: dict, label: str) -> None:
    """Last-resort reclamation for a pool whose owner forgot ``close()``.

    Registered through :func:`weakref.finalize` (which also fires at
    interpreter exit via ``atexit``), so worker processes — and, for the
    shared-memory pool, the POSIX segment — are reclaimed even when the
    owning pool is simply dropped.  Holds no reference to the pool
    itself — only to this shared resource dict — so it never keeps the
    pool alive.
    """
    executor = resources.pop("executor", None)
    shm = resources.pop("shm", None)
    resources.pop("local", None)
    if executor is None and shm is None:
        return
    logger.warning(
        "%s was never close()d; reclaiming its worker pool%s — call "
        "close() (or use the detector facade, which closes it for you) "
        "to release these promptly",
        label,
        "" if shm is None else " and shared-memory segment",
    )
    if executor is not None:
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass
    if shm is not None:
        try:
            shm.close()
            shm.unlink()
        except Exception:  # pragma: no cover - double-unlink races
            pass


# Worker-process globals, populated once by the pool initializers.
_WORKER_STACK: np.ndarray | None = None
_WORKER_SHM: shared_memory.SharedMemory | None = None
_WORKER_KERNEL = None
_WORKER_STORE = None


def _init_worker(
    shm_name: str,
    shape: tuple,
    dtype_str: str,
    kernel_name: str,
    generation: int,
) -> None:
    global _WORKER_STACK, _WORKER_SHM, _WORKER_KERNEL
    maybe_inject("worker_init", key=generation)
    _WORKER_SHM = shared_memory.SharedMemory(name=shm_name)
    _WORKER_STACK = np.ndarray(
        shape, dtype=np.dtype(dtype_str), buffer=_WORKER_SHM.buf
    )
    # Resolved per worker (verification is cached per process); the
    # native kernel's compiled library is content-addressed on disk, so
    # sibling workers share one build.
    _WORKER_KERNEL = resolve_kernel(kernel_name)


def _count_chunk(task: tuple) -> tuple:
    """One shm task: counts + kernel stats for a (dims, ranges) chunk."""
    chunk_id, attempt, dims_arr, rng_arr = task
    maybe_inject("worker_stall", key=chunk_id, attempt=attempt)
    maybe_inject("worker_kill", key=chunk_id, attempt=attempt)
    counts, stats = _WORKER_KERNEL(_WORKER_STACK, dims_arr, rng_arr)
    return counts, stats["words_and"], stats["prefix_reuse"]


def _init_sharded_worker(
    directory: str, kernel_name: str, generation: int
) -> None:
    global _WORKER_STORE, _WORKER_KERNEL
    maybe_inject("worker_init", key=generation)
    from .sharded import ShardedMaskStore

    # Each worker validates and opens the store itself; shard views are
    # created per task, so a worker's address-space footprint stays one
    # shard regardless of how many it processes.
    # (.open here is the store classmethod, read-only by construction,
    # not a file write.)
    _WORKER_STORE = ShardedMaskStore.open(directory)  # repro-lint: disable=RPL003
    _WORKER_KERNEL = resolve_kernel(kernel_name)


def _count_shard(task: tuple) -> tuple:
    """One out-of-core task: counts for a whole shard's cube batch."""
    chunk_id, attempt, shard_id, dims_arr, rng_arr = task
    maybe_inject("worker_stall", key=chunk_id, attempt=attempt)
    maybe_inject("worker_kill", key=chunk_id, attempt=attempt)
    stack = _WORKER_STORE.shard_words(shard_id)
    counts, stats = _WORKER_KERNEL(stack, dims_arr, rng_arr)
    return counts, stats["words_and"], stats["prefix_reuse"]


class _ResilientPool:
    """Shared dispatcher: bounded retry, rebuild, serial recovery.

    Subclasses provide the worker entry point (:attr:`_task_fn` with
    initializer/initargs via :meth:`_initializer` / :meth:`_initargs`),
    the in-parent kernel call (:meth:`_count_serial`) and resource
    release (:meth:`_release_resources`); the dispatch policy — and
    therefore the bit-identity guarantees — is identical for every
    pool.

    *ladder* is the owning counter's
    :class:`~repro.resilience.ladder.DegradationLadder`; every fault
    the pool survives is recorded through it.  A pool built without
    one records into a private report (``pool.ladder.report``).
    """

    #: Module-level worker function receiving ``(chunk_id, attempt,
    #: *chunk)`` (subclass attribute; must be picklable).
    _task_fn = None

    def __init__(
        self,
        backend: CountingBackend,
        ladder: DegradationLadder | None,
    ):
        self.ladder = (
            ladder if ladder is not None
            else DegradationLadder(ResilienceReport())
        )
        self._timeout = backend.timeout
        # The shared retry policy carries the backend's historical
        # knobs: max_attempts = max_retries + 1, same exponential
        # backoff capped at 1s — dispatch behaviour is bit-for-bit what
        # the old inline loop did.
        self._retry = backend.retry_policy()
        self._kind = backend.kind
        self._max_rebuilds = backend.max_rebuilds
        self._n_workers = backend.resolved_workers()
        self._generation = 0
        self._next_chunk_id = 0
        self._closed = False
        self._executor: ProcessPoolExecutor | None = None
        # Shared with the leak finalizer: whatever is in here when the
        # pool is garbage-collected (or the interpreter exits) without
        # close() gets reclaimed with a warning.
        self._resources: dict = {"executor": None}
        self._finalizer = weakref.finalize(
            self, _reclaim_pool_resources, self._resources,
            type(self).__name__,
        )

    # -- subclass hooks -------------------------------------------------
    def _initializer(self):
        raise NotImplementedError

    def _initargs(self) -> tuple:
        """Initializer arguments; the base appends the pool generation."""
        raise NotImplementedError

    def _count_serial(self, chunk: tuple) -> tuple:
        """The in-parent kernel call for one chunk: ``(counts, stats)``."""
        raise NotImplementedError

    def _release_resources(self) -> None:
        """Free subclass-owned resources (shm, ...); executor is handled."""

    # ------------------------------------------------------------------
    def _start_executor(self) -> None:
        """Spawn the initial executor; release resources on failure."""
        try:
            self._executor = self._spawn_executor()
            self._resources["executor"] = self._executor
        except Exception:
            self._release_resources()
            self._finalizer.detach()
            raise

    def _spawn_executor(self) -> ProcessPoolExecutor:
        executor = ProcessPoolExecutor(
            max_workers=self._n_workers,
            initializer=self._initializer(),
            initargs=(*self._initargs(), self._generation),
        )
        self._generation += 1
        return executor

    @property
    def is_degraded(self) -> bool:
        """True once the pool has been abandoned (serial-only from here)."""
        return self._executor is None

    # ------------------------------------------------------------------
    def map_chunks(
        self, chunks: list[tuple], cancel_token=None, event_sink=None
    ) -> list[tuple]:
        """Evaluate chunks resiliently, results in submission order.

        Each result is ``(counts, words_and, prefix_reuse, latency)``:
        *latency* is the chunk's wall seconds from submission to result
        on the pool, or ``None`` for a chunk recovered by the serial
        kernel.

        Never fails because of worker trouble: chunks that cannot be
        completed on the pool within the retry budget are recovered by
        the in-process serial kernel.  Genuine task errors (e.g. a
        malformed chunk) still surface — the serial recovery re-raises
        them in the parent.

        *cancel_token* makes long dispatches interruptible: the token
        is checked between dispatch waves (and before the serial
        recovery sweep), raising
        :class:`~repro.exceptions.SearchCancelled` once it flips.  The
        search discards the partial batch, so cancellation never
        affects returned counts.

        *event_sink* receives one ``chunk_retry`` event per recovery
        action (pool retry or serial fallback) so run traces show
        worker trouble as it happens, not only in the final report.
        """
        n = len(chunks)
        base_id = self._next_chunk_id
        self._next_chunk_id += n
        results: list = [None] * n
        attempts = [0] * n
        pending = list(range(n))
        wave = 0
        task_fn = type(self)._task_fn
        while pending:
            if cancel_token is not None and cancel_token.cancelled:
                raise SearchCancelled(
                    "parallel counting interrupted between dispatch waves"
                )
            if self._executor is None:
                for idx in pending:
                    results[idx] = self._recover(base_id + idx, chunks[idx])
                break
            if wave:
                time.sleep(self._retry.delay(wave))
            wave += 1
            broken = False
            submitted: list[tuple] = []
            unsubmitted: list[int] = []
            for pos, idx in enumerate(pending):
                attempts[idx] += 1
                task = (base_id + idx, attempts[idx], *chunks[idx])
                try:
                    future = self._executor.submit(task_fn, task)
                except Exception:
                    # Submitting to a broken/shut-down executor; the
                    # chunk was never attempted.
                    attempts[idx] -= 1
                    broken = True
                    unsubmitted = pending[pos:]
                    break
                submitted.append((idx, future, time.perf_counter()))
            failed: list[int] = []
            for idx, future, t_submit in submitted:
                try:
                    counts, words, reuse = future.result(timeout=self._timeout)
                except FutureTimeoutError:
                    # A wedged worker cannot be reclaimed: record the
                    # timeout and force a rebuild below.
                    self.ladder.recovered("pool_timeout", chunk_id=base_id + idx)
                    broken = True
                    failed.append(idx)
                except BrokenExecutor:
                    broken = True
                    failed.append(idx)
                except Exception:
                    failed.append(idx)
                else:
                    results[idx] = (
                        counts, words, reuse, time.perf_counter() - t_submit
                    )
            pending = []
            for idx in failed:
                if attempts[idx] >= self._retry.max_attempts:
                    emit_event(
                        event_sink, "chunk_retry",
                        chunk_id=base_id + idx, attempt=attempts[idx],
                        action="serial_fallback",
                    )
                    results[idx] = self._recover(base_id + idx, chunks[idx])
                else:
                    self.ladder.report.record_retry("pool.chunk")
                    emit_event(
                        event_sink, "chunk_retry",
                        chunk_id=base_id + idx, attempt=attempts[idx],
                        action="retry",
                    )
                    pending.append(idx)
            pending.extend(unsubmitted)
            if broken:
                self._rebuild_or_degrade()
        return results

    def _recover(self, chunk_id: int, chunk: tuple) -> tuple:
        """Count one chunk in-parent (bit-identical) and record it."""
        counts, stats = self._count_serial(chunk)
        self.ladder.recovered("pool_serial_fallback", chunk_id=chunk_id)
        return counts, stats["words_and"], stats["prefix_reuse"], None

    def _abandon(self, reason: str) -> None:
        """Step the ``counting-pool`` chain down to ``serial`` for good."""
        self.ladder.apply("counting-pool", self._kind, "serial", reason)
        self.ladder.recovered("pool_abandoned")

    def _rebuild_or_degrade(self) -> None:
        """Respawn the broken executor, or abandon the pool at the cap."""
        old, self._executor = self._executor, None
        self._resources["executor"] = None
        if old is not None:
            try:
                old.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - interpreter races
                pass
        # The report is the counter's, so the cap spans every pool the
        # counter builds (append_rows releases one; the next is lazy).
        rebuilds = self.ladder.report.retries.get("pool.rebuild", 0)
        if rebuilds >= self._max_rebuilds:
            self._abandon(f"max_rebuilds={self._max_rebuilds} exceeded")
            logger.warning(
                "counting pool exceeded max_rebuilds=%d; degrading to the "
                "serial kernel for the rest of the run",
                self._max_rebuilds,
            )
            return
        try:
            self._executor = self._spawn_executor()
            self._resources["executor"] = self._executor
        except Exception as exc:  # pragma: no cover - environment-dependent
            self._abandon(f"pool rebuild failed: {exc}")
            logger.warning(
                "counting pool rebuild failed (%s); degrading to serial", exc
            )
            return
        self.ladder.report.record_retry("pool.rebuild")
        logger.warning(
            "counting pool broke; rebuilt worker pool (rebuild %d of %d)",
            rebuilds + 1,
            self._max_rebuilds,
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the workers down and free the pool's resources.

        Idempotent, and safe on a broken pool: a dead executor is shut
        down without waiting (``wait=True`` on a broken pool can hang on
        a wedged worker), and resources are released exactly once.
        Forgetting to call this is survivable — a
        :func:`weakref.finalize` hook reclaims everything at garbage
        collection or interpreter exit, logging a warning — but prompt
        release needs an explicit close.
        """
        if self._closed:
            return
        self._closed = True
        executor, self._executor = self._executor, None
        self._resources.pop("executor", None)
        if executor is not None:
            broken = bool(getattr(executor, "_broken", False))
            try:
                executor.shutdown(wait=not broken, cancel_futures=True)
            except Exception:  # pragma: no cover - interpreter shutdown
                pass
        self._release_resources()
        self._finalizer.detach()


class CountingPool(_ResilientPool):
    """A resilient worker pool sharing one counter's mask stack via shm.

    Parameters
    ----------
    stack:
        The counter's ``(d, φ, W)`` uint64 packed mask stack; copied
        once into shared memory.
    backend:
        The :class:`~repro.core.params.CountingBackend` whose timeout /
        retry / rebuild policy this pool enforces.
    ladder:
        The counter's :class:`~repro.resilience.ladder.DegradationLadder`;
        every fault the pool survives is recorded through it.
    kernel:
        Name of the kernel the owning counter chose (see
        :func:`repro.grid.backends.select_kernel`); every worker — and
        the in-process serial recovery path — runs it, so chunk results
        are bit-identical wherever a chunk ends up executing.
    """

    _task_fn = staticmethod(_count_chunk)

    def __init__(
        self,
        stack: np.ndarray,
        backend: CountingBackend,
        ladder: DegradationLadder | None = None,
        kernel: str = "numpy",
    ):
        super().__init__(backend, ladder)
        stack = np.ascontiguousarray(stack)
        self._kernel_name = kernel
        self._kernel = resolve_kernel(kernel)
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, stack.nbytes)
        )
        # Parent-side view over the same shared buffer: the serial
        # fallback runs the identical kernel on identical bytes.
        self._local = np.ndarray(stack.shape, dtype=stack.dtype, buffer=self._shm.buf)
        self._local[...] = stack
        self._shape = stack.shape
        self._dtype = stack.dtype
        self._resources["shm"] = self._shm
        self._resources["local"] = self._local
        self._start_executor()

    def _initializer(self):
        return _init_worker

    def _initargs(self) -> tuple:
        return (self._shm.name, self._shape, self._dtype.str, self._kernel_name)

    def _count_serial(self, chunk: tuple) -> tuple:
        """The in-process kernel over the parent's shm view."""
        dims_arr, rng_arr = chunk
        return self._kernel(self._local, dims_arr, rng_arr)

    def _release_resources(self) -> None:
        # Drop the parent-side view first: SharedMemory.close() refuses
        # (BufferError) while exported memoryviews are alive.
        self._local = None
        self._resources.pop("local", None)
        self._resources.pop("shm", None)
        try:
            self._shm.close()
            self._shm.unlink()
        except Exception:  # pragma: no cover - double-unlink races
            pass


class ShardedCountingPool(_ResilientPool):
    """A resilient worker pool counting whole shards from an mmap store.

    Nothing is copied anywhere: every worker opens the
    :class:`~repro.grid.sharded.ShardedMaskStore` at initialization and
    maps the shard a task names read-only, so N workers share the
    on-disk pages through the OS cache.  One task is one (shard, cube
    batch); the parent merges shard counts by summation, which is
    bit-identical to the serial per-shard sweep by additivity.

    Parameters are as for :class:`CountingPool`, with the store taking
    the place of the shm stack.
    """

    _task_fn = staticmethod(_count_shard)

    def __init__(
        self,
        store,
        backend: CountingBackend,
        ladder: DegradationLadder | None = None,
        kernel: str = "numpy",
        *,
        shard_reader,
    ):
        super().__init__(backend, ladder)
        self._store = store
        # In-parent recovery reads shards through the counter's
        # resilient reader, so a corrupt shard hit during serial
        # recovery still gets quarantined and rebuilt instead of
        # surfacing a raw OSError.
        self._shard_reader = shard_reader
        self._kernel_name = kernel
        self._kernel = resolve_kernel(kernel)
        self._start_executor()

    def _initializer(self):
        return _init_sharded_worker

    def _initargs(self) -> tuple:
        return (str(self._store.directory), self._kernel_name)

    def _count_serial(self, chunk: tuple) -> tuple:
        """The in-parent kernel over the shard's own mmap view."""
        shard_id, dims_arr, rng_arr = chunk
        return self._kernel(self._shard_reader(shard_id), dims_arr, rng_arr)
