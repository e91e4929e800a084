"""Vectorized cube counting: ``n(D)`` for arbitrary subspace cubes.

Every algorithm in the paper is ultimately a search over cubes ranked by
the sparsity coefficient, whose only data-dependent input is the number
of points ``n(D)`` inside cube ``D``.  This module makes that count
cheap:

* one bit-packed *membership mask* per ``(dimension, range)`` pair is
  precomputed at construction (``d × φ`` rows of N bits, each padded to
  whole uint64 words and stacked into a single ``(d, φ, W)`` array so
  whole batches can be gathered with one fancy index — the layout of
  :mod:`repro.grid.kernels`, 8x smaller than one byte per point);
* a cube count is the popcount of the AND of its masks;
* every count runs through one private core that validates the whole
  call first and sends each same-k group of ``(n, k)`` cube arrays,
  duplicates included, to the batch kernel — under a ``process``
  :class:`~repro.core.params.CountingBackend`, chunked onto a worker
  pool that reads the masks from shared memory;
* the three public entry points are adapters over that core:
  :meth:`count` (one cube), :meth:`count_batch` (a batch of
  :class:`Subspace` objects, grouped by k into one call) and
  :meth:`count_cubes` (same-k ``(n, k)`` arrays — the path of the
  evolutionary search and the level-batched brute force).  Nothing is
  memoised across calls: a repeated cube is counted again.

Where counting runs is the placement of the counter's
:class:`~repro.core.params.CountingBackend` (one of
:data:`~repro.grid.backends.PLACEMENTS`: in-process or pool).  The
kernel is not the caller's choice: on its first batch the counter takes
the fastest kernel verified in this process from
:func:`~repro.grid.backends.select_kernel` — the compiled C kernel
(:mod:`repro.grid.native`) when it builds, the numpy reference
(:mod:`repro.grid.kernels`) otherwise — and reports which in
:meth:`CubeCounter.kernel_info` and ``cache_stats()``.  Every kernel is
proven bit-identical to the reference before it serves counts.
"""

from __future__ import annotations

import logging
import time
from bisect import bisect_left
from contextlib import contextmanager
from itertools import chain

import numpy as np

from ..core.params import CountingBackend
from ..core.subspace import Subspace
from ..exceptions import SearchCancelled, ValidationError
from ..resilience.ladder import DegradationLadder, ResilienceReport
from .backends import resolve_kernel, select_kernel
from .cells import CellAssignment, check_code_block
from .kernels import (
    batch_counts,
    check_cube_arrays,
    empty_cube_row,
    pack_codes_block,
    packed_row_bytes,
)

__all__ = ["CubeCounter", "PackedCubeCounter", "batch_counts"]

logger = logging.getLogger(__name__)

#: Serial batches are split so one chunk's AND accumulator stays below
#: this many uint64 words — bounds peak memory without changing any
#: count.
_MAX_ACC_WORDS = 1 << 26

#: Upper edges (seconds) of the pool's per-chunk latency histogram
#: buckets; latencies above the last edge land in the overflow bucket.
LATENCY_BUCKETS = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0)

#: The tier ``kernel_info()`` reports for each kernel a counter serves.
_KERNEL_TIERS = {"native": "c", "numpy": "numpy"}


def _require_subspace(obj) -> None:
    if not isinstance(obj, Subspace):
        raise ValidationError(f"expected a Subspace, got {type(obj).__name__}")


def _packed_cube(stack8: np.ndarray, subspace: Subspace, n_points: int) -> np.ndarray:
    """AND of the cube's rows of a ``(d, φ, W8)`` stack over *n_points* rows.

    An owned array (all-ones over the *n_points* rows for the empty
    cube); the in-memory counter passes its whole stack, the sharded
    counter one shard's.
    """
    if not subspace.dims:
        return empty_cube_row(n_points, stack8.shape[2])
    out = np.array(stack8[subspace.dims[0], subspace.ranges[0]])
    for dim, rng in list(subspace)[1:]:
        np.bitwise_and(out, stack8[dim, rng], out=out)
    return out


class CubeCounter:
    """Counts data points inside subspace cubes of a fixed grid.

    Parameters
    ----------
    cells:
        The grid assignment produced by a discretizer.
    backend:
        A :class:`~repro.core.params.CountingBackend` choosing how
        counting executes (serial by default).  The process
        backend spins its worker pool up lazily on the first large
        batch; call :meth:`close` to release it.
    """

    def __init__(
        self,
        cells: CellAssignment,
        backend: CountingBackend | None = None,
    ):
        if not isinstance(cells, CellAssignment):
            raise ValidationError(
                f"cells must be a CellAssignment, got {type(cells).__name__}"
            )
        self.cells = cells
        self._init_runtime(backend)
        self._build_masks()

    def _init_runtime(self, backend: CountingBackend | None) -> None:
        """Backend/telemetry state shared by every counter flavour.

        Factored out of ``__init__`` so counters that do not hold their
        masks in memory (:class:`~repro.grid.sharded.ShardedCounter`)
        can reuse it without a :class:`CellAssignment`-driven mask
        build.
        """
        if backend is not None and not isinstance(backend, CountingBackend):
            raise ValidationError(
                f"backend must be a CountingBackend, got {type(backend).__name__}"
            )
        self.backend = backend or CountingBackend()
        # The kernel is chosen lazily on the first batch, since choosing
        # it may compile the C kernel.  The reason is set when the C
        # kernel was refused or failed.
        self._kernel = None
        self._kernel_name: str | None = None
        self._kernel_reason: str | None = None
        self.n_count_calls = 0
        self.n_appends = 0
        self.n_rows_appended = 0
        self.n_batch_calls = 0
        self.n_batch_cubes = 0
        self.n_words_and = 0
        self.n_prefix_reuse = 0
        self.n_parallel_chunks = 0
        self.batch_seconds = 0.0
        # Latency histogram of the chunks the pool completed (serially
        # recovered chunks report no latency); chunks_parallel in
        # backend_health() is its total.
        self._latency_buckets = [0] * (len(LATENCY_BUCKETS) + 1)
        self.chunk_seconds_total = 0.0
        self.chunk_seconds_max = 0.0
        self._pool = None
        self._pool_failed = False
        self.cancel_token = None
        self.event_sink = None
        # Run-wide resilience bookkeeping: every retry, recovery and
        # downgrade — pool faults included — lands here and surfaces in
        # stats["resilience"] (and, derived, stats["backend_health"]).
        # The sink provider is a lambda because the event sink is bound
        # per engine run (runtime_binding), after construction.
        self.resilience = ResilienceReport()
        self._ladder = DegradationLadder(
            self.resilience, lambda: self.event_sink
        )

    def _build_masks(self) -> None:
        """Precompute the packed per-(dimension, range) membership masks.

        ``self._stack8`` is the ``(d, φ, W8)`` byte stack the
        single-cube paths read (``unpackbits``); ``self._stack`` views
        the same memory as uint64 words for the batch kernel.  Word
        byte-order is irrelevant to AND and popcount, so the
        reinterpret cast is safe.
        """
        self._set_stack(pack_codes_block(self.cells.codes, self.cells.n_ranges))

    def _set_stack(self, stack8: np.ndarray) -> None:
        self._stack8 = stack8
        self._stack = stack8.view(np.uint64)

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        """Total number of data points N."""
        return self.cells.n_points

    @property
    def n_dims(self) -> int:
        """Total data dimensionality d."""
        return self.cells.n_dims

    @property
    def n_ranges(self) -> int:
        """Grid resolution φ."""
        return self.cells.n_ranges

    # ------------------------------------------------------------------
    def mask(self, subspace: Subspace) -> np.ndarray:
        """Boolean membership mask of the cube (freshly allocated)."""
        self._check_subspace(subspace)
        packed = _packed_cube(self._stack8, subspace, self.n_points)
        return np.unpackbits(packed, count=self.n_points).view(bool)

    def count(self, subspace: Subspace) -> int:
        """``n(D)``: number of points inside the cube *subspace*.

        A one-row call of the counting core.
        """
        return int(self._count([self._subspace_arrays(subspace)])[0][0])

    def count_batch(self, subspaces) -> np.ndarray:
        """``n(D)`` for a whole batch of cubes in one pass.

        The cubes are grouped by dimensionality (ascending k) into one
        call of the counting core, whose batch kernel shares
        intermediate AND results across cubes with a common prefix.
        Under a ``process`` backend, large groups are split into
        deterministic chunks and evaluated on the worker pool.

        Returns an ``int64`` array aligned with the input order.
        Results are identical to calling :meth:`count` per cube.
        """
        subspaces = list(subspaces)
        by_k: dict[int, list[int]] = {}
        for i, subspace in enumerate(subspaces):
            _require_subspace(subspace)
            by_k.setdefault(len(subspace.dims), []).append(i)
        rows = [by_k[k] for k in sorted(by_k)]
        groups = [self._group_arrays([subspaces[i] for i in idxs]) for idxs in rows]
        out = np.empty(len(subspaces), dtype=np.int64)
        for idxs, counts in zip(rows, self._count(groups), strict=True):
            out[idxs] = counts
        return out

    def count_cubes(self, dims, ranges) -> np.ndarray:
        """``n(D)`` for same-k cubes given as two ``(n, k)`` arrays.

        Row *i* is the cube with dimensions ``dims[i]`` (strictly
        ascending) and grid ranges ``ranges[i]``.  The array twin of
        :meth:`count_batch` for one dimensionality, with no
        :class:`Subspace` built: the evolutionary search scores its gene
        matrices through it (one call per k) and the level-batched brute
        force its levels.  A duplicate row is counted again.

        Returns an ``int64`` array aligned with the rows.
        """
        return self._count([self._checked_group(dims, ranges)])[0]

    def _count(self, groups) -> list[np.ndarray]:
        """The one counting path: counts of validated same-k groups.

        Each group is a ``(dims, ranges)`` pair of ``(n, k)`` arrays.
        The adapters validate their whole call before calling in, so a
        rejected call leaves the counter as it was.  One call advances
        ``batch_calls`` once and ``count_calls`` and ``batch_cubes`` by
        its cubes, and adds its wall time to ``batch_seconds``.  Returns
        one ``int64`` array per group.
        """
        t0 = time.perf_counter()
        n_cubes = sum(len(dims) for dims, _ in groups)
        self.n_batch_calls += 1
        self.n_batch_cubes += n_cubes
        self.n_count_calls += n_cubes
        out = []
        for dims, ranges in groups:
            if len(dims) == 0 or dims.shape[1] == 0:
                out.append(np.full(len(dims), self.n_points, dtype=np.int64))
            else:
                out.append(self._count_group(dims, ranges))
        self._batch_merged()
        self.batch_seconds += time.perf_counter() - t0
        return out

    def _checked_group(self, dims, ranges) -> tuple[np.ndarray, np.ndarray]:
        """One same-k group as validated ``intp`` ``(n, k)`` arrays."""
        dims_arr, rng_arr = check_cube_arrays(
            dims, ranges, self.n_dims, self.n_ranges
        )
        if dims_arr.size and (dims_arr[:, 1:] <= dims_arr[:, :-1]).any():
            raise ValidationError("cube dims must be strictly ascending")
        return (
            dims_arr.astype(np.intp, copy=False), rng_arr.astype(np.intp, copy=False)
        )

    def _batch_merged(self) -> None:
        """Hook: every group of one counting call has been merged."""

    # ------------------------------------------------------------------
    def append_rows(self, codes) -> int:
        """Append already-discretized rows to the counted population.

        *codes* is an ``(m, d)`` integer code block (or a
        :class:`~repro.grid.cells.CellAssignment`) produced by the
        **current** grid's ``transform``.  Only the new rows are packed
        into mask columns, and no cube is counted.  The result is
        bit-identical to building a fresh counter over the concatenated
        codes (differential-tested): mask stacks match byte for byte.

        Any worker pool is released first (it holds the old masks in
        shared memory) and is rebuilt lazily on the next large batch.
        Returns the number of rows appended.
        """
        block = self._validate_append_codes(codes)
        m = block.shape[0]
        if m == 0:
            return 0
        self.close()
        self._append_masks(block)
        self.cells = CellAssignment(
            codes=np.concatenate([self.cells.codes, block], axis=0),
            n_ranges=self.cells.n_ranges,
            feature_names=self.cells.feature_names,
            boundaries=self.cells.boundaries,
        )
        self.n_appends += 1
        self.n_rows_appended += m
        return m

    def _validate_append_codes(self, codes) -> np.ndarray:
        """Normalize appended codes to a contiguous in-range int16 block."""
        if isinstance(codes, CellAssignment):
            if codes.n_ranges != self.n_ranges:
                raise ValidationError(
                    f"appended cells use n_ranges={codes.n_ranges} but the "
                    f"counter's grid has φ={self.n_ranges}"
                )
            codes = codes.codes
        return check_code_block(
            codes, self.n_ranges, self.n_dims, what="appended codes"
        )

    def _append_masks(self, block: np.ndarray) -> None:
        """Stitch *block*'s packed columns onto the existing stack.

        The first ``N0 // 8`` bytes of every mask row are complete and
        survive untouched; the boundary byte (when N0 is not a multiple
        of 8) mixes old-tail and new rows, so the tail region is
        re-packed from the concatenation of the old tail codes and the
        new block.  The stitched stack is byte-identical to packing the
        concatenated codes from scratch, because ``np.packbits`` packs
        row ``i`` into bit ``i % 8`` of byte ``i // 8`` independent of
        everything outside that byte.
        """
        n0 = self.n_points
        n1 = n0 + block.shape[0]
        keep_bytes = n0 // 8
        tail_codes = np.concatenate(
            [self.cells.codes[keep_bytes * 8 :], block], axis=0
        )
        tail8 = pack_codes_block(tail_codes, self.n_ranges)
        stack8 = np.zeros(
            (self.n_dims, self.n_ranges, packed_row_bytes(n1)), dtype=np.uint8
        )
        stack8[:, :, :keep_bytes] = self._stack8[:, :, :keep_bytes]
        tail_bytes = (n1 + 7) // 8 - keep_bytes
        stack8[:, :, keep_bytes : keep_bytes + tail_bytes] = tail8[:, :, :tail_bytes]
        self._set_stack(stack8)

    def set_cancel_token(self, token) -> None:
        """Thread a :class:`~repro.run.cancel.CancelToken` into counting.

        A long batch (many serial chunks, or many pool dispatch waves)
        checks the token between chunks and raises
        :class:`~repro.exceptions.SearchCancelled` once it flips, so an
        interrupted search never waits for a full level/generation of
        counting to finish.  Callers that set a token must be prepared
        to catch the exception and discard the partial batch — counts
        already returned are unaffected.  Pass ``None`` to detach.
        """
        self.cancel_token = token

    def set_event_sink(self, sink) -> None:
        """Attach an :class:`~repro.engine.events.EventSink` to counting.

        The fault-tolerant dispatcher reports worker trouble
        (``chunk_retry`` events) through it.  Pass ``None`` to detach.
        """
        self.event_sink = sink

    @contextmanager
    def runtime_binding(self, token, sink=None):
        """Scope a cancel token (and event sink) to one engine run.

        Exception-safe: whatever was bound before is restored on exit
        even when the search raises mid-batch, so a counter shared
        across runs never leaks a stale token into the next one.
        """
        previous_token = self.cancel_token
        previous_sink = self.event_sink
        self.set_cancel_token(token)
        self.set_event_sink(sink)
        try:
            yield self
        finally:
            self.set_cancel_token(previous_token)
            self.set_event_sink(previous_sink)

    def _check_cancelled(self) -> None:
        token = self.cancel_token
        if token is not None and token.cancelled:
            raise SearchCancelled("batched counting interrupted mid-batch")

    @property
    def batch_kernel(self):
        """The batch kernel this counter runs (chosen on first use).

        :func:`~repro.grid.backends.select_kernel` picks it: the C
        kernel once it has passed the differential self-check in this
        process, else the numpy reference — never a kernel that cannot
        reproduce the reference counts.
        """
        self._kernel_choice()
        return self._kernel

    def _kernel_choice(self) -> str:
        """The serving kernel's name in ``KERNELS``, choosing it on first use."""
        if self._kernel is None:
            self._kernel_name, self._kernel_reason = select_kernel()
            self._kernel = resolve_kernel(self._kernel_name)
        return self._kernel_name

    def _invoke_kernel(
        self, stack: np.ndarray, dims_arr: np.ndarray, rng_arr: np.ndarray
    ) -> tuple:
        """One guarded kernel call: non-reference kernels can degrade.

        The numpy reference runs bare (there is nothing below it on the
        ladder).  Any other kernel runs under the degradation ladder:
        if a call fails, the same chunk is recomputed by the reference
        kernel (bit-identical by the conformance gate), the counter
        serves the reference from then on, and the downgrade is
        recorded in ``stats["resilience"]``.
        """
        kernel = self.batch_kernel
        if self._kernel_name == "numpy":
            return kernel(stack, dims_arr, rng_arr)
        return self._ladder.guarded(
            "kernel", self._kernel_name, "numpy",
            lambda: kernel(stack, dims_arr, rng_arr),
            lambda: batch_counts(stack, dims_arr, rng_arr),
            on_downgrade=self._on_kernel_failure,
        )

    def _on_kernel_failure(self, exc: BaseException) -> None:
        logger.warning(
            "kernel %r failed (%s); serving the numpy reference kernel "
            "for the rest of the run",
            self._kernel_name, exc,
        )
        self._kernel = batch_counts
        self._kernel_name = "numpy"
        self._kernel_reason = f"{type(exc).__name__}: {exc}"

    def _count_group(self, dims_arr: np.ndarray, rng_arr: np.ndarray) -> np.ndarray:
        """Counts for one same-k group of cubes."""
        n_cubes = len(dims_arr)
        backend = self.backend
        if backend.kind == "process" and n_cubes > backend.chunk_size:
            pool = self._ensure_pool()
            if pool is not None:
                return self._count_group_parallel(pool, dims_arr, rng_arr)
        return self._serial_group_counts(self._stack, dims_arr, rng_arr)

    def _serial_group_counts(
        self, stack: np.ndarray, dims_arr: np.ndarray, rng_arr: np.ndarray
    ) -> np.ndarray:
        """The in-process kernel over *stack*, memory-capped by chunking.

        Chunks so the (B, W) accumulator stays bounded; sorting first
        keeps sibling cubes together so prefix sharing survives the
        chunking.  Taking the stack as a parameter lets the sharded
        counter run the identical path over each mmapped shard stack.
        """
        n_cubes = len(dims_arr)
        words = stack.shape[2]
        max_rows = max(1, _MAX_ACC_WORDS // max(1, words))
        if n_cubes <= max_rows:
            counts, stats = self._invoke_kernel(stack, dims_arr, rng_arr)
            self._absorb_kernel_stats(stats)
            return counts
        order = self._sibling_order(dims_arr, rng_arr)
        sorted_counts = np.empty(n_cubes, dtype=np.int64)
        for lo in range(0, n_cubes, max_rows):
            self._check_cancelled()
            sel = order[lo : lo + max_rows]
            counts, stats = self._invoke_kernel(
                stack, dims_arr[sel], rng_arr[sel]
            )
            self._absorb_kernel_stats(stats)
            sorted_counts[lo : lo + max_rows] = counts
        out = np.empty(n_cubes, dtype=np.int64)
        out[order] = sorted_counts
        return out

    def _count_group_parallel(
        self, pool, dims_arr: np.ndarray, rng_arr: np.ndarray
    ) -> np.ndarray:
        """Fan one same-k group out to the worker pool, order-stable."""
        n_cubes = len(dims_arr)
        chunk = self.backend.chunk_size
        order = self._sibling_order(dims_arr, rng_arr)
        sd, sr = dims_arr[order], rng_arr[order]
        chunks = [
            (sd[lo : lo + chunk], sr[lo : lo + chunk])
            for lo in range(0, n_cubes, chunk)
        ]
        sorted_counts = np.concatenate(self._map_on_pool(pool, chunks))
        out = np.empty(n_cubes, dtype=np.int64)
        out[order] = sorted_counts
        return out

    def _map_on_pool(self, pool, chunks: list[tuple]) -> list[np.ndarray]:
        """Run *chunks* on *pool*; fold its telemetry, return the counts.

        Kernel stats and per-chunk latencies are folded into this
        counter's throughput counters; faults were already recorded in
        :attr:`resilience` by the pool.  A pool that exhausted its
        rebuild budget is released here, and every later batch runs on
        the plain serial path.
        """
        results = pool.map_chunks(
            chunks, cancel_token=self.cancel_token, event_sink=self.event_sink
        )
        if pool.is_degraded:
            logger.warning(
                "counting pool degraded beyond repair (%s); remaining "
                "batches run serially",
                self.resilience.summary(),
            )
            self.close()
            self._pool_failed = True
        self.n_parallel_chunks += len(chunks)
        for _, words, reuse, latency in results:
            self.n_words_and += int(words)
            self.n_prefix_reuse += int(reuse)
            if latency is not None:
                self._latency_buckets[bisect_left(LATENCY_BUCKETS, latency)] += 1
                self.chunk_seconds_total += latency
                self.chunk_seconds_max = max(self.chunk_seconds_max, latency)
        return [counts for counts, _, _, _ in results]

    @staticmethod
    def _sibling_order(dims_arr: np.ndarray, rng_arr: np.ndarray) -> np.ndarray:
        """Lexicographic cube order: keeps shared prefixes adjacent."""
        keys = []
        for level in range(dims_arr.shape[1] - 1, -1, -1):
            keys.append(rng_arr[:, level])
            keys.append(dims_arr[:, level])
        return np.lexsort(tuple(keys))

    def _absorb_kernel_stats(self, stats: dict) -> None:
        self.n_words_and += stats["words_and"]
        self.n_prefix_reuse += stats["prefix_reuse"]

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        """The lazy process pool, or None if unavailable (in-process fallback)."""
        if self._pool is None and not self._pool_failed:
            try:
                self._pool = self._make_pool()
            except Exception as exc:  # repro-lint: disable=RPL009
                logger.warning(
                    "process counting backend unavailable (%s); falling "
                    "back to serial",
                    exc,
                )
                self._pool_failed = True
                self._ladder.apply(
                    "counting-pool", self.backend.kind, "serial",
                    f"pool unavailable: {exc}",
                )
                self._ladder.recovered("pool_unavailable")
        return self._pool

    def _make_pool(self):
        """Build this counter's worker pool (the shared-memory pool)."""
        from .parallel import CountingPool

        return CountingPool(
            self._stack, self.backend, self._ladder, kernel=self._kernel_choice()
        )

    def close(self) -> None:
        """Release the worker pool and its shared-memory masks, if any.

        Safe to call repeatedly; the pool is recreated lazily if another
        parallel batch arrives later.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __del__(self):  # pragma: no cover - interpreter-shutdown dependent
        try:
            self.close()
        except Exception:  # repro-lint: disable=RPL009
            pass

    # ------------------------------------------------------------------
    def covered_points(self, subspace: Subspace) -> np.ndarray:
        """Indices of the points inside the cube, ascending."""
        return np.nonzero(self.mask(subspace))[0]

    def fraction(self, subspace: Subspace) -> float:
        """``n(D) / N`` — the cube's empirical density."""
        return self.count(subspace) / self.n_points

    # ------------------------------------------------------------------
    def mask_memory_bytes(self) -> int:
        """Total bytes held by the packed per-range membership masks."""
        return self._stack8.nbytes

    def cache_stats(self) -> dict:
        """Counters useful for benchmarking and backend tuning.

        ``count_calls`` covers every cube counted through any of the
        three counting methods.  Every counting call — :meth:`count`
        included — advances ``batch_calls`` once and ``batch_cubes`` by
        its cubes; ``words_and``, ``prefix_reuse`` and
        ``parallel_chunks`` describe the kernel work.  ``batch_seconds``
        is the wall time spent inside the counting calls.
        ``cache_hits`` always reads 0 (no count is memoised); it stays
        only because the pipeline benchmark's workloads read it.
        """
        stats = {
            "count_calls": self.n_count_calls,
            "cache_hits": 0,
            "appends": self.n_appends,
            "rows_appended": self.n_rows_appended,
            "batch_calls": self.n_batch_calls,
            "batch_cubes": self.n_batch_cubes,
            "words_and": self.n_words_and,
            "prefix_reuse": self.n_prefix_reuse,
            "parallel_chunks": self.n_parallel_chunks,
            "batch_seconds": self.batch_seconds,
            "backend": self.backend.kind,
            "kernel": self._kernel_choice(),
            "kernel_tier": _KERNEL_TIERS[self._kernel_name],
        }
        if self._kernel_reason is not None:
            stats["kernel_reason"] = self._kernel_reason
        return stats

    def kernel_info(self) -> dict:
        """Which kernel serves this counter's batches, and why.

        ``{"backend", "kernel", "tier"}``: the placement, the kernel
        that serves counts now (``native`` or ``numpy``, after any
        ladder step) and its tier (``c`` or ``numpy``), plus a
        ``reason`` when the C kernel does not serve — why it was refused
        (e.g. the compiler's output after a failed build) or, after a
        ``kernel`` ladder step, how it failed while counting.
        """
        info = {
            "backend": self.backend.kind,
            "kernel": self._kernel_choice(),
            "tier": _KERNEL_TIERS[self._kernel_name],
        }
        if self._kernel_reason is not None:
            info["reason"] = self._kernel_reason
        return info

    def backend_health(self) -> dict:
        """Fault-tolerance telemetry for this counter's backend.

        A view derived from :attr:`resilience` (the one fault ledger)
        plus the pool throughput counters:

        * ``retries`` / ``rebuilds`` — retry sites ``pool.chunk`` /
          ``pool.rebuild``;
        * ``fallbacks`` and ``chunks_serial`` — recovery point
          ``pool_serial_fallback`` (one per chunk the serial kernel
          recovered);
        * ``timeouts`` / ``pool_degraded`` / ``pool_unavailable`` —
          recovery points ``pool_timeout`` / ``pool_abandoned`` /
          ``pool_unavailable``;
        * ``chunks_parallel`` and ``chunk_latency`` — the chunks the
          pool completed and their wall-latency histogram.

        A serial backend — or a clean parallel run — reports all-zero
        counters.
        """
        retries = self.resilience.retries
        recoveries = self.resilience.recoveries
        fallbacks = recoveries.get("pool_serial_fallback", 0)
        hist = self._latency_buckets
        buckets = {
            f"<={edge:g}s": hist[i] for i, edge in enumerate(LATENCY_BUCKETS)
        }
        buckets[f">{LATENCY_BUCKETS[-1]:g}s"] = hist[-1]
        return {
            "retries": retries.get("pool.chunk", 0),
            "timeouts": recoveries.get("pool_timeout", 0),
            "rebuilds": retries.get("pool.rebuild", 0),
            "fallbacks": fallbacks,
            "chunks_parallel": sum(hist),
            "chunks_serial": fallbacks,
            "pool_degraded": "pool_abandoned" in recoveries,
            "pool_unavailable": "pool_unavailable" in recoveries,
            "chunk_latency": {
                "count": sum(hist),
                "total_seconds": self.chunk_seconds_total,
                "max_seconds": self.chunk_seconds_max,
                "buckets": buckets,
            },
        }

    # ------------------------------------------------------------------
    def _check_subspace(self, subspace: Subspace) -> None:
        """Reject anything but a :class:`Subspace` inside the grid (its
        constructor checked the rest)."""
        _require_subspace(subspace)
        if subspace.dims:
            self._check_bounds(subspace.dims[-1], max(subspace.ranges))

    def _check_bounds(self, top_dim: int, top_range: int) -> None:
        if top_dim >= self.n_dims:
            raise ValidationError(
                f"subspace uses dimension {top_dim} but data has "
                f"{self.n_dims} dimensions"
            )
        if top_range >= self.n_ranges:
            raise ValidationError(
                f"subspace range out of bounds for φ={self.n_ranges}"
            )

    def _group_arrays(self, cubes: list[Subspace]) -> tuple[np.ndarray, np.ndarray]:
        """The ``(n, k)`` dims and ranges of same-k :class:`Subspace`
        objects, bounds-checked once on the group's largest dimension
        and range."""
        n_cubes, k = len(cubes), len(cubes[0].dims)
        if k == 0:
            empty = np.empty((n_cubes, 0), dtype=np.intp)
            return empty, empty
        flat = chain.from_iterable
        try:
            dims = np.fromiter(flat(c.dims for c in cubes), np.intp, n_cubes * k)
            ranges = np.fromiter(flat(c.ranges for c in cubes), np.intp, n_cubes * k)
        except OverflowError:
            # An index past intp is past the grid: reject it as any other.
            self._check_bounds(
                max(c.dims[-1] for c in cubes), max(max(c.ranges) for c in cubes)
            )
            raise
        dims, ranges = dims.reshape(n_cubes, k), ranges.reshape(n_cubes, k)
        self._check_bounds(int(dims[:, -1].max()), int(ranges.max()))
        return dims, ranges

    def _subspace_arrays(self, subspace: Subspace) -> tuple[np.ndarray, np.ndarray]:
        """The checked *subspace* as ``(1, k)`` dims and ranges arrays."""
        self._check_subspace(subspace)
        k = len(subspace.dims)
        return (
            np.array(subspace.dims, dtype=np.intp).reshape(1, k),
            np.array(subspace.ranges, dtype=np.intp).reshape(1, k),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CubeCounter(N={self.n_points}, d={self.n_dims}, "
            f"phi={self.n_ranges})"
        )


#: Deprecated alias kept for compatibility: the bit-packed layout is
#: now the only one, so the former packed subclass *is* the counter.
PackedCubeCounter = CubeCounter
