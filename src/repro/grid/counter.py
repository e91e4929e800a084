"""Vectorized cube counting: ``n(D)`` for arbitrary subspace cubes.

Every algorithm in the paper is ultimately a search over cubes ranked by
the sparsity coefficient, whose only data-dependent input is the number
of points ``n(D)`` inside cube ``D``.  This module makes that count
cheap:

* one bit-packed *membership mask* per ``(dimension, range)`` pair is
  precomputed at construction (``d × φ`` rows of N bits, each padded to
  whole uint64 words and stacked into ``(d, φ, W)`` arrays so whole
  batches can be gathered with one fancy index — the layout of
  :mod:`repro.grid.kernels`, 8x smaller than one byte per point);
* the stack is held as packed *row blocks* of :data:`_BLOCK_ROWS` rows
  (the last one possibly shorter), which laid end to end are
  byte-identical to the one stack of all N rows: counts are additive
  across row blocks, so a count is the sum of the blocks' counts, and
  :meth:`~CubeCounter.append_rows` packs only the new rows into the
  last block (opening blocks as they fill), never copying a full one;
* a cube count is the popcount of the AND of its masks;
* every count runs through one private core that validates the whole
  call first and sends each group of ``(n, k)`` cube arrays,
  duplicates included, to the batch kernel — under a ``process``
  :class:`~repro.core.params.CountingBackend`, chunked onto a worker
  pool that reads the masks from shared memory;
* the four public entry points are adapters over that core:
  :meth:`count` (one cube), :meth:`count_batch` (a batch of
  :class:`Subspace` objects, grouped by k into one call),
  :meth:`count_cubes` (same-k ``(n, k)`` arrays — the level-batched
  brute force's path) and :meth:`count_genes` (an ``(n, d)`` gene
  matrix of mixed k, padded into one group — the evolutionary
  search's path).  Nothing is memoised across calls: a repeated cube
  is counted again;
* :meth:`~CubeCounter.generation` runs a whole GA generation —
  selection, the optimized crossover, mutation and the population's
  scoring — in one C call over the row blocks where the C library
  serves this counter in-process, booked as the counting calls of the
  operators it replaces; :meth:`~CubeCounter.count_level` likewise
  counts, scores and filters one block of a brute-force level in one
  C call, booked as :meth:`count_cubes` books the block.  Both read
  the blocks through one :class:`~repro.grid.native.BlockTable`,
  bound once per state of the blocks.

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
from dataclasses import replace
from itertools import chain

import numpy as np

from ..core.params import CountingBackend
from ..core.subspace import Subspace
from ..exceptions import SearchCancelled, ValidationError
from ..resilience.ladder import DegradationLadder, ResilienceReport
from .backends import pack_codes, pack_codes_into, resolve_kernel, select_kernel
from .cells import CellAssignment, check_code_block
from .kernels import (
    batch_counts,
    check_cube_arrays,
    empty_cube_row,
    packed_row_bytes,
)
from .native import MAX_GENERATION_K, BlockTable, NativeGeneration, NativeLevel

__all__ = ["CubeCounter", "PackedCubeCounter", "batch_counts"]

logger = logging.getLogger(__name__)

#: Serial batches are split so one chunk's AND accumulator stays below
#: this many uint64 words — bounds peak memory without changing any
#: count.
_MAX_ACC_WORDS = 1 << 26

#: Rows per packed row block of an in-memory counter's mask stack.  A
#: multiple of 64, so every full block is whole uint64 words and the
#: blocks laid end to end are the one stack of all rows.  Each block
#: costs one kernel call per counted group: 2^20 rows keep every grid up
#: to a million rows (the pipeline benchmark's largest is 500k) in one
#: block, so blocking adds no call there.
_BLOCK_ROWS = 1 << 20

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
        # The BlockTable the C routines read the row blocks through,
        # bound on first use and dropped when an append changes them.
        self._table: BlockTable | None = None
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

        The codes are packed into one ``(d, φ, W8)`` byte stack in the
        verified C library when it builds
        (:func:`~repro.grid.backends.pack_codes`), and held as views of
        its consecutive :data:`_BLOCK_ROWS`-row blocks.  The kernels read
        a block's bytes as uint64 words: byte order is irrelevant to AND
        and popcount, so the reinterpret cast is safe.
        """
        self._block_rows = _BLOCK_ROWS
        self._n_rows = self._cells.n_points
        stack8 = pack_codes(self._cells.codes, self.n_ranges)
        step = self._block_rows // 8
        self._blocks = [
            stack8[:, :, lo : lo + step]
            for lo in range(0, max(stack8.shape[2], 1), step)
        ]
        # The last block's own buffer, with room to grow, once rows have
        # been appended to it; None while it is a view of the build.
        self._tail: np.ndarray | None = None

    @property
    def cells(self) -> CellAssignment:
        """The grid assignment of every counted row.

        Appended code blocks are kept as they came and joined onto the
        assignment only here, on the first read after an append, so an
        append costs its own rows.
        """
        if self._pending_codes:
            self._cells = replace(
                self._cells,
                codes=np.concatenate([self._cells.codes, *self._pending_codes]),
            )
            self._pending_codes = []
        return self._cells

    @cells.setter
    def cells(self, cells: CellAssignment | None) -> None:
        self._cells = cells
        self._pending_codes: list[np.ndarray] = []

    @property
    def _stack8(self) -> np.ndarray:
        """The row blocks laid end to end: the C-contiguous ``(d, φ, W8)``
        byte stack of all rows (a copy unless one block holds them all
        in place)."""
        blocks = self._blocks
        if len(blocks) == 1:
            return np.ascontiguousarray(blocks[0])
        return np.concatenate(blocks, axis=2)

    @property
    def _stack(self) -> np.ndarray:
        """:attr:`_stack8` as the ``(d, φ, W)`` uint64 words the kernels read."""
        return self._stack8.view(np.uint64)

    def _resident_blocks(self) -> list[np.ndarray] | None:
        """The row blocks as the ``(d, φ, W)`` uint64 words a C routine
        reads in place (None for a counter whose masks are not in
        memory)."""
        return [block.view(np.uint64) for block in self._blocks]

    def _resident_table(self) -> BlockTable | None:
        """The :class:`~repro.grid.native.BlockTable` over
        :meth:`_resident_blocks`, bound once per state of the blocks
        (None for a counter whose masks are not in memory)."""
        if self._table is None:
            blocks = self._resident_blocks()
            if blocks is not None:
                self._table = BlockTable(blocks)
        return self._table

    def _row_blocks(self):
        """``(block, rows)`` for each packed row block, in row order."""
        last = len(self._blocks) - 1
        for index, block in enumerate(self._blocks):
            yield block, (
                self._n_rows - last * self._block_rows
                if index == last else self._block_rows
            )

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        """Total number of data points N."""
        return self._n_rows

    @property
    def n_dims(self) -> int:
        """Total data dimensionality d."""
        return self._cells.n_dims

    @property
    def n_ranges(self) -> int:
        """Grid resolution φ."""
        return self._cells.n_ranges

    # ------------------------------------------------------------------
    def mask(self, subspace: Subspace) -> np.ndarray:
        """Boolean membership mask of the cube (freshly allocated)."""
        self._check_subspace(subspace)
        packed = np.concatenate([
            _packed_cube(block, subspace, rows) for block, rows in self._row_blocks()
        ])
        return np.unpackbits(packed, count=self.n_points).view(bool)

    def count(self, subspace: Subspace) -> int:
        """``n(D)``: number of points inside the cube *subspace*.

        A one-row call of the counting core.
        """
        return int(self._count([self._subspace_arrays(subspace)])[0][0])

    def count_batch(self, subspaces) -> np.ndarray:
        """``n(D)`` for a whole batch of cubes in one pass.

        The cubes are grouped by dimensionality (ascending k) into one
        call of the counting core.  Only the numpy reference kernel
        shares AND results across cubes with a common prefix; the C
        kernel behind this and :meth:`count_cubes`/:meth:`count_genes`
        ANDs every cube's k masks (its ``prefix_reuse`` reads 0).  The
        brute force's :meth:`count_level` call does share each
        parent's AND across its children.
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
        :class:`Subspace` built: the level-batched brute force counts
        its levels through it.  A duplicate row is counted again.

        Returns an ``int64`` array aligned with the rows.
        """
        return self._count([self._checked_group(dims, ranges)])[0]

    def count_genes(self, genes) -> np.ndarray:
        """``n(D)`` of every row of an ``(n, d)`` gene matrix, in one call.

        Row *i* is the cube that fixes range ``genes[i, j]`` on every
        dimension *j* whose gene is not ``-1`` (``*``).  Rows may fix
        different numbers of dimensions, but each must fix at least one.
        The whole matrix is one group of the counting core: each row
        lists its fixed ``(dim, range)`` pairs in column order, padded
        to the batch's largest k by repeating its last pair — AND is
        idempotent, so a padded row counts exactly its own cube.  This
        is the evolutionary search's path (one call per optimized
        crossover stage or population, whatever mix of k it holds), and
        the only place that pads.  A duplicate row is counted again.

        Returns an ``int64`` array aligned with the rows.
        """
        return self._count([self._gene_group(genes)])[0]

    def _gene_group(self, genes) -> tuple[np.ndarray, np.ndarray]:
        """A validated gene matrix as one padded ``(n, K)`` group."""
        genes = self._checked_genes(genes)
        if len(genes) == 0:
            empty = np.empty((0, 0), dtype=np.intp)
            return empty, empty
        genes = genes.astype(np.intp, copy=False)
        fixed = genes != -1
        ks = fixed.sum(axis=1)
        if not ks.all():
            raise ValidationError("every gene row must fix at least one dimension")
        # Row-major indices of the fixed genes: each row's run is in
        # column order, so row i's j-th pair is cell starts[i] + j.
        flat = np.flatnonzero(fixed)
        starts = np.cumsum(ks) - ks
        pad = np.minimum(np.arange(ks.max()), ks[:, None] - 1)
        cells = flat[starts[:, None] + pad]
        return cells % self.n_dims, genes.reshape(-1)[cells]

    def _checked_genes(self, genes) -> np.ndarray:
        """*genes* as an integer ``(n, d)`` matrix of genes in ``[-1, φ)``."""
        genes = np.asarray(genes)
        if genes.ndim != 2 or genes.shape[1] != self.n_dims:
            raise ValidationError(
                f"genes must be an (n, {self.n_dims}) matrix, got shape "
                f"{genes.shape}"
            )
        if genes.dtype.kind not in "iu":
            raise ValidationError(f"genes must be integer-typed, got {genes.dtype}")
        if genes.size and (genes.min() < -1 or genes.max() >= self.n_ranges):
            raise ValidationError(
                f"genes must lie in [-1, {self.n_ranges}), got values in "
                f"[{genes.min()}, {genes.max()}]"
            )
        return genes

    def _count(self, groups, fused=None):
        """The one counting path: counts of validated groups, timed.

        Runs :meth:`_count_groups` on *groups*, or else the callable
        *fused* (a fused C routine that books its own calls and cubes,
        :meth:`generation`), and adds the wall time to
        ``batch_seconds``.  Returns what that returns.
        """
        t0 = time.perf_counter()
        out = self._count_groups(groups) if fused is None else fused()
        self.batch_seconds += time.perf_counter() - t0
        return out

    def _count_groups(self, groups) -> list[np.ndarray]:
        """Counts of validated groups, one ``int64`` array per group.

        Each group is a ``(dims, ranges)`` pair of ``(n, k)`` arrays; a
        row may repeat its last ``(dim, range)`` pair (a padded
        :meth:`count_genes` row), which changes no count.  The adapters
        validate their whole call before calling in, so a rejected call
        leaves the counter as it was.  One call advances
        ``batch_calls`` once and ``count_calls`` and ``batch_cubes`` by
        its cubes.
        """
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
        return out

    def serves_level(self) -> bool:
        """Whether :meth:`count_level` runs here now: the C library
        counts for this counter in-process (the ``serial`` placement,
        the kernel ``native``) over in-memory row blocks."""
        return (
            self.backend.kind == "serial"
            and self._kernel_choice() == "native"
            and self._resident_table() is not None
        )

    def serves_generation(self, dimensionality: int) -> bool:
        """Whether :meth:`generation` runs here now: where
        :meth:`serves_level`, for k up to the C routine's limit."""
        return 1 <= dimensionality <= MAX_GENERATION_K and self.serves_level()

    def generation(
        self, population, fitnesses, dimensionality: int, mean, std, rng, **operators
    ) -> tuple | None:
        """One GA generation over this counter's row blocks in one C call,
        or ``None`` where this counter does not serve it
        (:meth:`serves_generation`).

        :class:`~repro.grid.native.NativeGeneration` selects, pairs,
        recombines, mutates and scores the ``(p, d)`` *population*
        drawing from *rng*, with Equation 1's *mean* and *std* tables and
        the *operators* keywords (``elitism``, ``crossover_rate``,
        ``swap_probability``, ``flip_probability``, ``chosen``).  Its
        input is checked before anything runs, so a refused call raises
        :class:`~repro.exceptions.ValidationError` and changes nothing.
        The call is booked as the staged path books its counting calls:
        ``batch_calls`` by the crossover's stages plus one for the
        population, ``count_calls`` and ``batch_cubes`` by the crossover
        candidates plus the strings scored, ``words_and`` by those
        calls' words, plus its wall time.  It runs under the ``kernel``
        ladder step: if it fails, it returns ``None`` and the counter
        serves the numpy reference from then on.

        Returns ``(population, fitnesses, scored, stats)`` as the call
        does.  The caller proves the routine against the operators (the
        search layer owns them), serves only k without the crossover's
        oversized-k' fallback and restores *rng* when this returns
        ``None`` after a failure.
        """
        if not self.serves_generation(dimensionality):
            return None
        call = NativeGeneration(
            self._resident_table(), population, fitnesses, dimensionality, mean,
            std, rng, **operators,
        )

        def fused():
            out = call()
            stats = out[-1]
            cubes = stats["candidates"] + stats["rows"]
            self.n_batch_calls += stats["stages"] + (stats["rows"] > 0)
            self.n_batch_cubes += cubes
            self.n_count_calls += cubes
            self.n_words_and += stats["words_and"]
            return out

        return self._guarded_call(fused)

    def count_level(
        self, dims, ranges, stop: int, *, mean: float, sd: float,
        nonempty: bool, threshold: float, worst: float, limit: int | None = None,
    ) -> tuple | None:
        """One streamed block of a brute-force level in one C call, or
        ``None`` where this counter does not serve it
        (:meth:`serves_level`).

        :class:`~repro.grid.native.NativeLevel` extends the ``(n,
        depth)`` parents *dims*/*ranges* by every range of every dim
        after their last one and before *stop*, in lexicographic order,
        counts the first *limit* children (all when ``None``), scores
        them with Equation 1's *mean* and *sd* and keeps those that pass
        the best set's filter (*nonempty*, *threshold*, *worst*; see
        :meth:`~repro.search.best_set.BestProjectionSet.prefilter`).
        Its input is checked before anything runs, so a refused call
        raises :class:`~repro.exceptions.ValidationError` and changes
        nothing.  The call is booked as :meth:`count_cubes` books the
        children: ``batch_calls`` once, ``count_calls`` and
        ``batch_cubes`` by the children counted, ``words_and`` by
        ``(k − 1)`` words per child and word of the blocks, plus its wall
        time; the C routine ANDs each parent's cells only once per row
        block, so it does less than that.  It runs under the ``kernel``
        ladder step: if it fails, it returns ``None`` and the counter
        serves the numpy reference from then on.

        Returns the survivors' ``(index, counts, coefficients,
        evaluated)``: their positions among the children, counts and
        coefficients, and the number of children counted.
        """
        if not self.serves_level():
            return None
        table = self._resident_table()
        call = NativeLevel(
            table, dims, ranges, stop, mean=mean, sd=sd, nonempty=nonempty,
            threshold=threshold, worst=worst, limit=limit,
        )

        def fused():
            out = call()
            children = call.evaluated
            self.n_batch_calls += 1
            self.n_batch_cubes += children
            self.n_count_calls += children
            self.n_words_and += call.depth * children * table.words
            return (*out, children)

        return self._guarded_call(fused)

    def _guarded_call(self, fused):
        """:meth:`_count` of a fused C call under the ``kernel`` ladder
        step: ``None`` once it has failed and stepped down."""
        return self._count([], lambda: self._ladder.guarded(
            "kernel", self._kernel_name, "numpy", fused, lambda: None,
            on_downgrade=self._on_kernel_failure,
        ))

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
        **current** grid's ``transform``.  Only the new rows are packed,
        into the last row block and the blocks they open, and no cube is
        counted, so an append costs O(m) (plus, now and then, growing
        the last block's buffer by a quarter, up to one block).  The result is
        bit-identical to building a fresh counter over the concatenated
        codes (differential-tested): the blocks laid end to end match
        its mask stack byte for byte.

        Any worker pool is released first (it holds the old masks in
        shared memory) and is rebuilt lazily on the next large batch.
        The block is validated once, here, before any state changes.
        Returns the number of rows appended.
        """
        return self._append_codes(self._validate_append_codes(codes))

    def _append_codes(self, block: np.ndarray) -> int:
        """:meth:`append_rows` of a trusted block: a contiguous ``int16``
        ``(m, d)`` block of codes in ``[MISSING_CELL, φ)`` this counter
        may keep — one :meth:`append_rows` validated, or one the current
        grid coded (:meth:`~repro.model.GridModel.update`)."""
        m = block.shape[0]
        if m == 0:
            return 0
        self.close()
        self._append_masks(block)
        self._pending_codes.append(block)
        self.n_appends += 1
        self.n_rows_appended += m
        return m

    def _validate_append_codes(self, codes) -> np.ndarray:
        """Normalize appended codes to a contiguous in-range int16 block
        this counter owns."""
        if isinstance(codes, CellAssignment):
            if codes.n_ranges != self.n_ranges:
                raise ValidationError(
                    f"appended cells use n_ranges={codes.n_ranges} but the "
                    f"counter's grid has φ={self.n_ranges}"
                )
            codes = codes.codes
        block = check_code_block(
            codes, self.n_ranges, self.n_dims, what="appended codes"
        )
        return block.copy() if np.may_share_memory(block, codes) else block

    def _append_masks(self, block: np.ndarray) -> None:
        """Pack *block*'s rows into the last row block, opening new ones.

        The last block's rows are packed into its own buffer, which
        starts at the rows it holds and grows by a quarter as it fills, up to
        :data:`_BLOCK_ROWS` rows; a full block is never touched again.
        Packing row ``r`` sets one bit of byte ``r // 8`` and nothing
        else, so the blocks stay byte-identical to packing all the codes
        at once.
        """
        self._table = None
        start = 0
        while start < len(block):
            filled = self._n_rows - (len(self._blocks) - 1) * self._block_rows
            if filled == self._block_rows:
                self._blocks.append(self._blocks[-1][:, :, :0])
                self._tail, filled = None, 0
            take = min(len(block) - start, self._block_rows - filled)
            tail = self._reserve_tail(filled + take)
            pack_codes_into(block[start : start + take], tail, filled)
            self._blocks[-1] = tail[:, :, : packed_row_bytes(filled + take)]
            self._n_rows += take
            start += take

    def _reserve_tail(self, n_rows: int) -> np.ndarray:
        """The last block's buffer, grown to hold *n_rows* rows.

        It grows by a quarter of what it held (in whole words), so
        appends stay amortised O(rows) while the spare capacity stays
        within a quarter of the block's bytes.
        """
        need = packed_row_bytes(n_rows)
        tail, last = self._tail, self._blocks[-1]
        if tail is None or tail.shape[2] < need:
            held = last.shape[2] if tail is None else tail.shape[2]
            grown_to = -(-(held + held // 4) // 8) * 8
            size = min(self._block_rows // 8, max(need, grown_to))
            grown = np.zeros(last.shape[:2] + (size,), dtype=np.uint8)
            grown[:, :, : last.shape[2]] = last
            self._tail = tail = grown
        return tail

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
        first, *rest = self._blocks
        counts = self._serial_group_counts(first.view(np.uint64), dims_arr, rng_arr)
        for block in rest:
            counts += self._serial_group_counts(
                block.view(np.uint64), dims_arr, rng_arr
            )
        return counts

    def _serial_group_counts(
        self, stack: np.ndarray, dims_arr: np.ndarray, rng_arr: np.ndarray
    ) -> np.ndarray:
        """The in-process kernel over *stack*, memory-capped by chunking.

        Chunks so the (B, W) accumulator stays bounded; sorting first
        keeps sibling cubes together so prefix sharing survives the
        chunking.  Taking the stack as a parameter lets the in-memory
        counter run it over each row block and the sharded counter over
        each mmapped shard stack.
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
        """Bytes of the packed per-range membership masks (the row
        blocks' filled bytes; the last block's spare room is not
        counted)."""
        return sum(block.nbytes for block in self._blocks)

    def cache_stats(self) -> dict:
        """Counters useful for benchmarking and backend tuning.

        ``count_calls`` covers every cube counted through any of the
        counting methods.  Every counting call — :meth:`count`
        included — advances ``batch_calls`` once and ``batch_cubes`` by
        its cubes.  A fused :meth:`generation` call advances
        ``batch_calls`` by the counting calls the operators would have
        made (the staged crossover's stages and the population's
        scoring), and ``words_and`` by their words, so these figures
        count the operators' calls whichever path ran, and
        ``batch_calls`` is the same on every placement.  ``words_and``,
        ``prefix_reuse`` and ``parallel_chunks`` describe the kernel
        work.
        ``batch_seconds`` is the wall time spent inside the counting
        calls, fused ones included.
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
