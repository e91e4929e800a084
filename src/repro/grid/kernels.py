"""The mask layout and the numpy reference batch-counting kernel.

Every counter stores its membership masks in one layout: for each
``(dimension, range)`` pair, a row of bits — bit ``i`` set when point
*i* falls in that range — packed with :func:`numpy.packbits` and
zero-padded to a whole number of uint64 words (:func:`pack_codes_block`).
The in-memory :class:`~repro.grid.counter.CubeCounter` holds it as
packed row blocks that, laid end to end, are the whole ``(d, φ, W)``
stack; the out-of-core
:class:`~repro.grid.sharded.ShardedMaskStore` holds one such stack per
row shard.  Padding bits are zero, hence inert under AND and popcount.

A *kernel* is the pure function at the bottom of every counting
backend::

    kernel(stack, dims_arr, rng_arr) -> (counts, stats)

``stack`` is a ``(d, φ, W)`` uint64 mask stack, ``dims_arr`` /
``rng_arr`` are ``(B, k)`` index arrays naming one same-k batch of
cubes, and ``counts`` is the exact ``int64`` point count per cube.
``stats`` reports kernel effort (``words_and``) and prefix sharing
(``prefix_reuse``).

This module holds the numpy references: the counting kernel
(:func:`batch_counts`, the prefix-sharing AND/popcount engine) and the
two grid-build steps, :func:`range_codes_block` (values to range codes)
and :func:`pack_codes_block` (codes to the packed stack; with
:func:`pack_codes_block_into`, rows appended to a row block's stack).  The compiled
C library in :mod:`repro.grid.native` does all three, and
:func:`repro.grid.backends.verify_kernel` proves it against these
references on a differential fixture before it may serve: counts equal
to :func:`batch_counts`, packed stacks byte-identical to
:func:`pack_codes_block` and codes byte-identical to
:func:`range_codes_block`.  When it cannot build or fails that proof,
these references serve.  Module-level (rather than methods) so pool
workers can run an identical kernel against a shared-memory view of
the stack.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from ..resilience.faults import maybe_inject
from .cells import MISSING_CELL

__all__ = [
    "batch_counts",
    "check_cube_arrays",
    "empty_cube_row",
    "pack_codes_block",
    "pack_codes_block_into",
    "packed_row_bytes",
    "range_codes_block",
]

#: Most cuts per attribute a value's code is counted by comparison (one
#: pass each); above it, codes come from a binary search.
_MAX_COMPARE_CUTS = 64

#: Entries per row block of the comparison count, so a block stays in
#: cache across passes.
_BLOCK_ENTRIES = 1 << 14

#: Most ranges per attribute: range codes are stored as ``int16``.
_MAX_RANGES = 1 << 15


def check_cube_arrays(
    dims, ranges, n_dims: int, n_ranges: int
) -> tuple[np.ndarray, np.ndarray]:
    """*dims* and *ranges* as ``(n, k)`` integer arrays on a ``(d, φ)`` grid.

    Raises :class:`~repro.exceptions.ValidationError` unless both have
    one 2-D shape and an integer dtype, every dimension index lies in
    ``[0, n_dims)`` and every range index in ``[0, n_ranges)``.
    """
    dims_arr = np.asarray(dims)
    rng_arr = np.asarray(ranges)
    if dims_arr.ndim != 2 or dims_arr.shape != rng_arr.shape:
        raise ValidationError(
            "dims and ranges must be (n, k) arrays of one shape, got "
            f"{dims_arr.shape} and {rng_arr.shape}"
        )
    for name, arr, bound in (
        ("dimension", dims_arr, n_dims),
        ("range", rng_arr, n_ranges),
    ):
        if arr.dtype.kind not in "iu":
            raise ValidationError(
                f"cube arrays must be integer-typed, got {arr.dtype}"
            )
        if arr.size and (arr.min() < 0 or arr.max() >= bound):
            raise ValidationError(
                f"{name} indices must lie in [0, {bound}), got values in "
                f"[{arr.min()}, {arr.max()}]"
            )
    return dims_arr, rng_arr


def packed_row_bytes(n_points: int) -> int:
    """Bytes per packed mask row for *n_points*, padded to uint64 words."""
    n_bytes = (n_points + 7) // 8
    return ((n_bytes + 7) // 8) * 8


def pack_codes_block(codes: np.ndarray, n_ranges: int) -> np.ndarray:
    """Bit-pack one block of grid codes into a ``(d, φ, W8)`` mask stack.

    *codes* is an ``(n, d)`` integer code block (``MISSING_CELL`` rows
    set no bit); the result holds one packed membership row per
    ``(dimension, range)`` pair, each zero-padded to a uint64 boundary
    so it can be viewed as ``uint64`` words.  Packing a row *shard* of
    a dataset with this function and summing per-shard popcounts is
    bit-identical to packing the whole dataset at once — counts are
    additive across row shards — which is what the out-of-core store
    (:mod:`repro.grid.sharded`) and the in-memory counter's row blocks
    rely on.
    """
    n, n_dims = codes.shape
    maybe_inject("packed_alloc", kind="packed", n_points=n)
    stack8 = np.zeros((n_dims, n_ranges, packed_row_bytes(n)), dtype=np.uint8)
    pack_codes_block_into(codes, stack8, 0)
    return stack8


def pack_codes_block_into(codes: np.ndarray, out: np.ndarray, first: int) -> None:
    """Pack an ``(n, d)`` code block into rows ``first..`` of stack *out*.

    *out* is a ``(d, φ, bytes)`` uint8 stack with room for ``first + n``
    rows whose bits from row *first* on are zero.  Row *i* of the block
    sets bit ``r % 8`` (big-endian, the numpy default) of byte
    ``r // 8``, ``r = first + i``, and the bits are ORed in, so the rows
    below *first* stay as they are, those sharing its byte included.
    Packing a dataset block after block this way is byte-identical to
    :func:`pack_codes_block` of the whole.
    """
    lead = first % 8
    n, n_dims = codes.shape
    lo, n_bytes = first // 8, (lead + n + 7) // 8
    for j in range(n_dims):
        col = codes[:, j]
        dense = np.zeros((out.shape[1], lead + n), dtype=bool)
        observed = col >= 0
        dense[col[observed], lead + np.nonzero(observed)[0]] = True
        out[j, :, lo : lo + n_bytes] |= np.packbits(dense, axis=1)


def range_codes_block(array: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Range codes ``#{cuts < v}`` of an ``(n, d)`` matrix; NaN is missing.

    *cuts* is the stacked, sorted ``(d, φ−1)`` cut matrix; the count
    equals ``searchsorted(cuts, v, side="left")``, which is how it is
    taken above :data:`_MAX_COMPARE_CUTS` cuts.  Up to that, each row
    block is flattened (``codes`` is C-contiguous, so its blocks are
    views) and compared with every cut row tiled to the block's width.
    """
    n, d = array.shape
    codes = np.zeros((n, d), dtype=np.int16)
    if cuts.shape[1] > _MAX_COMPARE_CUTS:
        for j, column_cuts in enumerate(cuts):
            codes[:, j] = np.searchsorted(column_cuts, array[:, j], side="left")
    else:
        rows = max(1, min(n, _BLOCK_ENTRIES // d))
        tiles = np.tile(cuts.T, (1, rows))
        above = np.empty(rows * d, dtype=bool)
        for lo in range(0, n, rows):
            block = array[lo : lo + rows].reshape(-1)
            out, hit = codes[lo : lo + rows].reshape(-1), above[: block.size]
            for tile in tiles:
                np.greater(block, tile[: block.size], out=hit)
                out += hit
    codes[np.isnan(array)] = MISSING_CELL
    return codes


def empty_cube_row(n_points: int, row_bytes: int) -> np.ndarray:
    """The packed row of the empty cube: bits ``0..n_points-1`` set.

    The padding bits past *n_points* stay zero, so popcounting the row
    gives exactly *n_points*.
    """
    out = np.zeros(row_bytes, dtype=np.uint8)
    n_bytes = (n_points + 7) // 8
    out[:n_bytes] = 0xFF
    tail = n_points % 8
    if tail:
        out[n_bytes - 1] = (0xFF << (8 - tail)) & 0xFF
    return out


def _resolve_batch_masks(
    stack: np.ndarray,
    dims_arr: np.ndarray,
    rng_arr: np.ndarray,
    stats: dict,
) -> np.ndarray:
    """AND-of-masks for a batch of same-k cubes, sharing common prefixes.

    ``stack`` is the ``(d, φ, W)`` mask array; ``dims_arr`` / ``rng_arr``
    are ``(B, k)`` index arrays.  The recursion resolves each *distinct*
    ``(k-1)``-prefix exactly once and broadcasts it to the rows sharing
    it, so sibling cubes (same prefix, different last range) pay for the
    shared AND chain a single time.
    """
    k = dims_arr.shape[1]
    if k == 1:
        # Fancy indexing copies, so callers may AND into the result.
        return stack[dims_arr[:, 0], rng_arr[:, 0]]
    if len(dims_arr) == 1:
        # A lone cube (one count() miss) shares no prefix: gather its k
        # rows and AND them in one reduction.
        stats["words_and"] += (k - 1) * stack.shape[2]
        return np.bitwise_and.reduce(
            stack[dims_arr[0], rng_arr[0]], axis=0, keepdims=True
        )
    base = stack.shape[0] * stack.shape[1]
    if base ** (k - 1) < 1 << 62:
        # Encode each (k-1)-prefix as a single int64 so the duplicate
        # scan is a 1-D unique — far cheaper than unique(axis=0).
        codes = (dims_arr[:, 0] * stack.shape[1] + rng_arr[:, 0]).astype(
            np.int64
        )
        for level in range(1, k - 1):
            codes = codes * base + (
                dims_arr[:, level] * stack.shape[1] + rng_arr[:, level]
            )
        _, index, inverse = np.unique(
            codes, return_index=True, return_inverse=True
        )
        n_uniq = len(index)
    else:  # pragma: no cover - needs astronomically deep cubes
        prefix = np.concatenate([dims_arr[:, :-1], rng_arr[:, :-1]], axis=1)
        _, index, inverse = np.unique(
            prefix, axis=0, return_index=True, return_inverse=True
        )
        n_uniq = len(index)
    if n_uniq == len(dims_arr):
        # No two cubes share a prefix at this level (a GA population of
        # distinct strings): the unique machinery cannot help deeper
        # either, so AND the chain flat without further sorting.
        acc = stack[dims_arr[:, 0], rng_arr[:, 0]]
        for level in range(1, k):
            np.bitwise_and(
                acc, stack[dims_arr[:, level], rng_arr[:, level]], out=acc
            )
            stats["words_and"] += acc.size
        return acc
    inverse = inverse.reshape(-1)
    parents = _resolve_batch_masks(
        stack, dims_arr[index, :-1], rng_arr[index, :-1], stats
    )
    stats["prefix_reuse"] += len(dims_arr) - n_uniq
    acc = parents[inverse]
    np.bitwise_and(acc, stack[dims_arr[:, -1], rng_arr[:, -1]], out=acc)
    stats["words_and"] += acc.size
    return acc


def batch_counts(
    stack: np.ndarray,
    dims_arr: np.ndarray,
    rng_arr: np.ndarray,
) -> tuple[np.ndarray, dict]:
    """Counts for a batch of same-k cubes over a packed mask ``stack``.

    The numpy reference kernel: vectorized prefix-sharing AND followed
    by one popcount/sum reduction.  Every other kernel is
    proven bit-identical to this one (see
    :func:`repro.grid.backends.verify_kernel`).  Returns ``(counts,
    stats)`` with ``stats`` holding the number of words ANDed and the
    prefix reuses.
    """
    stats = {"words_and": 0, "prefix_reuse": 0}
    acc = _resolve_batch_masks(stack, dims_arr, rng_arr, stats)
    counts = np.bitwise_count(acc).sum(axis=1, dtype=np.int64)
    return counts, stats
