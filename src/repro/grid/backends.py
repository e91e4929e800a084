"""Where counts run, on which kernel, and what builds the grid.

A counting backend is a **placement**, one of :data:`PLACEMENTS`:
``serial`` counts in-process, ``process`` fans large batches out over
the fault-tolerant :class:`~repro.grid.parallel.CountingPool` (or, over
an on-disk store, the :class:`~repro.grid.parallel.ShardedCountingPool`)
and falls back to ``serial`` when the pool fails.  A placement names no
kernel.  Every placement counts with the fastest kernel of
:data:`KERNELS` that has been verified against the reference in this
process, and :func:`select_kernel` is the one place that picks it: the
compiled C kernel (:mod:`repro.grid.native`) when it builds and passes
:func:`verify_kernel`, the numpy reference (:mod:`repro.grid.kernels`)
otherwise.  Counters call it when they first resolve their kernel
(never at import, so importing this module stays cheap and never
compiles), and hand the chosen kernel's name to their pool workers,
which resolve the same kernel through :func:`resolve_kernel` so every
chunk runs the identical arithmetic.

``CountingBackend.kind`` is checked against :data:`PLACEMENTS`, and the
CLI builds its ``--count-backend`` choices from it.  ``native`` and
``process-native``, the names that used to pick the C kernel by hand,
are deprecated aliases of ``serial`` and ``process``: they are accepted
silently for one release and resolve to the placement they name.

The grid build and request scoring follow the same choice.
:func:`column_copies` (the column copies the cut fit sorts),
:func:`range_codes` (values to range codes), :func:`pack_codes` (codes
to the packed mask stack), :func:`pack_codes_into` (appended codes into
a counter's last row block) and :func:`bind_scorer` (raw request rows
to scores against a mined set, in one pass, bound once per grid and
mined set; :func:`score_rows` for one request) run in the C library
while :func:`select_kernel` picks the native kernel, and on the numpy
references otherwise; discretizers, counters, the shard writer and both
scorers call only these.

**Conformance.**  No kernel serves counts before it is proven
bit-identical to the reference: :func:`verify_kernel` runs a
differential fixture (packed stacks with ragged tails, missing values,
saturated masks, k = 1..5 so every branch of the C kernel is reached,
and a mixed-k batch padded as the evolutionary search's gene matrices
are), on contiguous stacks and on the filled prefix of row blocks with
spare capacity, and raises :class:`BackendConformanceError` on any
divergence.  For the
native kernel it also proves the C grid build: packed stacks
byte-identical to :func:`~repro.grid.kernels.pack_codes_block` (ragged
64-bit tails, ``MISSING_CELL``, φ = 2, no rows), whole or packed in
appended runs, codes byte-identical
to :func:`~repro.grid.kernels.range_codes_block` (NaN, signed zeros,
values equal to a cut, both sides of the comparison/binary-search
cutover, C, Fortran and strided layouts), exact column gathers and
request scores equal to :func:`~repro.core.results.score_cells` on the
reference codes (the same values and layouts plus zero rows, against
mixed-k sets of 0, 1, 64 and 65 cubes with k = 0 and padded cubes,
NaN and ±0.0 coefficients), signed zeros included.
:func:`resolve_kernel` runs it once per process, on a kernel's first
resolution.  A C kernel that is refused (no compiler, a failed build, a
failed gate) is not a degradation: nothing the caller asked for was
refused, so :func:`select_kernel` serves the reference and reports why,
and no ladder step is recorded.
"""

from __future__ import annotations

import functools
import logging
from collections.abc import Callable

import numpy as np

from .._validation import check_choice
from ..core.results import CubeTable, score_cells
from ..exceptions import ReproError, ResourceError, ValidationError
from .cells import MISSING_CELL
from .kernels import (
    batch_counts,
    pack_codes_block,
    pack_codes_block_into,
    range_codes_block,
)
from .native import (
    NativeScorer,
    native_batch_counts,
    native_gather_columns,
    native_pack_codes,
    native_pack_codes_into,
    native_range_codes,
    native_score_rows,
)

__all__ = [
    "BackendConformanceError",
    "KERNELS",
    "PLACEMENTS",
    "bind_scorer",
    "canonical_backend",
    "column_copies",
    "pack_codes",
    "pack_codes_into",
    "proof_layouts",
    "proven_gate",
    "range_codes",
    "resolve_kernel",
    "score_rows",
    "select_kernel",
    "verify_kernel",
]

logger = logging.getLogger(__name__)

#: ``kernel(stack, dims_arr, rng_arr) -> (counts, stats)``
Kernel = Callable[[np.ndarray, np.ndarray, np.ndarray], tuple]


class BackendConformanceError(ReproError):
    """A counting kernel diverged from the reference on the fixture."""


#: The placements ``CountingBackend.kind`` and ``--count-backend``
#: accept, with their CLI descriptions.  Only ``process`` uses the
#: worker pool, and it falls back to ``serial``.
PLACEMENTS: dict[str, str] = {
    "serial": "in-process",
    "process": "chunks fanned out over a shared-memory worker pool",
}

#: Deprecated backend names and the placement each resolves to.
_ALIASES: dict[str, str] = {"native": "serial", "process-native": "process"}

#: The batch-counting kernels, by the name pool workers resolve.
KERNELS: dict[str, Kernel] = {
    "numpy": batch_counts,
    "native": native_batch_counts,
}

#: Kernels already proven against the reference in this process.
_VERIFIED: set[str] = set()

#: The reference kernel every kernel must match.
_REFERENCE_KERNEL = "numpy"

#: The compiled kernel every placement prefers once it passes the gate.
_FAST_KERNEL = "native"

#: Columns :func:`column_copies` gathers per pass on the C tier: a few
#: columns' scratch copies, never a transposed copy of the whole matrix.
_GATHER_COLUMNS = 4


def _fixture_codes() -> list[tuple[np.ndarray, int]]:
    """Deterministic ``(codes, φ)`` blocks for the differential self-check.

    N values straddle word boundaries (ragged final words) and include
    the empty block, every block carries missing values (rows absent
    from every mask of a dimension), φ = 2 is covered, and dimension 0
    is forced into range 0 so saturated all-ones and all-zero masks are
    exercised.
    """
    blocks = []
    rng = np.random.default_rng(271828)
    shapes = ((67, 4, 3), (128, 3, 4), (193, 5, 2), (0, 2, 3))
    for n_points, n_dims, phi in shapes:
        codes = rng.integers(0, phi, size=(n_points, n_dims)).astype(np.int16)
        codes[rng.random(codes.shape) < 0.15] = MISSING_CELL
        codes[:, 0] = 0  # dimension 0 range 0: an all-ones mask
        blocks.append((codes, phi))
    return blocks


@functools.cache
def _fixture_grids() -> tuple[np.ndarray, ...]:
    """Packed mask stacks of :func:`_fixture_codes` with cubes to count.

    Built once per process and read-only: without a compiler,
    :func:`select_kernel` re-runs the gate on every call, and the gate
    then costs one refused kernel call, not a fixture build.
    """
    stacks = tuple(
        pack_codes_block(codes, phi).view(np.uint64)
        for codes, phi in _fixture_codes()
        if len(codes)
    )
    for stack in stacks:
        stack.flags.writeable = False
    return stacks


@functools.cache
def _fixture_spare_grids() -> tuple[np.ndarray, ...]:
    """:func:`_fixture_grids` as the filled prefix of row blocks with a
    spare all-ones word per mask row: the layout of a counter's tail
    block, which a kernel must count in place without reading past it."""
    views = []
    for stack in _fixture_grids():
        wide = np.full(stack.shape[:2] + (stack.shape[2] + 1,), ~np.uint64(0))
        wide[:, :, :-1] = stack
        wide.flags.writeable = False
        views.append(wide[:, :, :-1])
    return tuple(views)


def _fixture_values() -> list[tuple[np.ndarray, np.ndarray]]:
    """``(matrix, cut matrix)`` pairs for the grid-build self-check.

    φ = 2, 65 and 66 put the cut count on both sides of the
    comparison/binary-search cutover; values include NaN, signed zeros,
    values equal to a cut and values past both ends; the matrices come
    C-ordered, Fortran-ordered and as a strided column slice.
    """
    rng = np.random.default_rng(161803)
    pairs = []
    for phi in (2, 10, 65, 66):
        values = np.round(rng.normal(size=(70, 6)), 1)
        cuts = np.round(rng.normal(size=(6, phi - 1)), 1)
        cuts[:, 0] = 0.0
        cuts.sort(axis=1)
        values[::5] = cuts[:, (phi - 1) // 2]  # values equal to a cut
        values[1::7] = -0.0
        values[2::9] = np.nan
        values[3, :] = 10.0
        values[4, :] = -10.0
        pairs += [
            (values, cuts),
            (np.asfortranarray(values), cuts),
            (values[::2, 1::2], cuts[1::2]),
        ]
    return pairs


def _fixture_tables(codes: np.ndarray, phi: int) -> list[CubeTable]:
    """Mined sets of m = 0, 1, 64 and 65 cubes over *codes*' columns.

    The sets are prefixes of one 65-cube table.  Its cubes fix k = 1..4
    dimensions (padded rows repeat their last pair) and take their
    ranges from the codes of a row, so most cover something; a missing
    code becomes a random range, one past the grid included.  Cubes 16,
    32, 48 and 64 are k = 0 cubes, which cover every row, with
    coefficients 0.0, NaN, -0.0 and 1.5; the rest draw from NaN, ±0.0
    and values that tie, cube 0's being -0.0.  So rows score NaN (under
    the one-cube set), -0.0 and 0.0, and the 65th cube crosses into a
    second 64-bit word.
    """
    rng = np.random.default_rng(141421)
    n, d = codes.shape
    ks = rng.integers(1, min(4, d) + 1, size=65)
    ks[16::16] = 0
    coefficients = rng.choice([-1.0, -0.0, 0.0, np.nan, 1.5], size=65)
    coefficients[0] = -0.0
    coefficients[16::16] = [0.0, np.nan, -0.0, 1.5]
    kmax = int(ks.max())
    # The first k of a random order of the columns, sorted, padded.
    order = np.argsort(rng.random((65, d)), axis=1)[:, :kmax]
    fixed = np.sort(np.where(np.arange(kmax) < ks[:, None], order, d), axis=1)
    pad = np.minimum(np.arange(kmax), np.maximum(ks - 1, 0)[:, None])
    dims = np.take_along_axis(fixed, pad, axis=1)
    dims[ks == 0] = 0
    ranges = codes[rng.integers(n, size=(65, 1)), dims]
    missing = ranges < 0
    ranges[missing] = rng.integers(0, phi + 1, size=int(missing.sum()))
    ranges = np.take_along_axis(ranges, pad, axis=1)
    return [
        CubeTable(dims[:m], ranges[:m], coefficients[:m], ks[:m] == 0)
        for m in (0, 1, 64, 65)
    ]


def _same_scores(got: np.ndarray, expected: np.ndarray) -> bool:
    """Equal scores, NaN positions and the sign of every zero included."""
    nan = np.isnan(expected)
    return (
        got.shape == expected.shape
        and np.array_equal(np.isnan(got), nan)
        and np.array_equal(got[~nan], expected[~nan])
        and np.array_equal(np.signbit(got[~nan]), np.signbit(expected[~nan]))
    )


def _verify_grid_build(name: str) -> None:
    """Prove the C library's pack, codes, scoring and gather on the fixture."""
    for codes, phi in _fixture_codes():
        for block in (codes, np.asfortranarray(codes)):
            expected = pack_codes_block(block, phi)
            got = native_pack_codes(block, phi)
            if got.shape != expected.shape or not np.array_equal(got, expected):
                raise BackendConformanceError(
                    f"kernel {name!r} failed the differential self-check: "
                    f"packed masks of {block.shape} codes (phi={phi}) "
                    "diverge from the reference; it cannot build grids"
                )
        # Appends: the rows in runs cut inside a byte and at a word
        # boundary, into a stack with a spare word per row.
        n = len(codes)
        got = np.zeros((codes.shape[1], phi, expected.shape[2] + 8), np.uint8)
        bounds = sorted({0, n // 3, min(n, 64), n})
        for lo, hi in zip(bounds, bounds[1:]):
            native_pack_codes_into(codes[lo:hi], got, lo)
        if not (
            np.array_equal(got[:, :, : expected.shape[2]], expected)
            and not got[:, :, expected.shape[2]:].any()
        ):
            raise BackendConformanceError(
                f"kernel {name!r} failed the differential self-check: "
                f"masks of {codes.shape} codes (phi={phi}) packed in "
                "appended runs diverge from the reference; it cannot "
                "append rows"
            )
    for values, cuts in _fixture_values():
        expected = range_codes_block(values, cuts)
        got = native_range_codes(values, cuts)
        if got.dtype != expected.dtype or not np.array_equal(got, expected):
            raise BackendConformanceError(
                f"kernel {name!r} failed the differential self-check: "
                f"codes of {values.shape} values (phi={cuts.shape[1] + 1}) "
                "diverge from the reference; it cannot build grids"
            )
        out = np.empty((values.shape[1] - 1, values.shape[0]))
        native_gather_columns(values, 1, out)
        if not np.array_equal(out, values[:, 1:].T, equal_nan=True):
            raise BackendConformanceError(
                f"kernel {name!r} failed the differential self-check: "
                f"gathered columns of {values.shape} values diverge from "
                "the reference; it cannot build grids"
            )
    _verify_scoring(name)


def _verify_scoring(name: str) -> None:
    """Prove the C library's request scoring on the fixture.

    The value pairs come in threes per φ (C-ordered, Fortran-ordered,
    strided column slice); tables over the strided slice's three
    columns fit all three.  The C-ordered request meets every table,
    the other layouts and the zero-row request the largest.
    """
    pairs = _fixture_values()
    for group in range(0, len(pairs), 3):
        ordered, fortran, strided = pairs[group:group + 3]
        tables = _fixture_tables(
            range_codes_block(*strided), strided[1].shape[1] + 1
        )
        requests = [(*ordered, tables)] + [
            (values, cuts, tables[-1:])
            for values, cuts in (fortran, strided, (ordered[0][:0], ordered[1]))
        ]
        for values, cuts, chosen in requests:
            codes = range_codes_block(values, cuts)
            for table in chosen:
                expected = score_cells(codes, table)
                got = native_score_rows(
                    values, cuts, table.dims, table.ranges, table.coefficients,
                    table.free,
                )
                if not _same_scores(got, expected):
                    raise BackendConformanceError(
                        f"kernel {name!r} failed the differential self-check: "
                        f"scores of {values.shape} values against "
                        f"{len(table.coefficients)} cubes "
                        f"(phi={cuts.shape[1] + 1}) diverge from the "
                        "reference; it cannot score requests"
                    )


@functools.cache
def _fixture_batches(
    n_dims: int, phi: int
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Index batches covering k = 1..5, duplicates and siblings, plus
    one mixed-k batch padded as
    :meth:`~repro.grid.counter.CubeCounter.count_genes` pads (each row
    repeats its last ``(dim, range)`` pair up to the largest k); built
    once per grid shape, read-only."""
    rng = np.random.default_rng(314159)
    batches = []
    k_max = min(5, n_dims)
    for k in range(1, k_max + 1):
        dims = np.sort(
            np.stack([
                rng.choice(n_dims, size=k, replace=False) for _ in range(24)
            ]),
            axis=1,
        ).astype(np.intp)
        ranges = rng.integers(0, phi, size=(24, k)).astype(np.intp)
        # Force exact duplicates and prefix-sharing siblings into the
        # batch — the cases the reference kernel optimizes.
        dims[1] = dims[0]
        ranges[1] = ranges[0]
        dims[2] = dims[0]
        if k > 1:
            ranges[2, :-1] = ranges[0, :-1]
        batches.append((dims, ranges))
    # The mixed-k batch: rows 0..k_max-1 fix k = 1..k_max, the rest at
    # random.
    ks = rng.integers(1, k_max + 1, size=24)
    ks[:k_max] = np.arange(1, k_max + 1)
    pad = np.minimum(np.arange(k_max), ks[:, None] - 1)
    dims = np.sort(
        np.stack([rng.choice(n_dims, size=k_max, replace=False) for _ in range(24)]),
        axis=1,
    ).astype(np.intp)
    ranges = rng.integers(0, phi, size=(24, k_max)).astype(np.intp)
    batches.append((
        np.take_along_axis(dims, pad, axis=1),
        np.take_along_axis(ranges, pad, axis=1),
    ))
    for dims, ranges in batches:
        dims.flags.writeable = ranges.flags.writeable = False
    return tuple(batches)


def verify_kernel(kernel: Kernel, name: str = "<candidate>") -> None:
    """Prove *kernel* bit-identical to the reference on the fixture.

    Every kernel counts each fixture stack twice: contiguous, and as
    the filled prefix of a row block whose spare word per row is all
    ones (a counter's last block), which it must read in place without
    reading past.  When *name* is the native kernel's, the rest of the
    C library that comes with it (pack, codes, gather and scoring) is
    proven too: byte-identical packed masks to
    :func:`~repro.grid.kernels.pack_codes_block` (ragged tails, missing
    codes, φ = 2, the empty block; whole, and in appended runs cut
    inside a byte and at a word), byte-identical codes to
    :func:`~repro.grid.kernels.range_codes_block` (NaN, signed zeros,
    values equal to a cut, both sides of the comparison/binary-search
    cutover, C, Fortran and strided layouts), exact column copies and
    request scores equal to :func:`~repro.core.results.score_cells`
    (:func:`_verify_scoring`).

    Raises :class:`BackendConformanceError` naming the first diverging
    batch.  This is the conformance gate: a kernel that cannot pass it
    never serves counts, nor builds a grid, nor scores a request.
    """
    for stack, spare in zip(_fixture_grids(), _fixture_spare_grids()):
        n_dims, phi = stack.shape[0], stack.shape[1]
        for dims_arr, rng_arr in _fixture_batches(n_dims, phi):
            expected, _ = batch_counts(stack, dims_arr, rng_arr)
            for layout, where in ((stack, ""), (spare, ", spare capacity")):
                got, stats = kernel(layout, dims_arr, rng_arr)
                got = np.asarray(got)
                if got.shape != expected.shape or not np.array_equal(
                    got, expected
                ):
                    raise BackendConformanceError(
                        f"kernel {name!r} failed the differential self-check: "
                        f"counts diverge from the reference "
                        f"(k={dims_arr.shape[1]}, {stack.shape[2]} words"
                        f"{where}); it cannot serve counts"
                    )
            if not isinstance(stats, dict) or not (
                {"words_and", "prefix_reuse"} <= set(stats)
            ):
                raise BackendConformanceError(
                    f"kernel {name!r} must return a stats dict with "
                    "'words_and' and 'prefix_reuse'"
                )
    if name == _FAST_KERNEL:
        _verify_grid_build(name)


def resolve_kernel(name: str) -> Kernel:
    """The kernel of :data:`KERNELS` named *name*, verified before first use.

    Every kernel but the reference is proven against it here, once per
    process — so even the builtin native kernel never serves a count
    without having passed the differential self-check in the
    environment it actually runs in.
    """
    try:
        kernel = KERNELS[name]
    except KeyError:
        raise ValidationError(
            f"unknown counting kernel {name!r}; kernels: {sorted(KERNELS)}"
        ) from None
    if name not in _VERIFIED:
        if name != _REFERENCE_KERNEL:
            verify_kernel(kernel, name)
        _VERIFIED.add(name)
    return kernel


def select_kernel() -> tuple[str, str | None]:
    """The kernel every placement counts with, as ``(name, reason)``.

    ``("native", None)`` when the C kernel builds in this process and
    passes :func:`verify_kernel`; otherwise ``("numpy", reason)``, the
    reason being why the C kernel was refused (the build failure, or
    the conformance failure).  The first call builds the kernel (the
    build outcome is cached per process), so counters call this when
    they first resolve their kernel, not at import.
    """
    try:
        resolve_kernel(_FAST_KERNEL)
    except ReproError as exc:
        return _REFERENCE_KERNEL, str(exc)
    return _FAST_KERNEL, None


def proven_gate(prove: Callable[[], None], fallback: str) -> Callable[[], bool]:
    """A predicate: whether a C routine proven by *prove* may serve.

    For routines whose proof sits in a layer this one does not import
    (the search layer's operators).  The predicate is true once
    :func:`select_kernel` picks the native kernel and *prove* has
    passed.  *prove* runs at most once per process, on the first call
    after the library serves (its outcome is cached on
    ``predicate.verdict``: ``None`` or the failure); a
    :class:`BackendConformanceError` it raises is logged once, followed
    by *fallback*, which names what serves instead.  A library that
    cannot be loaded right now gives no verdict.
    """

    @functools.cache
    def verdict() -> str | None:
        try:
            prove()
        except BackendConformanceError as exc:
            logger.warning("%s; %s", exc, fallback)
            return str(exc)
        return None

    def serves() -> bool:
        if select_kernel()[0] != _FAST_KERNEL:
            return False
        try:
            return verdict() is None
        except ResourceError:
            return False

    serves.verdict = verdict
    return serves


def proof_layouts(stack: np.ndarray) -> tuple[list, ...]:
    """The row-block layouts a :func:`proven_gate` proof runs a C routine
    over: *stack* (``(d, φ, W)`` uint64) whole, as 64-row (one-word)
    blocks, and as those blocks in buffers with an all-ones spare word
    after each, which the routine must never read."""
    blocks = [stack[:, :, lo : lo + 1] for lo in range(stack.shape[2])]
    spare = []
    for block in blocks:
        wide = np.full(block.shape[:2] + (2,), ~np.uint64(0))
        wide[:, :, :1] = block
        spare.append(wide[:, :, :1])
    return [stack], blocks, spare


def pack_codes(codes: np.ndarray, n_ranges: int) -> np.ndarray:
    """The packed ``(d, φ, W8)`` mask stack of an ``(n, d)`` code block.

    Byte-identical on every tier: an ``int16`` block (what every
    discretizer and :func:`~repro.grid.cells.check_code_block` produce)
    packs in C when :func:`select_kernel` picks the native kernel, any
    other block on the reference :func:`~repro.grid.kernels.pack_codes_block`.
    Both fire the ``packed_alloc`` fault point before they allocate.
    """
    if codes.dtype == np.int16 and select_kernel()[0] == _FAST_KERNEL:
        return native_pack_codes(codes, n_ranges)
    return pack_codes_block(codes, n_ranges)


def pack_codes_into(codes: np.ndarray, out: np.ndarray, first: int) -> None:
    """Pack an ``(n, d)`` int16 code block into rows ``first..`` of *out*.

    *out* is a C-contiguous ``(d, φ, bytes)`` uint8 stack with room for
    the rows and no bit set from row *first* on; the rows below stay
    as they are.  The codes must lie in ``[MISSING_CELL, φ)``: the
    caller validated them (the counter's append validates its input
    once), so they are not scanned again.  Byte-identical on every
    tier: in C when :func:`select_kernel` picks the native kernel, else
    :func:`~repro.grid.kernels.pack_codes_block_into`.
    """
    if select_kernel()[0] == _FAST_KERNEL:
        native_pack_codes_into(codes, out, first, codes_checked=True)
    else:
        pack_codes_block_into(codes, out, first)


def range_codes(array: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Range codes ``#{cuts < v}`` of a float64 ``(n, d)`` matrix.

    *cuts* is the sorted ``(d, φ−1)`` cut matrix.  Byte-identical on
    every tier: in C when :func:`select_kernel` picks the native
    kernel, else :func:`~repro.grid.kernels.range_codes_block`.
    """
    if select_kernel()[0] == _FAST_KERNEL:
        return native_range_codes(array, cuts)
    return range_codes_block(array, cuts)


def bind_scorer(
    cuts: np.ndarray, table: CubeTable
) -> Callable[[np.ndarray], np.ndarray]:
    """The scorer of one grid and one mined set: request rows to scores.

    *cuts* is the sorted ``(d, φ−1)`` cut matrix and *table* the mined
    set, whose column check the caller runs.  The tier is chosen here,
    once: a :class:`~repro.grid.native.NativeScorer`, which codes and
    tests each row of a float64 ``(n, d)`` request in one C pass
    without building a code block, when :func:`select_kernel` picks the
    native kernel; else ``score_cells(range_codes_block(array, cuts),
    table)``.  Bit-identical either way, NaN positions and signed zeros
    included.
    """
    if select_kernel()[0] == _FAST_KERNEL:
        return NativeScorer(
            cuts, table.dims, table.ranges, table.coefficients, table.free
        )
    return lambda array: score_cells(range_codes_block(array, cuts), table)


def score_rows(
    array: np.ndarray,
    cuts: np.ndarray,
    dims: np.ndarray,
    ranges: np.ndarray,
    coefficients: np.ndarray,
    free: np.ndarray,
) -> np.ndarray:
    """Deviation score per row of a float64 ``(n, d)`` request.

    :func:`bind_scorer` for one request: *dims*, *ranges*,
    *coefficients* and *free* are a
    :class:`~repro.core.results.CubeTable`'s arrays, whose column check
    the caller has run.
    """
    return bind_scorer(cuts, CubeTable(dims, ranges, coefficients, free))(array)


def column_copies(array: np.ndarray):
    """Yield each column of a float64 ``(n, d)`` matrix as a contiguous copy.

    A consumer may reorder a yielded column in place, but must not keep
    it: on the C tier the columns are rows of one ``(4, n)`` scratch
    buffer, refilled :data:`_GATHER_COLUMNS` columns per pass, so a
    row-major matrix is read a few columns at a time and never copied
    whole.  On the numpy tier each column is ``array[:, j].copy()``.
    """
    if select_kernel()[0] != _FAST_KERNEL:
        for j in range(array.shape[1]):
            yield array[:, j].copy()
        return
    n, d = array.shape
    buffer = np.empty((min(_GATHER_COLUMNS, d), n))
    for first in range(0, d, _GATHER_COLUMNS):
        block = buffer[: min(_GATHER_COLUMNS, d - first)]
        native_gather_columns(array, first, block)
        yield from block


def canonical_backend(name: str) -> str:
    """*name* with a deprecated alias resolved; other names unchanged.

    A non-``str`` *name* raises :class:`ValidationError` listing the
    placements.
    """
    if not isinstance(name, str):
        check_choice(name, PLACEMENTS, "counting backend")
    return _ALIASES.get(name, name)
