"""Where counts run, and on which kernel.

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

**Conformance.**  No kernel serves counts before it is proven
bit-identical to the reference: :func:`verify_kernel` runs a
differential fixture (packed stacks with ragged tails, missing values,
saturated masks, k = 1..5 so every branch of the C kernel is reached)
and raises :class:`BackendConformanceError` on any divergence.
:func:`resolve_kernel` runs it once per process, on a kernel's first
resolution.  A C kernel that is refused (no compiler, a failed build, a
failed gate) is not a degradation: nothing the caller asked for was
refused, so :func:`select_kernel` serves the reference and reports why,
and no ladder step is recorded.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .._validation import check_choice
from ..exceptions import ReproError, ValidationError
from .kernels import batch_counts, pack_codes_block
from .native import native_batch_counts

__all__ = [
    "BackendConformanceError",
    "KERNELS",
    "PLACEMENTS",
    "canonical_backend",
    "resolve_kernel",
    "select_kernel",
    "verify_kernel",
]

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


def _fixture_grids() -> list[np.ndarray]:
    """Deterministic packed mask stacks for the differential self-check.

    N values straddle word boundaries (ragged final words), every grid
    carries missing values (rows absent from every mask of a
    dimension), and dimension 0 is forced into range 0 so saturated
    all-ones and all-zero masks are exercised.
    """
    stacks: list[np.ndarray] = []
    rng = np.random.default_rng(271828)
    for n_points, n_dims, phi in ((67, 4, 3), (128, 3, 4), (193, 5, 2)):
        codes = rng.integers(0, phi, size=(n_points, n_dims)).astype(np.int16)
        codes[rng.random(codes.shape) < 0.15] = -1
        codes[:, 0] = 0  # dimension 0 range 0: an all-ones mask
        stacks.append(pack_codes_block(codes, phi).view(np.uint64))
    return stacks


def _fixture_batches(
    n_dims: int, phi: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Same-k index batches covering k = 1..5, duplicates and siblings."""
    rng = np.random.default_rng(314159)
    batches = []
    for k in range(1, min(5, n_dims) + 1):
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
    return batches


def verify_kernel(kernel: Kernel, name: str = "<candidate>") -> None:
    """Prove *kernel* bit-identical to the reference on the fixture.

    Raises :class:`BackendConformanceError` naming the first diverging
    batch.  This is the conformance gate: a kernel that cannot pass it
    never serves counts.
    """
    for stack in _fixture_grids():
        n_dims, phi = stack.shape[0], stack.shape[1]
        for dims_arr, rng_arr in _fixture_batches(n_dims, phi):
            expected, _ = batch_counts(stack, dims_arr, rng_arr)
            got, stats = kernel(stack, dims_arr, rng_arr)
            got = np.asarray(got)
            if got.shape != expected.shape or not np.array_equal(got, expected):
                raise BackendConformanceError(
                    f"kernel {name!r} failed the differential self-check: "
                    f"counts diverge from the reference "
                    f"(k={dims_arr.shape[1]}, {stack.shape[2]} words); "
                    "it cannot serve counts"
                )
            if not isinstance(stats, dict) or not (
                {"words_and", "prefix_reuse"} <= set(stats)
            ):
                raise BackendConformanceError(
                    f"kernel {name!r} must return a stats dict with "
                    "'words_and' and 'prefix_reuse'"
                )


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


def canonical_backend(name: str) -> str:
    """*name* with a deprecated alias resolved; other names unchanged.

    A non-``str`` *name* raises :class:`ValidationError` listing the
    placements.
    """
    if not isinstance(name, str):
        check_choice(name, PLACEMENTS, "counting backend")
    return _ALIASES.get(name, name)
