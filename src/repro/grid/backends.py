"""The counting-backend registry: named execution strategies for counts.

A *backend* pairs a counting **kernel** (the pure batch function, see
:mod:`repro.grid.kernels`) with an **execution strategy** (in-process,
or fanned out over the fault-tolerant
:class:`~repro.grid.parallel.CountingPool`).  Counters resolve their
:class:`~repro.core.params.CountingBackend` policy through this
registry, the CLI builds its ``--count-backend`` choices from it, and
pool workers resolve the same kernel by name so a pool-wrapped backend
runs the identical arithmetic inside every worker.

Built-ins::

    serial           numpy reference kernel, in-process
    process          numpy reference kernel, worker pool over shm
    native           compiled C kernel, in-process
    process-native   compiled kernel inside each pool worker

**Conformance.**  No kernel serves counts before it is proven
bit-identical to the reference: :func:`verify_kernel` runs a
differential fixture (packed stacks with ragged tails, missing values,
saturated masks, k = 1..5 so every branch of the C kernel is reached)
and raises :class:`BackendConformanceError` on any divergence.
Registration of a non-builtin kernel verifies eagerly; builtins are
verified once on first resolution (so importing this module stays
cheap — verifying the native kernel would trigger C compilation at
import time).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..exceptions import ReproError, ValidationError
from .kernels import batch_counts, pack_codes_block
from .native import native_batch_counts

__all__ = [
    "BackendConformanceError",
    "BackendSpec",
    "degradation_chain",
    "get_backend",
    "register_backend",
    "register_kernel",
    "registered_backends",
    "registered_kernels",
    "resolve_kernel",
    "verify_kernel",
]

#: ``kernel(stack, dims_arr, rng_arr) -> (counts, stats)``
Kernel = Callable[[np.ndarray, np.ndarray, np.ndarray], tuple]


class BackendConformanceError(ReproError):
    """A counting kernel diverged from the reference on the fixture."""


@dataclass(frozen=True)
class BackendSpec:
    """One registered counting backend.

    Attributes
    ----------
    name:
        The registry key; what ``CountingBackend.kind`` and the CLI's
        ``--count-backend`` accept.
    kernel:
        Name of the registered kernel this backend executes (see
        :func:`register_kernel`).
    uses_pool:
        Whether large batches fan out over the fault-tolerant
        :class:`~repro.grid.parallel.CountingPool` (the kernel then
        runs inside each worker, and chunk recovery re-runs it
        in-process — bit-identical either way).
    description:
        One-line summary surfaced in CLI help and docs.
    fallback:
        Name of the backend the degradation ladder steps down to when
        this one fails repeatedly (``None`` = bottom of the chain).
        Every registered backend is bit-identical to the reference, so
        walking the chain only ever trades speed, never results.
    """

    name: str
    kernel: str
    uses_pool: bool
    description: str
    fallback: str | None = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValidationError("backend name must be a non-empty string")
        if self.fallback == self.name:
            raise ValidationError(
                f"backend {self.name!r} cannot be its own fallback"
            )


_KERNELS: dict[str, Kernel] = {}
_BACKENDS: dict[str, BackendSpec] = {}

#: Kernels already proven against the reference in this process.
_VERIFIED: set[str] = set()

#: The reference kernel every registered kernel must match.
_REFERENCE_KERNEL = "numpy"


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
    batch.  This is the registration gate: a kernel that cannot pass it
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
                    "it cannot be registered"
                )
            if not isinstance(stats, dict) or not (
                {"words_and", "prefix_reuse"} <= set(stats)
            ):
                raise BackendConformanceError(
                    f"kernel {name!r} must return a stats dict with "
                    "'words_and' and 'prefix_reuse'"
                )


def register_kernel(name: str, kernel: Kernel, *, verify: bool = True) -> None:
    """Register a batch-counting kernel under *name*.

    With ``verify=True`` (the default for anything non-builtin) the
    kernel must pass :func:`verify_kernel` first; a diverging kernel
    raises and is **not** registered.
    """
    if name in _KERNELS:
        raise ValidationError(f"kernel {name!r} is already registered")
    if verify:
        verify_kernel(kernel, name)
        _VERIFIED.add(name)
    _KERNELS[name] = kernel


def resolve_kernel(name: str) -> Kernel:
    """The kernel registered under *name*, verified before first use.

    Builtin kernels registered lazily (unverified) are proven against
    the reference here, once per process — so even the builtin native
    kernel never serves a count without having passed the differential
    self-check in the environment it actually runs in.
    """
    try:
        kernel = _KERNELS[name]
    except KeyError:
        raise ValidationError(
            f"unknown counting kernel {name!r}; registered kernels: "
            f"{sorted(_KERNELS)}"
        ) from None
    if name not in _VERIFIED:
        if name != _REFERENCE_KERNEL:
            verify_kernel(kernel, name)
        _VERIFIED.add(name)
    return kernel


def registered_kernels() -> list[str]:
    """Registered kernel names, sorted."""
    return sorted(_KERNELS)


def register_backend(spec: BackendSpec, *, verify: bool = True) -> None:
    """Register a counting backend.

    The spec's kernel must already be registered; with ``verify=True``
    it is additionally proven against the reference *now* (raising
    :class:`BackendConformanceError` on divergence), so a backend whose
    kernel cannot pass the differential self-check cannot be
    registered.
    """
    if spec.name in _BACKENDS:
        raise ValidationError(f"backend {spec.name!r} is already registered")
    if spec.kernel not in _KERNELS:
        raise ValidationError(
            f"backend {spec.name!r} names unregistered kernel "
            f"{spec.kernel!r}; register the kernel first "
            f"(registered: {sorted(_KERNELS)})"
        )
    if spec.fallback is not None and spec.fallback not in _BACKENDS:
        raise ValidationError(
            f"backend {spec.name!r} names unregistered fallback "
            f"{spec.fallback!r}; register the fallback first "
            f"(registered: {registered_backends()})"
        )
    if verify:
        resolve_kernel(spec.kernel)
    _BACKENDS[spec.name] = spec


def registered_backends() -> list[str]:
    """Registered backend names, sorted — the ``--count-backend`` menu."""
    return sorted(_BACKENDS)


def get_backend(name: str) -> BackendSpec:
    """Look up a backend spec, with a menu of valid names on failure."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValidationError(
            f"unknown counting backend {name!r}; registered backends: "
            f"{registered_backends()}"
        ) from None


def degradation_chain(name: str) -> list[str]:
    """The downgrade path from backend *name* to the chain's bottom.

    E.g. ``degradation_chain("process-native")`` →
    ``["process-native", "native", "serial"]``.  Registration validates
    fallbacks exist and are not self-referential; a cycle introduced by
    third-party registrations is cut here rather than looping forever.
    """
    chain = [get_backend(name).name]
    seen = {chain[0]}
    while True:
        fallback = get_backend(chain[-1]).fallback
        if fallback is None or fallback in seen:
            return chain
        chain.append(fallback)
        seen.add(fallback)


# ----------------------------------------------------------------------
# builtins — kernels unverified at import (proven on first resolution),
# so importing the registry never triggers C compilation.
# ----------------------------------------------------------------------
register_kernel("numpy", batch_counts, verify=False)
register_kernel("native", native_batch_counts, verify=False)

register_backend(
    BackendSpec(
        name="serial",
        kernel="numpy",
        uses_pool=False,
        description="vectorized numpy kernel, in-process",
    ),
    verify=False,
)
register_backend(
    BackendSpec(
        name="process",
        kernel="numpy",
        uses_pool=True,
        description="numpy kernel fanned out over the shared-memory pool",
        fallback="serial",
    ),
    verify=False,
)
register_backend(
    BackendSpec(
        name="native",
        kernel="native",
        uses_pool=False,
        description="compiled C kernel, in-process",
        fallback="serial",
    ),
    verify=False,
)
register_backend(
    BackendSpec(
        name="process-native",
        kernel="native",
        uses_pool=True,
        description="compiled kernel inside each shared-memory pool worker",
        fallback="native",
    ),
    verify=False,
)
