"""The counting-backend registry: where counts run, and on which kernel.

A *backend* is a **placement**: ``serial`` counts in-process,
``process`` fans large batches out over the fault-tolerant
:class:`~repro.grid.parallel.CountingPool` (or, over an on-disk store,
the :class:`~repro.grid.parallel.ShardedCountingPool`).  A backend names
no kernel.  Every placement counts with the fastest kernel that has been
verified against the reference in this process, and
:func:`select_kernel` is the one place that picks it: the compiled C
kernel (:mod:`repro.grid.native`) when it builds and passes
:func:`verify_kernel`, the numpy reference (:mod:`repro.grid.kernels`)
otherwise.  Counters call it when they first resolve their kernel (never
at import, so importing this module stays cheap and never compiles),
and hand the chosen kernel's name to their pool workers, which resolve
the same kernel so every chunk runs the identical arithmetic.

Counters resolve their :class:`~repro.core.params.CountingBackend`
policy through this registry, and the CLI builds its
``--count-backend`` choices from it.  Built-ins::

    serial    in-process
    process   worker pool over shared memory (or the shard store)

``native`` and ``process-native``, the names that used to pick the C
kernel by hand, are deprecated aliases of ``serial`` and ``process``:
they are accepted silently for one release and resolve to the
placement they name.

**Conformance.**  No kernel serves counts before it is proven
bit-identical to the reference: :func:`verify_kernel` runs a
differential fixture (packed stacks with ragged tails, missing values,
saturated masks, k = 1..5 so every branch of the C kernel is reached)
and raises :class:`BackendConformanceError` on any divergence.
Registration of a non-builtin kernel verifies eagerly; builtins are
verified once on first resolution.  A C kernel that is refused (no
compiler, a failed build, a failed gate) is not a degradation: nothing
the caller asked for was refused, so :func:`select_kernel` serves the
reference and reports why, and no ladder step is recorded.
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
    "canonical_backend",
    "degradation_chain",
    "get_backend",
    "register_backend",
    "register_kernel",
    "registered_backends",
    "registered_kernels",
    "resolve_kernel",
    "select_kernel",
    "verify_kernel",
]

#: ``kernel(stack, dims_arr, rng_arr) -> (counts, stats)``
Kernel = Callable[[np.ndarray, np.ndarray, np.ndarray], tuple]


class BackendConformanceError(ReproError):
    """A counting kernel diverged from the reference on the fixture."""


@dataclass(frozen=True)
class BackendSpec:
    """One registered counting backend: a placement.

    Attributes
    ----------
    name:
        The registry key; what ``CountingBackend.kind`` and the CLI's
        ``--count-backend`` accept.
    uses_pool:
        Whether large batches fan out over the fault-tolerant
        :class:`~repro.grid.parallel.CountingPool` (the chosen kernel
        then runs inside each worker, and chunk recovery re-runs it
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

#: Deprecated backend names and the placement each resolves to.
_ALIASES: dict[str, str] = {}

#: Kernels already proven against the reference in this process.
_VERIFIED: set[str] = set()

#: The reference kernel every registered kernel must match.
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


def register_backend(spec: BackendSpec) -> None:
    """Register a counting backend (a placement).

    Its fallback, if any, must already be registered.
    """
    if spec.name in _BACKENDS or spec.name in _ALIASES:
        raise ValidationError(f"backend {spec.name!r} is already registered")
    if spec.fallback is not None and spec.fallback not in _BACKENDS:
        raise ValidationError(
            f"backend {spec.name!r} names unregistered fallback "
            f"{spec.fallback!r}; register the fallback first "
            f"(registered: {registered_backends()})"
        )
    _BACKENDS[spec.name] = spec


def _register_alias(alias: str, target: str) -> None:
    """Accept the deprecated name *alias* for the backend *target*."""
    get_backend(target)
    _ALIASES[alias] = target


def registered_backends() -> list[str]:
    """Registered backend names, sorted — the ``--count-backend`` menu.

    Deprecated aliases are accepted by :func:`get_backend` but not
    listed.
    """
    return sorted(_BACKENDS)


def canonical_backend(name: str) -> str:
    """*name* with a deprecated alias resolved; other names unchanged."""
    return _ALIASES.get(name, name)


def get_backend(name: str) -> BackendSpec:
    """Look up a backend spec, with a menu of valid names on failure.

    A deprecated alias returns the spec of the backend it names.
    """
    try:
        return _BACKENDS[canonical_backend(name)]
    except KeyError:
        raise ValidationError(
            f"unknown counting backend {name!r}; registered backends: "
            f"{registered_backends()}"
        ) from None


def degradation_chain(name: str) -> list[str]:
    """The downgrade path from backend *name* to the chain's bottom.

    E.g. ``degradation_chain("process")`` → ``["process", "serial"]``.
    Registration validates fallbacks exist and are not self-referential;
    a cycle introduced by third-party registrations is cut here rather
    than looping forever.
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
        uses_pool=False,
        description="in-process, on the C kernel when it builds",
    )
)
register_backend(
    BackendSpec(
        name="process",
        uses_pool=True,
        description="chunks fanned out over the shared-memory worker pool",
        fallback="serial",
    )
)
# Deprecated: the C kernel is the default wherever it builds.
_register_alias("native", "serial")
_register_alias("process-native", "process")
