"""Projection-parameter selection (§2.4 / Equation 2).

The dimensionality ``k`` of mined projections cannot be chosen freely:
too large and *every* cube is empty by default (no cube both attains a
very negative sparsity coefficient and covers at least one point), too
small and projections are insufficiently specific.  §2.4 derives the
sweet spot from the sparsity coefficient of an **empty** cube,

    S_empty = −sqrt(N / (φ^k − 1)),

and solves ``S_empty = s`` for the user's target significance ``s``
(−3 by default, the "99.9%" reference point):

    k* = floor( log_φ( N / s² + 1 ) )            (Equation 2)

``k*`` is "the largest value of k at which abnormally sparse projections
may be found before the effects of high dimensionality result in sparse
projections by default", and also the most informative choice.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .._validation import check_choice, check_in_range, check_positive_int
from ..exceptions import ValidationError

__all__ = [
    "CountingBackend",
    "empty_cube_sparsity",
    "expected_cube_count",
    "choose_projection_dimensionality",
    "ParameterAdvisor",
]


@dataclass(frozen=True)
class CountingBackend:
    """Execution policy for batched cube counting (``count_batch``).

    Attributes
    ----------
    kind:
        A placement of :data:`repro.grid.backends.PLACEMENTS`: where
        counts run.  ``"serial"`` evaluates batches in-process;
        ``"process"`` additionally fans chunks of a batch out to a pool
        of worker processes that attach to the counter's membership
        masks through shared memory.  Both
        count with the fastest kernel verified against the reference
        in this process — the compiled C kernel when it builds, the
        numpy reference otherwise — and report which in
        ``counter.kernel_info()``.  ``"native"`` and
        ``"process-native"`` are deprecated aliases of ``"serial"`` and
        ``"process"``; ``kind`` holds the name they resolve to.  Counts
        are integers, chunk boundaries are deterministic, chunk results
        are reassembled in submission order, and every kernel is proven
        bit-identical to the reference before it serves counts — so
        every kind returns bit-identical results for any worker count.
    n_workers:
        Size of the process pool (``None`` → ``os.cpu_count()``).
        Ignored by the serial backend.
    chunk_size:
        Cubes per worker task.  Batches no larger than one chunk are
        evaluated in-process even under the process backend, since the
        pool round-trip would dominate.
    timeout:
        Seconds to wait for one chunk before declaring it hung
        (``None`` disables the watchdog — the default, so healthy runs
        pay no overhead).  A timed-out chunk counts as a failed attempt
        and the pool is rebuilt, since a wedged worker cannot be
        reclaimed.
    max_retries:
        Failed dispatch attempts per chunk before that chunk degrades
        to the in-process serial kernel (bit-identical counts).
    retry_backoff:
        Base of the exponential backoff slept between retry waves.
    max_rebuilds:
        Pool rebuilds (after ``BrokenProcessPool`` or a timeout) before
        the pool is abandoned and the whole run degrades to serial.

    Chaos tests arm the ``worker_*`` fault points of
    :mod:`repro.resilience.faults` around a run to break its workers.
    """

    kind: str = "serial"
    n_workers: int | None = None
    chunk_size: int = 4096
    timeout: float | None = None
    max_retries: int = 2
    retry_backoff: float = 0.05
    max_rebuilds: int = 3

    def __post_init__(self) -> None:
        # Late import: the placements live in the grid layer, which
        # imports this module for the policy dataclasses.
        from ..grid.backends import PLACEMENTS, canonical_backend

        # A deprecated alias resolves to the placement it names.
        kind = check_choice(
            canonical_backend(self.kind), PLACEMENTS, "counting backend"
        )
        object.__setattr__(self, "kind", kind)
        if self.n_workers is not None:
            check_positive_int(self.n_workers, "n_workers")
        check_positive_int(self.chunk_size, "chunk_size")
        if self.timeout is not None and check_in_range(self.timeout, "timeout") <= 0:
            raise ValidationError(f"timeout must be > 0, got {self.timeout}")
        check_positive_int(self.max_retries, "max_retries", minimum=0)
        check_in_range(self.retry_backoff, "retry_backoff", low=0)
        check_positive_int(self.max_rebuilds, "max_rebuilds", minimum=0)

    def resolved_workers(self) -> int:
        """The effective pool size: ``n_workers`` or the CPU count."""
        if self.n_workers is not None:
            return self.n_workers
        return os.cpu_count() or 1

    def retry_policy(self):
        """This backend's knobs as a shared :class:`RetryPolicy`.

        ``max_retries`` counts retries, the policy counts attempts, so
        ``max_attempts = max_retries + 1`` — the pool's historical
        "initial dispatch plus ``max_retries`` redispatches" behaviour
        is preserved exactly.
        """
        # Late import for the same layering reason as PLACEMENTS above.
        from ..resilience.retry import RetryPolicy

        return RetryPolicy(
            max_attempts=self.max_retries + 1,
            backoff=self.retry_backoff,
            backoff_cap=1.0,
        )


def expected_cube_count(n_points: int, n_ranges: int, dimensionality: int) -> float:
    """Expected points per k-dimensional cube, ``N / φ^k``."""
    n_points = check_positive_int(n_points, "n_points")
    n_ranges = check_positive_int(n_ranges, "n_ranges")
    dimensionality = check_positive_int(dimensionality, "dimensionality", minimum=0)
    return n_points / float(n_ranges**dimensionality)


def empty_cube_sparsity(n_points: int, n_ranges: int, dimensionality: int) -> float:
    """Sparsity coefficient of an empty k-dimensional cube.

    From Equation 1 with ``n(D) = 0``:

        S = −N·f^k / sqrt(N·f^k·(1−f^k)) = −sqrt(N / (φ^k − 1)).

    This is the most negative coefficient any cube can attain, so it
    bounds how significant a k-dimensional finding can possibly be.
    """
    n_points = check_positive_int(n_points, "n_points")
    n_ranges = check_positive_int(n_ranges, "n_ranges", minimum=2)
    dimensionality = check_positive_int(dimensionality, "dimensionality")
    return -math.sqrt(n_points / (float(n_ranges) ** dimensionality - 1.0))


def choose_projection_dimensionality(
    n_points: int,
    n_ranges: int,
    target_sparsity: float = -3.0,
) -> int:
    """Equation 2: ``k* = floor(log_φ(N/s² + 1))``.

    Parameters
    ----------
    n_points:
        Dataset size N.
    n_ranges:
        Grid resolution φ.
    target_sparsity:
        The user's significance reference ``s`` (must be negative;
        −3 ≈ 99.9% under the normal approximation).

    Returns
    -------
    int
        ``k*``, at least 1.  Because of the floor, the *effective*
        sparsity of an empty k*-cube is slightly more negative than
        ``s`` — exactly the rounding behaviour the paper describes.
    """
    n_points = check_positive_int(n_points, "n_points")
    n_ranges = check_positive_int(n_ranges, "n_ranges", minimum=2)
    target_sparsity = check_in_range(target_sparsity, "target_sparsity", high=0.0)
    if target_sparsity == 0.0:
        raise ValidationError("target_sparsity must be strictly negative")
    k_star = math.floor(math.log(n_points / target_sparsity**2 + 1.0, n_ranges))
    return max(1, k_star)


@dataclass(frozen=True)
class ParameterAdvisor:
    """Bundles §2.4's parameter guidance for one dataset.

    Example
    -------
    >>> advisor = ParameterAdvisor(n_points=10_000, n_ranges=10)
    >>> advisor.recommended_k()
    3
    >>> round(advisor.empty_cube_sparsity(advisor.recommended_k()), 3)
    -3.164
    """

    n_points: int
    n_ranges: int = 10
    target_sparsity: float = -3.0

    def __post_init__(self) -> None:
        check_positive_int(self.n_points, "n_points")
        check_positive_int(self.n_ranges, "n_ranges", minimum=2)
        check_in_range(self.target_sparsity, "target_sparsity", high=0.0)
        if self.target_sparsity == 0.0:
            raise ValidationError("target_sparsity must be strictly negative")

    def recommended_k(self) -> int:
        """``k*`` from Equation 2 for this dataset."""
        return choose_projection_dimensionality(
            self.n_points, self.n_ranges, self.target_sparsity
        )

    def empty_cube_sparsity(self, dimensionality: int) -> float:
        """Best-case (most negative) coefficient at dimensionality *k*."""
        return empty_cube_sparsity(self.n_points, self.n_ranges, dimensionality)

    def expected_cube_count(self, dimensionality: int) -> float:
        """Expected points per cube at dimensionality *k*."""
        return expected_cube_count(self.n_points, self.n_ranges, dimensionality)

    def feasible_dimensionalities(self) -> list[int]:
        """All k in [1, k*] — the range where non-trivial findings exist."""
        return list(range(1, self.recommended_k() + 1))

    def summary(self) -> str:
        """One-paragraph human-readable recommendation."""
        k_star = self.recommended_k()
        return (
            f"N={self.n_points}, φ={self.n_ranges}, s={self.target_sparsity}: "
            f"recommended projection dimensionality k*={k_star} "
            f"(empty-cube sparsity {self.empty_cube_sparsity(k_star):.3f}, "
            f"expected {self.expected_cube_count(k_star):.2f} points per cube)"
        )
