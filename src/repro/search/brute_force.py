"""Figure 2: brute-force bottom-up enumeration of k-dimensional cubes.

The algorithm builds candidate cubes level by level — ``R_1`` is the set
of all ``d·φ`` one-dimensional ranges and ``R_{i+1} = R_i ⊕ Q_1``
concatenates each i-dimensional candidate with every range of every
dimension *not already in the cube*.  We make the paper's implicit
dedupe explicit by only ever extending with dimensions strictly greater
than the cube's largest dimension, so each of the ``C(d,k)·φ^k`` cubes
is generated exactly once.

The enumeration is the paper's literal breadth-first ``R_{i+1} = R_i ⊕
Q_1``.  The frontier is a pair of ``(n, depth)`` integer arrays (dims
and ranges, one cube per row), and each level is generated from the
previous one with array arithmetic, never cube by cube.  Levels are
streamed: children are generated in blocks of consecutive parents
(about one counting chunk each), so peak memory follows the surviving
frontier and one block, not the whole ``C(d,k)·φ^k`` leaf level.  Each
block is counted by the counter's batched AND/popcount kernel
(:meth:`~repro.grid.counter.CubeCounter.count_cubes`), which shares the
common-prefix ANDs across siblings and, under a ``process``
:class:`~repro.core.params.CountingBackend` or an mmap shard store,
runs on the configured backend.  With ``require_nonempty`` an inner
level keeps only its non-empty cubes, block by block (counts are
monotone under ⊕, so an empty cube's whole subtree is pruned).  Leaf
blocks are scored as they are made and handed to
:meth:`~repro.search.best_set.BestProjectionSet.offer_batch`, which
filters in numpy and builds objects only for the few cubes that can
enter the best set.  Candidates are generated and offered in
lexicographic order, so results do not depend on the block size.

Cost still explodes combinatorially — that is the paper's point (the
musk dataset's 160 dimensions defeated their brute-force run entirely)
— so a ``max_seconds``/``max_evaluations`` budget lets callers
reproduce the "did not terminate" row gracefully via
``SearchOutcome.completed``.
"""

from __future__ import annotations

import logging
import math
import numbers
from collections.abc import Iterator

import numpy as np

from .._validation import check_positive_int
from ..engine.context import RunContext
from ..engine.protocol import SearchEngine
from ..exceptions import CheckpointError, SearchCancelled, ValidationError
from ..grid.counter import CubeCounter
from ..run.controller import RunBudget
from ..sparsity.coefficient import sparsity_coefficients
from .best_set import BestProjectionSet
from .outcome import SearchOutcome

__all__ = ["BruteForceSearch", "search_space_size"]

logger = logging.getLogger(__name__)


def search_space_size(n_dims: int, dimensionality: int, n_ranges: int) -> int:
    """Number of k-dimensional cubes: ``C(d, k) · φ^k``.

    The paper's example: d=20, k=4, φ=10 gives ~7·10^7 possibilities.
    """
    n_dims = check_positive_int(n_dims, "n_dims")
    dimensionality = check_positive_int(dimensionality, "dimensionality")
    n_ranges = check_positive_int(n_ranges, "n_ranges")
    if dimensionality > n_dims:
        raise ValidationError(
            f"dimensionality ({dimensionality}) cannot exceed n_dims ({n_dims})"
        )
    return math.comb(n_dims, dimensionality) * n_ranges**dimensionality


class BruteForceSearch(SearchEngine):
    """Exhaustive cube search (Algorithm *BruteForce*, Figure 2).

    Parameters
    ----------
    counter:
        Cube counting engine over the discretized data.
    dimensionality:
        k — dimensionality of mined projections.
    n_projections:
        m — how many best projections to retain.
    require_nonempty:
        Skip cubes covering zero points (see
        :class:`~repro.search.best_set.BestProjectionSet`).
    threshold:
        Optional sparsity-coefficient cutoff instead of / on top of m.
    max_seconds, max_evaluations:
        Optional budgets; when exhausted the search returns a partial
        outcome with ``completed=False``.

    The run state comes from the :class:`~repro.engine.context.RunContext`:
    its cancel token is checked at level boundaries and between counting
    chunks, so a flip stops the enumeration at a safe point with
    best-so-far results, and with a checkpointer the frontier is saved
    at level boundaries, so ``resume_from=True`` continues
    bit-identically to an uninterrupted run.
    """

    algorithm = "brute_force"

    def __init__(
        self,
        counter: CubeCounter,
        dimensionality: int,
        n_projections: int | None = 20,
        *,
        require_nonempty: bool = True,
        threshold: float | None = None,
        max_seconds: float | None = None,
        max_evaluations: int | None = None,
    ):
        self._bind_counter(counter, dimensionality)
        if counter.n_ranges < 2:
            raise ValidationError("brute-force search requires a grid with φ >= 2")
        self.n_projections = n_projections
        self.require_nonempty = require_nonempty
        self.threshold = threshold
        self.max_seconds = max_seconds
        self.max_evaluations = (
            None
            if max_evaluations is None
            else check_positive_int(max_evaluations, "max_evaluations")
        )

    # ------------------------------------------------------------------
    def _iterate(self, context: RunContext):
        """The enumeration as a generator (see :class:`SearchEngine`).

        ``run()`` drives it to completion; each step is one level
        boundary.  A resumed run restores the frontier, best set and
        evaluation counter, and its final result is bit-identical to
        the same run never having been interrupted.
        """
        best = BestProjectionSet(
            self.n_projections,
            require_nonempty=self.require_nonempty,
            threshold=self.threshold,
        )
        restored = self._load_resume_state(context)
        budget = self._budget = RunBudget(
            context.cancel_token,
            context.merged_budget(self.max_seconds),
            max_evaluations=self.max_evaluations,
        )
        start_depth = 1
        level = (np.empty((1, 0), np.intp), np.empty((1, 0), np.intp))
        if restored is not None:
            start_depth, level = self._restored_frontier(restored)
            best.restore_state(restored["best_set"])
            budget.evaluations = int(restored["evaluations"])
            budget.elapsed_base = float(restored["elapsed_seconds"])
            logger.info(
                "resuming brute-force search at level %d (%d candidates, "
                "%d evaluations done)",
                start_depth, len(level[0]), budget.evaluations,
            )
        d = self.counter.n_dims
        k = self.dimensionality
        logger.debug(
            "brute force: enumerating up to %d cubes (d=%d, k=%d, phi=%d)",
            search_space_size(d, k, self.counter.n_ranges), d, k,
            self.counter.n_ranges,
        )
        self._run = {"best": best}
        context.emit(
            "run_started",
            algorithm="brute_force",
            strategy="level_batch",
            dimensionality=k,
            n_projections=self.n_projections,
            search_space_size=search_space_size(d, k, self.counter.n_ranges),
            resumed=restored is not None,
        )
        with self.counter.runtime_binding(context.cancel_token, context.sink):
            yield  # prepare boundary: state built, no cubes counted yet
            yield from self._run_levels(context, best, start_depth, *level)

    def _build_outcome(self, context: RunContext) -> SearchOutcome:
        best = self._require_run_state()["best"]
        budget = self._budget
        d, k = self.counter.n_dims, self.dimensionality
        elapsed = budget.elapsed_seconds()
        if budget.reason is not None:
            logger.warning(
                "brute force stopped early after %d evaluations (%.1fs): %s",
                budget.evaluations, elapsed, budget.reason,
            )
        return SearchOutcome(
            projections=tuple(best.entries()),
            completed=budget.reason is None,
            stats={
                "elapsed_seconds": elapsed,
                "evaluations": budget.evaluations,
                "search_space_size": search_space_size(d, k, self.counter.n_ranges),
                "algorithm": "brute_force",
                "strategy": "level_batch",
            },
            stopped_reason=budget.reason or "converged",
        )

    def _restored_frontier(
        self, restored: dict
    ) -> tuple[int, tuple[np.ndarray, np.ndarray]]:
        """Validate a resume state's frontier; return ``(depth, level)``.

        Anything a level-boundary checkpoint of this search could not
        have written raises :class:`~repro.exceptions.CheckpointError`.
        """
        missing = [key for key in _STATE_KEYS if key not in restored]
        if missing:
            raise CheckpointError(
                f"brute-force checkpoint is missing {', '.join(missing)}"
            )
        d, k, phi = self.counter.n_dims, self.dimensionality, self.counter.n_ranges
        depth, evaluations = restored["depth"], restored["evaluations"]
        if not _is_int(depth) or not 1 <= depth <= k:
            raise CheckpointError(
                f"checkpoint depth must be an int in [1, {k}], got {depth!r}"
            )
        if not _is_int(evaluations) or evaluations < 0:
            raise CheckpointError(
                "checkpoint evaluations must be a non-negative int, got "
                f"{evaluations!r}"
            )
        elapsed = restored["elapsed_seconds"]
        if isinstance(elapsed, bool) or not isinstance(elapsed, numbers.Real):
            raise CheckpointError(
                f"checkpoint elapsed_seconds must be a number, got {elapsed!r}"
            )
        dims, ranges = _level_arrays(restored["level"], depth - 1)
        if (
            ((dims < 0) | (dims >= d)).any()
            or (np.diff(dims, axis=1) <= 0).any()
            or ((ranges < 0) | (ranges >= phi)).any()
        ):
            raise CheckpointError(
                "checkpoint level holds a cube outside this grid: dims "
                f"must ascend strictly in [0, {d}) and ranges lie in "
                f"[0, {phi})"
            )
        return depth, (dims, ranges)

    def _level_state(
        self,
        context: RunContext,
        depth: int,
        dims: np.ndarray,
        ranges: np.ndarray,
        best: BestProjectionSet,
    ):
        """Builder of the level boundary's JSON-compatible checkpoint state.

        The frontier is only serialized when a write happens.  The best
        set changes only while the final level is scored, so it is
        captured up front there (when checkpointing at all): a stop
        mid-level must save the boundary's set, not the scored blocks'.
        """
        evaluations = self._budget.evaluations
        best_state = None
        if depth == self.dimensionality and context.checkpointer is not None:
            best_state = best.to_state()

        def build() -> dict:
            return {
                "algorithm": self.algorithm,
                "depth": depth,
                "level": [
                    [dm, rg]
                    for dm, rg in zip(dims.tolist(), ranges.tolist(), strict=True)
                ],
                "best_set": best_state if best_state is not None else best.to_state(),
                "evaluations": evaluations,
                "elapsed_seconds": self._budget.elapsed_seconds(),
            }

        return build

    # ------------------------------------------------------------------
    def _run_levels(
        self,
        context: RunContext,
        best: BestProjectionSet,
        start_depth: int,
        dims: np.ndarray,
        ranges: np.ndarray,
    ):
        """Breadth-first ``R_{i+1} = R_i ⊕ Q_1`` over batched counts.

        The frontier is a pair of ``(n, depth)`` ``intp`` arrays, dims
        and ranges, one cube per row.  Each level is streamed:
        :func:`_child_blocks` generates it in lexicographic order, one
        block of about ``chunk`` children at a time, and each block
        goes through :meth:`~repro.grid.counter.CubeCounter.count_cubes`
        as it is made.
        An inner level under ``require_nonempty`` keeps each block's
        non-empty cubes as the next frontier (counts are monotone under
        ⊕, so an empty cube's subtree is pruned); the final level's
        blocks are scored and offered one by one and never held whole.

        A generator yielding at the top of the depth loop — the **safe
        boundary**: the frontier is explicit, the best set has absorbed
        every completed level, and nothing is half-counted.  Every stop
        inside a level — budget, cancellation, or a cancellation raised
        mid-batch by the counting engine — saves that boundary's
        snapshot, so a resumed run redoes the partial level from
        scratch and lands bit-identically on the uninterrupted result.
        """
        counter, budget = self.counter, self._budget
        d, k, phi = counter.n_dims, self.dimensionality, counter.n_ranges
        chunk = max(1024, counter.backend.chunk_size)
        for depth in range(start_depth, k + 1):
            # ---- safe boundary: level `depth` not yet generated ----
            yield
            build_state = self._level_state(context, depth, dims, ranges, best)
            if self._at_boundary(context, depth, build_state) is not None:
                return
            # Leave room for the levels still to add after this one.
            stop = d - (k - depth)
            n_children = int(_fanout(dims, stop, phi)[1].sum())
            try:
                if depth == k:
                    for block in _child_blocks(dims, ranges, stop, phi, chunk):
                        self._score_leaves(*block, best)
                        if budget.reason is not None:
                            self._checkpoint(
                                context, depth, build_state, budget.reason
                            )
                            break
                    context.emit(
                        "level_end",
                        depth=depth,
                        n_candidates=n_children,
                        n_survivors=0,
                        evaluations=budget.evaluations,
                        best_set_size=len(best),
                    )
                    return
                if self.require_nonempty:
                    kept_dims = [np.empty((0, depth), np.intp)]
                    kept_ranges = [np.empty((0, depth), np.intp)]
                    for block_dims, block_ranges in _child_blocks(
                        dims, ranges, stop, phi, chunk
                    ):
                        if budget.check(boundary=False) is not None:
                            self._checkpoint(
                                context, depth, build_state, budget.reason
                            )
                            return
                        nonempty = counter.count_cubes(block_dims, block_ranges) > 0
                        kept_dims.append(block_dims[nonempty])
                        kept_ranges.append(block_ranges[nonempty])
                    dims = np.concatenate(kept_dims)
                    ranges = np.concatenate(kept_ranges)
                else:
                    dims, ranges = _children(dims, ranges, stop, phi)
            except SearchCancelled:
                # Cancellation struck inside the counting engine
                # mid-batch; that batch's offers never happened, so this
                # level's boundary snapshot is the exact resume point.
                self._checkpoint(
                    context, depth, build_state, budget.latch("cancelled")
                )
                return
            context.emit(
                "level_end",
                depth=depth,
                n_candidates=n_children,
                n_survivors=len(dims),
                evaluations=budget.evaluations,
                best_set_size=len(best),
            )

    def _score_leaves(
        self, dims: np.ndarray, ranges: np.ndarray, best: BestProjectionSet
    ) -> None:
        """Score one block of the final level, offering in generation order.

        The block that reaches ``max_evaluations`` is cut to the budget
        left, so the cap is never overshot, and the rest of the block
        latches the cap.
        """
        counter, budget = self.counter, self._budget
        n, phi, k = counter.n_points, counter.n_ranges, self.dimensionality
        lo = 0
        while lo < len(dims):
            if budget.check(boundary=False) is not None:
                return
            hi = len(dims)
            if budget.max_evaluations is not None:
                hi = min(hi, lo + budget.max_evaluations - budget.evaluations)
            block_dims, block_ranges = dims[lo:hi], ranges[lo:hi]
            counts = counter.count_cubes(block_dims, block_ranges)
            coefficients = sparsity_coefficients(counts, n, phi, k)
            budget.evaluations += len(counts)
            best.offer_batch(block_dims, block_ranges, counts, coefficients)
            lo = hi


def _fanout(
    dims: np.ndarray, stop: int, n_ranges: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each parent's first extension dimension and its number of children."""
    n_parents, depth = dims.shape
    lo = dims[:, -1] + 1 if depth else np.zeros(n_parents, dtype=np.intp)
    return lo, np.maximum(stop - lo, 0) * n_ranges


def _children(
    dims: np.ndarray, ranges: np.ndarray, stop: int, n_ranges: int
) -> tuple[np.ndarray, np.ndarray]:
    """``R_i ⊕ Q_1`` for a whole frontier, in lexicographic order.

    Parent row *p* (largest dimension ``l``) is extended by every
    ``(dim, rng)`` with ``l < dim < stop`` and ``0 <= rng < φ``,
    parent-major, then dimension, then range — exactly the nested-loop
    order ``for parent: for dim: for rng``.  The new column comes from
    ``np.repeat`` over parents and each child's offset within its
    parent's block: ``dim = lo + offset // φ``, ``rng = offset % φ``.
    """
    n_parents, depth = dims.shape
    lo, per_parent = _fanout(dims, stop, n_ranges)
    parent = np.repeat(np.arange(n_parents), per_parent)
    starts = np.cumsum(per_parent) - per_parent
    offset = np.arange(len(parent)) - starts[parent]
    child_dims = np.empty((len(parent), depth + 1), dtype=np.intp)
    child_ranges = np.empty_like(child_dims)
    child_dims[:, :depth] = dims[parent]
    child_ranges[:, :depth] = ranges[parent]
    child_dims[:, depth] = lo[parent] + offset // n_ranges
    child_ranges[:, depth] = offset % n_ranges
    return child_dims, child_ranges


def _child_blocks(
    dims: np.ndarray, ranges: np.ndarray, stop: int, n_ranges: int, chunk: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """:func:`_children` of a frontier, in blocks of consecutive parents.

    Concatenated, the blocks are exactly ``_children(dims, ranges, stop,
    n_ranges)``.  A block takes parents until it holds at least *chunk*
    children, so no block exceeds *chunk* plus one parent's ``d·φ``;
    an empty frontier yields nothing.
    """
    ends = np.cumsum(_fanout(dims, stop, n_ranges)[1])
    total = int(ends[-1]) if len(ends) else 0
    first = done = 0
    while done < total:
        last = min(int(np.searchsorted(ends, done + chunk)) + 1, len(ends))
        yield _children(dims[first:last], ranges[first:last], stop, n_ranges)
        first, done = last, int(ends[last - 1])


def _level_arrays(level, width: int) -> tuple[np.ndarray, np.ndarray]:
    """A checkpoint's ``[[dims], [ranges]]`` frontier as two arrays.

    Raises :class:`~repro.exceptions.CheckpointError` unless every row
    is a pair of integer lists of length *width*.
    """
    try:
        dims = np.array([dm for dm, _ in level])
        ranges = np.array([rg for _, rg in level])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint level is not a list of [dims, ranges] rows: {exc}"
        ) from exc
    shape = (len(dims), width)
    if not len(dims):
        return np.empty(shape, np.intp), np.empty(shape, np.intp)
    if dims.shape != shape or ranges.shape != shape or (
        width and (dims.dtype.kind != "i" or ranges.dtype.kind != "i")
    ):
        raise CheckpointError(
            f"checkpoint level rows must hold {width} integer dims and "
            f"{width} integer ranges"
        )
    return dims.astype(np.intp), ranges.astype(np.intp)


_STATE_KEYS = ("depth", "level", "best_set", "evaluations", "elapsed_seconds")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
