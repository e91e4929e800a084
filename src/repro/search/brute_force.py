"""Figure 2: brute-force bottom-up enumeration of k-dimensional cubes.

The algorithm builds candidate cubes level by level — ``R_1`` is the set
of all ``d·φ`` one-dimensional ranges and ``R_{i+1} = R_i ⊕ Q_1``
concatenates each i-dimensional candidate with every range of every
dimension *not already in the cube*.  We make the paper's implicit
dedupe explicit by only ever extending with dimensions strictly greater
than the cube's largest dimension, so each of the ``C(d,k)·φ^k`` cubes
is generated exactly once.

Two enumeration strategies produce identical best sets:

* ``depth_first`` (default) — each partial cube's membership mask is
  computed once and reused by all its extensions, and the final level
  is scored with a single vectorized ``bincount`` per dimension.
* ``level_batch`` — the paper's literal breadth-first ``R_{i+1} = R_i ⊕
  Q_1``.  The frontier is a pair of ``(n, depth)`` integer arrays (dims
  and ranges, one cube per row), and each level is generated from the
  previous one with array arithmetic, never cube by cube.  Candidates
  are counted in chunks by the counter's batched AND/popcount kernel
  (:meth:`~repro.grid.counter.CubeCounter.count_cubes`), which shares
  the common-prefix ANDs across siblings and, under a ``process``
  :class:`~repro.core.params.CountingBackend`, spreads the level across
  a worker pool.  That entry point bypasses the count memo: brute force
  never counts a cube twice, so the memo would only cost time.  Leaves
  are scored per chunk and handed to
  :meth:`~repro.search.best_set.BestProjectionSet.offer_batch`, which
  filters in numpy and builds objects only for the few cubes that can
  enter the best set.  Candidates are generated and offered in the same
  lexicographic order the DFS visits, so both strategies return the
  same projections.

Cost still explodes combinatorially — that is the paper's point (the
musk dataset's 160 dimensions defeated their brute-force run entirely)
— so a ``max_seconds``/``max_evaluations`` budget lets callers
reproduce the "did not terminate" row gracefully via
``SearchOutcome.completed``.
"""

from __future__ import annotations

import logging
import math
import time
from collections.abc import Mapping

import numpy as np

from .._validation import check_positive_int
from ..engine.context import RunContext
from ..engine.protocol import GeneratorEngine
from ..exceptions import CheckpointError, SearchCancelled, ValidationError
from ..grid.counter import CubeCounter
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


class BruteForceSearch(GeneratorEngine):
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
    strategy:
        ``"depth_first"`` (default) or ``"level_batch"`` — see the
        module docstring.  Both return identical projections.
    cancel_token:
        Optional :class:`~repro.run.cancel.CancelToken`; checked at
        level boundaries and between counting chunks, so a flip stops
        the enumeration at a safe point with best-so-far results.
    checkpointer:
        Optional :class:`~repro.run.checkpoint.SearchCheckpointer`.
        Requires ``strategy="level_batch"`` — level boundaries are the
        only points where the breadth-first frontier is explicit and
        serializable.  ``run(resume_from=True)`` then continues
        bit-identically to an uninterrupted run.
    """

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
        strategy: str = "depth_first",
        cancel_token=None,
        checkpointer=None,
    ):
        if not isinstance(counter, CubeCounter):
            raise ValidationError(
                f"counter must be a CubeCounter, got {type(counter).__name__}"
            )
        self.counter = counter
        self.dimensionality = check_positive_int(dimensionality, "dimensionality")
        if self.dimensionality > counter.n_dims:
            raise ValidationError(
                f"dimensionality ({self.dimensionality}) exceeds data "
                f"dimensionality ({counter.n_dims})"
            )
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
        if strategy not in ("depth_first", "level_batch"):
            raise ValidationError(
                f"strategy must be 'depth_first' or 'level_batch', got "
                f"{strategy!r}"
            )
        self.strategy = strategy
        if checkpointer is not None and strategy != "level_batch":
            raise ValidationError(
                "brute-force checkpointing requires strategy='level_batch'; "
                "the depth-first recursion has no serializable frontier"
            )
        self.cancel_token = cancel_token
        self.checkpointer = checkpointer

    # ------------------------------------------------------------------
    def _iterate(self, context: RunContext):
        """The enumeration as a generator (see :class:`GeneratorEngine`).

        ``run(resume_from=...)`` drives it to completion.  Under
        ``level_batch`` each step is one level boundary; the depth-first
        recursion has no serializable frontier, so it runs as a single
        step.  A resumed run restores the breadth-first frontier, best
        set and evaluation counter, and its final result is
        bit-identical to the same run never having been interrupted.
        """
        token = context.resolve_token(self.cancel_token)
        checkpointer = context.resolve_checkpointer(self.checkpointer)
        max_seconds = context.merged_budget(self.max_seconds)
        best = BestProjectionSet(
            self.n_projections,
            require_nonempty=self.require_nonempty,
            threshold=self.threshold,
        )
        restored = self._load_resume_state(context.resume_from, checkpointer)
        start = time.perf_counter()
        state = _RunState(
            deadline=None if max_seconds is None else start + max_seconds,
            max_evaluations=self.max_evaluations,
            token=token,
        )
        elapsed_base = 0.0
        start_depth = 1
        start_level = None
        if restored is not None:
            best.restore_state(restored["best_set"])
            state.evaluations = int(restored["evaluations"])
            elapsed_base = float(restored["elapsed_seconds"])
            start_depth = int(restored["depth"])
            start_level = _level_arrays(restored["level"], start_depth - 1)
            logger.info(
                "resuming brute-force search at level %d (%d candidates, "
                "%d evaluations done)",
                start_depth, len(start_level[0]), state.evaluations,
            )
        d = self.counter.n_dims
        k = self.dimensionality
        logger.debug(
            "brute force: enumerating up to %d cubes (d=%d, k=%d, phi=%d, %s)",
            search_space_size(d, k, self.counter.n_ranges), d, k,
            self.counter.n_ranges, self.strategy,
        )
        totals = {"elapsed_base": elapsed_base, "start": start}
        self._run = {
            "best": best,
            "state": state,
            "totals": totals,
        }
        context.emit(
            "run_started",
            algorithm="brute_force",
            strategy=self.strategy,
            dimensionality=k,
            n_projections=self.n_projections,
            search_space_size=search_space_size(d, k, self.counter.n_ranges),
            resumed=restored is not None,
        )
        with self.counter.runtime_binding(token, context.sink):
            yield  # prepare boundary: state built, no cubes counted yet
            try:
                if self.strategy == "level_batch":
                    yield from self._run_levels(
                        best, state,
                        start_depth=start_depth, start_level=start_level,
                        totals=totals,
                        checkpointer=checkpointer, context=context,
                    )
                else:
                    all_points = np.ones(self.counter.n_points, dtype=bool)
                    self._extend((), (), all_points, d, k, best, state)
            except SearchCancelled:
                # Cancellation struck inside the counting engine mid-batch;
                # that batch's offers never happened, so the last
                # level-boundary checkpoint remains the exact resume point.
                state.latch("cancelled")

    def _build_outcome(self, context: RunContext) -> SearchOutcome:
        run = self._require_run_state()
        best, state, totals = run["best"], run["state"], run["totals"]
        d, k = self.counter.n_dims, self.dimensionality
        elapsed = totals["elapsed_base"] + (
            time.perf_counter() - totals["start"]
        )
        stopped_reason = state.stop_reason or "converged"
        if state.exhausted:
            logger.warning(
                "brute force stopped early after %d evaluations (%.1fs): %s",
                state.evaluations, elapsed, stopped_reason,
            )
        return SearchOutcome(
            projections=tuple(best.entries()),
            completed=not state.exhausted,
            stats={
                "elapsed_seconds": elapsed,
                "evaluations": state.evaluations,
                "search_space_size": search_space_size(d, k, self.counter.n_ranges),
                "algorithm": "brute_force",
                "strategy": self.strategy,
            },
            stopped_reason=stopped_reason,
        )

    def _mark_abandoned(self, context: RunContext) -> None:
        run = getattr(self, "_run", None)
        if run is not None:
            run["state"].latch("cancelled")

    def _load_resume_state(self, resume_from, checkpointer=None) -> dict | None:
        """Normalize ``resume_from`` into a state dict (or None)."""
        if checkpointer is None:
            checkpointer = self.checkpointer
        if resume_from is None or resume_from is False:
            return None
        if self.strategy != "level_batch":
            raise ValidationError(
                "brute-force resume requires strategy='level_batch'"
            )
        if resume_from is True:
            if checkpointer is None:
                raise CheckpointError(
                    "resume_from=True needs a checkpointer; construct the "
                    "search with checkpointer=..."
                )
            state = checkpointer.load()
        elif isinstance(resume_from, Mapping):
            state = dict(resume_from)
        else:
            raise ValidationError(
                "resume_from must be None, True, or a checkpoint state "
                f"mapping, got {type(resume_from).__name__}"
            )
        if state.get("algorithm") != "brute_force":
            raise CheckpointError(
                "checkpoint was written by a "
                f"{state.get('algorithm', 'unknown')!r} search, not a "
                "brute-force one"
            )
        return state

    def _checkpoint_state(
        self,
        depth: int,
        level: tuple[np.ndarray, np.ndarray],
        best: BestProjectionSet,
        state: "_RunState",
        totals: dict,
    ) -> dict:
        """Full JSON-compatible state at a level boundary."""
        dims, ranges = level
        return {
            "algorithm": "brute_force",
            "depth": depth,
            "level": [
                [dm, rg] for dm, rg in zip(dims.tolist(), ranges.tolist(), strict=True)
            ],
            "best_set": best.to_state(),
            "evaluations": state.evaluations,
            "elapsed_seconds": totals["elapsed_base"]
            + (time.perf_counter() - totals["start"]),
        }

    # ------------------------------------------------------------------
    def _extend(
        self,
        dims: tuple[int, ...],
        ranges: tuple[int, ...],
        mask: np.ndarray,
        n_dims: int,
        k: int,
        best: BestProjectionSet,
        state: "_RunState",
    ) -> None:
        """Depth-first ``R_i ⊕ Q_1`` with canonical dimension ordering.

        The partial cube is carried as plain ``dims``/``ranges`` tuples;
        each dimension's φ leaves go to the best set as one
        :meth:`~repro.search.best_set.BestProjectionSet.offer_batch`.
        """
        if state.exhausted:
            return
        phi = self.counter.n_ranges
        remaining = k - len(dims)
        # Leave room for the remaining levels: the last usable start
        # dimension is n_dims - remaining.
        for dim in range(dims[-1] + 1 if dims else 0, n_dims - remaining + 1):
            if state.check_budget():
                return
            counts = self.counter.extension_counts(mask, dim)
            if remaining == 1:
                coefficients = sparsity_coefficients(
                    counts, self.counter.n_points, phi, k
                )
                state.evaluations += len(counts)
                leaf_dims = np.tile(np.array(dims + (dim,), dtype=np.intp), (phi, 1))
                leaf_ranges = np.empty_like(leaf_dims)
                leaf_ranges[:, :-1] = ranges
                leaf_ranges[:, -1] = np.arange(phi)
                best.offer_batch(leaf_dims, leaf_ranges, counts, coefficients)
            else:
                col = self.counter.cells.codes[:, dim]
                for rng in range(phi):
                    if counts[rng] == 0 and self.require_nonempty:
                        # Every extension of an empty cube is empty; when
                        # empty cubes cannot be reported we can prune the
                        # whole subtree (counts are monotone under ⊕).
                        continue
                    self._extend(
                        dims + (dim,),
                        ranges + (rng,),
                        mask & (col == rng),
                        n_dims,
                        k,
                        best,
                        state,
                    )
                    if state.exhausted:
                        return


    # ------------------------------------------------------------------
    def _run_levels(
        self,
        best: BestProjectionSet,
        state: "_RunState",
        *,
        start_depth: int = 1,
        start_level: tuple[np.ndarray, np.ndarray] | None = None,
        totals: dict | None = None,
        checkpointer=None,
        context: RunContext | None = None,
    ):
        """Breadth-first ``R_{i+1} = R_i ⊕ Q_1`` over batched counts.

        The frontier is a pair of ``(n, depth)`` ``intp`` arrays, dims
        and ranges, one cube per row; :func:`_children` extends it a
        level at a time in lexicographic order, matching the DFS visit
        order exactly.  Each level's candidates go through
        :meth:`~repro.grid.counter.CubeCounter.count_cubes` in
        deterministic chunks — no memo, since no cube is ever counted
        twice; with ``require_nonempty`` the empty cubes are masked out
        before extension (counts are monotone under ⊕ — the same
        subtree pruning the DFS applies).

        A generator yielding at the top of the depth loop — the **safe
        boundary**: the frontier is explicit, the best set has absorbed
        every completed level, and nothing is half-counted.  The
        boundary snapshot is taken *there*; a budget/cancellation exit
        mid-level saves that snapshot, so a resumed run redoes the
        partial level from scratch and lands bit-identically on the
        uninterrupted result.
        """
        counter = self.counter
        if checkpointer is None:
            checkpointer = self.checkpointer

        def emit(type_: str, **payload) -> None:
            if context is not None:
                context.emit(type_, **payload)

        def save_stopped(depth: int, payload: dict | None) -> None:
            if payload is not None:
                checkpointer.save(payload)
                emit(
                    "checkpoint_written",
                    boundary=depth, trigger=state.stop_reason or "stopped",
                )

        d, k, phi = counter.n_dims, self.dimensionality, counter.n_ranges
        chunk = max(1024, counter.backend.chunk_size)
        if start_level is None:
            start_level = (np.empty((1, 0), np.intp), np.empty((1, 0), np.intp))
        dims, ranges = start_level
        totals = totals or {"elapsed_base": 0.0, "start": time.perf_counter()}
        for depth in range(start_depth, k + 1):
            # ---- safe boundary: level `depth` not yet generated ----
            yield
            boundary_payload = None
            if checkpointer is not None:
                boundary_payload = self._checkpoint_state(
                    depth, (dims, ranges), best, state, totals
                )
                if checkpointer.maybe_save(depth, lambda: boundary_payload):
                    emit(
                        "checkpoint_written",
                        boundary=depth, trigger="interval",
                    )
            if state.check_boundary():
                save_stopped(depth, boundary_payload)
                return
            # Leave room for the levels still to add after this one, as
            # in the DFS.
            child_dims, child_ranges = _children(dims, ranges, d - (k - depth), phi)
            n_children = len(child_dims)
            if depth == k:
                self._score_leaves(child_dims, child_ranges, best, state, chunk)
                if state.exhausted:
                    save_stopped(depth, boundary_payload)
                emit(
                    "level_end",
                    depth=depth,
                    n_candidates=n_children,
                    n_survivors=0,
                    evaluations=state.evaluations,
                    best_set_size=len(best),
                )
                return
            if self.require_nonempty:
                nonempty = np.empty(n_children, dtype=bool)
                for lo in range(0, n_children, chunk):
                    if state.check_budget():
                        save_stopped(depth, boundary_payload)
                        return
                    hi = lo + chunk
                    nonempty[lo:hi] = (
                        counter.count_cubes(child_dims[lo:hi], child_ranges[lo:hi])
                        > 0
                    )
                child_dims, child_ranges = child_dims[nonempty], child_ranges[nonempty]
            dims, ranges = child_dims, child_ranges
            emit(
                "level_end",
                depth=depth,
                n_candidates=n_children,
                n_survivors=len(dims),
                evaluations=state.evaluations,
                best_set_size=len(best),
            )

    def _score_leaves(
        self,
        dims: np.ndarray,
        ranges: np.ndarray,
        best: BestProjectionSet,
        state: "_RunState",
        chunk: int,
    ) -> None:
        """Score the final level in chunks, offering in generation order.

        The chunk that reaches ``max_evaluations`` is cut to the budget
        left, so the cap is never overshot.
        """
        counter = self.counter
        n, phi, k = counter.n_points, counter.n_ranges, self.dimensionality
        lo = 0
        while lo < len(dims):
            if state.check_budget():
                return
            hi = lo + chunk
            if state.max_evaluations is not None:
                hi = min(hi, lo + state.max_evaluations - state.evaluations)
            block_dims, block_ranges = dims[lo:hi], ranges[lo:hi]
            counts = counter.count_cubes(block_dims, block_ranges)
            coefficients = sparsity_coefficients(counts, n, phi, k)
            state.evaluations += len(counts)
            best.offer_batch(block_dims, block_ranges, counts, coefficients)
            lo = hi


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
    lo = dims[:, -1] + 1 if depth else np.zeros(n_parents, dtype=np.intp)
    per_parent = np.maximum(stop - lo, 0) * n_ranges
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


def _level_arrays(level: list, width: int) -> tuple[np.ndarray, np.ndarray]:
    """A checkpoint's ``[[dims], [ranges]]`` frontier as two arrays."""
    shape = (len(level), width)
    dims = np.array([dm for dm, _ in level], dtype=np.intp).reshape(shape)
    ranges = np.array([rg for _, rg in level], dtype=np.intp).reshape(shape)
    return dims, ranges


class _RunState:
    """Mutable budget/cancellation bookkeeping shared across the recursion."""

    def __init__(
        self,
        deadline: float | None,
        max_evaluations: int | None,
        token=None,
    ):
        self.deadline = deadline
        self.max_evaluations = max_evaluations
        self.token = token
        self.evaluations = 0
        self.exhausted = False
        self.stop_reason: str | None = None
        self._checks = 0

    def latch(self, reason: str) -> bool:
        """Record why the search stopped early; first cause wins."""
        self.exhausted = True
        if self.stop_reason is None:
            self.stop_reason = reason
        return True

    def check_budget(self) -> bool:
        """Return True (and latch ``exhausted``) once any budget is spent.

        Reads the token's raw flag rather than :meth:`~repro.run.cancel.
        CancelToken.poll` — chunk-granularity checks must not consume
        the boundary budget of an injected
        :class:`~repro.run.cancel.CancelAfterBoundaries` token.
        """
        if self.exhausted:
            return True
        if self.token is not None and self.token.cancelled:
            return self.latch("cancelled")
        if self.max_evaluations is not None and self.evaluations >= self.max_evaluations:
            return self.latch("evaluation_cap")
        self._checks += 1
        # The clock is comparatively expensive; sample it.
        if self.deadline is not None and self._checks % 64 == 0:
            if time.perf_counter() >= self.deadline:
                return self.latch("deadline")
        return False

    def check_boundary(self) -> bool:
        """Budget check at a safe boundary; *polls* the token.

        ``poll()`` is the chaos-injection seam: each boundary consumes
        one unit of a ``CancelAfterBoundaries`` budget, and the clock is
        read unsampled (boundaries are rare).
        """
        if self.exhausted:
            return True
        if self.token is not None and self.token.poll():
            return self.latch("cancelled")
        if self.max_evaluations is not None and self.evaluations >= self.max_evaluations:
            return self.latch("evaluation_cap")
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            return self.latch("deadline")
        return False
