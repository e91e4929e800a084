"""Bounded tracker of the best (most negative) projections found so far.

Both searchers maintain the paper's ``BestSet``: the ``m`` cubes with
the most negative sparsity coefficients seen anywhere during the run
(Figures 2 and 3).  Two policy knobs mirror the paper:

* **non-empty filter** — Table 1's quality column averages the best 20
  *non-empty* projections, and §2.4 argues empty cubes are useless for
  outlier reporting (they cover nobody), so empty cubes are skipped by
  default;
* **threshold mode** — the arrhythmia experiment (§3.1) instead keeps
  *every* projection with coefficient ≤ −3; pass ``threshold=-3.0`` and
  ``max_size=None`` for that behaviour.

Duplicates (the same cube offered twice, e.g. by the GA across
generations) are kept once.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator

import numpy as np

from .._validation import check_in_range, check_positive_int
from ..core.results import ScoredProjection
from ..core.subspace import Subspace
from ..exceptions import ValidationError

__all__ = ["BestProjectionSet"]


class BestProjectionSet:
    """Keeps the top-m most-negative-coefficient projections.

    Parameters
    ----------
    max_size:
        The paper's ``m``; ``None`` keeps everything that passes the
        filters (requires a *threshold* so the set stays bounded).
    require_nonempty:
        Skip cubes with ``n(D) = 0`` (default True, per Table 1/§2.4).
    threshold:
        If set, only cubes with ``coefficient <= threshold`` are kept.
    """

    def __init__(
        self,
        max_size: int | None = 20,
        *,
        require_nonempty: bool = True,
        threshold: float | None = None,
    ):
        if max_size is None and threshold is None:
            raise ValidationError(
                "an unbounded BestProjectionSet needs a threshold to stay finite"
            )
        if max_size is not None:
            max_size = check_positive_int(max_size, "max_size")
        self.max_size = max_size
        self.require_nonempty = bool(require_nonempty)
        self.threshold = (
            None if threshold is None else check_in_range(threshold, "threshold")
        )
        # Max-heap on coefficient (via negation) so the *worst* kept
        # entry is at the root and can be evicted in O(log m).
        self._heap: list[tuple[float, int, ScoredProjection]] = []
        self._seen: dict[tuple, float] = {}
        self._counter = 0
        self.n_offers = 0
        self.n_accepted = 0

    # ------------------------------------------------------------------
    def offer(self, projection: ScoredProjection) -> bool:
        """Consider *projection* for inclusion; return True if kept.

        A projection displaced later by better offers still counts as
        accepted here.
        """
        self.n_offers += 1
        if self.require_nonempty and projection.is_empty:
            return False
        if self.threshold is not None and projection.coefficient > self.threshold:
            return False
        key = (projection.subspace.dims, projection.subspace.ranges)
        if key in self._seen:
            return False
        if self.max_size is not None and len(self._heap) >= self.max_size:
            worst_negated, _, worst = self._heap[0]
            if projection.coefficient >= -worst_negated:
                return False
            heapq.heappop(self._heap)
            del self._seen[(worst.subspace.dims, worst.subspace.ranges)]
        self._counter += 1
        heapq.heappush(
            self._heap, (-projection.coefficient, -self._counter, projection)
        )
        self._seen[key] = projection.coefficient
        self.n_accepted += 1
        return True

    def offer_batch(self, dims, ranges, counts, coefficients) -> int:
        """Offer a block of cubes in row order; return how many were kept.

        Row *i* is the cube ``dims[i]``/``ranges[i]`` (``(n, k)``
        arrays, dims strictly ascending) with ``counts[i]`` and
        ``coefficients[i]``.  The outcome — kept entries, their
        insertion-order tie-breaks, ``n_offers`` and ``n_accepted`` — is
        exactly that of calling :meth:`offer` on each row in turn, but
        cubes that :meth:`offer` would certainly reject never become
        objects: those :meth:`prefilter` drops, filtered in numpy, and
        then, row by row, those not better than the worst entry of a
        full set (:meth:`offer_survivors`).
        """
        counts = np.asarray(counts)
        coefficients = np.asarray(coefficients, dtype=np.float64)
        rows = np.flatnonzero(self.admits(counts, coefficients))
        return self.offer_survivors(
            np.asarray(dims)[rows], np.asarray(ranges)[rows], counts[rows],
            coefficients[rows], len(counts) - len(rows),
        )

    def prefilter(self) -> tuple[bool, float, float]:
        """The filter :meth:`offer_batch` applies to a whole block first,
        as ``(nonempty, threshold, worst)``.

        A cube with count n and coefficient s passes when ``(not
        nonempty or n != 0) and not s > threshold and not s >= worst``:
        each test is :meth:`offer`'s own comparison negated, so NaN
        coefficients are treated identically.  *threshold* is ``+inf``
        without one, and *worst* the kept worst coefficient of a full
        set, NaN otherwise (then neither filters anything).  The worst
        kept coefficient of a full set only falls, so the filter, taken
        once up front and again per row, drops nothing a sequential
        offer would keep.
        """
        heap, max_size = self._heap, self.max_size
        full = max_size is not None and len(heap) >= max_size
        return (
            self.require_nonempty,
            math.inf if self.threshold is None else self.threshold,
            -heap[0][0] if full else math.nan,
        )

    def admits(self, counts: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
        """Which rows of a block pass :meth:`prefilter`: a bool mask."""
        nonempty, threshold, worst = self.prefilter()
        keep = ~(coefficients > threshold) & ~(coefficients >= worst)
        if nonempty:
            keep &= counts != 0
        return keep

    def offer_survivors(self, dims, ranges, counts, coefficients, skipped: int) -> int:
        """Offer the rows of a block that passed :meth:`prefilter`, in
        row order; return how many were kept.

        *skipped* is the number of the block's rows the filter dropped:
        they count as offers, so ``n_offers``, ``n_accepted`` and the
        kept entries with their arrival tie-breaks are those of
        :meth:`offer_batch` on the whole block.
        """
        self.n_offers += int(skipped)
        heap, max_size = self._heap, self.max_size
        dims, ranges, counts = np.asarray(dims), np.asarray(ranges), np.asarray(counts)
        accepted = 0
        for row, coefficient in enumerate(
            np.asarray(coefficients, dtype=np.float64).tolist()
        ):
            if (
                max_size is not None
                and len(heap) >= max_size
                and coefficient >= -heap[0][0]
            ):
                self.n_offers += 1
                continue
            accepted += self.offer(
                ScoredProjection(
                    Subspace(tuple(dims[row].tolist()), tuple(ranges[row].tolist())),
                    int(counts[row]),
                    coefficient,
                )
            )
        return accepted

    def offer_cube(self, subspace: Subspace, count: int, coefficient: float) -> bool:
        """Convenience wrapper building the :class:`ScoredProjection`."""
        return self.offer(ScoredProjection(subspace, count, coefficient))

    def would_accept(self, coefficient: float) -> bool:
        """Cheap pre-check: could a cube with this coefficient get in?

        Used by searchers to skip expensive work (e.g. re-offering
        duplicates) when the coefficient cannot compete.  A True answer
        is necessary but not sufficient (the cube may be a duplicate or
        empty).
        """
        if self.threshold is not None and coefficient > self.threshold:
            return False
        if self.max_size is None or len(self._heap) < self.max_size:
            return True
        return coefficient < -self._heap[0][0]

    def certified(self) -> bool:
        """Whether no later offer can change the set: the floor certificate.

        For fixed (N, φ, k) Equation 1 strictly increases with the count,
        so no cube scores below the floor count's coefficient (count 1
        under ``require_nonempty``, else 0).  A full set whose every
        entry holds the floor count rejects every later cube (:meth:`offer`
        keeps a tie's first arrival), so its entries, their order and
        their coefficients are final.  Counts are compared, not
        coefficients: the same test without a float compare.  Threshold
        mode (``max_size=None``) never certifies.
        """
        if self.max_size is None or len(self._heap) < self.max_size:
            return False
        floor = 1 if self.require_nonempty else 0
        return all(entry.count == floor for _, _, entry in self._heap)

    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-compatible snapshot for checkpointing.

        Captures the kept entries *with their insertion counters* plus
        the offer statistics, so a restored set reproduces the original
        bit-for-bit — including the arrival-order tie-breaks between
        equal coefficients and the ``n_accepted``-driven stall counter
        of the GA.
        """
        return {
            "entries": [
                {
                    "dims": list(proj.subspace.dims),
                    "ranges": list(proj.subspace.ranges),
                    "count": proj.count,
                    "coefficient": proj.coefficient,
                    "order": -neg_order,
                }
                for _, neg_order, proj in self._heap
            ],
            "counter": self._counter,
            "n_offers": self.n_offers,
            "n_accepted": self.n_accepted,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`to_state` snapshot into this (fresh) set."""
        if self._heap:
            raise ValidationError(
                "restore_state requires an empty BestProjectionSet"
            )
        for entry in state["entries"]:
            projection = ScoredProjection(
                Subspace(tuple(entry["dims"]), tuple(entry["ranges"])),
                int(entry["count"]),
                float(entry["coefficient"]),
            )
            heapq.heappush(
                self._heap,
                (-projection.coefficient, -int(entry["order"]), projection),
            )
            self._seen[(projection.subspace.dims, projection.subspace.ranges)] = (
                projection.coefficient
            )
        self._counter = int(state["counter"])
        self.n_offers = int(state["n_offers"])
        self.n_accepted = int(state["n_accepted"])

    # ------------------------------------------------------------------
    def entries(self) -> list[ScoredProjection]:
        """Kept projections, most negative coefficient first."""
        ordered = sorted(self._heap, key=lambda item: (-item[0], -item[1]))
        return [entry for _, _, entry in ordered]

    def best(self) -> ScoredProjection | None:
        """The single most negative projection, or None if empty."""
        entries = self.entries()
        return entries[0] if entries else None

    def worst_kept_coefficient(self) -> float:
        """Coefficient of the weakest kept entry (+inf when empty)."""
        if not self._heap:
            return float("inf")
        return -self._heap[0][0]

    def mean_coefficient(self) -> float:
        """Mean coefficient over kept entries (Table 1 quality metric)."""
        if not self._heap:
            return float("nan")
        return sum(-c for c, _, _ in self._heap) / len(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[ScoredProjection]:
        return iter(self.entries())

    def __contains__(self, subspace: Subspace) -> bool:
        return (subspace.dims, subspace.ranges) in self._seen

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BestProjectionSet(size={len(self)}/{self.max_size}, "
            f"threshold={self.threshold}, best="
            f"{self.best().coefficient if self._heap else None})"
        )
