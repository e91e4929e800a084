"""Crossover operators (§2.2 and Figure 5).

Two recombination mechanisms, mirroring the paper's comparison:

* :class:`TwoPointCrossover` — the "unbiased two-point crossover"
  baseline.  Despite the name, the paper describes it as picking a
  single crossover point and "exchanging the segments to the right of
  this point"; we reproduce that literally (and offer the genuinely
  two-point variant as an option).  Children frequently have the wrong
  dimensionality; they stay in the population with infeasible fitness
  and die under selection, which is exactly why this operator performs
  poorly.

* :class:`OptimizedCrossover` — Figure 5.  Positions are classified per
  parent pair: Type I (both ``*``), Type II (neither ``*``; there are
  ``k' <= k`` of them), Type III (exactly one ``*``; ``2(k−k')`` of
  them, disjoint between parents).  The first child ``s`` takes ``*``
  on Type I, the *best of the 2^k' combinations* on Type II (exact
  enumeration — k' is small when mining low-dimensional projections of
  high-dimensional data), and is then extended greedily through Type
  III positions, always adding the (position, value) whose partial cube
  has the most negative sparsity coefficient, until it fixes k genes.
  The second child ``s'`` is the *complementary* string: every position
  is derived from the opposite parent than the one ``s`` used, which
  makes ``s'`` feasible by construction.

Both work on the ``(p, d)`` gene matrix: :meth:`CrossoverOperator.apply`
pairs its rows and makes each pair's draws in turn, then
:meth:`~CrossoverOperator.recombine_pairs` builds all children at once;
the optimized crossover does that in lockstep stages, one counting call
each.  Where the counter serves it, the engine runs the whole
generation, this crossover included, in one C call instead
(:mod:`repro.search.evolutionary.generation`), proven against these
operators.
"""

from __future__ import annotations

import abc

import numpy as np

from ..._validation import check_positive_int, check_rng
from ...exceptions import ValidationError
from .encoding import Solution, WILDCARD_GENE, check_population
from .population import FitnessEvaluator

__all__ = [
    "CrossoverOperator",
    "TwoPointCrossover",
    "OptimizedCrossover",
    "pair_population",
]


def pair_population(population, random_state) -> list[tuple[int, int]]:
    """Match the strings pairwise at random (Figure 5's first step).

    Returns row-index pairs; with an odd population the leftover string
    is unpaired and passes through crossover unchanged.
    """
    first, second = _pair_rows(check_rng(random_state), len(population))
    return list(zip(first.tolist(), second.tolist(), strict=True))


def _pair_rows(rng, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The two row-index arrays of :func:`pair_population`'s pairs: one
    permutation of the rows, taken two at a time."""
    order = rng.permutation(n_rows)
    paired = n_rows - n_rows % 2
    return order[0:paired:2], order[1:paired:2]


class CrossoverOperator(abc.ABC):
    """Recombines pairs of parent strings into pairs of children."""

    def draw(self, n_dims: int, rng):
        """This operator's random draws for one recombining pair (none)."""
        return None

    @abc.abstractmethod
    def recombine_pairs(
        self,
        parents_a: np.ndarray,
        parents_b: np.ndarray,
        draws: list,
        evaluator: FitnessEvaluator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The two ``(n, d)`` child matrices of the row pairs; *draws* per pair."""

    def apply(
        self,
        population,
        evaluator: FitnessEvaluator,
        random_state,
        crossover_rate: float = 1.0,
    ) -> np.ndarray:
        """Pair the ``(p, d)`` population and recombine the pairs.

        Mirrors Algorithm *Crossover* (Figure 5): matched parents are
        *replaced* by their children, in a new matrix.
        """
        rng = check_rng(random_state)
        genes = check_population(population)
        first, second = _pair_rows(rng, len(genes))
        kept, draws = [], []
        for pair in range(len(first)):
            if crossover_rate < 1.0 and rng.random() >= crossover_rate:
                continue
            kept.append(pair)
            draws.append(self.draw(genes.shape[1], rng))
        out = genes.copy()
        if kept:
            if len(kept) < len(first):
                first, second = first[kept], second[kept]
            out[first], out[second] = self.recombine_pairs(
                genes[first], genes[second], draws, evaluator
            )
        return out

    def recombine(
        self,
        parent_a: Solution,
        parent_b: Solution,
        evaluator: FitnessEvaluator,
        random_state,
    ) -> tuple[Solution, Solution]:
        """The two children of one pair of strings."""
        if parent_a.n_dims != parent_b.n_dims:
            raise ValidationError("parents must have equal gene counts")
        a, b = np.array([parent_a.genes]), np.array([parent_b.genes])
        draws = [self.draw(parent_a.n_dims, check_rng(random_state))]
        child_a, child_b = self.recombine_pairs(a, b, draws, evaluator)
        return Solution(child_a[0]), Solution(child_b[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class TwoPointCrossover(CrossoverOperator):
    """The unbiased segment-exchange baseline.

    Parameters
    ----------
    two_cut_points:
        False (default) reproduces the paper's description — one random
        cut, exchange the right segments.  True exchanges the segment
        *between* two random cuts (textbook two-point crossover);
        offered for the crossover ablation.
    """

    def __init__(self, two_cut_points: bool = False):
        self.two_cut_points = bool(two_cut_points)

    def draw(self, n_dims, rng):
        """The exchanged segment ``[lo, hi)`` of one pair."""
        if self.two_cut_points:
            lo, hi = sorted(int(c) for c in rng.integers(0, n_dims + 1, size=2))
            return lo, hi
        # Cut after position `cut` (1..d-1); exchange right segments.
        return (int(rng.integers(1, n_dims)) if n_dims > 1 else 0), n_dims

    def recombine_pairs(self, parents_a, parents_b, draws, evaluator):
        lo, hi = np.array(draws).T
        position = np.arange(parents_a.shape[1])
        exchange = (position >= lo[:, None]) & (position < hi[:, None])
        return (
            np.where(exchange, parents_b, parents_a),
            np.where(exchange, parents_a, parents_b),
        )


class OptimizedCrossover(CrossoverOperator):
    """Figure 5's optimized recombination (exact + greedy + complement).

    Every recombining pair of a generation is evaluated at once, in
    lockstep stages: one batched partial-fitness evaluation scores all
    pairs' Type II assignments, then one evaluation per greedy step
    covers every pair still choosing.  Each choice takes the first minimum in
    enumeration (or candidate) order, which is exactly what a
    per-pair strict-``<`` scan picks, so the children and the
    evaluation count are those of recombining the pairs one by one.
    It draws nothing from the random stream.

    Parameters
    ----------
    max_exact_positions:
        Upper bound on k' for the exhaustive ``2^k'`` Type II stage;
        beyond it a sequential greedy assignment is used instead (never
        triggered at the paper's scale, where k' <= k <= 5 or so).
    """

    def __init__(self, max_exact_positions: int = 12):
        self.max_exact_positions = check_positive_int(
            max_exact_positions, "max_exact_positions"
        )

    def recombine_pairs(self, parents_a, parents_b, draws, evaluator):
        """Figure 5 for every ``(parents_a[i], parents_b[i])`` pair at once,
        in lockstep stages, each one counting call: the reference the
        engine's one-call generation is proven against."""
        k = evaluator.dimensionality
        # Only the two-point baseline produces infeasible strings and it
        # never routes them here; pass them through defensively.
        out_a, out_b = parents_a.copy(), parents_b.copy()
        live = np.flatnonzero(
            ((parents_a != WILDCARD_GENE).sum(axis=1) == k)
            & ((parents_b != WILDCARD_GENE).sum(axis=1) == k)
        )
        if not len(live):
            return out_a, out_b
        a, b = parents_a[live], parents_b[live]
        fixed_a, fixed_b = a != WILDCARD_GENE, b != WILDCARD_GENE
        type2 = fixed_a & fixed_b
        type3 = fixed_a ^ fixed_b
        # Positions where both parents agree are forced (either source
        # yields the same gene); only the free ones are searched.
        free = type2 & (a != b)
        n_free = free.sum(axis=1)

        # Stage 1 — Type II: best of the 2^k' parent assignments.
        child = np.where(type2, a, WILDCARD_GENE)
        exact = np.flatnonzero((n_free > 0) & (n_free <= self.max_exact_positions))
        if len(exact):
            child[exact] = self._enumerate_type2(
                child[exact], b[exact], free[exact], evaluator
            )
        greedy = np.flatnonzero(n_free > self.max_exact_positions)
        if len(greedy):
            child[greedy] = self._sweep_type2(
                np.where(free[greedy], WILDCARD_GENE, child[greedy]),
                a[greedy], b[greedy], free[greedy], evaluator,
            )

        # Stage 2 — Type III: greedy extension to k fixed genes, always
        # adding the (position, value) with the fittest partial cube.
        n_add = k - type2.sum(axis=1)
        value = np.where(fixed_a, a, b)
        for step in range(int(n_add.max())):
            active = np.flatnonzero(n_add > step)
            unchosen = type3[active] & (child[active] == WILDCARD_GENE)
            owner, pos = np.nonzero(unchosen)
            rows = child[active][owner]
            rows[np.arange(len(rows)), pos] = value[active[owner], pos]
            child[active] = self._fittest(rows, owner, evaluator)

        # Complementary child: every gene from the opposite parent.  On
        # Type II that is the other parent's value; an unchosen Type III
        # gene was implicitly derived from the wildcard parent, so the
        # complement takes the fixed parent's value (and a chosen one
        # becomes ``*``).
        out_a[live] = child
        out_b[live] = np.where(
            type2,
            np.where(child == a, b, a),
            np.where(type3 & (child == WILDCARD_GENE), value, WILDCARD_GENE),
        )
        return out_a, out_b

    @classmethod
    def _enumerate_type2(cls, base, b, free, evaluator):
        """Exhaustive ``2^f`` Type II search, every pair in one batch.

        *base* holds each pair's Type II genes from ``parent_a``;
        candidate ``c`` of a pair with *f* free positions takes
        ``parent_b``'s gene at its *j*-th free position when bit
        ``f-1-j`` of ``c`` is set — :func:`itertools.product` order.
        """
        n_free = free.sum(axis=1)
        n_candidates = 1 << n_free
        owner = np.repeat(np.arange(len(base)), n_candidates)
        starts = np.cumsum(n_candidates) - n_candidates
        candidate = np.arange(len(owner)) - starts[owner]
        # Bit position of each free gene: f-1 for the first, 0 for the last.
        shift = (n_free[:, None] - np.cumsum(free, axis=1))[owner]
        take_b = free[owner] & (((candidate[:, None] >> shift) & 1) == 1)
        rows = np.where(take_b, b[owner], base[owner])
        return cls._fittest(rows, owner, evaluator)

    @classmethod
    def _sweep_type2(cls, working, a, b, free, evaluator):
        """Fallback for oversized k': fix free positions one at a time.

        Each step scores, for every pair with free positions left, its
        next free position taken from ``parent_a`` and then from
        ``parent_b``, and keeps the fitter.
        """
        n_free = free.sum(axis=1)
        rank = np.cumsum(free, axis=1)
        for step in range(int(n_free.max())):
            active = np.flatnonzero(n_free > step)
            pos = np.argmax(free[active] & (rank[active] == step + 1), axis=1)
            owner = np.repeat(np.arange(len(active)), 2)
            rows = working[active][owner]
            sources = np.stack([a[active, pos], b[active, pos]], axis=1).ravel()
            rows[np.arange(len(rows)), pos[owner]] = sources
            working[active] = cls._fittest(rows, owner, evaluator)
        return working

    @staticmethod
    def _fittest(rows, owner, evaluator):
        """Each owner's fittest candidate row, the first on ties.

        *owner* labels the candidate *rows*, ``0..n-1`` in contiguous
        runs in scan order; returns one row per owner.  ``argmin`` over
        the inf-padded table takes the first minimum, as a strict-``<``
        scan does.
        """
        fitness = evaluator.partial_fitness_batch(rows)
        sizes = np.bincount(owner)
        starts = np.cumsum(sizes) - sizes
        table = np.full((len(sizes), int(sizes.max())), np.inf)
        table[owner, np.arange(len(owner)) - starts[owner]] = fitness
        return rows[starts + table.argmin(axis=1)]
