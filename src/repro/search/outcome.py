"""Common return type for projection searchers."""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping

from ..core.results import ScoredProjection
from ..run.cancel import check_stop_reason

__all__ = ["SearchOutcome", "GenerationRecord"]


@dataclass(frozen=True, slots=True)
class GenerationRecord:
    """One generation's snapshot (GA instrumentation).

    Collected when ``EvolutionaryConfig.track_history`` is on; the
    convergence-curve ablation benchmark is built from these.

    Attributes
    ----------
    restart, generation:
        Which population and which of its generations this snapshot is.
    best_coefficient:
        Most negative coefficient in the shared best set so far.
    best_set_size:
        Entries currently held by the best set.
    population_best:
        Best (most negative) fitness within this generation's
        population (+inf if every string is infeasible).
    n_feasible:
        How many strings of the population encode a k-dimensional cube.
    convergence:
        Modal-solution share of the population (the string-mode
        convergence statistic).
    """

    restart: int
    generation: int
    best_coefficient: float
    best_set_size: int
    population_best: float
    n_feasible: int
    convergence: float


@dataclass(frozen=True)
class SearchOutcome:
    """What a projection search produced.

    Attributes
    ----------
    projections:
        Mined cubes, most negative sparsity coefficient first.
    completed:
        False when the search stopped early (time budget / evaluation
        cap / cancellation) — the brute-force analogue of the paper's
        musk run that "did not terminate in a reasonable amount of
        time".
    stats:
        Search metadata: elapsed seconds, cube evaluations, generations
        (GA only), search-space size (brute force only), etc.
    history:
        Per-generation :class:`GenerationRecord` snapshots (empty unless
        the GA ran with ``track_history=True``).
    stopped_reason:
        *Why* the search returned — one of
        :data:`~repro.run.cancel.STOP_REASONS`
        (``converged | optimal | generation_cap | deadline |
        evaluation_cap | cancelled``).  ``converged`` covers every
        natural terminus: De Jong convergence and the stall-generations
        early stop for the GA, exhaustive enumeration for brute force.
        ``optimal`` is a complete run that stopped once its best set was
        certified final
        (:meth:`~repro.search.best_set.BestProjectionSet.certified`).
    """

    projections: tuple[ScoredProjection, ...]
    completed: bool = True
    stats: Mapping[str, float] = field(default_factory=dict)
    history: tuple[GenerationRecord, ...] = ()
    stopped_reason: str = "converged"

    def __post_init__(self) -> None:
        object.__setattr__(self, "projections", tuple(self.projections))
        object.__setattr__(self, "history", tuple(self.history))
        check_stop_reason(self.stopped_reason)

    @property
    def cancelled(self) -> bool:
        """True when a cooperative cancellation stopped the search."""
        return self.stopped_reason == "cancelled"

    @property
    def best_coefficient(self) -> float:
        """Most negative coefficient found (nan if nothing was mined)."""
        if not self.projections:
            return float("nan")
        return self.projections[0].coefficient

    def mean_coefficient(self, top: int | None = None) -> float:
        """Mean coefficient of the best *top* projections."""
        chosen = self.projections if top is None else self.projections[:top]
        if not chosen:
            return float("nan")
        return sum(p.coefficient for p in chosen) / len(chosen)
