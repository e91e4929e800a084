"""Hyper-parameters of the evolutionary search.

The paper specifies the *structure* of the GA precisely (Figures 3-6)
but leaves numeric knobs — population size ``p``, mutation probabilities
``p1 = p2``, generation caps — to the implementation.  The defaults here
were tuned on the synthetic UCI stand-ins to converge comfortably within
the De Jong criterion at paper-scale problems; every value is exposed so
the ablation benchmarks can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..._validation import check_in_range, check_positive_int, check_probability
from ...exceptions import ValidationError
from .convergence import DeJongConvergence

__all__ = ["EvolutionaryConfig"]


@dataclass(frozen=True)
class EvolutionaryConfig:
    """Knobs of :class:`~repro.search.evolutionary.engine.EvolutionarySearch`.

    Attributes
    ----------
    population_size:
        The paper's ``p`` — number of concurrent solutions.  Must be
        >= 2 so pairing for crossover is possible.
    mutation_swap_probability:
        ``p1`` — probability of a Type I mutation (dimension swap that
        preserves k) per string per generation (Figure 6).
    mutation_flip_probability:
        ``p2`` — probability of a Type II mutation (re-draw one fixed
        range).  The paper sets ``p1 = p2``; the defaults follow.
    crossover_rate:
        Probability that a matched pair actually recombines (1.0
        reproduces the paper's unconditional crossover).
    elitism:
        Number of best solutions copied verbatim into the next
        generation, shielding them from crossover and mutation.  The
        paper's loop (Figure 3) has no elitism — its BestSet already
        preserves discoveries — so the default is 0; the knob exists
        for the GA-literature ablations (De Jong's e > 0 plans).
    max_generations:
        Hard cap complementing the De Jong convergence criterion.
    convergence_threshold:
        De Jong convergence fraction (0.95 in the paper).
    convergence_mode:
        ``"string"`` (default) or ``"genes"`` — see
        :class:`~repro.search.evolutionary.convergence.DeJongConvergence`
        for why the literal gene criterion degenerates when k ≪ d.
    stall_generations:
        Early stop when the best set has not improved for this many
        generations; ``None`` disables (paper behaviour).
    max_exact_positions:
        Optimized crossover enumerates ``2^k'`` combinations of the
        shared (Type II) positions exactly; above this limit it falls
        back to a greedy pass.  Never reached at paper-scale k.
    restarts:
        Number of independent populations run back-to-back, all feeding
        one shared best set.  A single GA population converges onto one
        region of the search space; threshold-mode mining ("every
        projection with coefficient ≤ s", the arrhythmia protocol)
        needs several restarts to harvest projections from different
        regions.  Default 1 (the paper's single run).
    max_seconds:
        Optional wall-clock budget for the whole search (all restarts).
    track_history:
        Record a per-generation snapshot (best-set progress, population
        fitness, convergence statistic) into ``SearchOutcome.history``.
        Off by default — it costs one population scan per generation.
    """

    population_size: int = 50
    mutation_swap_probability: float = 0.25
    mutation_flip_probability: float = 0.25
    crossover_rate: float = 1.0
    elitism: int = 0
    max_generations: int = 100
    convergence_threshold: float = 0.95
    convergence_mode: str = "string"
    stall_generations: int | None = None
    max_exact_positions: int = 12
    restarts: int = 1
    max_seconds: float | None = None
    track_history: bool = False

    def __post_init__(self) -> None:
        check_positive_int(self.population_size, "population_size", minimum=2)
        check_probability(self.mutation_swap_probability, "mutation_swap_probability")
        check_probability(self.mutation_flip_probability, "mutation_flip_probability")
        check_probability(self.crossover_rate, "crossover_rate")
        check_positive_int(self.elitism, "elitism", minimum=0)
        if self.elitism >= self.population_size:
            raise ValidationError(
                f"elitism ({self.elitism}) must be smaller than the "
                f"population size ({self.population_size})"
            )
        check_positive_int(self.max_generations, "max_generations")
        # The criterion checks its own threshold and mode.
        DeJongConvergence(self.convergence_threshold, self.convergence_mode)
        if self.stall_generations is not None:
            check_positive_int(self.stall_generations, "stall_generations")
        check_positive_int(self.max_exact_positions, "max_exact_positions")
        check_positive_int(self.restarts, "restarts")
        if (
            self.max_seconds is not None
            and check_in_range(self.max_seconds, "max_seconds") <= 0
        ):
            raise ValidationError(
                f"max_seconds must be positive, got {self.max_seconds}"
            )
