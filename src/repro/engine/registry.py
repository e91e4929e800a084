"""The engine table: the paper's five searches, by name.

The detector (``method=``), the multi-k sweep and the CLI (``--method``)
resolve their search through :data:`ENGINES` and :func:`create_engine`:
the GA of Figures 3-6, the brute force of Figure 2, and the §2.1
random, hill-climbing and annealing ablations.  The set is closed; a
new search is a new row here.

Each row is ``(factory, accepts, description)``.  Factories receive
``(counter, dimensionality, n_projections, **kwargs)``.  The detector
passes one superset of keyword arguments for every engine, so each row
declares the keywords its engine ``accepts`` and :func:`create_engine`
drops the rest.  The lists are explicit because the local searchers
take ``*args, **kwargs``, whose signatures cannot be read.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from .._validation import check_choice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .protocol import SearchEngine

__all__ = ["ENGINES", "create_engine"]


# Factories import lazily: the search modules import
# repro.engine.protocol for their base class, so importing them at
# module top here would be circular.


def _evolutionary(*args: Any, **kwargs: Any) -> "SearchEngine":
    from ..search.evolutionary.engine import EvolutionarySearch

    return EvolutionarySearch(*args, **kwargs)


def _brute_force(*args: Any, **kwargs: Any) -> "SearchEngine":
    from ..search.brute_force import BruteForceSearch

    return BruteForceSearch(*args, **kwargs)


def _random(*args: Any, **kwargs: Any) -> "SearchEngine":
    from ..search.local import RandomSearch

    return RandomSearch(*args, **kwargs)


def _hill_climbing(*args: Any, **kwargs: Any) -> "SearchEngine":
    from ..search.local import HillClimbingSearch

    return HillClimbingSearch(*args, **kwargs)


def _simulated_annealing(*args: Any, **kwargs: Any) -> "SearchEngine":
    from ..search.local import SimulatedAnnealingSearch

    return SimulatedAnnealingSearch(*args, **kwargs)


_COMMON = ("require_nonempty", "threshold")

#: name → ``(factory, accepted keywords, one-line description)``.
ENGINES: dict[str, tuple[Callable[..., "SearchEngine"], tuple[str, ...], str]] = {
    "evolutionary": (
        _evolutionary,
        _COMMON + ("config", "crossover", "selection", "random_state"),
        "the paper's GA with optimized crossover (Figures 3-6)",
    ),
    "brute_force": (
        _brute_force,
        _COMMON + ("max_seconds", "max_evaluations"),
        "exhaustive bottom-up cube enumeration (Figure 2)",
    ),
    "random": (
        _random,
        _COMMON + ("max_evaluations", "random_state"),
        "uniformly random cubes (the no-structure control, §2.1)",
    ),
    "hill_climbing": (
        _hill_climbing,
        _COMMON + ("max_evaluations", "random_state", "patience"),
        "first-improvement hill climbing with restarts (§2.1)",
    ),
    "simulated_annealing": (
        _simulated_annealing,
        _COMMON
        + ("max_evaluations", "random_state", "initial_temperature", "cooling"),
        "Metropolis annealing over the GA move set (§2.1)",
    ),
}


def create_engine(
    name: str,
    counter: Any,
    dimensionality: int,
    n_projections: int | None = 20,
    **kwargs: Any,
) -> "SearchEngine":
    """Construct the engine *name* of :data:`ENGINES`.

    Keyword arguments the engine does not accept are dropped, so
    callers (detector, CLI) can pass one superset of options for every
    engine.  An unknown or non-``str`` *name* raises
    :class:`~repro.exceptions.ValidationError` listing the engines.
    """
    factory, accepts, _ = ENGINES[check_choice(name, ENGINES, "search engine")]
    filtered = {key: value for key, value in kwargs.items() if key in accepts}
    return factory(counter, dimensionality, n_projections, **filtered)
