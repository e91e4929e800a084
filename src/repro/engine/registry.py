"""The engine registry: names → :class:`SearchEngine` factories.

The detector, the multi-k sweep and the CLI all resolve their search
method through this registry, so a new strategy is a drop-in plugin::

    from repro.engine import register_engine

    @register_engine("tabu", description="tabu search over the GA moves")
    def _tabu(counter, dimensionality, n_projections, **kwargs):
        return TabuSearch(counter, dimensionality, n_projections, **kwargs)

    SubspaceOutlierDetector(method="tabu").detect(data)

Factories receive ``(counter, dimensionality, n_projections,
**kwargs)``.  Because the detector passes one superset of keyword
arguments for all engines, each built-in spec declares which keywords
it ``accepts`` and the rest are filtered out; plugin factories that
declare nothing receive only the universally-applicable keywords they
name in their signature (or everything, if they take ``**kwargs``).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from ..exceptions import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..search.brute_force import BruteForceSearch
    from ..search.evolutionary.engine import EvolutionarySearch
    from ..search.local import (
        HillClimbingSearch,
        RandomSearch,
        SimulatedAnnealingSearch,
    )
    from .protocol import SearchEngine

__all__ = [
    "EngineSpec",
    "register_engine",
    "unregister_engine",
    "engine_names",
    "engine_spec",
    "create_engine",
]


@dataclass(frozen=True)
class EngineSpec:
    """One registry entry.

    Attributes
    ----------
    name:
        Registry key (the detector's ``method`` / CLI ``--search`` value).
    factory:
        ``(counter, dimensionality, n_projections, **kwargs) -> SearchEngine``.
    accepts:
        Keyword arguments the factory understands; ``None`` means
        "derive from the factory signature".
    supports_checkpoint:
        Whether the engine can persist/restore boundary checkpoints —
        the detector only creates a checkpoint stream for engines that
        can actually fill it.
    description:
        One line for ``--help`` and docs.
    """

    name: str
    factory: Callable
    accepts: tuple[str, ...] | None = None
    supports_checkpoint: bool = False
    description: str = ""


_REGISTRY: dict[str, EngineSpec] = {}


def register_engine(
    name: str,
    factory: Callable | None = None,
    *,
    accepts: tuple[str, ...] | None = None,
    supports_checkpoint: bool = False,
    description: str = "",
    replace: bool = False,
) -> Callable:
    """Register an engine factory (usable directly or as a decorator)."""
    if not name or not isinstance(name, str):
        raise ValidationError(f"engine name must be a non-empty string, got {name!r}")

    def _register(factory: Callable) -> Callable:
        if name in _REGISTRY and not replace:
            raise ValidationError(
                f"engine {name!r} is already registered; pass replace=True "
                "to override it"
            )
        _REGISTRY[name] = EngineSpec(
            name=name,
            factory=factory,
            accepts=tuple(accepts) if accepts is not None else None,
            supports_checkpoint=supports_checkpoint,
            description=description,
        )
        return factory

    if factory is None:
        return _register
    return _register(factory)


def unregister_engine(name: str) -> None:
    """Remove a registered engine (plugin teardown in tests)."""
    _REGISTRY.pop(name, None)


def engine_names() -> tuple[str, ...]:
    """All registered engine names, sorted."""
    return tuple(sorted(_REGISTRY))


def engine_spec(name: str) -> EngineSpec:
    """The :class:`EngineSpec` for *name* (ValidationError if unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown search engine {name!r}; registered engines: "
            f"{', '.join(engine_names()) or '(none)'}"
        ) from None


def create_engine(
    name: str,
    counter: Any,
    dimensionality: int,
    n_projections: int | None = 20,
    **kwargs: Any,
) -> "SearchEngine":
    """Construct the engine registered under *name*.

    Keyword arguments not applicable to the chosen engine are dropped,
    so callers (detector, CLI) can pass one superset of options for
    every engine.
    """
    spec = engine_spec(name)
    accepts = spec.accepts
    if accepts is None:
        parameters = inspect.signature(spec.factory).parameters
        if any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
        ):
            accepts = tuple(kwargs)
        else:
            accepts = tuple(
                key for key in kwargs if key in parameters
            )
    filtered = {key: value for key, value in kwargs.items() if key in accepts}
    return spec.factory(counter, dimensionality, n_projections, **filtered)


# ----------------------------------------------------------------------
# Built-in engines.  Factories import lazily: the search modules import
# repro.engine.protocol for their base class, so importing them at
# module top here would be circular.

_COMMON = ("require_nonempty", "threshold")


def _evolutionary(
    counter: Any, dimensionality: int, n_projections: int | None, **kwargs: Any
) -> "EvolutionarySearch":
    from ..search.evolutionary.engine import EvolutionarySearch

    return EvolutionarySearch(counter, dimensionality, n_projections, **kwargs)


def _brute_force(
    counter: Any, dimensionality: int, n_projections: int | None, **kwargs: Any
) -> "BruteForceSearch":
    from ..search.brute_force import BruteForceSearch

    return BruteForceSearch(counter, dimensionality, n_projections, **kwargs)


def _random(
    counter: Any, dimensionality: int, n_projections: int | None, **kwargs: Any
) -> "RandomSearch":
    from ..search.local import RandomSearch

    return RandomSearch(counter, dimensionality, n_projections, **kwargs)


def _hill_climbing(
    counter: Any, dimensionality: int, n_projections: int | None, **kwargs: Any
) -> "HillClimbingSearch":
    from ..search.local import HillClimbingSearch

    return HillClimbingSearch(counter, dimensionality, n_projections, **kwargs)


def _simulated_annealing(
    counter: Any, dimensionality: int, n_projections: int | None, **kwargs: Any
) -> "SimulatedAnnealingSearch":
    from ..search.local import SimulatedAnnealingSearch

    return SimulatedAnnealingSearch(
        counter, dimensionality, n_projections, **kwargs
    )


register_engine(
    "evolutionary",
    _evolutionary,
    accepts=_COMMON
    + ("config", "crossover", "selection", "random_state"),
    supports_checkpoint=True,
    description="the paper's GA with optimized crossover (Figures 3-6)",
)
register_engine(
    "brute_force",
    _brute_force,
    accepts=_COMMON + ("max_seconds", "max_evaluations"),
    supports_checkpoint=True,
    description="exhaustive bottom-up cube enumeration (Figure 2)",
)
register_engine(
    "random",
    _random,
    accepts=_COMMON + ("max_evaluations", "random_state"),
    description="uniformly random cubes (the no-structure control, §2.1)",
)
register_engine(
    "hill_climbing",
    _hill_climbing,
    accepts=_COMMON + ("max_evaluations", "random_state", "patience"),
    description="first-improvement hill climbing with restarts (§2.1)",
)
register_engine(
    "simulated_annealing",
    _simulated_annealing,
    accepts=_COMMON
    + ("max_evaluations", "random_state", "initial_temperature", "cooling"),
    description="Metropolis annealing over the GA move set (§2.1)",
)
