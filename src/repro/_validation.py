"""Shared argument-validation helpers.

These helpers centralize the checks that every public entry point needs:
positive integers, probabilities, names from a fixed table, 2-D float
matrices, and random-state coercion.  They raise
:class:`repro.exceptions.ValidationError` with messages that name the
offending parameter, which keeps the call sites one-liners.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from typing import Any

import numpy as np

from .exceptions import ValidationError

__all__ = [
    "check_positive_int",
    "check_non_negative_int",
    "check_probability",
    "check_in_range",
    "check_choice",
    "check_matrix",
    "check_rng",
    "check_dimension_subset",
]


def check_positive_int(value: Any, name: str, *, minimum: int = 1) -> int:
    """Validate that *value* is an integer >= *minimum* and return it.

    Booleans are rejected even though they subclass ``int`` because a
    ``True`` passed where a count was expected is almost always a bug.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_non_negative_int(value: Any, name: str) -> int:
    """Validate that *value* is an integer >= 0 and return it."""
    return check_positive_int(value, name, minimum=0)


def check_probability(value: Any, name: str) -> float:
    """Validate that *value* is a float in [0, 1] and return it."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a number in [0, 1], got {value!r}") from None
    if not 0.0 <= value <= 1.0 or np.isnan(value):
        raise ValidationError(f"{name} must be in [0, 1], got {value}")
    return value


def check_in_range(
    value: Any,
    name: str,
    *,
    low: float | None = None,
    high: float | None = None,
) -> float:
    """Validate that *value* is a finite number within [low, high]."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a number, got {value!r}") from None
    if np.isnan(value):
        raise ValidationError(f"{name} must not be NaN")
    if low is not None and value < low:
        raise ValidationError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValidationError(f"{name} must be <= {high}, got {value}")
    return value


def check_choice(value: Any, choices: Collection[str], name: str) -> str:
    """Validate that *value* is one of the names in *choices*.

    A non-``str`` *value* (a list, say, which no table lookup can hash)
    is rejected the same way as an unknown name, listing every choice.
    """
    if not isinstance(value, str) or value not in choices:
        raise ValidationError(
            f"unknown {name} {value!r}; choose from: {', '.join(sorted(choices))}"
        )
    return value


def check_matrix(
    data: Any,
    name: str = "data",
    *,
    allow_nan: bool = True,
    min_rows: int = 1,
    min_cols: int = 1,
) -> np.ndarray:
    """Coerce *data* to a 2-D ``float64`` array and validate its shape.

    NaN entries encode missing values throughout the library; they are
    accepted unless *allow_nan* is False.  Infinities are always
    rejected because they break equi-depth quantile boundaries.
    """
    try:
        array = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be convertible to a float array") from None
    if array.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got ndim={array.ndim}")
    rows, cols = array.shape
    if rows < min_rows:
        raise ValidationError(f"{name} must have at least {min_rows} row(s), got {rows}")
    if cols < min_cols:
        raise ValidationError(f"{name} must have at least {min_cols} column(s), got {cols}")
    inf_mask = np.isinf(array)
    if inf_mask.any():
        bad_cols = np.nonzero(inf_mask.any(axis=0))[0]
        shown = ", ".join(str(c) for c in bad_cols[:8])
        if bad_cols.size > 8:
            shown += f", … ({bad_cols.size} columns total)"
        raise ValidationError(
            f"{name} must not contain infinities (found inf/-inf in "
            f"column(s) {shown}); clip or drop these values before "
            "fitting — infinities break equi-depth quantile boundaries"
        )
    if not allow_nan and np.isnan(array).any():
        raise ValidationError(f"{name} must not contain NaN values")
    return array


def check_rng(random_state: Any) -> np.random.Generator:
    """Coerce *random_state* into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh default generator), an integer seed, an
    existing ``Generator`` (returned as-is), or a ``SeedSequence``.
    """
    if random_state is None:
        # random_state=None is the documented "fresh entropy" escape
        # hatch of the public API; every deterministic path seeds it.
        return np.random.default_rng()  # repro-lint: disable=RPL001
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, (int, np.integer, np.random.SeedSequence)):
        return np.random.default_rng(random_state)
    raise ValidationError(
        "random_state must be None, an int seed, a SeedSequence, or a "
        f"numpy Generator, got {type(random_state).__name__}"
    )


def check_dimension_subset(dims: Sequence[int], n_dims: int, name: str = "dims") -> tuple[int, ...]:
    """Validate a sequence of distinct dimension indices in [0, n_dims)."""
    try:
        out = tuple(int(d) for d in dims)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a sequence of integers") from None
    if len(set(out)) != len(out):
        raise ValidationError(f"{name} must not contain duplicate dimensions: {out}")
    for d in out:
        if not 0 <= d < n_dims:
            raise ValidationError(f"{name} entries must be in [0, {n_dims}), got {d}")
    return out
