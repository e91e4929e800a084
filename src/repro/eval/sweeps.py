"""Parameter sweep utilities: structured grids over detector knobs.

The paper's §2.4 discussion and our ablation benchmarks all have the
same shape — vary one knob (k, φ, m, population size) with everything
else fixed, and tabulate quality/coverage/cost.  This module gives that
pattern a reusable implementation producing tidy row dictionaries ready
for table rendering or downstream analysis.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable, Mapping, Sequence

from .._validation import check_matrix
from ..core.detector import SubspaceOutlierDetector
from ..exceptions import ValidationError

__all__ = ["sweep_detector_parameter", "render_sweep"]

#: Detector constructor keywords a sweep may vary.
_SWEEPABLE = {
    "dimensionality",
    "n_ranges",
    "n_projections",
    "method",
    "threshold",
    "crossover",
}


def sweep_detector_parameter(
    data,
    parameter: str,
    values: Iterable,
    *,
    base_kwargs: Mapping | None = None,
    top: int = 20,
) -> list[dict]:
    """Run the detector once per value of *parameter* and tabulate.

    Parameters
    ----------
    data:
        The dataset to mine (same data for every run).
    parameter:
        Which detector constructor argument to vary (one of
        ``dimensionality``, ``n_ranges``, ``n_projections``, ``method``,
        ``threshold``, ``crossover``).
    values:
        The settings to sweep.
    base_kwargs:
        Fixed detector arguments shared by every run (seed your
        ``random_state`` here for reproducibility).
    top:
        How many best projections the quality column averages.

    Returns
    -------
    list[dict]
        One row per setting: ``{parameter, quality, best_coefficient,
        n_outliers, n_projections_mined, elapsed_seconds, k, phi}``.
    """
    array = check_matrix(data, "data")
    if parameter not in _SWEEPABLE:
        raise ValidationError(
            f"parameter must be one of {sorted(_SWEEPABLE)}, got {parameter!r}"
        )
    base = dict(base_kwargs or {})
    if parameter in base:
        raise ValidationError(
            f"{parameter!r} appears in base_kwargs and as the swept parameter"
        )
    rows = []
    for value in values:
        detector = SubspaceOutlierDetector(**{**base, parameter: value})
        start = time.perf_counter()
        result = detector.detect(array)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                parameter: value,
                "quality": result.mean_coefficient(top=top),
                "best_coefficient": result.best_coefficient,
                "n_outliers": result.n_outliers,
                "n_projections_mined": len(result.projections),
                "elapsed_seconds": elapsed,
                "k": result.dimensionality,
                "phi": result.n_ranges,
            }
        )
    return rows


def render_sweep(rows: Sequence[Mapping], parameter: str) -> str:
    """Fixed-width text table for a sweep's rows."""
    if not rows:
        raise ValidationError("cannot render an empty sweep")
    header = (
        f"{parameter:>14}{'quality':>10}{'best':>9}{'outliers':>10}"
        f"{'mined':>8}{'time_s':>9}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        quality = row["quality"]
        quality_text = "-" if math.isnan(quality) else f"{quality:.3f}"
        best = row["best_coefficient"]
        best_text = "-" if math.isnan(best) else f"{best:.3f}"
        lines.append(
            f"{str(row[parameter]):>14}{quality_text:>10}{best_text:>9}"
            f"{row['n_outliers']:>10}{row['n_projections_mined']:>8}"
            f"{row['elapsed_seconds']:>9.3f}"
        )
    return "\n".join(lines)
