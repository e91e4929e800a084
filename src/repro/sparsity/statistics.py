"""Probabilistic significance of sparsity coefficients.

The paper (§1.3) notes that under the uniform-independence null model
the normal tables quantify "the probabilistic level of significance for
a point to deviate significantly from average behavior".  This module
provides that mapping — coefficient → lower-tail probability — plus the
*exact* Binomial tail, which matters for small expected counts where the
CLT approximation is loose (tiny ``N·f^k``, precisely the regime §2.4
warns about when choosing k).
"""

from __future__ import annotations

import math

from .._validation import check_in_range, check_non_negative_int, check_positive_int
from ..exceptions import ValidationError

__all__ = [
    "normal_tail_probability",
    "binomial_tail_probability",
    "significance_of_coefficient",
    "bonferroni_significance",
    "expected_abnormal_cubes",
]


def normal_tail_probability(coefficient: float) -> float:
    """Lower-tail probability ``P(Z <= coefficient)`` for standard normal Z.

    A sparsity coefficient of −3 maps to ≈ 0.00135, i.e. the paper's
    "99.9% level of significance" that the cube is abnormally sparse.
    """
    coefficient = check_in_range(coefficient, "coefficient")
    return 0.5 * math.erfc(-coefficient / math.sqrt(2.0))


def binomial_tail_probability(
    count: int,
    n_points: int,
    n_ranges: int,
    dimensionality: int,
) -> float:
    """Exact ``P(X <= count)`` for ``X ~ Binomial(N, f^k)``.

    This is the exact analogue of the normal approximation that defines
    the sparsity coefficient; useful to sanity-check significance when
    the expected count ``N·f^k`` is small.
    """
    count = check_non_negative_int(count, "count")
    n_points = check_positive_int(n_points, "n_points")
    n_ranges = check_positive_int(n_ranges, "n_ranges", minimum=2)
    dimensionality = check_positive_int(dimensionality, "dimensionality")
    if count > n_points:
        raise ValidationError(f"count ({count}) cannot exceed n_points ({n_points})")
    # scipy.stats loads hundreds of modules; import it only when needed so
    # that `import repro` stays cheap.
    from scipy import stats

    p = (1.0 / n_ranges) ** dimensionality
    return float(stats.binom.cdf(count, n_points, p))


def expected_abnormal_cubes(n_cubes: int, threshold: float) -> float:
    """Expected cubes passing the threshold *by chance* under the null.

    The searchers evaluate up to ``C(d, k)·φ^k`` cubes (see
    :func:`repro.search.brute_force.search_space_size`); even a −3
    threshold (tail mass ≈ 0.00135) lets tens of thousands of cubes
    through at the paper's musk scale.  This helper quantifies that
    multiple-testing burden so users can judge how exceptional a mined
    set really is.
    """
    n_cubes = check_positive_int(n_cubes, "n_cubes")
    threshold = check_in_range(threshold, "threshold")
    return n_cubes * normal_tail_probability(threshold)


def bonferroni_significance(coefficient: float, n_cubes: int) -> float:
    """Family-wise significance of a coefficient over *n_cubes* tests.

    Bonferroni-corrects :func:`significance_of_coefficient`: the
    confidence that a cube this sparse is abnormal even after
    accounting for the size of the search space it was selected from.
    Returns 0.0 once the corrected tail probability saturates at 1 —
    i.e. a cube this sparse is *expected* somewhere in a search space
    this large.
    """
    coefficient = check_in_range(coefficient, "coefficient")
    n_cubes = check_positive_int(n_cubes, "n_cubes")
    if coefficient >= 0.0:
        return 0.0
    corrected_tail = min(1.0, normal_tail_probability(coefficient) * n_cubes)
    return 1.0 - corrected_tail


def significance_of_coefficient(coefficient: float) -> float:
    """Significance level (as confidence) that a cube is abnormally sparse.

    For a *negative* coefficient ``s`` this is ``1 − P(Z <= s)``
    interpreted the paper's way: the confidence that the cube contains
    fewer points than expected.  A coefficient of −3 gives ≈ 0.9987
    ("99.9% level of significance").  Non-negative coefficients return
    0.0 — the cube is not sparse at all.
    """
    coefficient = check_in_range(coefficient, "coefficient")
    if coefficient >= 0.0:
        return 0.0
    return 1.0 - normal_tail_probability(coefficient)
