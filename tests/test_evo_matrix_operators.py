"""The GA's matrix operators against string-by-string references.

Selection (Figure 4), two-point crossover, mutation (Figure 6) and both
De Jong convergence modes work on a ``(p, d)`` gene matrix, drawing
every random value in the order a pass over the strings one at a time
draws it.  Each reference below is that string-by-string pass over
lists of genes.  The matrix operator must return the same strings and
leave the generator in the same state: draw for draw.  (The optimized
crossover has its own per-pair oracle in ``test_evo_crossover.py``.)

The default run draws a few dozen random matrices per operator, plus
fixed edge cases: k = d, φ = 1, φ = 2, an odd p, ``crossover_rate < 1``
and infeasible two-point children.  ``-m slow`` runs the same checks
on many more examples.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.search.evolutionary.convergence import (
    DeJongConvergence,
    gene_convergence_profile,
    modal_share,
)
from repro.search.evolutionary.crossover import TwoPointCrossover
from repro.search.evolutionary.encoding import WILDCARD_GENE
from repro.search.evolutionary.mutation import BalancedMutation
from repro.search.evolutionary.selection import (
    FitnessProportionalSelection,
    RankRouletteSelection,
    TournamentSelection,
    UniformSelection,
)

W = WILDCARD_GENE
INF = float("inf")


# ----------------------------------------------------------------------
# String-by-string references
# ----------------------------------------------------------------------
def reference_mutation(rows, p1, p2, phi, rng):
    out = []
    for genes in rows:
        genes = list(genes)
        if rng.random() < p1:
            wildcards = [i for i, g in enumerate(genes) if g == W]
            fixed = [i for i, g in enumerate(genes) if g != W]
            if wildcards and fixed:
                gain = wildcards[int(rng.integers(len(wildcards)))]
                lose = fixed[int(rng.integers(len(fixed)))]
                genes[gain] = int(rng.integers(phi))
                genes[lose] = W
        if rng.random() < p2:
            fixed = [i for i, g in enumerate(genes) if g != W]
            if fixed and phi > 1:
                pos = fixed[int(rng.integers(len(fixed)))]
                offset = int(rng.integers(1, phi))
                genes[pos] = (genes[pos] + offset) % phi
        out.append(genes)
    return out


def reference_two_point(rows, two_cut_points, crossover_rate, rng):
    out = [list(genes) for genes in rows]
    order = rng.permutation(len(rows))
    for i, j in zip(order[0:-1:2].tolist(), order[1::2].tolist(), strict=True):
        if crossover_rate < 1.0 and rng.random() >= crossover_rate:
            continue
        a, b, d = list(out[i]), list(out[j]), len(out[i])
        if two_cut_points:
            lo, hi = sorted(int(c) for c in rng.integers(0, d + 1, size=2))
            a[lo:hi], b[lo:hi] = b[lo:hi], a[lo:hi]
        else:
            cut = int(rng.integers(1, d)) if d > 1 else 0
            a[cut:], b[cut:] = b[cut:], a[cut:]
        out[i], out[j] = a, b
    return out


def reference_selection(name, rows, fitnesses, rng):
    p = len(rows)
    fit = np.asarray(fitnesses, dtype=np.float64)
    if name != "uniform" and p <= 1:
        return [list(genes) for genes in rows]
    if name == "rank":
        ranks = np.empty(p, dtype=np.int64)
        ranks[np.argsort(fit, kind="stable")] = np.arange(1, p + 1)
        weights = (p - ranks).astype(np.float64)
        chosen = rng.choice(p, size=p, replace=True, p=weights / weights.sum())
    elif name == "tournament":
        chosen = []
        for _ in range(p):
            contenders = rng.integers(0, p, size=3)
            chosen.append(contenders[np.argmin(fit[contenders])])
    elif name == "proportional":
        finite = np.isfinite(fit)
        if not finite.any():
            chosen = rng.integers(0, p, size=p)
        else:
            weights = np.where(finite, fit[finite].max() - fit, 0.0)
            if weights.sum() <= 0:
                weights = finite.astype(np.float64)
            chosen = rng.choice(p, size=p, replace=True, p=weights / weights.sum())
    else:
        chosen = rng.integers(0, p, size=p)
    return [list(rows[i]) for i in chosen]


def reference_profile(rows):
    return [
        Counter(genes[i] for genes in rows).most_common(1)[0][1] / len(rows)
        for i in range(len(rows[0]))
    ]


def reference_modal_share(rows):
    return Counter(map(tuple, rows)).most_common(1)[0][1] / len(rows)


SELECTIONS = {
    "rank": RankRouletteSelection(),
    "tournament": TournamentSelection(size=3),
    "proportional": FitnessProportionalSelection(),
    "uniform": UniformSelection(),
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def population(shape):
    """p strings fixing k of d genes; a share of them of another width."""
    rng = np.random.default_rng(shape["seed"])
    d, k, phi = shape["d"], shape["k"], shape["phi"]
    genes = np.full((shape["p"], d), W, dtype=np.int64)
    for row in genes:
        infeasible = rng.random() < shape.get("infeasible_share", 0.2)
        width = int(rng.integers(d + 1)) if infeasible else k
        dims = rng.choice(d, size=width, replace=False)
        row[dims] = rng.integers(0, phi, size=width)
    return genes


def fitness_vector(seed, p):
    """Coefficients with ties and infeasible (+inf) entries."""
    rng = np.random.default_rng(seed)
    pool = np.array([-3.0, -1.5, -1.5, 0.0, 2.0, INF])
    return np.where(rng.random(p) < 0.5, rng.choice(pool, size=p), rng.normal(size=p))


def converging_population(shape):
    """Rows drawn from three strings with skewed odds, so shares vary."""
    rng = np.random.default_rng(shape["seed"])
    pool = population({**shape, "p": 3})
    odds = np.array([0.9, 0.07, 0.03]) if rng.random() < 0.5 else np.ones(3) / 3
    return pool[rng.choice(3, size=shape["p"], p=odds)]


@st.composite
def shapes(draw):
    d = draw(st.integers(1, 8))
    return {
        "p": draw(st.integers(1, 9)),
        "d": d,
        "k": draw(st.integers(1, d)),
        "phi": draw(st.sampled_from([1, 2, 3, 7])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


EDGE_SHAPES = [
    pytest.param({"p": 6, "d": 4, "k": 4, "phi": 3, "seed": 1, "infeasible_share": 0.0},
                 id="k_equals_d"),
    pytest.param({"p": 6, "d": 5, "k": 2, "phi": 1, "seed": 2}, id="phi_1"),
    pytest.param({"p": 6, "d": 5, "k": 2, "phi": 2, "seed": 3}, id="phi_2"),
    pytest.param({"p": 7, "d": 5, "k": 2, "phi": 4, "seed": 4}, id="odd_p"),
]


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _same_stream(rng_a, rng_b):
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def check_mutation(shape, p1, p2):
    genes = population(shape)
    rng_a, rng_b = (np.random.default_rng(shape["seed"]) for _ in range(2))
    got = BalancedMutation(p1, p2, shape["phi"]).apply(genes, rng_a)
    want = reference_mutation(genes.tolist(), p1, p2, shape["phi"], rng_b)
    assert got.tolist() == want
    _same_stream(rng_a, rng_b)


def check_two_point(shape, two_cut_points, crossover_rate):
    genes = population(shape)
    rng_a, rng_b = (np.random.default_rng(shape["seed"]) for _ in range(2))
    op = TwoPointCrossover(two_cut_points=two_cut_points)
    got = op.apply(genes, None, rng_a, crossover_rate)
    want = reference_two_point(genes.tolist(), two_cut_points, crossover_rate, rng_b)
    assert got.tolist() == want
    _same_stream(rng_a, rng_b)
    return got


def check_selection(shape, name):
    genes = population(shape)
    fitnesses = fitness_vector(shape["seed"], shape["p"])
    rng_a, rng_b = (np.random.default_rng(shape["seed"]) for _ in range(2))
    got = SELECTIONS[name].select(genes, fitnesses, rng_a)
    want = reference_selection(name, genes.tolist(), fitnesses.tolist(), rng_b)
    assert got.tolist() == want
    _same_stream(rng_a, rng_b)


def check_convergence(shape):
    genes = converging_population(shape)
    rows = genes.tolist()
    profile = reference_profile(rows)
    assert gene_convergence_profile(genes) == profile
    assert modal_share(genes) == reference_modal_share(rows)
    for threshold in (0.5, 0.75, 0.95, 1.0):
        assert DeJongConvergence(threshold, mode="genes").has_converged(genes) == all(
            share >= threshold for share in profile
        )
        assert DeJongConvergence(threshold, mode="string").has_converged(genes) == (
            reference_modal_share(rows) >= threshold
        )


def _sweep(examples):
    """Run a check on *examples* random shapes (and rates) per test."""
    return lambda test: settings(max_examples=examples, deadline=None)(
        given(shape=shapes(), rate=st.sampled_from([1.0, 0.6, 0.0]))(test)
    )


class TestMatrixOperatorsMatchReferences:
    @_sweep(40)
    def test_mutation(self, shape, rate):
        check_mutation(shape, rate, 1.0 - rate / 2)

    @_sweep(40)
    def test_two_point_one_cut(self, shape, rate):
        check_two_point(shape, False, rate)

    @_sweep(40)
    def test_two_point_two_cuts(self, shape, rate):
        check_two_point(shape, True, rate)

    @_sweep(25)
    def test_selection(self, shape, rate):
        for name in SELECTIONS:
            check_selection(shape, name)

    @_sweep(40)
    def test_convergence(self, shape, rate):
        check_convergence(shape)


class TestEdgeInputs:
    @pytest.mark.parametrize("shape", EDGE_SHAPES)
    @pytest.mark.parametrize("rates", [(1.0, 1.0), (0.5, 0.5), (1.0, 0.0)])
    def test_mutation(self, shape, rates):
        check_mutation(shape, *rates)

    @pytest.mark.parametrize("shape", EDGE_SHAPES)
    @pytest.mark.parametrize("two_cut_points", [False, True])
    @pytest.mark.parametrize("crossover_rate", [1.0, 0.5])
    def test_two_point(self, shape, two_cut_points, crossover_rate):
        check_two_point(shape, two_cut_points, crossover_rate)

    @pytest.mark.parametrize("shape", EDGE_SHAPES)
    @pytest.mark.parametrize("name", sorted(SELECTIONS))
    def test_selection(self, shape, name):
        check_selection(shape, name)

    @pytest.mark.parametrize("shape", EDGE_SHAPES)
    def test_convergence(self, shape):
        check_convergence(shape)

    def test_two_point_children_can_be_infeasible(self):
        shape = {"p": 8, "d": 6, "k": 2, "phi": 3, "seed": 5}
        children = check_two_point(shape, False, 1.0)
        assert ((children != W).sum(axis=1) != 2).any()

    def test_single_string_selection(self):
        shape = {"p": 1, "d": 3, "k": 1, "phi": 2, "seed": 6}
        for name in SELECTIONS:
            check_selection(shape, name)


@pytest.mark.slow
class TestMatrixOperatorsMatchReferencesDeep:
    """The same checks on many more random matrices (``-m slow``)."""

    @_sweep(1500)
    def test_mutation(self, shape, rate):
        check_mutation(shape, rate, 1.0 - rate / 2)

    @_sweep(1500)
    def test_two_point_one_cut(self, shape, rate):
        check_two_point(shape, False, rate)

    @_sweep(1500)
    def test_two_point_two_cuts(self, shape, rate):
        check_two_point(shape, True, rate)

    @_sweep(600)
    def test_selection(self, shape, rate):
        for name in SELECTIONS:
            check_selection(shape, name)

    @_sweep(1500)
    def test_convergence(self, shape, rate):
        check_convergence(shape)
