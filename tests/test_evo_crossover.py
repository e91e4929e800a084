"""Tests for the crossover operators (Figure 5)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid.cells import CellAssignment
from repro.grid.counter import CubeCounter
from repro.search.evolutionary.crossover import (
    OptimizedCrossover,
    TwoPointCrossover,
    pair_population,
)
from repro.search.evolutionary.encoding import (
    Solution,
    WILDCARD_GENE,
    random_solution,
    seed_population,
)
from repro.search.evolutionary.population import FitnessEvaluator


@pytest.fixture
def evaluator(small_cells):
    return FitnessEvaluator(CubeCounter(small_cells), dimensionality=2)


@pytest.fixture
def evaluator3(small_cells):
    return FitnessEvaluator(CubeCounter(small_cells), dimensionality=3)


class TestPairing:
    def test_all_paired_even(self):
        sols = seed_population(6, 2, 3, 8, random_state=0)
        pairs = pair_population(sols, np.random.default_rng(0))
        assert len(pairs) == 4
        used = [i for pair in pairs for i in pair]
        assert sorted(used) == list(range(8))

    def test_odd_leftover(self):
        sols = seed_population(6, 2, 3, 5, random_state=0)
        pairs = pair_population(sols, np.random.default_rng(0))
        assert len(pairs) == 2


class _FixedCut:
    """Stands in for a Generator, always returning the same cut point."""

    def __init__(self, cut):
        self.cut = cut

    def integers(self, low, high=None, size=None):
        return self.cut

    def random(self):
        return 0.0


class TestTwoPointCrossover:
    def test_paper_example_segment_exchange(self, evaluator3, monkeypatch):
        # Strings 3*2*1 and 1*33* cut after position 3 -> 3*23* and 1*3*1.
        import repro.search.evolutionary.crossover as crossover_module

        monkeypatch.setattr(crossover_module, "check_rng", lambda r: r)
        s1 = Solution.from_string("3*2*1")
        s2 = Solution.from_string("1*33*")
        c1, c2 = TwoPointCrossover().recombine(s1, s2, evaluator3, _FixedCut(3))
        assert c1.to_string() == "3*23*"
        assert c2.to_string() == "1*3*1"

    def test_can_create_infeasible_children(self, evaluator3, monkeypatch):
        # Cut after position 4 in the paper's example gives 2-d and 4-d
        # children from 3-d parents.
        import repro.search.evolutionary.crossover as crossover_module

        monkeypatch.setattr(crossover_module, "check_rng", lambda r: r)
        s1 = Solution.from_string("3*2*1")
        s2 = Solution.from_string("1*33*")
        c1, c2 = TwoPointCrossover().recombine(s1, s2, evaluator3, _FixedCut(4))
        assert {c1.dimensionality, c2.dimensionality} == {2, 4}

    def test_gene_conservation(self, evaluator):
        # Children's genes at each position come from one of the parents.
        rng = np.random.default_rng(3)
        for _ in range(20):
            s1 = random_solution(8, 3, 4, rng)
            s2 = random_solution(8, 3, 4, rng)
            c1, c2 = TwoPointCrossover().recombine(s1, s2, evaluator, rng)
            for i in range(8):
                assert {c1.genes[i], c2.genes[i]} == {s1.genes[i], s2.genes[i]}

    def test_two_cut_variant(self, evaluator):
        rng = np.random.default_rng(4)
        s1 = random_solution(10, 3, 4, rng)
        s2 = random_solution(10, 3, 4, rng)
        c1, c2 = TwoPointCrossover(two_cut_points=True).recombine(
            s1, s2, evaluator, rng
        )
        for i in range(10):
            assert {c1.genes[i], c2.genes[i]} == {s1.genes[i], s2.genes[i]}


class TestOptimizedCrossover:
    def test_children_always_feasible(self, evaluator):
        rng = np.random.default_rng(0)
        op = OptimizedCrossover()
        for _ in range(50):
            s1 = random_solution(6, 2, 5, rng)
            s2 = random_solution(6, 2, 5, rng)
            c1, c2 = op.recombine(s1, s2, evaluator, rng)
            assert c1.is_feasible(2), (s1.to_string(), s2.to_string(), c1.to_string())
            assert c2.is_feasible(2), (s1.to_string(), s2.to_string(), c2.to_string())

    def test_type1_positions_stay_wildcard(self, evaluator):
        s1 = Solution.from_string("12****")
        s2 = Solution.from_string("34****")
        c1, c2 = OptimizedCrossover().recombine(
            s1, s2, evaluator, np.random.default_rng(0)
        )
        for child in (c1, c2):
            assert child.genes[2:] == (WILDCARD_GENE,) * 4

    def test_complementarity(self, evaluator):
        # Every position of the second child derives from the opposite
        # parent of the first child's derivation.
        rng = np.random.default_rng(7)
        op = OptimizedCrossover()
        for _ in range(30):
            s1 = random_solution(6, 2, 5, rng)
            s2 = random_solution(6, 2, 5, rng)
            c1, c2 = op.recombine(s1, s2, evaluator, rng)
            for i in range(6):
                pair = {c1.genes[i], c2.genes[i]}
                assert pair == {s1.genes[i], s2.genes[i]}

    def test_identical_parents_fixed_point(self, evaluator):
        s = Solution.from_string("1*4***")
        c1, c2 = OptimizedCrossover().recombine(
            s, s, evaluator, np.random.default_rng(0)
        )
        assert c1 == s
        assert c2 == s

    def test_first_child_at_least_as_fit_as_best_recombinant_start(
        self, evaluator
    ):
        # With fully shared positions (k' = k), the child is the exact
        # optimum over all 2^k parent mixes.
        rng = np.random.default_rng(1)
        s1 = Solution.from_string("12****")
        s2 = Solution.from_string("45****")
        c1, _ = OptimizedCrossover().recombine(s1, s2, evaluator, rng)
        candidates = []
        import itertools

        for bits in itertools.product([0, 1], repeat=2):
            genes = list(s1.genes)
            for pos, b in zip((0, 1), bits, strict=True):
                genes[pos] = (s2 if b else s1).genes[pos]
            candidates.append(evaluator.partial_fitness(Solution(genes)))
        assert evaluator.partial_fitness(c1) == pytest.approx(min(candidates))

    def test_disjoint_parents_pick_greedy_best(self, evaluator):
        # No Type II positions: the child is built purely by greedy
        # extension over the 2k Type III candidates.
        rng = np.random.default_rng(2)
        s1 = Solution.from_string("12****")
        s2 = Solution.from_string("**34**")
        c1, c2 = OptimizedCrossover().recombine(s1, s2, evaluator, rng)
        assert c1.is_feasible(2)
        assert c2.is_feasible(2)
        # Together the children use exactly the union of parent genes.
        union = {(i, g) for s in (s1, s2) for i, g in enumerate(s.genes) if g >= 0}
        child_union = {
            (i, g) for s in (c1, c2) for i, g in enumerate(s.genes) if g >= 0
        }
        assert child_union == union

    def test_infeasible_parent_passthrough(self, evaluator):
        bad = Solution.from_string("123***")  # 3-d string in a k=2 run
        good = Solution.from_string("1*2***")
        c1, c2 = OptimizedCrossover().recombine(
            bad, good, evaluator, np.random.default_rng(0)
        )
        assert (c1, c2) == (bad, good)

    def test_greedy_fallback_above_exact_limit(self, small_cells):
        # Force the fallback path with max_exact_positions=1.
        evaluator = FitnessEvaluator(CubeCounter(small_cells), dimensionality=3)
        op = OptimizedCrossover(max_exact_positions=1)
        rng = np.random.default_rng(0)
        s1 = Solution.from_string("123***")
        s2 = Solution.from_string("245***")
        c1, c2 = op.recombine(s1, s2, evaluator, rng)
        assert c1.is_feasible(3)
        assert c2.is_feasible(3)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 4))
def test_property_optimized_children_feasible_and_complementary(
    seed, k
):
    """For random parents: both children feasible, genes conserved."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, size=(60, 8)).astype(np.int16)
    counter = CubeCounter(CellAssignment(codes, 4))
    evaluator = FitnessEvaluator(counter, dimensionality=k)
    s1 = random_solution(8, k, 4, rng)
    s2 = random_solution(8, k, 4, rng)
    c1, c2 = OptimizedCrossover().recombine(s1, s2, evaluator, rng)
    assert c1.is_feasible(k)
    assert c2.is_feasible(k)
    for i in range(8):
        assert {c1.genes[i], c2.genes[i]} == {s1.genes[i], s2.genes[i]}


# ----------------------------------------------------------------------
# Differential: lockstep crossover vs the per-pair scalar recombination
# ----------------------------------------------------------------------
def _oracle_recombine(op, parent_a, parent_b, evaluator):
    """Figure 5 for one pair, one ``partial_fitness`` call per partial cube.

    The per-pair strict-``<`` scan the lockstep crossover replaced, kept
    here as the reference its children and evaluation counts must match.
    """
    k = evaluator.dimensionality
    if not (parent_a.is_feasible(k) and parent_b.is_feasible(k)):
        return parent_a, parent_b
    d = parent_a.n_dims
    pa, pb = parent_a.genes, parent_b.genes
    fixed_a = [g != WILDCARD_GENE for g in pa]
    fixed_b = [g != WILDCARD_GENE for g in pb]
    type2 = [i for i in range(d) if fixed_a[i] and fixed_b[i]]
    type3 = [i for i in range(d) if fixed_a[i] != fixed_b[i]]
    genes = [WILDCARD_GENE] * d
    source = [0] * d
    free = [pos for pos in type2 if pa[pos] != pb[pos]]
    choice = {pos: 0 for pos in type2 if pos not in free}
    if free and len(free) > op.max_exact_positions:
        # Greedy fallback: fix free positions one at a time.
        working = [pa[i] if i in choice else WILDCARD_GENE for i in range(d)]
        for pos in free:
            best_src, best_fitness = 0, float("inf")
            for src in (0, 1):
                working[pos] = (pb if src else pa)[pos]
                fitness = evaluator.partial_fitness(Solution(working))
                if fitness < best_fitness:
                    best_fitness, best_src = fitness, src
            working[pos] = (pb if best_src else pa)[pos]
            choice[pos] = best_src
    elif free:
        best_fitness, best_bits = float("inf"), None
        for bits in itertools.product((0, 1), repeat=len(free)):
            trial = [pa[i] if i in type2 else WILDCARD_GENE for i in range(d)]
            for pos, src in zip(free, bits, strict=True):
                trial[pos] = (pb if src else pa)[pos]
            fitness = evaluator.partial_fitness(Solution(trial))
            if fitness < best_fitness:
                best_fitness, best_bits = fitness, bits
        choice.update(zip(free, best_bits, strict=True))
    for pos in type2:
        genes[pos] = (pb if choice[pos] else pa)[pos]
        source[pos] = choice[pos]
    available = [(pos, pa[pos], 0) if pa[pos] != WILDCARD_GENE else (pos, pb[pos], 1)
                 for pos in type3]
    for _ in range(k - len(type2)):
        best_idx, best_fitness = -1, float("inf")
        for idx, (pos, value, _src) in enumerate(available):
            genes[pos] = value
            fitness = evaluator.partial_fitness(Solution(genes))
            genes[pos] = WILDCARD_GENE
            if fitness < best_fitness:
                best_fitness, best_idx = fitness, idx
        pos, value, src = available.pop(best_idx)
        genes[pos] = value
        source[pos] = src
    comp = []
    for i in range(d):
        if genes[i] == WILDCARD_GENE and i in type3:
            comp.append(pa[i] if pa[i] != WILDCARD_GENE else pb[i])
        else:
            comp.append((pa if source[i] == 1 else pb)[i])
    return Solution(genes), Solution(comp)


def _oracle_apply(op, solutions, evaluator, rng, crossover_rate):
    out = list(solutions)
    for i, j in pair_population(solutions, rng):
        if crossover_rate < 1.0 and rng.random() >= crossover_rate:
            continue
        out[i], out[j] = _oracle_recombine(op, out[i], out[j], evaluator)
    return out


def _random_parent(rng, d, k, phi):
    """A parent over few dims and ranges, so genes often coincide; now
    and then of the wrong dimensionality (an infeasible string)."""
    width = k if rng.random() < 0.9 else int(rng.integers(1, d + 1))
    pool = rng.choice(d, size=min(d, k + 2), replace=False)
    dims = rng.choice(pool, size=min(width, len(pool)), replace=False)
    genes = [WILDCARD_GENE] * d
    for dim in dims:
        genes[int(dim)] = int(rng.integers(phi))
    return Solution(genes)


def _evaluator_pair(seed, k, d, phi=3, n=40):
    codes = np.random.default_rng(seed).integers(0, phi, size=(n, d)).astype(np.int16)
    cells = CellAssignment(codes, phi)
    return (FitnessEvaluator(CubeCounter(cells), k),
            FitnessEvaluator(CubeCounter(cells), k))


def _genes(solutions):
    return np.array([solution.genes for solution in solutions])


def _solutions(genes):
    return [Solution(row) for row in genes]


def _assert_same_accounting(lockstep, oracle):
    assert lockstep.n_evaluations == oracle.n_evaluations
    for key in ("count_calls", "cache_hits"):
        assert (lockstep.counter.cache_stats()[key]
                == oracle.counter.cache_stats()[key])


class TestLockstepDifferential:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        k=st.integers(1, 4),
        extra_dims=st.integers(0, 4),
        size=st.integers(2, 11),
        crossover_rate=st.sampled_from([1.0, 0.6]),
        max_exact=st.sampled_from([1, 2, 12]),
    )
    def test_apply_matches_per_pair_oracle(
        self, seed, k, extra_dims, size, crossover_rate, max_exact
    ):
        d = k + extra_dims
        rng = np.random.default_rng(seed)
        population = [_random_parent(rng, d, k, 3) for _ in range(size)]
        lockstep, oracle = _evaluator_pair(seed, k, d)
        op = OptimizedCrossover(max_exact_positions=max_exact)
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        got = op.apply(_genes(population), lockstep, rng_a, crossover_rate)
        want = _oracle_apply(op, population, oracle, rng_b, crossover_rate)
        assert _solutions(got) == want
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        _assert_same_accounting(lockstep, oracle)

    @pytest.mark.parametrize(
        ("s1", "s2", "max_exact"),
        [
            ("12****", "13****", 12),  # one forced, one free Type II gene
            ("12****", "12****", 12),  # all forced: no evaluation at all
            ("12****", "**34**", 12),  # k' = 0: pure greedy extension
            ("123***", "245***", 1),  # greedy Type II fallback
            ("1*2*3*", "2*1*3*", 1),  # fallback with a forced gene
            ("123***", "1*2***", 12),  # infeasible parent passes through
        ],
    )
    def test_recombine_matches_oracle_on_edge_cases(self, s1, s2, max_exact):
        a, b = Solution.from_string(s1), Solution.from_string(s2)
        k = b.dimensionality
        lockstep, oracle = _evaluator_pair(0, k, 6, phi=5)
        op = OptimizedCrossover(max_exact_positions=max_exact)
        got = op.recombine(a, b, lockstep, np.random.default_rng(0))
        assert got == _oracle_recombine(op, a, b, oracle)
        _assert_same_accounting(lockstep, oracle)

    def test_odd_population_leftover_untouched(self):
        rng = np.random.default_rng(5)
        population = [random_solution(6, 2, 3, rng) for _ in range(7)]
        lockstep, oracle = _evaluator_pair(5, 2, 6)
        op = OptimizedCrossover()
        got = op.apply(_genes(population), lockstep, np.random.default_rng(1))
        want = _oracle_apply(op, population, oracle, np.random.default_rng(1), 1.0)
        assert _solutions(got) == want
        leftover = int(np.random.default_rng(1).permutation(7)[-1])
        assert Solution(got[leftover]) == population[leftover]
        _assert_same_accounting(lockstep, oracle)
