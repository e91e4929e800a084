"""The optimized crossover inside the one-call generation, against the
per-stage path it replaces.

On the C tier a default serial :class:`~repro.grid.counter.CubeCounter`
recombines every pair of a generation inside one call of
:class:`~repro.grid.native.NativeGeneration` over its row blocks
(:meth:`FitnessEvaluator.fused_generation`).  Here the call keeps every
string (``chosen`` is the identity, so the pairs are the ones its
permutation pairs), recombines every pair and mutates nothing, so its
children must be those of the per-stage batched path,
:meth:`OptimizedCrossover.recombine_pairs`, which stays the reference;
the per-pair scan of ``tests/test_evo_crossover.py`` is a third
opinion.  Children, ``n_evaluations`` and the
``count_calls``/``batch_calls``/``batch_cubes`` deltas (the staged
crossover's plus the population's scoring) must agree over drawn
populations: k = 1..6, φ = 2..7, d up to 13, identical, infeasible and
all-forced (no free Type II gene) pairs, missing codes, row blocks
patched down to 64 and 128 rows and a tail appended after the build.
Without the C library the call must decline, and the staged path is
checked against the oracle alone.

The call runs on the counter's kernel ladder: if it fails, that
generation goes through the operators and the counter serves the
numpy reference from then on.  Its wrapper refuses malformed input
before entering C.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import native_tier, native_tiers
from hypothesis import given, settings, strategies as st
from test_evo_crossover import _oracle_recombine

from repro.core.params import CountingBackend
from repro.engine.context import RunContext
from repro.engine.events import EventSink
from repro.exceptions import ResourceError, ValidationError
from repro.grid import counter as counter_module
from repro.grid import native
from repro.grid.cells import MISSING_CELL, CellAssignment
from repro.grid.counter import CubeCounter
from repro.grid.native import NativeGeneration
from repro.search.evolutionary.config import EvolutionaryConfig
from repro.search.evolutionary.crossover import OptimizedCrossover, _pair_rows
from repro.search.evolutionary.encoding import WILDCARD_GENE, Solution
from repro.search.evolutionary.engine import EvolutionarySearch
from repro.search.evolutionary.generation import _generation_serves, fused_generation
from repro.search.evolutionary.mutation import BalancedMutation, _same_state
from repro.search.evolutionary.population import FitnessEvaluator, _null_moments
from repro.search.evolutionary.selection import RankRouletteSelection

#: The counting figures a fused call must book as the staged path does.
FIGURES = ("count_calls", "batch_calls", "batch_cubes")


def random_parent(rng, d: int, k: int, phi: int) -> np.ndarray:
    """A string over few dimensions and values, so genes coincide; now
    and then of the wrong dimensionality (an infeasible string)."""
    width = k if rng.random() < 0.9 else int(rng.integers(1, d + 1))
    pool = rng.choice(d, size=min(d, k + 2), replace=False)
    dims = rng.choice(pool, size=min(width, len(pool)), replace=False)
    genes = np.full(d, WILDCARD_GENE)
    genes[dims] = rng.integers(0, min(phi, 3), size=len(dims))
    return genes


def random_pairs(rng, d: int, k: int, phi: int, n_pairs: int):
    """Parent matrices with an identical pair and an all-forced pair
    (both parents fix the same genes on the same positions but differ
    in none) among the random ones."""
    a = np.array([random_parent(rng, d, k, phi) for _ in range(n_pairs)])
    b = np.array([random_parent(rng, d, k, phi) for _ in range(n_pairs)])
    b[0] = a[0]
    if n_pairs > 1:
        # Same Type II genes as parent a, the rest moved: n_free = 0.
        fixed = np.flatnonzero(a[1] != WILDCARD_GENE)
        b[1] = WILDCARD_GENE
        b[1, fixed[: len(fixed) // 2]] = a[1, fixed[: len(fixed) // 2]]
        spare = np.flatnonzero(a[1] == WILDCARD_GENE)
        moved = len(fixed) - len(fixed) // 2
        if len(spare) >= moved:
            b[1, spare[:moved]] = rng.integers(0, phi, size=moved)
    return a, b


def random_codes(rng, n_rows: int, d: int, phi: int) -> np.ndarray:
    codes = rng.integers(0, phi, size=(n_rows, d)).astype(np.int16)
    codes[rng.random(codes.shape) < 0.1] = MISSING_CELL
    return codes


def blocked_counter(block_rows: int, codes: np.ndarray, phi: int, tail: int):
    """A counter over *codes* with *block_rows*-row blocks, its last
    *tail* rows appended after the build."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counter_module, "_BLOCK_ROWS", block_rows)
        counter = CubeCounter(CellAssignment(codes[: len(codes) - tail], phi))
    counter.append_rows(codes[len(codes) - tail :])
    return counter


def figures(counter: CubeCounter) -> dict:
    stats = counter.cache_stats()
    return {key: stats[key] for key in FIGURES}


#: Keep every string, recombine every pair, mutate nothing.
CROSSOVER_ONLY = dict(
    elitism=0, crossover_rate=1.0, swap_probability=0.0, flip_probability=0.0
)


def crossover_generation(evaluator, a, b, rng):
    """The one-call generation over the strings of *a* and *b*, its
    chosen rows putting ``(a[i], b[i])`` at the i-th pair its
    permutation draws; ``(children_a, children_b)`` or ``None``."""
    n = len(a)
    probe = np.random.Generator(type(rng.bit_generator)(0))
    probe.bit_generator.state = rng.bit_generator.state
    first, second = _pair_rows(probe, 2 * n)
    chosen = np.empty(2 * n, dtype=np.int64)
    chosen[first], chosen[second] = np.arange(n), n + np.arange(n)
    fused = evaluator.fused_generation(
        np.concatenate([a, b]), np.zeros(2 * n), rng, chosen=chosen,
        **CROSSOVER_ONLY,
    )
    return None if fused is None else (fused[0][first], fused[0][second])


def check_case(seed: int, k: int, extra_dims: int, phi: int, n_pairs: int,
               block_rows: int, tail: int, tier: str) -> None:
    """Fused (on C) and staged children and figures agree with each
    other and with the per-pair oracle."""
    rng = np.random.default_rng(seed)
    d = k + extra_dims
    codes = random_codes(rng, int(rng.integers(1, 400)), d, phi)
    tail = min(tail, len(codes))
    a, b = random_pairs(rng, d, k, phi, n_pairs)
    op = OptimizedCrossover()
    with native_tier(tier):
        fused_eval = FitnessEvaluator(blocked_counter(block_rows, codes, phi, tail), k)
        staged_eval = FitnessEvaluator(CubeCounter(CellAssignment(codes, phi)), k)
        fused = crossover_generation(fused_eval, a, b, np.random.default_rng(seed))
        staged = op.recombine_pairs(a, b, [None] * len(a), staged_eval)
        # The generation scores its strings; so do the operators.
        staged_eval._score_feasible(np.concatenate(staged))
    if tier == "numpy":
        assert fused is None
    else:
        np.testing.assert_array_equal(fused[0], staged[0])
        np.testing.assert_array_equal(fused[1], staged[1])
        assert fused_eval.n_evaluations == staged_eval.n_evaluations
        assert figures(fused_eval.counter) == figures(staged_eval.counter)
        assert fused_eval.counter.resilience.ladder == {}
    # The per-pair scan, one partial_fitness call per partial cube.
    oracle_eval = FitnessEvaluator(CubeCounter(CellAssignment(codes, phi)), k)
    want = [
        _oracle_recombine(op, Solution(pa), Solution(pb), oracle_eval)
        for pa, pb in zip(a, b, strict=True)
    ]
    children = zip(*(map(Solution, side) for side in staged), strict=True)
    assert list(children) == want
    oracle_eval._score_feasible(np.concatenate(staged))
    assert oracle_eval.n_evaluations == staged_eval.n_evaluations
    assert (oracle_eval.counter.cache_stats()["count_calls"]
            == staged_eval.counter.cache_stats()["count_calls"])


@pytest.mark.parametrize("tier", ["c", "numpy"])
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    k=st.integers(1, 6),
    extra_dims=st.integers(0, 7),
    phi=st.integers(2, 7),
    n_pairs=st.integers(1, 9),
    block_rows=st.sampled_from([64, 128, 1 << 20]),
    tail=st.sampled_from([0, 1, 63, 65, 200]),
)
def test_fused_matches_staged(
    tier, seed, k, extra_dims, phi, n_pairs, block_rows, tail
):
    check_case(seed, k, extra_dims, phi, n_pairs, block_rows, tail, tier)


@pytest.mark.slow
@pytest.mark.parametrize("tier", ["c", "numpy"])
@settings(max_examples=600, deadline=None)
@given(
    seed=st.integers(0, 1_000_000),
    k=st.integers(1, 6),
    extra_dims=st.integers(0, 7),
    phi=st.integers(2, 7),
    n_pairs=st.integers(1, 25),
    block_rows=st.sampled_from([64, 128, 4096, 1 << 20]),
    tail=st.sampled_from([0, 1, 63, 64, 65, 200, 399]),
)
def test_fused_matches_staged_deep(
    tier, seed, k, extra_dims, phi, n_pairs, block_rows, tail
):
    check_case(seed, k, extra_dims, phi, n_pairs, block_rows, tail, tier)


class TestServing:
    def test_process_placement_and_oversized_k_run_staged(self, small_cells):
        if "c" not in native_tiers():
            pytest.skip("the C kernel does not build on this machine")
        rng = np.random.default_rng(0)
        a, b = random_pairs(rng, 6, 3, 5, 4)
        pooled = CubeCounter(small_cells, CountingBackend(kind="process"))
        try:
            assert crossover_generation(FitnessEvaluator(pooled, 3), a, b, rng) is None
        finally:
            pooled.close()
        counter = CubeCounter(small_cells)
        evaluator = FitnessEvaluator(counter, 3)
        assert crossover_generation(evaluator, a, b, rng) is not None
        # k above max_exact_positions: the oversized-k' fallback may run,
        # so the engine never asks the counter.
        calls = []
        evaluator.fused_generation = lambda *args, **kwargs: calls.append(args)
        assert fused_generation(
            np.concatenate([a, b]), np.zeros(2 * len(a)), evaluator, rng,
            RankRouletteSelection(), OptimizedCrossover(max_exact_positions=2),
            BalancedMutation(0.0, 0.0, 5), 0, 1.0,
        ) is None
        assert calls == []


class _FailAfterFirstGeneration(EventSink):
    """Makes the C library unloadable once the first generation ends."""

    def __init__(self, patch):
        self.patch = patch

    def emit(self, event) -> None:
        if event.type == "generation_end" and event.payload["generation"] == 1:
            self.patch.setattr(native, "_load_kernel", _crash)


def _crash():
    raise ResourceError("simulated crossover crash")


class TestLadder:
    CONFIG = EvolutionaryConfig(population_size=20, max_generations=6)

    def run(self, cells, sink=None):
        counter = CubeCounter(cells)
        search = EvolutionarySearch(
            counter, 3, 8, config=self.CONFIG, random_state=4
        )
        context = RunContext() if sink is None else RunContext(sink=sink)
        return search.run(context=context), counter

    def test_failure_mid_run_falls_back_bit_identically(
        self, uncertified, small_cells
    ):
        if "c" not in native_tiers():
            pytest.skip("the C kernel does not build on this machine")
        clean, clean_counter = self.run(small_cells)
        with pytest.MonkeyPatch.context() as patch:
            broken, counter = self.run(small_cells, _FailAfterFirstGeneration(patch))
        assert broken.projections == clean.projections
        assert broken.stats["evaluations"] == clean.stats["evaluations"]
        assert clean_counter.resilience.ladder == {}
        assert counter.resilience.ladder == {"kernel": "numpy"}
        assert "simulated crossover crash" in counter.kernel_info()["reason"]
        for key in FIGURES:
            assert (counter.cache_stats()[key]
                    == clean_counter.cache_stats()[key]), key

    def test_failed_fused_call_runs_that_generation_staged(self, small_cells):
        if "c" not in native_tiers():
            pytest.skip("the C kernel does not build on this machine")
        rng = np.random.default_rng(1)
        a, b = random_pairs(rng, 6, 2, 5, 6)
        op = OptimizedCrossover()
        assert _generation_serves()  # proven before the library breaks
        reference = FitnessEvaluator(CubeCounter(small_cells), 2)
        want = op.recombine_pairs(a, b, [None] * len(a), reference)
        counter = CubeCounter(small_cells)
        evaluator = FitnessEvaluator(counter, 2)
        draws = np.random.default_rng(7)
        before = draws.bit_generator.state
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native, "_load_kernel", _crash)
            assert crossover_generation(evaluator, a, b, draws) is None
            got = op.recombine_pairs(a, b, [None] * len(a), evaluator)
        assert _same_state(draws.bit_generator.state, before)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert evaluator.n_evaluations == reference.n_evaluations
        assert figures(counter) == figures(reference.counter)
        assert counter.resilience.ladder == {"kernel": "numpy"}
        info = counter.kernel_info()
        assert (info["kernel"], info["tier"]) == ("numpy", "numpy")
        assert "simulated crossover crash" in info["reason"]
        # The counter serves the reference from now on.
        assert crossover_generation(evaluator, a, b, draws) is None


class TestWrapperRefusals:
    """Refused before C: these run whether or not the library builds."""

    @pytest.fixture
    def case(self):
        rng = np.random.default_rng(2)
        codes = random_codes(rng, 300, 5, 4)
        blocks = [CubeCounter(CellAssignment(codes, 4))._stack]
        a, b = random_pairs(rng, 5, 2, 4, 3)
        return blocks, a, b, _null_moments(300, 4, 5)

    @staticmethod
    def generation(blocks, a, b, k, mean, std):
        """The crossover-only generation over the strings of *a* and *b*
        (as many fitnesses as *a* and *b* have rows between them)."""
        population = np.concatenate([a, b.astype(a.dtype)])
        return NativeGeneration(
            blocks, population, np.zeros(2 * len(a)), k, mean, std,
            np.random.default_rng(0), **CROSSOVER_ONLY,
        )()

    def test_accepts_the_case(self, case):
        if "c" not in native_tiers():
            pytest.skip("the C kernel does not build on this machine")
        blocks, a, b, (mean, std) = case
        self.generation(blocks, a, b, 2, mean, std)

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda a, b: (a[:, :-1], b[:, :-1]), id="width"),
            pytest.param(lambda a, b: (a, b[:-1]), id="shapes"),
            pytest.param(lambda a, b: (np.where(a >= 0, -2, a), b), id="gene-2"),
            pytest.param(lambda a, b: (a, np.where(b >= 0, 4, b)), id="gene-phi"),
            pytest.param(lambda a, b: (a.astype(float), b), id="float"),
            pytest.param(lambda a, b: (a.astype(np.uint64), b), id="uint64"),
        ],
    )
    def test_refuses_parents(self, case, mutate):
        blocks, a, b, (mean, std) = case
        a, b = mutate(a.copy(), b.copy())
        with pytest.raises(ValidationError):
            self.generation(blocks, a, b, 2, mean, std)

    def test_refuses_blocks_k_and_moments(self, case):
        blocks, a, b, (mean, std) = case
        stack = blocks[0]
        for bad in ([], [stack[:-1]], [stack, stack[:, :-1]],
                    [stack.astype(np.int64)], [stack[:, :, ::-1]],
                    [stack[:, :, ::2]], [stack[..., None]]):
            with pytest.raises(ValidationError):
                self.generation(bad, a, b, 2, mean, std)
        for k in (0, 6, 63):
            with pytest.raises(ValidationError):
                self.generation(blocks, a, b, k, mean, std)
        with pytest.raises(ValidationError):
            self.generation(blocks, a, b, 2, mean[:2], std)

    def test_counter_refuses_before_the_ladder(self, small_cells):
        counter = CubeCounter(small_cells)
        evaluator = FitnessEvaluator(counter, 2)
        a = np.full((2, 6), WILDCARD_GENE)
        a[:, :2] = 1
        for bad_a, bad_b in ((a, a[:1]), (a[:, :5], a[:, :5]), (a - 2, a)):
            if not counter.serves_generation(2):
                break
            with pytest.raises(ValidationError):
                evaluator.fused_generation(
                    np.concatenate([bad_a, bad_b]), np.zeros(2 * len(bad_a)),
                    np.random.default_rng(0), **CROSSOVER_ONLY,
                )
        assert counter.resilience.ladder == {}
