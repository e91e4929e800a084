"""The one-call GA generation against the operators it replaces.

On the C tier a default serial :class:`~repro.grid.counter.CubeCounter`
runs a whole generation — elites, selection, pairing, the optimized
crossover, mutation and the population's scoring — in one call of
:class:`~repro.grid.native.NativeGeneration` over its row blocks
(:func:`~repro.search.evolutionary.generation.fused_generation`),
drawing from the run's generator what the operators draw.  The
operators (:func:`~repro.search.evolutionary.generation.breed` plus the
engine's scoring) stay the reference, and a string-by-string pass
built from ``tests/test_evo_matrix_operators.py``'s references and
``tests/test_evo_crossover.py``'s per-pair oracle is a third opinion.
The strings, fitnesses, ``n_evaluations``, the counting figures and the
generator's state must agree after every generation, over drawn
populations: p from 2 to 60 (odd p included), d up to 13, k 1..6,
φ 2..7, elitism, crossover rates below 1, every selection operator,
four bit generators, row blocks patched down to 64 and 128 rows with a
tail appended after the build, on both tiers (without the C library
the call must decline).

A run interrupted at a generation boundary on the fused path resumes
bit-identically; a library that breaks mid-run leaves the mined set
unchanged, with one ``kernel`` ladder step and the generator restored;
a default detect runs the generation's proof and no other GA proof;
and the wrapper refuses malformed input before its first draw.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import native_tier, native_tiers
from hypothesis import given, settings, strategies as st
from test_evo_crossover import _oracle_apply
from test_evo_matrix_operators import SELECTIONS, reference_mutation, reference_selection
from test_fused_crossover import blocked_counter, random_codes

from repro.engine.context import RunContext
from repro.engine.events import EventSink
from repro.exceptions import ResourceError, ValidationError
from repro.grid import native
from repro.grid.cells import CellAssignment
from repro.grid.counter import CubeCounter
from repro.grid.native import NativeGeneration
from repro.run.cancel import CancelAfterBoundaries
from repro.run.checkpoint import CheckpointStore, SearchCheckpointer
from repro.search.evolutionary.config import EvolutionaryConfig
from repro.search.evolutionary.crossover import OptimizedCrossover
from repro.search.evolutionary.encoding import WILDCARD_GENE, Solution
from repro.search.evolutionary.engine import EvolutionarySearch
from repro.search.evolutionary.generation import breed, fused_generation
from repro.search.evolutionary.mutation import BalancedMutation, _same_state
from repro.search.evolutionary.population import (
    INFEASIBLE_FITNESS,
    FitnessEvaluator,
    _null_moments,
)

BIT_GENERATORS = {
    "pcg64": np.random.PCG64,
    "mt19937": np.random.MT19937,
    "philox": np.random.Philox,
    "sfc64": np.random.SFC64,
}

#: Every selection operator, under the names the references use.
SELECTION_NAMES = sorted(SELECTIONS)

#: The counting figures a generation books.
FIGURES = ("count_calls", "batch_calls", "batch_cubes", "words_and")

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def figures(counter: CubeCounter) -> dict:
    stats = counter.cache_stats()
    return {key: stats[key] for key in FIGURES}


def seeded(rng, p: int, d: int, k: int, phi: int) -> tuple:
    """p strings fixing k genes among the first k + 2 dimensions (so
    genes coincide), about one in ten of another width, and fitnesses
    with ties and ``+inf``."""
    genes = np.full((p, d), WILDCARD_GENE)
    for row in genes:
        width = int(rng.integers(d + 1)) if rng.random() < 0.1 else k
        dims = rng.choice(max(min(d, k + 2), width), size=width, replace=False)
        row[dims] = rng.integers(0, phi, size=width)
    fitnesses = np.round(rng.normal(size=p), 1)
    fitnesses[rng.random(p) < 0.2] = INFEASIBLE_FITNESS
    return genes, fitnesses


def operator_generation(population, fitnesses, evaluator, rng, selection,
                        mutation, elitism, rate):
    """The operators and the engine's scoring: genes, fitnesses, scored."""
    offspring = breed(
        population, fitnesses, evaluator, rng, selection, OptimizedCrossover(),
        mutation.apply, elitism, rate,
    )
    rows, dims, ranges, counts, coefficients = evaluator._score_feasible(offspring)
    offspring_fitnesses = np.full(len(offspring), INFEASIBLE_FITNESS)
    offspring_fitnesses[rows] = coefficients
    return offspring, offspring_fitnesses, (dims, ranges, counts, coefficients)


def oracle_generation(rows, fitnesses, name, evaluator, rng, elitism, rate,
                      p1, p2, phi):
    """The string-by-string pass: the matrix operators' references, the
    per-pair crossover oracle and one count per string."""
    elites = [rows[i] for i in np.argsort(fitnesses, kind="stable")[:elitism]]
    selected = reference_selection(name, rows, fitnesses, rng)
    solutions = [Solution(genes) for genes in selected]
    paired = _oracle_apply(OptimizedCrossover(), solutions, evaluator, rng, rate)
    out = reference_mutation([list(s.genes) for s in paired], p1, p2, phi, rng)
    if elitism:
        out[-elitism:] = elites
    scored = [evaluator.score(Solution(genes)) for genes in out]
    fitness = [INFEASIBLE_FITNESS if s is None else s.coefficient for s in scored]
    return out, fitness


def check_case(case: dict, tier: str) -> None:
    """Fused (on C), operators and oracle agree after every generation."""
    rng = np.random.default_rng(case["seed"])
    k, phi = case["k"], case["phi"]
    d = k + case["extra_dims"]
    codes = random_codes(rng, int(rng.integers(1, 400)), d, phi)
    tail = min(case["tail"], len(codes))
    genes, fitnesses = seeded(rng, case["p"], d, k, phi)
    name, elitism = case["selection"], min(case["elitism"], case["p"] - 1)
    rate, p1, p2 = case["rate"], case["p1"], case["p2"]
    bit_rng = BIT_GENERATORS[case["bit_generator"]]
    fast, slow, oracle = (np.random.Generator(bit_rng(case["seed"])) for _ in range(3))
    selection, mutation = SELECTIONS[name], BalancedMutation(p1, p2, phi)
    with native_tier(tier):
        fused_eval = FitnessEvaluator(
            blocked_counter(case["block_rows"], codes, phi, tail), k
        )
        staged_eval = FitnessEvaluator(CubeCounter(CellAssignment(codes, phi)), k)
        oracle_eval = FitnessEvaluator(CubeCounter(CellAssignment(codes, phi)), k)
        got, got_fitnesses = genes, fitnesses
        want, want_fitnesses = genes, fitnesses
        rows, row_fitnesses = genes.tolist(), fitnesses.tolist()
        for _ in range(case["generations"]):
            fused = fused_generation(
                got, got_fitnesses, fused_eval, fast, selection,
                OptimizedCrossover(), mutation, elitism, rate,
            )
            want, want_fitnesses, want_scored = operator_generation(
                want, want_fitnesses, staged_eval, slow, selection, mutation,
                elitism, rate,
            )
            rows, row_fitnesses = oracle_generation(
                rows, row_fitnesses, name, oracle_eval, oracle, elitism, rate,
                p1, p2, phi,
            )
            assert want.tolist() == rows
            assert want_fitnesses.tolist() == row_fitnesses
            assert _same_state(slow.bit_generator.state, oracle.bit_generator.state)
            if tier == "numpy":
                assert fused is None
                continue
            got, got_fitnesses, scored = fused
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got_fitnesses, want_fitnesses)
            for got_part, want_part in zip(scored, want_scored, strict=True):
                np.testing.assert_array_equal(got_part, want_part)
            assert _same_state(fast.bit_generator.state, slow.bit_generator.state)
            assert fused_eval.n_evaluations == staged_eval.n_evaluations
            assert figures(fused_eval.counter) == figures(staged_eval.counter)
            assert fused_eval.counter.resilience.ladder == {}
    assert oracle_eval.n_evaluations == staged_eval.n_evaluations


@st.composite
def cases(draw, max_generations: int):
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "p": draw(st.integers(2, 60)),
        "k": draw(st.integers(1, 6)),
        "extra_dims": draw(st.integers(0, 7)),
        "phi": draw(st.integers(2, 7)),
        "elitism": draw(st.sampled_from([0, 0, 1, 2, 5])),
        "rate": draw(st.sampled_from([1.0, 1.0, 0.7, 0.3, 0.0])),
        "p1": draw(st.sampled_from([0.0, 0.25, 0.6, 1.0])),
        "p2": draw(st.sampled_from([0.0, 0.25, 0.6, 1.0])),
        "selection": draw(st.sampled_from(SELECTION_NAMES)),
        "bit_generator": draw(st.sampled_from(sorted(BIT_GENERATORS))),
        "block_rows": draw(st.sampled_from([64, 128, 1 << 20])),
        "tail": draw(st.sampled_from([0, 1, 63, 65, 200])),
        "generations": draw(st.integers(1, max_generations)),
    }


@pytest.mark.parametrize("tier", ["c", "numpy"])
@settings(max_examples=30, deadline=None)
@given(case=cases(4))
def test_generation_matches_the_operators(tier, case):
    check_case(case, tier)


@pytest.mark.slow
@pytest.mark.parametrize("tier", ["c", "numpy"])
@settings(max_examples=300, deadline=None)
@given(case=cases(6))
def test_generation_matches_the_operators_deep(tier, case):
    check_case(case, tier)


def needs_c():
    if "c" not in native_tiers():
        pytest.skip("the C kernel does not build on this machine")


@pytest.fixture
def cells():
    data = np.random.default_rng(8).normal(size=(400, 7))
    codes = np.digitize(data, [-0.8, -0.2, 0.3, 0.9]).astype(np.int16)
    codes[np.random.default_rng(9).random(codes.shape) < 0.05] = -1
    return CellAssignment(codes, 5)


def outcome_key(outcome) -> tuple:
    return (
        [(p.subspace, p.count, p.coefficient) for p in outcome.projections],
        outcome.stats["generations"],
        outcome.stats["evaluations"],
        outcome.stopped_reason,
    )


CONFIG = EvolutionaryConfig(
    population_size=21, max_generations=12, elitism=2, crossover_rate=0.7
)


def search(counter, **overrides) -> EvolutionarySearch:
    params = dict(config=CONFIG, random_state=5)
    params.update(overrides)
    return EvolutionarySearch(counter, 3, 6, **params)


class TestEngine:
    @pytest.mark.parametrize("kill_at", [1, 4])
    def test_kill_and_resume_on_the_fused_path(self, cells, tmp_path, kill_at):
        needs_c()
        counter = CubeCounter(cells)
        reference = search(counter).run()
        assert counter.serves_generation(3)
        stream = SearchCheckpointer(CheckpointStore(tmp_path), "ga")
        token = CancelAfterBoundaries(kill_at)
        interrupted = search(counter).run(
            context=RunContext(cancel_token=token, checkpointer=stream)
        )
        assert token.cancelled and interrupted.stopped_reason == "cancelled"
        resumed = search(counter).run(
            context=RunContext(checkpointer=stream, resume_from=True)
        )
        assert outcome_key(resumed) == outcome_key(reference)
        assert counter.resilience.ladder == {}

    @pytest.mark.parametrize("tier", ["c", "numpy"])
    def test_stats_match_the_operators(self, cells, tier):
        """A whole run books the same figures with the call on or off."""
        with native_tier(tier):
            runs = []
            for serve in (True, False):
                with pytest.MonkeyPatch.context() as patch:
                    if not serve:
                        patch.setattr(
                            CubeCounter, "serves_generation", lambda self, k: False
                        )
                    counter = CubeCounter(cells)
                    rng = np.random.default_rng(np.random.Philox(3))
                    outcome = search(counter, random_state=rng).run()
                    runs.append((outcome_key(outcome), figures(counter), rng))
        (fused, fused_figures, fused_rng), (ops, ops_figures, ops_rng) = runs
        assert fused == ops
        assert fused_figures == ops_figures
        assert _same_state(fused_rng.bit_generator.state, ops_rng.bit_generator.state)

    def test_a_library_broken_after_generation_one(self, uncertified, cells):
        needs_c()
        clean_counter = CubeCounter(cells)
        clean_rng = np.random.default_rng(6)
        clean = search(clean_counter, random_state=clean_rng).run()
        counter = CubeCounter(cells)
        rng = np.random.default_rng(6)
        with pytest.MonkeyPatch.context() as patch:
            broken = search(counter, random_state=rng).run(
                context=RunContext(sink=_BreakAfterGenerationOne(patch))
            )
        assert outcome_key(broken) == outcome_key(clean)
        assert counter.resilience.ladder == {"kernel": "numpy"}
        assert "simulated generation crash" in counter.kernel_info()["reason"]
        assert _same_state(rng.bit_generator.state, clean_rng.bit_generator.state)
        for key in ("count_calls", "batch_calls", "batch_cubes"):
            assert counter.cache_stats()[key] == clean_counter.cache_stats()[key]

    def test_a_failed_call_restores_the_generator(self, cells, monkeypatch):
        """Rows drawn by a Python selection are drawn again by the
        operators after the call fails."""
        needs_c()
        rng = np.random.default_rng(10)
        genes, fitnesses = seeded(rng, 12, 7, 3, 5)
        selection = SELECTIONS["tournament"]
        mutation = BalancedMutation(0.3, 0.3, 5)
        evaluator = FitnessEvaluator(CubeCounter(cells), 3)
        fast, slow = np.random.default_rng(11), np.random.default_rng(11)
        assert fused_generation(
            genes, fitnesses, evaluator, np.random.default_rng(0), selection,
            OptimizedCrossover(), mutation, 1, 0.5,
        ) is not None  # proven and served before the library breaks
        monkeypatch.setattr(native, "_load_kernel", _crash)
        assert fused_generation(
            genes, fitnesses, evaluator, fast, selection, OptimizedCrossover(),
            mutation, 1, 0.5,
        ) is None
        assert _same_state(fast.bit_generator.state, slow.bit_generator.state)
        assert evaluator.counter.resilience.ladder == {"kernel": "numpy"}
        assert not evaluator.counter.serves_generation(3)

    def test_a_default_detect_runs_one_ga_proof(self):
        """A fresh process's default detect proves the generation call,
        and neither the C mutation nor anything else of the GA."""
        needs_c()
        script = (
            "import json, numpy as np\n"
            "from repro import SubspaceOutlierDetector\n"
            "from repro.search.evolutionary import generation, mutation\n"
            "data = np.random.default_rng(0).normal(size=(2000, 8))\n"
            "SubspaceOutlierDetector(dimensionality=3, n_ranges=5,"
            " random_state=0).detect(data)\n"
            "print(json.dumps([\n"
            "    generation._generation_serves.verdict.cache_info().currsize,\n"
            "    generation._generation_serves(),\n"
            "    mutation._mutation_serves.verdict.cache_info().currsize,\n"
            "]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, timeout=300, check=False,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.strip().splitlines()[-1]) == [1, True, 0]


class _BreakAfterGenerationOne(EventSink):
    """Makes the C library unloadable once the first generation ends."""

    def __init__(self, patch):
        self.patch = patch

    def emit(self, event) -> None:
        if event.type == "generation_end" and event.payload["generation"] == 1:
            self.patch.setattr(native, "_load_kernel", _crash)


def _crash():
    raise ResourceError("simulated generation crash")


class TestWrapperRefusals:
    """Refused before the first draw: these run whether or not the
    library builds."""

    @pytest.fixture
    def case(self):
        rng = np.random.default_rng(2)
        codes = random_codes(rng, 300, 5, 4)
        blocks = [CubeCounter(CellAssignment(codes, 4))._stack]
        genes, fitnesses = seeded(rng, 9, 5, 2, 4)
        mean, std = _null_moments(300, 4, 5)
        return blocks, genes, fitnesses, mean, std

    OPERATORS = dict(
        elitism=1, crossover_rate=0.5, swap_probability=0.25, flip_probability=0.25
    )

    def call(self, case, rng, k=2, **overrides):
        blocks, genes, fitnesses, mean, std = case
        args = dict(
            blocks=blocks, population=genes, fitnesses=fitnesses,
            dimensionality=k, mean=mean, std=std, rng=rng,
        )
        operators = dict(self.OPERATORS)
        for key, value in overrides.items():
            (operators if key in operators or key == "chosen" else args)[key] = value
        return NativeGeneration(**args, **operators)

    def test_accepts_the_case(self, case):
        needs_c()
        rng = np.random.default_rng(1)
        population, fitnesses, scored, stats = self.call(case, rng)()
        assert population.shape == case[1].shape
        assert len(scored[0]) == stats["rows"] == np.isfinite(fitnesses).sum()
        chosen = np.arange(len(case[1]))[::-1]
        assert self.call(case, rng, chosen=chosen)() is not None

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({"population": "width"}, id="width"),
            pytest.param({"population": "gene-2"}, id="gene-2"),
            pytest.param({"population": "gene-phi"}, id="gene-phi"),
            pytest.param({"population": "float"}, id="float"),
            pytest.param({"population": "uint64"}, id="uint64"),
            pytest.param({"population": "1-d"}, id="1-d"),
            pytest.param({"fitnesses": "short"}, id="fitnesses"),
            pytest.param({"k": 0}, id="k0"),
            pytest.param({"k": 6}, id="k-past-d"),
            pytest.param({"mean": "short"}, id="moments"),
            pytest.param({"elitism": -1}, id="elitism-1"),
            pytest.param({"elitism": 10}, id="elitism-p"),
            pytest.param({"crossover_rate": 1.5}, id="rate"),
            pytest.param({"swap_probability": -0.1}, id="p1"),
            pytest.param({"flip_probability": float("nan")}, id="p2"),
            pytest.param({"chosen": "short"}, id="chosen-short"),
            pytest.param({"chosen": "high"}, id="chosen-high"),
            pytest.param({"chosen": "negative"}, id="chosen-negative"),
            pytest.param({"rng": "legacy"}, id="rng"),
            pytest.param({"blocks": "none"}, id="no-blocks"),
            pytest.param({"blocks": "narrow"}, id="blocks-shape"),
            pytest.param({"blocks": "int64"}, id="blocks-dtype"),
            pytest.param({"blocks": "reversed"}, id="blocks-strides"),
            pytest.param({"blocks": "transposed"}, id="blocks-order"),
        ],
    )
    def test_refuses_before_any_draw(self, case, overrides):
        blocks, genes, fitnesses, mean, std = case
        stack = blocks[0]
        bad = {
            "width": genes[:, :-1], "gene-2": np.where(genes >= 0, -2, genes),
            "gene-phi": np.where(genes >= 0, 4, genes),
            "float": genes.astype(float), "uint64": genes.astype(np.uint64),
            "1-d": genes[0], "short": None, "high": np.full(len(genes), len(genes)),
            "negative": np.full(len(genes), -1), "legacy": np.random.RandomState(0),
            "none": [], "narrow": [stack[:, :-1]], "int64": [stack.astype(np.int64)],
            "reversed": [stack[:, :, ::-1]],
            "transposed": [np.ascontiguousarray(stack.transpose(1, 0, 2)).transpose(1, 0, 2)],
        }
        shorts = {
            "fitnesses": fitnesses[:-1], "mean": mean[:2],
            "chosen": np.arange(len(genes) - 1),
        }
        key, value = next(iter(overrides.items()))
        if isinstance(value, str):
            value = shorts[key] if value == "short" else bad[value]
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with pytest.raises(ValidationError):
            if key == "rng":
                self.call(case, value)
            else:
                self.call(case, rng, **{key: value})
        assert rng.bit_generator.state == before

    def test_an_unloadable_library_draws_nothing(self, case, monkeypatch):
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        call = self.call(case, rng)
        monkeypatch.setattr(native, "_load_kernel", _crash)
        with pytest.raises(ResourceError):
            call()
        assert rng.bit_generator.state == before

    def test_counter_refuses_before_the_ladder(self, cells):
        needs_c()
        counter = CubeCounter(cells)
        evaluator = FitnessEvaluator(counter, 2)
        genes, fitnesses = seeded(np.random.default_rng(5), 6, 7, 2, 5)
        for bad_genes, bad_fitnesses in (
            (genes[:, :5], fitnesses), (genes, fitnesses[:3]), (genes - 2, fitnesses),
        ):
            with pytest.raises(ValidationError):
                evaluator.fused_generation(
                    bad_genes, bad_fitnesses, np.random.default_rng(0),
                    **self.OPERATORS,
                )
        assert counter.resilience.ladder == {}
        assert evaluator.n_evaluations == 0

