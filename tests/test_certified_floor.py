"""The floor certificate: a search stops once nothing can enter its best set.

For fixed (N, φ, k) Equation 1 strictly increases with the count, so a
full best set whose every entry holds the floor count (1 under
``require_nonempty``, else 0) rejects every later cube
(:meth:`~repro.search.best_set.BestProjectionSet.certified`).  The brute
force checks it before each final-level block and the GA at each
generation boundary; both then stop with ``stopped_reason="optimal"``.

The reference is the same search with the predicate patched off: on
drawn small grids that reach the floor (large φ, small N) the certified
run's projections, counts and coefficients must equal the uncertified
run's, for the brute force with and without ``require_nonempty`` and
for the GA.  A full set above the floor, a set not yet full and
threshold mode never certify; a certified GA skips its remaining
restarts; a kill before the certifying boundary resumes to the same
boundary; and ``"optimal"`` survives ``persist`` and the CLI's JSON.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core.detector import SubspaceOutlierDetector
from repro.core.subspace import Subspace
from repro.engine.context import RunContext
from repro.grid.cells import MISSING_CELL, CellAssignment
from repro.grid.counter import CubeCounter
from repro.persist import result_from_dict, result_to_dict
from repro.run.cancel import STOP_REASONS, CancelAfterBoundaries, CancelToken
from repro.run.checkpoint import CheckpointStore, SearchCheckpointer
from repro.search import brute_force
from repro.search.best_set import BestProjectionSet
from repro.search.brute_force import BruteForceSearch, _parent_blocks
from repro.search.evolutionary.config import EvolutionaryConfig
from repro.search.evolutionary.engine import EvolutionarySearch


def grid_counter(seed: int, n_rows: int, n_dims: int, phi: int) -> CubeCounter:
    """A counter over uniform codes, a few of them missing."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, phi, size=(n_rows, n_dims)).astype(np.int16)
    codes[rng.random(codes.shape) < 0.05] = MISSING_CELL
    return CubeCounter(CellAssignment(codes, phi))


def mined(outcome) -> list:
    return [(p.subspace, p.count, p.coefficient) for p in outcome.projections]


def run(make_search, *, certify: bool, chunk: int = 16, context=None):
    """*make_search()* run with the certificate on or off, the brute
    force's blocks cut to about *chunk* children so small grids cross
    many of them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            brute_force, "_parent_blocks",
            lambda dims, stop, n_ranges, _: _parent_blocks(
                dims, stop, n_ranges, chunk
            ),
        )
        if not certify:
            patch.setattr(BestProjectionSet, "certified", lambda self: False)
        search = make_search()
        return search.run(context=context), search


def check_certified_run(certified, plain, best: BestProjectionSet) -> None:
    """The certified run mines the uncertified run's set, in fewer or as
    many evaluations, and says ``optimal`` only when it certified."""
    assert mined(certified) == mined(plain)
    assert certified.completed
    assert certified.stats["evaluations"] <= plain.stats["evaluations"]
    if certified.stopped_reason == "optimal":
        assert best.certified()
    else:
        assert certified.stats == plain.stats | {
            "elapsed_seconds": certified.stats["elapsed_seconds"]
        }
    assert plain.stopped_reason != "optimal"


GA_CONFIG = EvolutionaryConfig(population_size=20, max_generations=12)

grids = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "n_rows": st.integers(20, 150),
    "n_dims": st.integers(3, 7),
    "phi": st.integers(5, 9),
    "k": st.integers(1, 3),
    "m": st.integers(1, 12),
    "chunk": st.integers(1, 64),
    "nonempty": st.booleans(),
})

#: The slow twin's draws: the fast draws, or more rows, dimensions and
#: projections with k up to 4.
deep_grids = grids | st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "n_rows": st.integers(20, 400),
    "n_dims": st.integers(3, 9),
    "phi": st.integers(4, 10),
    "k": st.integers(1, 4),
    "m": st.integers(1, 25),
    "chunk": st.integers(1, 256),
    "nonempty": st.booleans(),
})


def check_brute_force(case: dict) -> None:
    k = min(case["k"], case["n_dims"])
    counter = grid_counter(case["seed"], case["n_rows"], case["n_dims"], case["phi"])

    def make():
        return BruteForceSearch(
            counter, k, case["m"], require_nonempty=case["nonempty"]
        )

    certified, search = run(make, certify=True, chunk=case["chunk"])
    plain, _ = run(make, certify=False, chunk=case["chunk"])
    check_certified_run(certified, plain, search._run["best"])


def check_evolutionary(case: dict) -> None:
    k = min(case["k"], case["n_dims"])
    counter = grid_counter(case["seed"], case["n_rows"], case["n_dims"], case["phi"])

    def make():
        return EvolutionarySearch(
            counter, k, case["m"], config=GA_CONFIG,
            require_nonempty=case["nonempty"], random_state=case["seed"],
        )

    certified, search = run(make, certify=True)
    plain, _ = run(make, certify=False)
    check_certified_run(certified, plain, search._run["best"])
    assert certified.stats["generations"] <= plain.stats["generations"]


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(grids)
    def test_brute_force_mines_the_uncertified_set(self, case):
        check_brute_force(case)

    @settings(max_examples=40, deadline=None)
    @given(grids)
    def test_evolutionary_mines_the_uncertified_set(self, case):
        check_evolutionary(case)

    @pytest.mark.parametrize("nonempty", [True, False])
    def test_the_floor_is_reached_and_the_run_stops_early(self, nonempty):
        """The drawn grids do reach the floor: one fixed case certifies
        after a few blocks and saves most of the leaf level."""
        counter = grid_counter(0, 60, 6, 8)

        def make():
            return BruteForceSearch(counter, 2, 6, require_nonempty=nonempty)

        certified, search = run(make, certify=True)
        plain, _ = run(make, certify=False)
        check_certified_run(certified, plain, search._run["best"])
        assert certified.stopped_reason == "optimal"
        assert 3 * certified.stats["evaluations"] < plain.stats["evaluations"]

    def test_threshold_mode_runs_to_the_end(self):
        counter = grid_counter(0, 60, 6, 8)
        outcome, _ = run(
            lambda: BruteForceSearch(counter, 2, None, threshold=0.0),
            certify=True,
        )
        assert outcome.stopped_reason == "converged"
        assert outcome.stats["evaluations"] == outcome.stats["search_space_size"]


@pytest.mark.slow
class TestDeepDifferential:
    @settings(max_examples=1000, deadline=None)
    @given(deep_grids)
    def test_brute_force_mines_the_uncertified_set(self, case):
        check_brute_force(case)

    @settings(max_examples=500, deadline=None)
    @given(deep_grids)
    def test_evolutionary_mines_the_uncertified_set(self, case):
        check_evolutionary(case)


class TestPredicate:
    @staticmethod
    def filled(counts, **params) -> BestProjectionSet:
        best = BestProjectionSet(**params)
        for dim, count in enumerate(counts):
            best.offer_cube(Subspace((dim,), (0,)), count, -10.0 + count)
        return best

    @pytest.mark.parametrize("nonempty, floor", [(True, 1), (False, 0)])
    def test_a_full_set_at_the_floor_certifies(self, nonempty, floor):
        best = self.filled([floor] * 3, max_size=3, require_nonempty=nonempty)
        assert best.certified()

    @pytest.mark.parametrize("nonempty, floor", [(True, 1), (False, 0)])
    def test_a_full_set_above_the_floor_does_not_certify(self, nonempty, floor):
        best = self.filled(
            [floor, floor + 1, floor], max_size=3, require_nonempty=nonempty
        )
        assert len(best) == 3 and not best.certified()

    def test_one_point_cubes_are_not_the_floor_without_the_filter(self):
        best = self.filled([1, 1], max_size=2, require_nonempty=False)
        assert not best.certified()

    def test_a_set_not_yet_full_does_not_certify(self):
        assert not BestProjectionSet(3).certified()
        assert not self.filled([1, 1], max_size=3).certified()

    def test_threshold_mode_never_certifies(self):
        best = self.filled([1] * 5, max_size=None, threshold=0.0)
        assert len(best) == 5 and not best.certified()

    def test_a_bounded_set_with_a_threshold_certifies(self):
        assert self.filled([1, 1], max_size=2, threshold=0.0).certified()

    def test_optimal_is_a_stop_reason(self):
        assert "optimal" in STOP_REASONS


class TestEvolutionary:
    def test_restarts_after_the_certificate_are_skipped(self):
        counter = grid_counter(1, 60, 6, 6)
        config = EvolutionaryConfig(population_size=20, max_generations=12, restarts=3)
        outcome = EvolutionarySearch(
            counter, 2, 6, config=config, random_state=1
        ).run()
        assert outcome.stopped_reason == "optimal" and outcome.completed
        # Certified on the first restart's seed population: no second
        # population was seeded, so one population's evaluations.
        assert outcome.stats["generations"] == 0
        assert outcome.stats["evaluations"] == config.population_size
        assert outcome.stats["restarts"] == 3

    def test_a_later_certificate_ends_the_restart_it_lands_in(self):
        counter = grid_counter(0, 300, 8, 5)
        config = EvolutionaryConfig(population_size=20, max_generations=12, restarts=3)
        certified, _ = run(
            lambda: EvolutionarySearch(counter, 3, 20, config=config, random_state=0),
            certify=True,
        )
        plain, _ = run(
            lambda: EvolutionarySearch(counter, 3, 20, config=config, random_state=0),
            certify=False,
        )
        assert certified.stopped_reason == "optimal"
        assert 0 < certified.stats["generations"] < config.max_generations
        assert plain.stats["generations"] == 3 * config.max_generations
        assert mined(certified) == mined(plain)


class TestKillAndResume:
    """A kill before the certifying boundary resumes to that boundary."""

    def test_evolutionary(self, tmp_path):
        counter = grid_counter(0, 300, 8, 5)

        def make():
            return EvolutionarySearch(counter, 3, 20, config=GA_CONFIG, random_state=0)

        reference = make().run()
        assert reference.stopped_reason == "optimal"
        assert reference.stats["generations"] >= 3
        stream = SearchCheckpointer(CheckpointStore(tmp_path), "ga")
        token = CancelAfterBoundaries(1)
        interrupted = make().run(
            context=RunContext(cancel_token=token, checkpointer=stream)
        )
        assert interrupted.stopped_reason == "cancelled"
        resumed = make().run(context=RunContext(checkpointer=stream, resume_from=True))
        assert mined(resumed) == mined(reference)
        for key in ("generations", "evaluations"):
            assert resumed.stats[key] == reference.stats[key], key
        assert resumed.stopped_reason == "optimal"

    def test_brute_force_mid_leaf_level(self, tmp_path):
        counter = grid_counter(0, 200, 6, 6)

        def make():
            return BruteForceSearch(counter, 2, 10)

        reference, _ = run(make, certify=True)
        assert reference.stopped_reason == "optimal"
        token = CancelToken()
        scored = []
        score_block = BruteForceSearch._score_block

        def cancelling(self, *args):
            score_block(self, *args)
            scored.append(1)
            if len(scored) == 2:
                token.cancel(reason="test")

        stream = SearchCheckpointer(CheckpointStore(tmp_path), "bf")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(BruteForceSearch, "_score_block", cancelling)
            interrupted, _ = run(
                make, certify=True,
                context=RunContext(cancel_token=token, checkpointer=stream),
            )
        assert interrupted.stopped_reason == "cancelled"
        assert 0 < interrupted.stats["evaluations"] < reference.stats["evaluations"]
        resumed, _ = run(
            make, certify=True,
            context=RunContext(checkpointer=stream, resume_from=True),
        )
        assert mined(resumed) == mined(reference)
        assert resumed.stats["evaluations"] == reference.stats["evaluations"]
        assert resumed.stopped_reason == "optimal"


class TestReporting:
    @pytest.fixture(scope="class")
    def data(self):
        return np.random.default_rng(0).normal(size=(120, 7))

    def test_optimal_round_trips_through_persist(self, data):
        result = SubspaceOutlierDetector(3, 6, 12, random_state=0).detect(data)
        assert result.stopped_reason == "optimal"
        assert result.stats["completed"]
        restored = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert restored.stopped_reason == "optimal"
        assert restored.stats["completed"] == result.stats["completed"]

    def test_the_cli_exits_zero_and_reports_optimal(self, data, tmp_path, capsys):
        path = tmp_path / "data.csv"
        rows = [",".join(f"c{j}" for j in range(data.shape[1]))]
        rows += [",".join(f"{v:.6f}" for v in row) for row in data]
        path.write_text("\n".join(rows) + "\n")
        code = main([
            "detect", "--csv", str(path), "--phi", "6", "-k", "3", "-m", "12",
            "--output", "json",
        ])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert stats["stopped_reason"] == "optimal"
        assert stats["completed"]
