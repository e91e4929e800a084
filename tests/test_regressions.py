"""Regression tests for real bugs surfaced by the repro-lint rules.

Each test pins a concrete fix made while bringing the tree under
``python -m repro.analysis`` (see docs/determinism.md):

* RPL007 flagged NaN probes written as ``x == x`` / ``x != x`` float
  comparisons in the eval table renderers; those now use
  ``math.isnan`` and must keep rendering budget-exhausted cells as
  ``-`` / ``None`` instead of formatting ``nan``.
* RPL003 flagged benchmark artifacts written with bare
  ``Path.write_text`` — a kill mid-write would corrupt the persisted
  tables; they now route through ``repro._atomic``.
* The lint sweep also caught ``check_dimension_subset`` missing from
  ``repro._validation.__all__``.

Later sections pin behavioural bugs found outside the lint sweep.
"""

from __future__ import annotations

import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro._validation import __all__ as validation_all
from repro.analysis import lint_paths
from repro.eval.comparison import ComparisonRow, render_table
from repro.eval.harness import ExperimentResult
from repro.eval.sweeps import render_sweep
from repro.grid.discretizer import EquiDepthDiscretizer, EquiWidthDiscretizer
from repro.run.cancel import CancelToken
from repro.search.evolutionary.selection import TournamentSelection

_REPO_ROOT = Path(__file__).resolve().parents[1]


def _cell(quality, *, completed=True, elapsed=1.0):
    return ExperimentResult(
        dataset="synthetic",
        algorithm="gen",
        elapsed_seconds=elapsed,
        quality=quality,
        completed=completed,
        result=SimpleNamespace(n_outliers=5),
    )


class TestNanFormatting:
    def test_experiment_row_nan_quality_is_none(self):
        row = _cell(float("nan")).row()
        assert row["quality"] is None

    def test_experiment_row_finite_quality_rounds(self):
        row = _cell(-2.34567).row()
        assert row["quality"] == -2.3457

    def test_render_table_nan_quality_is_dash(self):
        table = render_table(
            [
                ComparisonRow(
                    dataset="musk",
                    n_dims=160,
                    brute=None,
                    gen=_cell(float("nan")),
                    gen_opt=_cell(-1.5),
                )
            ]
        )
        assert "nan" not in table
        assert "-1.50" in table

    def test_render_sweep_nan_rows_are_dashes(self):
        rows = [
            {
                "k": 3,
                "quality": float("nan"),
                "best_coefficient": float("nan"),
                "n_outliers": 0,
                "n_projections_mined": 0,
                "elapsed_seconds": 0.5,
            }
        ]
        text = render_sweep(rows, "k")
        assert "nan" not in text
        assert text.count("-") >= 2

    def test_gen_opt_matches_brute_is_nan_safe(self):
        row = ComparisonRow(
            dataset="d",
            n_dims=10,
            brute=_cell(float("nan")),
            gen=_cell(-1.0),
            gen_opt=_cell(float("nan")),
        )
        assert row.gen_opt_matches_brute is False
        assert math.isnan(row.brute.quality)


class TestLintCaughtFixesStayFixed:
    def test_benchmarks_have_no_non_atomic_writes(self):
        """benchmarks/ persists tables; RPL003 must stay clean there."""
        result = lint_paths([_REPO_ROOT / "benchmarks"], select=["RPL003"])
        assert result.violations == []

    def test_eval_has_no_float_equality(self):
        result = lint_paths([_REPO_ROOT / "src" / "repro" / "eval"], select=["RPL007"])
        assert result.violations == []


def test_validation_all_exports_check_dimension_subset():
    assert "check_dimension_subset" in validation_all


class TestRpl011ExceptionContract:
    """RPL011 (PR 10) flagged ``RetryPolicy.__post_init__`` raising bare
    ``ValueError`` on a path reachable from the public
    ``CountingBackend.retry_policy`` API — breaking the library's
    promise that deliberate errors derive from ``ReproError``.  The
    raises are now ``ValidationError`` (which still IS-A ``ValueError``,
    so pre-existing callers keep working)."""

    def test_retry_policy_validation_is_typed(self):
        import pytest

        from repro.exceptions import ReproError, ValidationError
        from repro.resilience.retry import RetryPolicy

        with pytest.raises(ValidationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValidationError):
            RetryPolicy(backoff=-1.0)
        # The typed error must remain catchable both ways.
        assert issubclass(ValidationError, ReproError)
        assert issubclass(ValidationError, ValueError)

    def test_rpl011_stays_clean_on_src(self):
        result = lint_paths([_REPO_ROOT / "src"], select=["RPL011"])
        assert result.violations == []


class TestLevelBatchEvaluationCap:
    """The level-batched brute force used to score a whole leaf chunk
    (4096 cubes on an 8-d, φ=5 grid) before reading ``max_evaluations``;
    the chunk that reaches the cap is now cut to the budget left."""

    def test_level_batch_stops_at_max_evaluations(self):
        import itertools

        import numpy as np

        from repro.core.subspace import Subspace
        from repro.grid.cells import CellAssignment
        from repro.grid.counter import CubeCounter
        from repro.search.brute_force import BruteForceSearch

        codes = np.random.default_rng(0).integers(0, 5, size=(300, 8))
        counter = CubeCounter(CellAssignment(codes.astype(np.int16), 5))
        outcome = BruteForceSearch(counter, 3, 10, max_evaluations=10).run()
        assert outcome.stats["evaluations"] == 10
        assert not outcome.completed
        assert outcome.stopped_reason == "evaluation_cap"
        # The ten offered leaves are the first ten in generation order,
        # lexicographic in the cube's (dim, range) pairs (every 1- and
        # 2-d prefix here is non-empty, so none is pruned).
        first_ten = sorted(
            (
                Subspace(dims, ranges)
                for dims in itertools.combinations(range(8), 3)
                for ranges in itertools.product(range(5), repeat=3)
            ),
            key=lambda cube: list(zip(cube.dims, cube.ranges)),
        )[:10]
        assert {p.subspace for p in outcome.projections} == {
            cube for cube in first_ten if counter.count(cube) > 0
        }


class TestZeroProjectionModelServes:
    """A detection that mined nothing used to leave a model that refused
    to score (``NotFittedError``) live and after a save/load round trip,
    while ``detector.score`` returned all-NaN.  An empty mined set now
    scores all-NaN everywhere; only an unmined model refuses."""

    def test_empty_mined_set_scores_nan(self, tmp_path):
        import numpy as np
        import pytest

        from repro import SubspaceOutlierDetector, load_model, save_model
        from repro.exceptions import NotFittedError
        from repro.model import GridModel

        data = np.random.default_rng(0).normal(size=(200, 4))
        detector = SubspaceOutlierDetector(
            dimensionality=2, n_ranges=5, threshold=-1e9, random_state=0
        )
        assert detector.detect(data).projections == ()
        loaded = load_model(save_model(detector, tmp_path / "model.json"))
        for scores in (
            detector.score(data),
            detector.model_.score(data),
            loaded.score(data),
        ):
            assert scores.shape == (200,)
            assert np.isnan(scores).all()
        assert not detector.model_.predict(data).any()

        fresh = GridModel.fit(data, n_ranges=5)
        with pytest.raises(NotFittedError, match="no mined projections"):
            fresh.score(data)
        detector.model_.update(data[:10])
        detector.model_.rebin()
        with pytest.raises(NotFittedError, match="rebin clears them"):
            detector.model_.score(data)


class TestFaultSpecValidation:
    """``FaultSpec`` used to accept ``trigger=0.5`` and ``trigger=True``
    (both silently never or always matching) and raised bare
    ``ValueError``s; its fields are now checked like every other count
    and the errors are typed."""

    def test_non_integer_trigger_and_times_rejected(self):
        import pytest

        from repro.exceptions import ValidationError
        from repro.resilience import FaultSpec

        for bad in (0.5, True, "0", -1):
            with pytest.raises(ValidationError, match="trigger"):
                FaultSpec("shard_read", trigger=bad)
        for bad in (1.0, False, 0):
            with pytest.raises(ValidationError, match="times"):
                FaultSpec("shard_read", times=bad)
        assert FaultSpec("shard_read", trigger=2, times=None).times is None

    def test_registry_errors_are_typed(self):
        import pytest

        from repro.exceptions import ReproError, ValidationError
        from repro.resilience import FaultSpec, register_fault_point

        with pytest.raises(ValidationError, match="unknown fault point") as info:
            FaultSpec("not_a_point")  # repro-lint: disable=RPL014
        assert isinstance(info.value, ReproError)
        assert isinstance(info.value, ValueError)
        with pytest.raises(ValidationError):
            register_fault_point("", lambda detail: None)


class TestBalancedMutationRangeValidation:
    """``BalancedMutation`` raised a bare ``ValueError`` for
    ``n_ranges < 1`` (the last untyped one in ``src/`` outside
    ``repro.analysis``) and accepted non-integers; it now validates
    like every other count and raises ``ValidationError``."""

    def test_bad_n_ranges_rejected_with_typed_error(self):
        import pytest

        from repro.exceptions import ReproError, ValidationError
        from repro.search.evolutionary.mutation import BalancedMutation

        for bad in (0, -3, 2.5, True):
            with pytest.raises(ValidationError, match="n_ranges") as info:
                BalancedMutation(0.5, 0.5, bad)
            assert isinstance(info.value, ReproError)
        assert BalancedMutation(0.5, 0.5, 1).n_ranges == 1


class TestLintCliPathsAndCodes:
    """Two ways the lint gate could pass without checking anything:

    * a missing lint path (a typo in a CI step) printed
      ``0 violation(s) in 0 file(s)`` and exited 0; it is now a usage
      error (exit 2) naming the path, while an existing empty directory
      still exits 0;
    * a repeated ``--select`` built one rule instance per occurrence,
      so every finding was reported twice; codes are now deduplicated
      (``--ignore`` tolerates repeats the same way).
    """

    _UNSEEDED = "import numpy as np\nrng = np.random.default_rng()\n"

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        import pytest

        from repro.analysis.cli import main as lint_main
        from repro.exceptions import ValidationError

        missing = tmp_path / "does_not_exist"
        with pytest.raises(ValidationError, match="does_not_exist"):
            lint_paths([missing])
        assert lint_main([str(missing), "--no-baseline"]) == 2
        assert "does_not_exist" in capsys.readouterr().err
        (tmp_path / "empty").mkdir()
        assert lint_main([str(tmp_path / "empty"), "--no-baseline"]) == 0

    def test_repeated_codes_run_each_rule_once(self, tmp_path, capsys):
        from repro.analysis.cli import main as lint_main
        from repro.analysis.runner import select_rules

        target = tmp_path / "mod.py"
        target.write_text(self._UNSEEDED)
        once = lint_paths([target], select=["RPL001"])
        twice = lint_paths([target], select=["RPL001", "RPL001"])
        assert len(once.violations) == 1
        assert twice.violations == once.violations
        args = [str(target), "--no-baseline", "--select", "RPL001"]
        assert lint_main([*args, "--select", "RPL001"]) == 1
        assert "1 violation(s) in 1 file(s)" in capsys.readouterr().out
        ignored = [r.code for r in select_rules(ignore=["RPL001", "RPL001"])]
        assert ignored == [r.code for r in select_rules(ignore=["RPL001"])]


class TestReservoirSnapshotShape:
    """``StreamingReservoir.from_state_dict`` accepted a snapshot whose
    row count differed from ``min(n_seen, capacity)``: ``n_seen=9,
    capacity=4`` with one row restored three slots of uninitialised
    memory as sampled rows, and ``rebin()`` cut the grid from them.
    Ragged rows, a flat ``rows`` list that does not split into
    ``n_cols`` columns and a non-integer ``n_cols`` raised bare
    ``ValueError``s or were truncated silently.  Each is now a
    ``DiscretizationError``."""

    @staticmethod
    def _state(**overrides):
        import numpy as np

        from repro.grid.discretizer import StreamingReservoir

        reservoir = StreamingReservoir(4).update(np.arange(18.0).reshape(9, 2))
        return {**reservoir.state_dict(), **overrides}

    def _assert_rejected(self, state, match):
        import pytest

        from repro.exceptions import DiscretizationError
        from repro.grid.discretizer import EquiDepthDiscretizer, StreamingReservoir

        with pytest.raises(DiscretizationError, match=match):
            StreamingReservoir.from_state_dict(state)
        with pytest.raises(DiscretizationError, match=match):
            EquiDepthDiscretizer(3).restore_sketch(state)

    def test_too_few_rows_for_n_seen(self):
        state = self._state()
        self._assert_rejected({**state, "rows": state["rows"][:1]}, r"need \(4, 2\)")

    def test_ragged_rows(self):
        self._assert_rejected(
            self._state(rows=[[1.0, 2.0], [3.0], [4.0, 5.0], [6.0, 7.0]]), "malformed"
        )

    def test_rows_that_do_not_split_into_n_cols(self):
        self._assert_rejected(self._state(rows=[1.0, 2.0, 3.0]), r"shape \(3,\)")
        self._assert_rejected(self._state(rows=[[1.0, 2.0, 3.0]] * 4), r"shape \(4, 3\)")

    def test_n_cols_must_be_a_positive_integer(self):
        for bad in (2.5, "2", True, 0, None):
            self._assert_rejected(self._state(n_cols=bad), "n_cols")

    def test_well_formed_snapshots_still_restore(self):
        import numpy as np

        from repro.grid.discretizer import StreamingReservoir

        state = self._state()
        restored = StreamingReservoir.from_state_dict(state)
        np.testing.assert_array_equal(restored.rows, np.asarray(state["rows"]))
        fresh = StreamingReservoir(4).state_dict()
        assert StreamingReservoir.from_state_dict(fresh).n_seen == 0


class TestNonFiniteCutPoints:
    """Cut validation checked shape and order but not finiteness:
    ``EquiWidthDiscretizer(3)`` on a column spanning ±1e308 overflowed
    to cuts ``[inf, inf]`` and coded every value 0, and ``np.quantile``
    interpolates a NaN cut when the gap between two order statistics
    overflows.  Non-finite cuts now raise a ``DiscretizationError``
    naming the column, on the fit and restore paths alike."""

    def _assert_rejected(self, cls, n_ranges, column):
        import numpy as np
        import pytest

        from repro.exceptions import DiscretizationError

        data = np.column_stack([np.arange(len(column), dtype=float), column])
        with np.errstate(over="ignore", invalid="ignore"):
            for fit in (cls(n_ranges).fit, cls(n_ranges).fit_transform):
                with pytest.raises(DiscretizationError, match="column 1 are not finite"):
                    fit(data)

    def test_equi_width_overflow(self):
        from repro.grid.discretizer import EquiWidthDiscretizer

        self._assert_rejected(EquiWidthDiscretizer, 3, [-1e308, 1e308])

    def test_equi_depth_nan_cut(self):
        import numpy as np

        from repro.grid.discretizer import EquiDepthDiscretizer

        column = [-1e308, -1e308, 1e308]
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(np.quantile(column, 0.5))  # the old path's cut
        self._assert_rejected(EquiDepthDiscretizer, 2, column)

    def test_restored_cut_points_must_be_finite(self):
        import numpy as np
        import pytest

        from repro.exceptions import DiscretizationError
        from repro.grid.discretizer import EquiDepthDiscretizer

        for bad in (np.nan, np.inf):
            with pytest.raises(DiscretizationError, match="column 1 are not finite"):
                EquiDepthDiscretizer.from_cut_points([[0.0, 1.0], [0.0, bad]])


class TestMalformedBruteForceResume:
    """A hand-built brute-force resume state used to escape the
    ``ReproError`` contract: a ragged or wrong-width ``level`` or
    ``depth: 0`` raised a bare ``ValueError``, a missing key a bare
    ``KeyError``, and ``depth > k`` or a dimension outside the grid
    silently returned ``completed=True`` with nothing mined.  Every
    restored state is now validated and rejected with
    ``CheckpointError``."""

    @staticmethod
    def _resume(**changes):
        import numpy as np
        import pytest

        from repro.engine.context import RunContext
        from repro.exceptions import CheckpointError
        from repro.grid.cells import CellAssignment
        from repro.grid.counter import CubeCounter
        from repro.search.best_set import BestProjectionSet
        from repro.search.brute_force import BruteForceSearch

        codes = np.random.default_rng(0).integers(0, 4, size=(120, 6))
        counter = CubeCounter(CellAssignment(codes.astype(np.int16), 4))
        state = {
            "algorithm": "brute_force",
            "depth": 2,
            "level": [[[dim], [rng]] for dim in range(5) for rng in range(4)],
            "best_set": BestProjectionSet(5).to_state(),
            "evaluations": 0,
            "elapsed_seconds": 0.0,
        }
        state.update(changes)
        for key in [key for key, value in changes.items() if value is None]:
            del state[key]
        with pytest.raises(CheckpointError):
            BruteForceSearch(counter, 3, 5).run(
                context=RunContext(resume_from=state)
            )

    def test_ragged_level(self):
        self._resume(level=[[[0], [1]], [[0, 1], [1]]])

    def test_level_rows_of_wrong_width(self):
        self._resume(level=[[[0, 1], [1, 2]]])

    def test_depth_zero(self):
        self._resume(depth=0)

    def test_missing_elapsed_seconds(self):
        self._resume(elapsed_seconds=None)

    def test_depth_above_k(self):
        self._resume(depth=4, level=[[[0, 1, 2], [0, 0, 0]]])

    def test_frontier_dimension_outside_grid(self):
        self._resume(level=[[[99], [0]]])

    def test_range_outside_grid(self):
        self._resume(level=[[[0], [4]]])

    def test_descending_dims(self):
        self._resume(depth=3, level=[[[2, 1], [0, 0]]])

    def test_negative_evaluations(self):
        self._resume(evaluations=-1)


def _normal_counter(n_ranges=5):
    import numpy as np

    from repro.grid.counter import CubeCounter
    from repro.grid.discretizer import EquiDepthDiscretizer

    data = np.random.default_rng(12345).normal(size=(200, 6))
    return CubeCounter(EquiDepthDiscretizer(n_ranges).fit_transform(data))


class TestGaStopCheckpointBoundary:
    """The GA's interval checkpoints were indexed by the run-wide
    generation count, but its ``cancelled`` / ``deadline`` stop
    snapshots reported the per-restart generation, so a cancel in the
    second restart emitted boundaries 4, 5, 6 and then 2.  Every
    trigger now reports the run-wide boundary."""

    def test_cancel_in_second_restart_reports_run_wide_boundary(self, tmp_path):
        from repro.engine.context import RunContext
        from repro.engine.events import InMemoryEventSink
        from repro.run.cancel import CancelAfterBoundaries
        from repro.run.checkpoint import CheckpointStore, SearchCheckpointer
        from repro.search.evolutionary.config import EvolutionaryConfig
        from repro.search.evolutionary.engine import EvolutionarySearch

        stream = SearchCheckpointer(CheckpointStore(tmp_path), "ga", every=1)
        sink = InMemoryEventSink()
        outcome = EvolutionarySearch(
            _normal_counter(), 2, 5,
            config=EvolutionaryConfig(
                population_size=20, max_generations=4, restarts=2
            ),
            random_state=0,
        ).run(context=RunContext(
            cancel_token=CancelAfterBoundaries(7), checkpointer=stream,
            sink=sink,
        ))
        assert outcome.stopped_reason == "cancelled"
        written = [event.payload for event in sink.of_type("checkpoint_written")]
        boundaries = [payload["boundary"] for payload in written]
        assert boundaries == sorted(boundaries)
        assert written[-1] == {
            "boundary": written[-2]["boundary"], "trigger": "cancelled",
        }
        state = stream.load()
        assert state["restart"] == 1
        assert (
            state["total_generations"] + state["generation"]
            == written[-1]["boundary"]
        )


class _CancelOnRead(CancelToken):
    """Flips when its raw ``cancelled`` flag is read the *n*-th time.

    ``poll()`` (the boundary check) does not count as a read, so the
    flip lands inside a level's counting, between two shards.
    """

    def __init__(self, n: int) -> None:
        super().__init__()
        self.reads_left = n

    @property
    def cancelled(self) -> bool:
        self.reads_left -= 1
        if self.reads_left <= 0:
            self.cancel(reason="injected")
        return self._event.is_set()


class TestBruteForceMidBatchCancelCheckpoint:
    """A cancellation raised by the counting engine mid-batch only
    latched ``cancelled`` in brute force: no stop snapshot was written,
    so with ``every > 1`` the checkpoint stream could stay empty.  The
    level's boundary snapshot is now saved like every other stop."""

    def test_sharded_mid_batch_cancel_saves_boundary(self, tmp_path):
        from repro.engine.context import RunContext
        from repro.engine.events import InMemoryEventSink
        from repro.grid.sharded import ShardedCounter, ShardedMaskStore
        from repro.run.checkpoint import CheckpointStore, SearchCheckpointer
        from repro.search.brute_force import BruteForceSearch

        memory = _normal_counter()
        reference = BruteForceSearch(memory, 3, 5).run()
        store = ShardedMaskStore.build(
            memory.cells, tmp_path / "shards", shard_rows=24
        )
        stream = SearchCheckpointer(
            CheckpointStore(tmp_path / "ckpt"), "bf", every=2
        )
        sink = InMemoryEventSink()
        counter = ShardedCounter(store)
        try:
            interrupted = BruteForceSearch(counter, 3, 5).run(
                context=RunContext(
                    cancel_token=_CancelOnRead(4), checkpointer=stream,
                    sink=sink,
                )
            )
        finally:
            counter.close()
        assert interrupted.stopped_reason == "cancelled"
        written = [event.payload for event in sink.of_type("checkpoint_written")]
        assert written == [{"boundary": 1, "trigger": "cancelled"}]
        assert stream.load()["depth"] == 1
        resumed = BruteForceSearch(memory, 3, 5).run(
            context=RunContext(checkpointer=stream, resume_from=True)
        )
        assert resumed.projections == reference.projections
        assert resumed.stats["evaluations"] == reference.stats["evaluations"]
        assert resumed.stopped_reason == "converged"


class _CountingPolls(CancelToken):
    def __init__(self) -> None:
        super().__init__()
        self.polls = 0

    def poll(self) -> bool:
        self.polls += 1
        return super().poll()


class TestOnePollPerStep:
    """``RandomSearch`` polled its token before the first chunk without
    yielding, so its ``step()`` count and its boundaries disagreed — a
    :class:`~repro.run.cancel.CancelAfterBoundaries` kill landed one
    chunk off.  Every engine now polls exactly once per step."""

    def test_polls_equal_steps_for_every_engine(self):
        from repro.engine.context import RunContext
        from repro.engine.registry import ENGINES, create_engine
        from repro.search.evolutionary.config import EvolutionaryConfig

        counter = _normal_counter()
        for name in sorted(ENGINES):
            engine = create_engine(
                name, counter, 2, 5,
                max_evaluations=300,
                config=EvolutionaryConfig(population_size=20, max_generations=6),
                random_state=0,
            )
            token = _CountingPolls()
            context = RunContext(cancel_token=token)
            engine.prepare(context)
            steps = 0
            while engine.step(context):
                steps += 1
            engine.finalize(context)
            assert token.polls == steps, name
            assert steps > 0, name


class TestCountingPoolLadderTarget:
    """An unavailable or abandoned counting pool recorded
    ``counting-pool: <kind> → serial`` even under ``process-native``,
    where the in-process native kernel keeps serving.  The step now
    names ``serial``, the placement ``process`` falls back to;
    ``process-native`` is a deprecated alias of ``process``, and the
    in-process kernel keeps serving whatever the placement."""

    @staticmethod
    def _cubes():
        from repro.core.subspace import Subspace

        return [
            Subspace((a, b), (r, s))
            for a in range(4) for b in range(a + 1, 5)
            for r in range(3) for s in range(3)
        ]

    def test_unavailable_pool_names_the_serving_backend(self, monkeypatch):
        from repro.core.params import CountingBackend
        from repro.grid.counter import CubeCounter

        def no_pool(counter):
            raise OSError("no shared memory here")

        cells = _normal_counter().cells
        monkeypatch.setattr(CubeCounter, "_make_pool", no_pool)
        for kind, target in (("process", "serial"), ("process-native", "serial")):
            counter = CubeCounter(
                cells, backend=CountingBackend(kind=kind, chunk_size=8)
            )
            counter.count_batch(self._cubes())
            report = counter.resilience.as_dict()
            assert report["ladder"] == {"counting-pool": target}, kind
            assert report["recoveries"]["pool_unavailable"] == 1
        # The in-process kernel the counter chose keeps serving.
        from repro.grid.backends import select_kernel

        assert counter.kernel_info()["kernel"] == select_kernel()[0]

    def test_abandoned_process_native_pool_steps_to_native(self):
        from repro.core.params import CountingBackend
        from repro.grid.counter import CubeCounter
        from repro.resilience import FaultSpec, fault_injection

        cells = _normal_counter().cells
        cubes = self._cubes()
        expected = CubeCounter(cells).count_batch(cubes).tolist()
        counter = CubeCounter(cells, backend=CountingBackend(
            kind="process-native", n_workers=1, chunk_size=16,
            retry_backoff=0.01, max_rebuilds=0,
        ))
        try:
            with fault_injection(FaultSpec("worker_kill", trigger=1)):
                counts = counter.count_batch(cubes).tolist()
            report = counter.resilience.as_dict()
        finally:
            counter.close()
        assert counts == expected
        assert report["recoveries"]["pool_abandoned"] == 1
        assert report["ladder"] == {"counting-pool": "serial"}


class TestRejectedCountingCallLeavesCounterUntouched:
    """``count_cubes`` and the memoised array path advanced
    ``count_calls`` / ``batch_calls`` / ``batch_cubes`` before
    validating, a mixed-k ``count_batch`` ran the kernel on its valid
    groups (and memoised them) before a later group raised, and a
    zero-width float cube array slipped past the dtype check.  Every
    group of a call is now validated before any state changes."""

    @staticmethod
    def _counter():
        import numpy as np

        from repro.grid.cells import CellAssignment
        from repro.grid.counter import CubeCounter

        codes = np.random.default_rng(7).integers(0, 3, size=(40, 5))
        return CubeCounter(CellAssignment(codes.astype(np.int16), 3))

    def test_rejected_calls_leave_stats_as_fresh(self):
        import numpy as np
        import pytest

        from repro.core.subspace import Subspace
        from repro.exceptions import ValidationError

        counter = self._counter()
        fresh = self._counter().cache_stats()
        rejected = [
            lambda: counter.count_cubes(np.array([[0, 9]]), np.array([[0, 0]])),
            lambda: counter.count_cubes(np.array([[1, 0]]), np.array([[0, 0]])),
            lambda: counter.count_batch(
                [Subspace((0,), (0,)), Subspace((0, 9), (0, 0))]
            ),
            lambda: counter.count_cubes(np.zeros((3, 0)), np.zeros((3, 0))),
            lambda: counter.count_batch(
                [Subspace((0,), (0,)), Subspace((1, 2), (0, 1)), (0, 1)]
            ),
            lambda: counter.count_batch(
                [Subspace((0,), (0,)), Subspace((1, 2), (0, 3))]
            ),
            lambda: counter.count_batch(
                [Subspace((0,), (0,)), Subspace((1, 2**70), (0, 0))]
            ),
        ]
        for call in rejected:
            with pytest.raises(ValidationError):
                call()
        assert counter.cache_stats() == fresh

    def test_rejected_call_after_warm_memo_changes_nothing(self):
        import numpy as np
        import pytest

        from repro.core.subspace import Subspace
        from repro.exceptions import ValidationError

        counter = self._counter()
        counter.count_batch([Subspace((0,), (1,)), Subspace((1, 2), (0, 2))])
        before = counter.cache_stats()
        with pytest.raises(ValidationError):
            counter.count_batch(
                [Subspace((0,), (1,)), Subspace((3,), (0,)), Subspace((0, 9), (0, 0))]
            )
        assert counter.cache_stats() == before
        assert counter.count_cubes(
            np.zeros((3, 0), dtype=np.intp), np.zeros((3, 0), dtype=np.intp)
        ).tolist() == [40, 40, 40]


class TestLocalSearchCancelInsideCount:
    """The sharded counter checks the cancel token between shards, so a
    flip that lands inside ``count()`` raises ``SearchCancelled`` from
    the counter.  Hill climbing and simulated annealing let it escape
    the run and lost their best-so-far set; they now stop ``cancelled``
    with a partial outcome, as the boundary poll does."""

    @pytest.mark.parametrize("method", ["hill_climbing", "simulated_annealing"])
    def test_cancel_inside_sharded_count_returns_partial(self, method, tmp_path):
        from repro.engine.context import RunContext
        from repro.engine.registry import create_engine
        from repro.grid.sharded import ShardedCounter, ShardedMaskStore

        memory = _normal_counter()
        store = ShardedMaskStore.build(
            memory.cells, tmp_path / "shards", shard_rows=24
        )
        counter = ShardedCounter(store)
        try:
            # 9 shards a count: the 60th read lands mid-count, after
            # six evaluations.
            outcome = create_engine(
                method, counter, 2, 5, max_evaluations=400, random_state=0,
            ).run(context=RunContext(cancel_token=_CancelOnRead(60)))
        finally:
            counter.close()
        assert outcome.stopped_reason == "cancelled"
        assert not outcome.completed
        assert outcome.projections
        assert 0 < outcome.stats["evaluations"] < 400


class TestAppendedCodeContract:
    """Appended and streamed grid codes were cast to int16 before their
    range check, so 65538 wrapped to code 2 under φ=3 and was stored,
    and the store builders took float codes (1.9) and codes below
    ``MISSING_CELL`` (−5) as well.  Every code block entering a counter
    or a store is now checked as an integer block in
    ``[MISSING_CELL, φ)`` before the cast, and a rejected call changes
    nothing."""

    BAD_BLOCKS = (
        ("float", [[1.9, 0.0]]),
        ("below_missing", [[-5, 0]]),
        ("wraps_in_range", [[65538, 0]]),
    )

    @staticmethod
    def _cells():
        import numpy as np

        from repro.grid.cells import CellAssignment

        codes = np.random.default_rng(11).integers(-1, 3, size=(20, 2))
        return CellAssignment(codes.astype(np.int16), 3)

    @staticmethod
    def _store_files(directory):
        return {
            path.name: path.read_bytes() for path in sorted(directory.iterdir())
        }

    def _assert_counter_rejects(self, counter):
        import numpy as np

        from repro.exceptions import ValidationError

        counter.count_batch([])
        before = counter.cache_stats()
        codes = counter.cells.codes.copy()
        for _, block in self.BAD_BLOCKS:
            with pytest.raises(ValidationError):
                counter.append_rows(np.array(block))
        assert counter.cache_stats() == before
        np.testing.assert_array_equal(counter.cells.codes, codes)

    def test_cube_counter_append_rejects_bad_codes(self):
        from repro.grid.counter import CubeCounter

        self._assert_counter_rejects(CubeCounter(self._cells()))

    def test_sharded_counter_append_rejects_bad_codes(self, tmp_path):
        from repro.grid.sharded import ShardedCounter, ShardedMaskStore

        cells = self._cells()
        store = ShardedMaskStore.build(cells, tmp_path, shard_rows=8)
        files = self._store_files(tmp_path)
        counter = ShardedCounter(store, cells)
        try:
            self._assert_counter_rejects(counter)
        finally:
            counter.close()
        assert counter.store is store
        assert self._store_files(tmp_path) == files

    def test_store_append_rejects_bad_codes(self, tmp_path):
        import numpy as np

        from repro.exceptions import ValidationError
        from repro.grid.sharded import ShardedMaskStore

        cells = self._cells()
        store = ShardedMaskStore.build(cells, tmp_path, shard_rows=8)
        files = self._store_files(tmp_path)
        for _, block in self.BAD_BLOCKS:
            with pytest.raises(ValidationError):
                store.append_rows(np.array(block), prior_codes=cells.codes)
        assert self._store_files(tmp_path) == files

    def test_build_from_chunks_rejects_bad_codes(self, tmp_path):
        import numpy as np

        from repro.exceptions import ValidationError
        from repro.grid.sharded import ShardedMaskStore

        cells = self._cells()
        ShardedMaskStore.build(cells, tmp_path, shard_rows=8)
        files = self._store_files(tmp_path)
        for _, block in self.BAD_BLOCKS:
            with pytest.raises(ValidationError):
                ShardedMaskStore.build_from_chunks(
                    [np.array(block)], tmp_path, n_ranges=3, shard_rows=8
                )
        assert self._store_files(tmp_path) == files


class TestDetectModelReleasesPool:
    """``detect`` closed the counter's worker pool in a ``finally``;
    ``detect_model`` did not, so a re-mine under a process backend left
    the model's counter holding live workers and shared memory."""

    def test_detect_model_closes_the_counting_pool(self):
        import numpy as np

        from repro.core.detector import SubspaceOutlierDetector
        from repro.core.params import CountingBackend

        data = np.random.default_rng(5).normal(size=(120, 5))
        detector = SubspaceOutlierDetector(
            dimensionality=2, n_ranges=4, n_projections=3,
            method="brute_force", random_state=0,
            counting=CountingBackend(kind="process", n_workers=1, chunk_size=8),
        )
        first = detector.detect(data)
        model = detector.model_
        assert model.counter._pool is None
        again = detector.detect_model(model)
        assert model.counter._pool is None
        assert model.counter.n_parallel_chunks > 0
        assert [p.subspace for p in again.projections] == [
            p.subspace for p in first.projections
        ]


class TestNativeKernelIndexBounds:
    """``native_batch_counts`` handed its flat row indices
    ``dims·φ + range`` to C unchecked: an out-of-range dimension or
    range read past the mask stack (d=4, φ=3: ``dims=[[0, 9]]`` returned
    14 and ``ranges=[[0, 5]]`` 10), and ``ranges=[[-1, 0]]`` returned 9
    where the reference returns 13.  Indices are now checked first."""

    BAD_INDICES = [
        ("dim past d", [[0, 9]], [[0, 1]]),
        ("range past phi", [[0, 1]], [[0, 5]]),
        ("negative range", [[0, 1]], [[-1, 0]]),
        ("negative dim", [[-1, 1]], [[0, 0]]),
        ("float dims", [[0.0, 1.0]], [[0, 0]]),
        ("1-D indices", [0, 1], [0, 0]),
        ("shape mismatch", [[0, 1]], [[0, 0, 0]]),
    ]

    @staticmethod
    def _stack():
        from repro.grid.kernels import pack_codes_block

        codes = np.random.default_rng(3).integers(0, 3, size=(100, 4))
        return pack_codes_block(codes.astype(np.int16), 3).view(np.uint64)

    @pytest.mark.parametrize(
        "dims, ranges",
        [case[1:] for case in BAD_INDICES],
        ids=[case[0] for case in BAD_INDICES],
    )
    def test_out_of_range_indices_raise(self, dims, ranges):
        from repro.exceptions import ValidationError
        from repro.grid import native_batch_counts

        with pytest.raises(ValidationError):
            native_batch_counts(self._stack(), np.array(dims), np.array(ranges))


class TestConformanceGateReachesEveryKernelBranch:
    """The conformance fixture drew only k = 1..3, so the C kernel's
    k = 4 branch (the paper's default k) and its generic k >= 5 loop
    served counts unproven: a kernel adding 1 to every count with
    k >= 4 passed ``verify_kernel``."""

    @pytest.mark.parametrize("min_k", [4, 5])
    def test_kernel_wrong_only_at_high_k_is_refused(self, min_k):
        from repro.grid import batch_counts, verify_kernel
        from repro.grid.backends import BackendConformanceError

        def wrong_at_high_k(stack, dims_arr, rng_arr):
            counts, stats = batch_counts(stack, dims_arr, rng_arr)
            return counts + (dims_arr.shape[1] >= min_k), stats

        with pytest.raises(BackendConformanceError, match=f"k={min_k}"):
            verify_kernel(wrong_at_high_k)


class TestHostileModelPaths:
    """``load_model`` let two hostile paths escape untyped: a file whose
    bytes are not UTF-8 raised a raw ``UnicodeDecodeError`` and a
    directory raised ``IsADirectoryError``.  Both are now a
    ``PersistError`` naming the path."""

    def test_non_utf8_bytes(self, tmp_path):
        from repro.exceptions import PersistError
        from repro.persist import load_model

        path = tmp_path / "model.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(PersistError, match="UTF-8") as err:
            load_model(path)
        assert str(path) in str(err.value)

    def test_directory(self, tmp_path):
        from repro.exceptions import PersistError
        from repro.persist import load_model

        with pytest.raises(PersistError, match="cannot read") as err:
            load_model(tmp_path)
        assert str(tmp_path) in str(err.value)


class TestDoctoredSketchCapacity:
    """The reservoir sketch allocated ``capacity × n_cols`` floats for
    whatever capacity a snapshot stated, so a v2 JSON snapshot saying
    ``"capacity": 10**13`` escaped ``load_model`` as a raw
    ``MemoryError``.  Storage now holds only the rows seen and grows on
    demand, so the stated capacity costs nothing."""

    def test_huge_stated_capacity_loads_and_streams_on(self, tmp_path):
        import json

        from repro.core.detector import SubspaceOutlierDetector
        from repro.model import GridModel
        from repro.persist import load_model, model_payload

        data = np.random.default_rng(3).normal(size=(50, 4))
        live = GridModel.fit(data, n_ranges=4, sketch_size=64)
        SubspaceOutlierDetector(
            dimensionality=2, n_ranges=4, n_projections=3, random_state=0
        ).detect_model(live)
        payload = model_payload(live)
        payload["sketch"]["capacity"] = 10**13
        path = tmp_path / "doctored.json"
        path.write_text(json.dumps(payload))

        loaded = load_model(path)
        sketch = loaded.discretizer.sketch
        assert sketch.capacity == 10**13
        np.testing.assert_array_equal(sketch.rows, live.persistable_sketch().rows)
        assert loaded.score(data).tobytes() == live.score(data).tobytes()
        # Rows arriving later are all kept (n_seen < capacity), and
        # storage grows only to what they need.
        more = np.random.default_rng(4).normal(size=(30, 4))
        sketch.update(more)
        assert sketch.rows.shape == (sketch.n_seen, 4)
        np.testing.assert_array_equal(sketch.rows[-30:], more)
        assert sketch._rows.shape[0] <= 2 * sketch.n_seen


class TestPhiCeiling:
    """Range codes are ``int16``: at φ = 32,769 the top range's code
    wrapped to -32768, and ``GridModel.fit`` failed later with an error
    that blamed the codes, not φ.  The discretizer now refuses φ above
    32,768 when it is built, naming ``n_ranges`` and the ceiling."""

    def test_phi_above_the_int16_ceiling_is_rejected(self):
        from repro.exceptions import ValidationError
        from repro.grid.discretizer import EquiDepthDiscretizer
        from repro.model import GridModel

        with pytest.raises(ValidationError, match="n_ranges must be <= 32768"):
            EquiDepthDiscretizer(32_769)
        data = np.arange(2 * 32_769, dtype=float).reshape(-1, 2)
        with pytest.raises(ValidationError, match="n_ranges"):
            GridModel.fit(data, n_ranges=32_769)

    def test_phi_at_the_ceiling_still_fits(self):
        from repro.grid.discretizer import EquiDepthDiscretizer

        data = np.arange(2 * 32_768, dtype=float).reshape(-1, 1)
        codes = EquiDepthDiscretizer(32_768).fit_transform(data).codes
        assert (codes.min(), codes.max()) == (0, 32_767)


def _nan_parameters():
    from repro.core.params import CountingBackend
    from repro.run.controller import RunController
    from repro.search.best_set import BestProjectionSet
    from repro.search.evolutionary.config import EvolutionaryConfig

    nan = math.nan
    return {
        "RunController.max_seconds": lambda: RunController(max_seconds=nan),
        "EvolutionaryConfig.max_seconds": (
            lambda: EvolutionaryConfig(max_seconds=nan)
        ),
        "CountingBackend.timeout": lambda: CountingBackend(timeout=nan),
        "CountingBackend.retry_backoff": (
            lambda: CountingBackend(retry_backoff=nan)
        ),
        "BestProjectionSet.threshold": (
            lambda: BestProjectionSet(None, threshold=nan)
        ),
    }


class TestNanParameters:
    """NaN slipped past five ``<=`` / ``<`` checks (every comparison
    with NaN is false): a NaN time budget read as exhausted at once, and
    a NaN threshold made an unbounded best set keep every cube.  All
    five now go through ``check_in_range``, which rejects NaN."""

    @pytest.mark.parametrize("name", sorted(_nan_parameters()))
    def test_nan_is_rejected(self, name):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError, match="NaN"):
            _nan_parameters()[name]()


class TestCliValuesReachValidation:
    """``--phi 0`` was replaced by the dataset's default φ (``args.phi
    or ...``), and the ``--count-*`` values were never validated unless
    ``--count-backend process`` was given.  Each now exits 2."""

    @pytest.mark.parametrize(
        "extra",
        [
            ["--phi", "0"],
            ["--count-workers", "0"],
            ["--count-chunk-size", "0"],
            ["--count-timeout", "-1"],
        ],
        ids=lambda extra: extra[0],
    )
    def test_invalid_value_exits_2(self, extra, capsys):
        from repro.cli import main

        argv = ["detect", "--dataset", "machine", "-k", "2",
                "--method", "brute_force", *extra]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err


def _unhashable_lookups():
    from repro.core.detector import SubspaceOutlierDetector
    from repro.core.params import CountingBackend
    from repro.engine.events import InMemoryEventSink, emit_event
    from repro.engine.registry import create_engine
    from repro.grid.backends import canonical_backend

    name = ["x"]
    return {
        "detector.method": (
            lambda: SubspaceOutlierDetector(method=name), "evolutionary"
        ),
        "create_engine": (lambda: create_engine(name, None, 2), "brute_force"),
        "CountingBackend.kind": (lambda: CountingBackend(kind=name), "process"),
        "canonical_backend": (lambda: canonical_backend(name), "serial"),
        "emit_event": (
            lambda: emit_event(InMemoryEventSink(), name), "run_started"
        ),
    }


class TestUnhashableNames:
    """A list given where a name is looked up in a fixed table escaped
    as ``TypeError: unhashable type`` from the lookup itself.  Every
    table now raises a ``ValidationError`` that lists its names."""

    @pytest.mark.parametrize("case", sorted(_unhashable_lookups()))
    def test_non_str_name_lists_valid_names(self, case):
        from repro.exceptions import ValidationError

        build, listed = _unhashable_lookups()[case]
        with pytest.raises(ValidationError, match=listed):
            build()


class TestMultikCountingOptions:
    """``multik`` built its detectors without ``counting=``, so every
    ``--count-*`` option was ignored: ``--count-workers 0`` exited 0 and
    ``--count-backend process`` counted serially."""

    ARGV = ["multik", "--dataset", "machine", "--ks", "2", "3",
            "--method", "brute_force", "--count-backend", "process"]

    def test_invalid_count_option_exits_2(self, capsys):
        from repro.cli import main

        assert main([*self.ARGV, "--count-workers", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_process_pool_counts_every_k(self, capsys):
        import json

        from repro.cli import main

        argv = [*self.ARGV, "--count-workers", "2",
                "--count-chunk-size", "32", "--output", "json"]
        assert main(argv) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert sorted(results) == ["2", "3"]
        for k, result in results.items():
            assert result["stats"]["counter_stats"]["parallel_chunks"] > 0, k

    def test_resume_with_other_workers_loads_completed_ks(
        self, tmp_path, caplog
    ):
        import logging

        from repro.core.multik import detect_across_dimensionalities
        from repro.core.params import CountingBackend
        from repro.run.controller import RunController

        data = np.random.default_rng(0).normal(size=(300, 5))
        kwargs = {"n_ranges": 4, "n_projections": 3, "method": "brute_force"}

        def sweep(n_workers, resume):
            return detect_across_dimensionalities(
                data,
                [1, 2],
                counting=CountingBackend(n_workers=n_workers),
                detector_kwargs=kwargs,
                controller=RunController(checkpoint_dir=tmp_path),
                resume=resume,
            )

        first = sweep(1, resume=False)
        with caplog.at_level(logging.INFO, logger="repro.core.multik"):
            resumed = sweep(2, resume=True)
        loaded = [r for r in caplog.records if "loaded completed" in r.message]
        assert len(loaded) == 2
        for k in (1, 2):
            assert [p.subspace for p in resumed.results[k].projections] == [
                p.subspace for p in first.results[k].projections
            ]


class TestMultikRunIdentity:
    """``detect_across_dimensionalities`` fingerprinted every raw
    ``detector_kwargs`` value, so a sweep resumed with another
    ``shard_rows`` or another ``EvolutionaryConfig(max_seconds=)``
    raised ``CheckpointError: stale checkpoint 'result_k1': manifest
    mismatch on params``.  The sweep now takes the detector's own run
    identity: placement and budget changes resume, trajectory changes
    (the selection, engine options and discretizer included) are still
    stale."""

    @staticmethod
    def _sweep(tmp_path, kwargs, resume, seed=0):
        from repro.core.multik import detect_across_dimensionalities
        from repro.run.controller import RunController

        data = np.random.default_rng(seed).normal(size=(300, 5))
        return detect_across_dimensionalities(
            data,
            [1, 2],
            detector_kwargs=kwargs,
            controller=RunController(checkpoint_dir=tmp_path / "ckpt"),
            resume=resume,
        )

    def _assert_resumes(self, tmp_path, caplog, first_kwargs, second_kwargs):
        import logging

        first = self._sweep(tmp_path, first_kwargs, resume=False)
        with caplog.at_level(logging.INFO, logger="repro.core.multik"):
            resumed = self._sweep(tmp_path, second_kwargs, resume=True)
        loaded = [r for r in caplog.records if "loaded completed" in r.message]
        assert len(loaded) == 2
        for k in (1, 2):
            assert [p.subspace for p in resumed.results[k].projections] == [
                p.subspace for p in first.results[k].projections
            ]

    def test_resume_with_other_shard_rows(self, tmp_path, caplog):
        base = {"n_ranges": 4, "n_projections": 3, "method": "brute_force",
                "mmap_dir": tmp_path / "masks"}
        self._assert_resumes(
            tmp_path, caplog, {**base, "shard_rows": 64}, {**base, "shard_rows": 128}
        )

    def test_resume_with_other_time_budget(self, tmp_path, caplog):
        from repro.search.evolutionary.config import EvolutionaryConfig

        def kwargs(max_seconds):
            config = EvolutionaryConfig(
                population_size=12, max_generations=3, max_seconds=max_seconds
            )
            return {"n_ranges": 4, "n_projections": 3, "config": config,
                    "random_state": 0}

        self._assert_resumes(tmp_path, caplog, kwargs(5), kwargs(9))

    def test_other_data_is_stale(self, tmp_path):
        """The sweep manifest held no data digest: a sweep checkpointed on
        one matrix and resumed on another loaded the first one's ks."""
        from repro.exceptions import CheckpointError

        kwargs = {"n_ranges": 4, "n_projections": 3, "method": "brute_force"}
        self._sweep(tmp_path, kwargs, resume=False)
        with pytest.raises(CheckpointError, match="stale"):
            self._sweep(tmp_path, kwargs, resume=True, seed=1)

    def test_trajectory_change_is_still_stale(self, tmp_path):
        from repro.exceptions import CheckpointError

        kwargs = {"n_ranges": 4, "n_projections": 3, "method": "brute_force"}
        self._sweep(tmp_path, kwargs, resume=False)
        with pytest.raises(CheckpointError, match="manifest mismatch"):
            self._sweep(tmp_path, {**kwargs, "n_projections": 4}, resume=True)

    @pytest.mark.parametrize(
        "first, second",
        [
            ({"selection": TournamentSelection(2)},
             {"selection": TournamentSelection(3)}),
            ({"engine_options": {"max_evaluations": 5000}},
             {"engine_options": {"max_evaluations": 10000}}),
            ({"discretizer": EquiDepthDiscretizer(4)},
             {"discretizer": EquiWidthDiscretizer(4)}),
        ],
        ids=["selection", "engine_options", "discretizer"],
    )
    def test_operator_change_is_still_stale(self, tmp_path, first, second):
        from repro.exceptions import CheckpointError

        kwargs = {"n_ranges": 4, "n_projections": 3, "method": "brute_force"}
        self._sweep(tmp_path, {**kwargs, **first}, resume=False)
        with pytest.raises(CheckpointError, match="manifest mismatch"):
            self._sweep(tmp_path, {**kwargs, **second}, resume=True)


class TestGaResumeSelectionIdentity:
    """A GA detect's checkpoint identity left out ``selection``: a run
    killed after 3 boundaries and resumed with another tournament size
    resumed silently and returned cubes of neither selection."""

    def test_resume_with_other_selection_is_stale(self, tmp_path):
        from repro import SubspaceOutlierDetector
        from repro.exceptions import CheckpointError
        from repro.run.cancel import CancelAfterBoundaries
        from repro.run.controller import RunController
        from repro.search.evolutionary.config import EvolutionaryConfig

        data = np.random.default_rng(0).normal(size=(400, 6))

        def detect(selection, controller, resume):
            return SubspaceOutlierDetector(
                2, 4, 3,
                config=EvolutionaryConfig(population_size=20, max_generations=10),
                selection=selection, random_state=0, controller=controller,
            ).detect(data, resume=resume)

        killed = RunController(
            checkpoint_dir=tmp_path, token=CancelAfterBoundaries(3)
        )
        assert detect(TournamentSelection(2), killed, False).cancelled
        with pytest.raises(CheckpointError, match="stale"):
            detect(
                TournamentSelection(3), RunController(checkpoint_dir=tmp_path), True
            )


class TestMalformedGaResume:
    """A GA checkpoint's population was rebuilt string by string with
    only a gene ``>= -1`` check: a ragged row or a range off the grid
    resumed silently and searched on, and a fitness list of another
    length escaped as numpy's bare ``ValueError`` from the selection.
    The restored population is now validated as a gene matrix over the
    run's grid (gene below ``*`` and wrong width stay rejected)."""

    D, PHI = 6, 4

    def _state(self, population, fitnesses=None):
        from repro.run.checkpoint import encode_rng_state
        from repro.search.best_set import BestProjectionSet

        return {
            "algorithm": "evolutionary",
            "restart": 0,
            "generation": 1,
            "population": population,
            "fitnesses": fitnesses or [0.0] * len(population),
            "stall": 0,
            "accepted_seen": 0,
            "rng_state": encode_rng_state(
                np.random.default_rng(0).bit_generator.state
            ),
            "evaluations": 0,
            "best_set": BestProjectionSet(5).to_state(),
            "total_generations": 0,
            "n_converged": 0,
            "elapsed_seconds": 0.0,
            "history": [],
        }

    def _resume(self, state):
        from repro.engine.context import RunContext
        from repro.grid.cells import CellAssignment
        from repro.grid.counter import CubeCounter
        from repro.search.evolutionary import EvolutionaryConfig, EvolutionarySearch

        codes = np.random.default_rng(0).integers(0, self.PHI, size=(120, self.D))
        counter = CubeCounter(CellAssignment(codes.astype(np.int16), self.PHI))
        config = EvolutionaryConfig(population_size=4, max_generations=3)
        return EvolutionarySearch(counter, 2, 5, config=config).run(
            context=RunContext(resume_from=state)
        )

    def _rows(self):
        return [[0, 1, -1, -1, -1, -1], [-1, -1, 2, 3, -1, -1],
                [1, -1, -1, 0, -1, -1], [-1, 2, -1, -1, -1, 1]]

    def test_well_formed_population_resumes(self):
        assert self._resume(self._state(self._rows())).stats["generations"] == 3

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda rows: rows[:3] + [[0, -2, -1, -1, -1, -1]],
                         id="gene_below_wildcard"),
            pytest.param(lambda rows: rows[:3] + [[0, 1, -1]], id="ragged_row"),
            pytest.param(lambda rows: [row + [-1] for row in rows], id="wrong_width"),
            pytest.param(lambda rows: rows[:3] + [[0, 9, -1, -1, -1, -1]],
                         id="range_off_the_grid"),
        ],
    )
    def test_corrupt_population_raises_repro_error(self, corrupt):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            self._resume(self._state(corrupt(self._rows())))

    @pytest.mark.parametrize(
        "fitnesses", [[0.0, 1.0], ["x"] * 4, [[0.0]] * 4], ids=["short", "text", "nested"]
    )
    def test_malformed_fitnesses_raise_repro_error(self, fitnesses):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            self._resume(self._state(self._rows(), fitnesses=fitnesses))

    COUNTERS = ("evaluations", "total_generations", "n_converged",
                "elapsed_seconds", "restart", "generation", "stall",
                "accepted_seen")

    @pytest.mark.parametrize(
        "field,value",
        [(field, value) for field in COUNTERS for value in ("x", None, [1])]
        + [(field, float("inf")) for field in COUNTERS if field != "elapsed_seconds"],
    )
    def test_malformed_counter_raises_validation_error(self, field, value):
        """The counters were read with bare ``int()``/``float()``: a
        ``"stall": "x"`` escaped as a raw ``ValueError``."""
        from repro.exceptions import ValidationError

        state = self._state(self._rows())
        state[field] = value
        with pytest.raises(ValidationError, match=repr(field)):
            self._resume(state)

    def test_missing_counter_raises_validation_error(self):
        from repro.exceptions import ValidationError

        state = self._state(self._rows())
        del state["stall"]
        with pytest.raises(ValidationError, match="'stall'"):
            self._resume(state)
