"""Differential lockdown for the engine-protocol refactor.

The golden files in ``tests/golden/engine_refactor/`` were generated by
the pre-refactor search path (PR 3) with fixed seeds; these tests prove
the :class:`~repro.engine.protocol.SearchEngine` port reproduces them
bit-identically — projections, outliers, coverage, and every
deterministic stats value.  Kill-and-resume scenarios re-check the
PR-2/PR-3 guarantee through the new protocol: a run cancelled at any
safe boundary and resumed from its checkpoint converges to the same
golden result as an uninterrupted run.

Comparison semantics: volatile stats (timings, counter/backend
telemetry) were scrubbed at generation time; the refactor may *add*
stats keys (the ``events`` tally) but must preserve every golden key
and value, so the assertion is "golden keys ⊆ new keys, golden values
match exactly".
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.detector import SubspaceOutlierDetector
from repro.core.multik import detect_across_dimensionalities
from repro.persist import result_to_dict
from repro.run.cancel import CancelAfterBoundaries
from repro.run.controller import RunController
from repro.search.evolutionary.config import EvolutionaryConfig

# The generator module is the single source of truth for the scenario
# data, seeds, and scrub semantics; load it from its file so the goldens
# can never drift from the comparison code.
_GENERATOR = Path(__file__).parent / "golden" / "generate_engine_golden.py"
_spec = importlib.util.spec_from_file_location("generate_engine_golden", _GENERATOR)
_gold = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_gold)

CONFIG = EvolutionaryConfig(population_size=30, max_generations=15)


@pytest.fixture(scope="module")
def data():
    return _gold.make_data()


def load_golden(name: str) -> dict:
    return json.loads((_gold.GOLDEN_DIR / f"{name}.json").read_text())


def assert_result_matches(golden: dict, payload: dict) -> None:
    """Golden keys/values must survive; additive stats keys are allowed."""
    # Normalize the fresh payload exactly like the generator did.
    payload = json.loads(json.dumps(_gold.scrub_result(dict(payload))))
    golden_stats = golden["stats"]
    new_stats = payload["stats"]
    assert set(golden_stats["_stats_keys"]) <= set(new_stats["_stats_keys"])
    for key, value in golden_stats.items():
        if key == "_stats_keys":
            continue
        assert new_stats[key] == value, f"stats[{key!r}] diverged"
    for key, value in golden.items():
        if key == "stats":
            continue
        assert payload[key] == value, f"result[{key!r}] diverged"


class TestGoldenBitIdentity:
    def test_evolutionary(self, data):
        detector = SubspaceOutlierDetector(
            dimensionality=3, n_ranges=5, n_projections=10,
            method="evolutionary", config=CONFIG, random_state=0,
        )
        assert_result_matches(
            load_golden("evolutionary"), result_to_dict(detector.detect(data))
        )

    def test_brute_force_uncheckpointed(self, data):
        detector = SubspaceOutlierDetector(
            dimensionality=2, n_ranges=5, n_projections=10,
            method="brute_force", random_state=0,
        )
        assert_result_matches(
            load_golden("brute_force_level_batch"),
            result_to_dict(detector.detect(data)),
        )

    def test_brute_force_level_batch(self, data, tmp_path):
        detector = SubspaceOutlierDetector(
            dimensionality=2, n_ranges=5, n_projections=10,
            method="brute_force", random_state=0,
            controller=RunController(checkpoint_dir=tmp_path / "bf_ckpt"),
        )
        assert_result_matches(
            load_golden("brute_force_level_batch"),
            result_to_dict(detector.detect(data)),
        )

    def test_evolutionary_checkpointed(self, data, tmp_path):
        detector = SubspaceOutlierDetector(
            dimensionality=3, n_ranges=5, n_projections=10,
            method="evolutionary", config=CONFIG, random_state=7,
            controller=RunController(checkpoint_dir=tmp_path / "evo_ckpt"),
        )
        assert_result_matches(
            load_golden("evolutionary_checkpointed"),
            result_to_dict(detector.detect(data)),
        )

    def test_multik(self, data):
        golden = load_golden("multik")
        outcome = detect_across_dimensionalities(
            data,
            [1, 2],
            detector_kwargs={
                "n_ranges": 5,
                "n_projections": 8,
                "method": "evolutionary",
                "config": CONFIG,
                "random_state": 3,
            },
        )
        assert outcome.stopped_reason == golden["stopped_reason"]
        assert sorted(golden["results"]) == [
            str(k) for k in outcome.dimensionalities
        ]
        for k, result in outcome.results.items():
            assert_result_matches(
                golden["results"][str(k)], result_to_dict(result)
            )


class TestKillAndResume:
    """A kill at any boundary + resume must land on the same golden."""

    @pytest.mark.parametrize("kill_after", [1, 4, 9])
    def test_evolutionary_resume_bit_identical(self, data, tmp_path, kill_after):
        ckpt = tmp_path / "evo_ckpt"
        killed = SubspaceOutlierDetector(
            dimensionality=3, n_ranges=5, n_projections=10,
            method="evolutionary", config=CONFIG, random_state=7,
            controller=RunController(
                checkpoint_dir=ckpt, token=CancelAfterBoundaries(kill_after)
            ),
        )
        partial = killed.detect(data)
        assert partial.stats["stopped_reason"] == "cancelled"

        resumed = SubspaceOutlierDetector(
            dimensionality=3, n_ranges=5, n_projections=10,
            method="evolutionary", config=CONFIG, random_state=7,
            controller=RunController(checkpoint_dir=ckpt),
        )
        result = resumed.detect(data, resume=True)
        assert_result_matches(
            load_golden("evolutionary_checkpointed"), result_to_dict(result)
        )

    @pytest.mark.parametrize("kill_after", [1])
    def test_brute_force_resume_bit_identical(self, data, tmp_path, kill_after):
        ckpt = tmp_path / "bf_ckpt"
        killed = SubspaceOutlierDetector(
            dimensionality=2, n_ranges=5, n_projections=10,
            method="brute_force", random_state=0,
            controller=RunController(
                checkpoint_dir=ckpt, token=CancelAfterBoundaries(kill_after)
            ),
        )
        partial = killed.detect(data)
        assert partial.stats["stopped_reason"] == "cancelled"

        resumed = SubspaceOutlierDetector(
            dimensionality=2, n_ranges=5, n_projections=10,
            method="brute_force", random_state=0,
            controller=RunController(checkpoint_dir=ckpt),
        )
        result = resumed.detect(data, resume=True)
        assert_result_matches(
            load_golden("brute_force_level_batch"), result_to_dict(result)
        )


class TestCounterAccounting:
    """The golden files scrub ``counter_stats``; pin its figures.

    The optimized crossover counts each stage's partial cubes through
    ``count_cubes`` (one call per k) instead of one ``count()`` per
    cube; ``count_calls`` equals the figure of the per-cube path.
    """

    def test_evolutionary_memo_figures(self, data):
        detector = SubspaceOutlierDetector(
            dimensionality=3, n_ranges=5, n_projections=10,
            method="evolutionary", config=CONFIG, random_state=0,
        )
        stats = detector.detect(data).stats
        counter_stats = stats["counter_stats"]
        assert stats["evaluations"] == 1911
        assert counter_stats["count_calls"] == 1911
