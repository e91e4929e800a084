"""Generate the fixed-seed golden results for the engine-refactor differential test.

Run from the repository root::

    PYTHONPATH=src python tests/golden/generate_engine_golden.py

The JSON files written next to this script were produced by the
pre-refactor search path (PR 3); ``tests/test_engine_differential.py``
asserts that the engine-protocol path reproduces them bit-identically.
Volatile stats (wall-clock timings, counter throughput, backend health)
are stripped — everything that is deterministic for a fixed seed is kept.

The GA's best set reaches the floor certificate
(:meth:`~repro.search.best_set.BestProjectionSet.certified`) at
generation 0 on this data.  ``evolutionary_checkpointed`` is the
uninterrupted twin of the kill-and-resume tests, whose kills must land
before the run ends, so it runs with the certificate off, as they do.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).parent / "engine_refactor"

#: Stats keys that legitimately vary run-to-run (timings, telemetry).
VOLATILE_STATS = (
    "elapsed_seconds",
    "total_elapsed_seconds",
    "counter_stats",
    "backend_health",
)


def scrub_stats(stats: dict) -> dict:
    """Drop volatile stats but remember which keys were present."""
    cleaned = {k: v for k, v in stats.items() if k not in VOLATILE_STATS}
    cleaned["_stats_keys"] = sorted(stats)
    return cleaned


def scrub_result(payload: dict) -> dict:
    payload = dict(payload)
    payload["stats"] = scrub_stats(dict(payload.get("stats", {})))
    return payload


def make_data(seed: int = 0, n: int = 160, d: int = 8) -> np.ndarray:
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d))
    # Plant a handful of clear outliers so the mined cubes are stable.
    data[:5] += rng.normal(loc=6.0, scale=0.1, size=(5, d))
    return data


def scenarios():
    import pytest

    from repro.core.detector import SubspaceOutlierDetector
    from repro.core.multik import detect_across_dimensionalities
    from repro.persist import result_to_dict
    from repro.search.best_set import BestProjectionSet
    from repro.search.evolutionary.config import EvolutionaryConfig

    data = make_data()
    config = EvolutionaryConfig(population_size=30, max_generations=15)

    def evolutionary():
        detector = SubspaceOutlierDetector(
            dimensionality=3, n_ranges=5, n_projections=10,
            method="evolutionary", config=config, random_state=0,
        )
        return scrub_result(result_to_dict(detector.detect(data)))

    def brute_force_level_batch(tmp_dir: Path):
        from repro.run.controller import RunController

        detector = SubspaceOutlierDetector(
            dimensionality=2, n_ranges=5, n_projections=10,
            method="brute_force", random_state=0,
            controller=RunController(checkpoint_dir=tmp_dir / "bf_ckpt"),
        )
        return scrub_result(result_to_dict(detector.detect(data)))

    def evolutionary_checkpointed(tmp_dir: Path):
        from repro.run.controller import RunController

        detector = SubspaceOutlierDetector(
            dimensionality=3, n_ranges=5, n_projections=10,
            method="evolutionary", config=config, random_state=7,
            controller=RunController(checkpoint_dir=tmp_dir / "evo_ckpt"),
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(BestProjectionSet, "certified", lambda self: False)
            return scrub_result(result_to_dict(detector.detect(data)))

    def multik():
        outcome = detect_across_dimensionalities(
            data,
            [1, 2],
            detector_kwargs={
                "n_ranges": 5,
                "n_projections": 8,
                "method": "evolutionary",
                "config": config,
                "random_state": 3,
            },
        )
        return {
            "stopped_reason": outcome.stopped_reason,
            "results": {
                str(k): scrub_result(result_to_dict(result))
                for k, result in outcome.results.items()
            },
        }

    return {
        "evolutionary": evolutionary,
        "brute_force_level_batch": brute_force_level_batch,
        "evolutionary_checkpointed": evolutionary_checkpointed,
        "multik": multik,
    }


def main() -> int:
    import inspect
    import tempfile

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, build in scenarios().items():
        with tempfile.TemporaryDirectory() as tmp:
            if inspect.signature(build).parameters:
                payload = build(Path(tmp))
            else:
                payload = build()
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
