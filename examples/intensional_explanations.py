"""Intensional knowledge: the *minimal* reason a record is abnormal.

The paper contrasts its method with Knorr & Ng's notion of intensional
knowledge — explaining an outlier by the smallest attribute subsets in
which it deviates.  `repro.minimal_abnormal_subspaces` provides that
drill-down under the sparsity-coefficient measure: anchored at one
point, it sweeps cube dimensionalities level-wise and returns only the
minimal abnormal cubes (no returned explanation contains a smaller one).

This example runs it on the arrhythmia stand-in's recording-error
record (height 780 cm, weight 6 kg) and on a planted rare-class record,
then persists the detector's model and re-scores the data from the
saved file — the full production workflow.

Run:  python examples/intensional_explanations.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    EvolutionaryConfig,
    SubspaceOutlierDetector,
    load_model,
    minimal_abnormal_subspaces,
    save_model,
)
from repro.data import load_dataset
from repro.grid.counter import CubeCounter
from repro.grid.discretizer import EquiDepthDiscretizer


def main() -> None:
    dataset = load_dataset("arrhythmia")
    phi = int(dataset.metadata["phi"])
    cells = EquiDepthDiscretizer(phi).fit_transform(
        dataset.values, feature_names=dataset.feature_names
    )
    counter = CubeCounter(cells)

    # 1. Minimal abnormal subspaces of the famous recording error.
    error_row = dataset.metadata["recording_error_row"]
    print(f"record {error_row} (height "
          f"{dataset.values[error_row, 2]:.0f} cm, weight "
          f"{dataset.values[error_row, 3]:.0f} kg):")
    for projection in minimal_abnormal_subspaces(
        error_row, counter, threshold=-3.0, max_dimensionality=2
    )[:5]:
        print(f"  {projection.describe(dataset.feature_names)}")

    # 2. Same drill-down for a planted rare-class record.
    rare_row = int(dataset.planted_outliers[0])
    print(f"\nrare-class record {rare_row} "
          f"(class {int(dataset.labels[rare_row])}):")
    for projection in minimal_abnormal_subspaces(
        rare_row, counter, threshold=-3.0, max_dimensionality=2
    )[:5]:
        print(f"  {projection.describe(dataset.feature_names)}")

    # 3. Production workflow: fit, save, reload, score.
    detector = SubspaceOutlierDetector(
        dimensionality=2,
        n_ranges=phi,
        n_projections=None,
        threshold=-3.0,
        config=EvolutionaryConfig(
            population_size=80, max_generations=50, restarts=5
        ),
        random_state=0,
    )
    detector.detect(dataset.values, feature_names=dataset.feature_names)

    with tempfile.TemporaryDirectory() as tmp:
        path = save_model(detector, Path(tmp) / "arrhythmia_model")
        model = load_model(path)
        scores = model.score(dataset.values)
        flagged = int(np.sum(~np.isnan(scores)))
        print(f"\nmodel saved ({path.stat().st_size} bytes), reloaded, and "
              f"re-scored: {flagged} records covered by "
              f"{len(model.projections)} stored projections")
        live = detector.score(dataset.values)
        assert np.allclose(scores, live, equal_nan=True)
        print("saved-model scores identical to the live detector — OK")


if __name__ == "__main__":
    main()
