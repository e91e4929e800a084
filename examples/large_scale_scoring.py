"""Scaling beyond the paper: fit on a sample, score a large stream.

The paper's datasets top out at a few thousand records, but the method
scales naturally: the grid and the mined projections are a compact
model, so you can

1. fit the detector on a manageable reference sample (the counter's
   bit-packed masks hold one bit per point per range),
2. persist the model, and
3. score arbitrarily many new records in chunks — each chunk is one
   discretizer transform plus a handful of vectorized cube-membership
   checks.

This example fits on 5,000 reference profiles and scores 200,000
streamed records (with planted anomalies sprinkled in) in chunks.

Run:  python examples/large_scale_scoring.py
"""

import time

import numpy as np

from repro import EvolutionaryConfig, SubspaceOutlierDetector


N_REFERENCE = 5_000
N_STREAM = 200_000
N_DIMS = 24
CHUNK = 20_000


def make_reference(rng) -> np.ndarray:
    """Reference sample: dims 0-1 and 2-3 strongly correlated."""
    data = rng.normal(size=(N_REFERENCE, N_DIMS))
    for a, b in ((0, 1), (2, 3)):
        latent = rng.normal(size=N_REFERENCE)
        data[:, a] = latent + rng.normal(scale=0.12, size=N_REFERENCE)
        data[:, b] = latent + rng.normal(scale=0.12, size=N_REFERENCE)
    return data


def make_stream(rng, reference) -> tuple[np.ndarray, np.ndarray]:
    """A big stream from the same process + 200 planted anomalies."""
    stream = rng.normal(size=(N_STREAM, N_DIMS))
    for a, b in ((0, 1), (2, 3)):
        latent = rng.normal(size=N_STREAM)
        stream[:, a] = latent + rng.normal(scale=0.12, size=N_STREAM)
        stream[:, b] = latent + rng.normal(scale=0.12, size=N_STREAM)
    planted = rng.choice(N_STREAM, size=200, replace=False)
    for i, row in enumerate(planted):
        a, b = ((0, 1), (2, 3))[i % 2]
        stream[row, a] = np.quantile(reference[:, a], 0.03)
        stream[row, b] = np.quantile(reference[:, b], 0.97)
    return stream, np.sort(planted)


def main() -> None:
    rng = np.random.default_rng(21)
    reference = make_reference(rng)
    stream, planted = make_stream(rng, reference)

    # For reference-vs-stream scoring, keep the *empty* reference cubes
    # too (require_nonempty=False): a region no reference point ever
    # visits is exactly where a new anomaly will land.  The threshold
    # keeps only near-empty cubes (the empty-cube bound here is -11.95).
    t0 = time.perf_counter()
    detector = SubspaceOutlierDetector(
        dimensionality=2,
        n_ranges=6,
        n_projections=None,
        threshold=-11.0,
        require_nonempty=False,
        config=EvolutionaryConfig(
            population_size=60, max_generations=60, restarts=4
        ),
        random_state=0,
    )
    detector.detect(reference)
    fit_seconds = time.perf_counter() - t0
    print(f"fitted on {N_REFERENCE:,} reference rows in {fit_seconds:.2f}s "
          f"({len(detector.result_.projections)} projections, "
          f"best {detector.result_.best_coefficient:.2f})")

    t0 = time.perf_counter()
    flagged: list[int] = []
    for start in range(0, N_STREAM, CHUNK):
        chunk = stream[start : start + CHUNK]
        scores = detector.score(chunk)
        hit = ~np.isnan(scores) & (scores <= -11.0)
        flagged.extend((start + np.nonzero(hit)[0]).tolist())
    score_seconds = time.perf_counter() - t0
    rate = N_STREAM / score_seconds
    print(f"scored {N_STREAM:,} streamed rows in {score_seconds:.2f}s "
          f"({rate:,.0f} rows/s), {len(flagged)} flagged "
          f"({len(flagged) / N_STREAM:.2%})")

    hits = len(set(flagged) & set(planted.tolist()))
    print(f"planted anomalies recovered: {hits}/{len(planted)} "
          f"({hits / len(planted):.0%})")


if __name__ == "__main__":
    main()
