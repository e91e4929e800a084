"""The four seeded, paper-shaped workloads of the pipeline benchmark.

Every workload is a closed loop with one client: the next op starts when
the previous one returns.  A run generates its inputs from the seed
(untimed), times ``SETUP_REPS`` set-ups, then runs rounds of ops until
its time budget is spent, checking every op's output outside the timed
regions.  Only the public API is driven: ``SubspaceOutlierDetector``
``detect``/``detect_model``, ``GridModel`` ``fit``/``update``/``rebin``/
``score`` and ``persist.save_model``/``load_model``.

The seed feeds two things only: the input generators
(``correlated_block_data`` + ``plant_rare_combinations``) and the GA
``random_state`` sequence ``seed + 1, seed + 2, ...``.

Gated times are speed-normalised.  On a shared machine the speed the
process gets drifts by 10-25% over minutes, far more than the bounds a
benchmark needs.  So a fixed pure-Python loop (:func:`speed_probe`) runs
``PROBE_REPS`` times before and after every set-up and op, and each
time is scaled by ``PROBE_NOMINAL_S`` over the median of the probes
around it: it reads as seconds on a machine where the probe takes
``PROBE_NOMINAL_S``.  The raw times stay in the report.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import (
    CountingBackend,
    PackedCubeCounter,
    SubspaceOutlierDetector,
    persist,
    sparsity_coefficient,
)
from repro.data import correlated_block_data, plant_rare_combinations
from repro.model import GridModel

import tracing

OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_REPS = 3
N_BLOCKS = 4
N_PLANTED = 50
N_RANGES = 10
N_PROJECTIONS = 20

#: Rounds every run completes whatever its budget; the result digest
#: covers exactly these, so runs of one seed always digest the same ops.
MIN_ROUNDS = 2

#: Display unit of each timed region's detail percentiles.
REGION_UNITS = {"detect": "s", "search": "s", "score": "ms", "update": "ms",
                "refresh": "s"}

PROBE_REPS = 3
#: The probe's typical time on the 2-core machine the baseline in
#: README.md was measured on, so normalised times read close to raw ones.
PROBE_NOMINAL_S = 0.015


def generate(n_points: int, n_dims: int, rng) -> np.ndarray:
    """Correlated 2-d blocks plus noise dims, with planted rare combinations."""
    data, blocks = correlated_block_data(
        n_points, n_dims, N_BLOCKS, random_state=rng
    )
    plant_rare_combinations(data, blocks, N_PLANTED, random_state=rng)
    return data


def mined(result) -> list:
    """The ``(dims, ranges, count)`` tuples a detection mined, in order."""
    return [
        [list(p.subspace.dims), list(p.subspace.ranges), int(p.count)]
        for p in result.projections
    ]


def check_projections(detector, result) -> list[str]:
    """Recount every mined cube from the grid codes and recompute Eq. 1."""
    codes = detector.cells_.codes
    problems = []
    for p in result.projections:
        dims = list(p.subspace.dims)
        ranges = np.asarray(p.subspace.ranges, dtype=codes.dtype)
        count = int(np.count_nonzero(np.all(codes[:, dims] == ranges, axis=1)))
        coefficient = sparsity_coefficient(
            count, codes.shape[0], detector.n_ranges, len(dims)
        )
        if count != p.count or coefficient != p.coefficient:
            problems.append(
                f"cube {dims}/{list(p.subspace.ranges)}: reported "
                f"({p.count}, {p.coefficient!r}), recounted "
                f"({count}, {coefficient!r})"
            )
    return problems


def search_stats(result) -> dict:
    """Per-op counters the traced run reads from ``result.stats``."""
    stats = result.stats
    counter = stats["counter_stats"]
    extras = {"cache_hits": counter["cache_hits"],
              "count_calls": counter["count_calls"]}
    if str(stats.get("algorithm", "")).startswith("evolutionary"):
        extras["generations"] = stats["generations"]
        extras["evaluations"] = stats["evaluations"]
    return extras


class Clock:
    """Times an op's regions; while tracing, opens a tracer region too."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.tracer: tracing.Tracer | None = None
        self.op_id = 0
        self.op_seconds = 0.0

    @contextmanager
    def timed(self, region: str):
        tracer = self.tracer
        if tracer is not None:
            tracer.begin(self.op_id, region)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.end()
            self.samples[region].append(elapsed)
            self.op_seconds += elapsed


class GAWorkload:
    """One op = one ``detect()`` on library defaults: GA, bool masks, serial."""

    region = "detect"
    ops_per_round = 1

    def __init__(self, seed: int, *, n_points: int, n_dims: int,
                 dimensionality: int) -> None:
        self.seed = seed
        self.k = dimensionality
        self.data = generate(n_points, n_dims, np.random.default_rng(seed))
        self.setup_mined: list = []

    def detector(self, op_id: int) -> SubspaceOutlierDetector:
        return SubspaceOutlierDetector(
            dimensionality=self.k, n_ranges=N_RANGES,
            n_projections=N_PROJECTIONS, random_state=self.seed + 1 + op_id,
        )

    def setup(self) -> None:
        GridModel.fit(self.data, n_ranges=N_RANGES).close()

    def start_round(self) -> None:
        pass

    def op(self, op_id: int, clock: Clock):
        detector = self.detector(op_id)
        with clock.timed(self.region):
            result = detector.detect(self.data)
        extras = search_stats(result)
        extras["mask_bytes"] = detector.counter_.mask_memory_bytes()
        return check_projections(detector, result), mined(result), extras


class BruteForceWorkload(GAWorkload):
    """Level-batched brute force on the packed native kernel."""

    region = "search"

    def __init__(self, seed: int, **sizes) -> None:
        super().__init__(seed, **sizes)
        self.first: list | None = None

    def detector(self, op_id: int) -> SubspaceOutlierDetector:
        return SubspaceOutlierDetector(
            dimensionality=self.k, n_ranges=N_RANGES,
            n_projections=N_PROJECTIONS, method="brute_force",
            engine_options={"strategy": "level_batch"}, packed=True,
            counting=CountingBackend(kind="native"),
        )

    def setup(self) -> None:
        GridModel.fit(
            self.data, n_ranges=N_RANGES,
            counter_factory=lambda cells: PackedCubeCounter(
                cells, backend=CountingBackend(kind="native")
            ),
        ).close()

    def op(self, op_id: int, clock: Clock):
        problems, cubes, extras = super().op(op_id, clock)
        # Exhaustive search has no randomness: every op must mine the same.
        if self.first is None:
            self.first = cubes
        elif cubes != self.first:
            problems.append("brute-force result differs from the run's first")
        return problems, cubes, extras


class StreamWorkload:
    """Reads beside writes on one live ``GridModel``.

    One op is a cycle: ``SCORES`` ``model.score`` calls on held-out
    batches, then one ``model.update``.  The last cycle of each round also
    refreshes: ``rebin(force=True)`` + ``detect_model`` + ``save_model`` +
    ``load_model``.  Each round restarts from the set-up model (untimed),
    so update cost stays in the N range of one round however many rounds
    a faster build fits into the budget.
    """

    ops_per_round = 10
    SCORES = 50
    SCORE_ROWS = 200
    UPDATE_ROWS = 1_000

    def __init__(self, seed: int, *, n_points: int, n_dims: int,
                 dimensionality: int) -> None:
        self.seed = seed
        self.k = dimensionality
        n_held_out = self.SCORES * self.SCORE_ROWS
        n_stream = self.ops_per_round * self.UPDATE_ROWS
        data = generate(n_points + n_held_out + n_stream, n_dims,
                        np.random.default_rng(seed))
        self.train = data[:n_points]
        self.batches = np.split(data[n_points:n_points + n_held_out], self.SCORES)
        self.updates = np.split(data[n_points + n_held_out:], self.ops_per_round)
        self.snapshot = OUT_DIR / "model_stream-snapshot.json"
        self.model: GridModel | None = None
        self.setup_mined: list = []
        self.first_refresh: list | None = None

    def detector(self, offset: int) -> SubspaceOutlierDetector:
        return SubspaceOutlierDetector(
            dimensionality=self.k, n_ranges=N_RANGES,
            n_projections=N_PROJECTIONS, random_state=self.seed + offset,
        )

    def setup(self) -> None:
        model = GridModel.fit(self.train, n_ranges=N_RANGES)
        result = self.detector(1).detect_model(model)
        self.setup_projections = result.projections
        self.setup_mined = [mined(result)]

    def start_round(self) -> None:
        if self.model is not None:
            self.model.close()
        self.model = GridModel.fit(self.train, n_ranges=N_RANGES)
        self.model.projections = self.setup_projections

    def op(self, op_id: int, clock: Clock):
        model = self.model
        expected_points = model.n_points + self.UPDATE_ROWS
        for batch in self.batches:
            with clock.timed("score"):
                model.score(batch)
        with clock.timed("update"):
            model.update(self.updates[op_id % self.ops_per_round])
        problems = []
        if model.n_points != expected_points:
            problems.append(
                f"n_points {model.n_points} after update, expected "
                f"{expected_points}"
            )
        extras = {"mask_bytes": model.counter.mask_memory_bytes()}
        if op_id % self.ops_per_round != self.ops_per_round - 1:
            return problems, None, extras
        detector = self.detector(2)
        with clock.timed("refresh"):
            model.rebin(force=True)
            result = detector.detect_model(model)
            persist.save_model(model, self.snapshot)
            loaded = persist.load_model(self.snapshot)
        problems += check_projections(detector, result)
        batch = self.batches[0]
        if not np.array_equal(loaded.score(batch), model.score(batch),
                              equal_nan=True):
            problems.append("loaded model scores differ from the live model's")
        cubes = mined(result)
        # Every round replays the same rows, so every refresh mines the same.
        if self.first_refresh is None:
            self.first_refresh = cubes
        elif cubes != self.first_refresh:
            problems.append("refresh result differs from the run's first")
        extras.update(search_stats(result))
        extras["snapshot_bytes"] = self.snapshot.stat().st_size
        return problems, cubes, extras


#: name -> (workload class, full-size arguments).
WORKLOADS = {
    "ga_paper": (GAWorkload,
                 {"n_points": 50_000, "n_dims": 20, "dimensionality": 4}),
    "ga_scale10": (GAWorkload,
                   {"n_points": 500_000, "n_dims": 20, "dimensionality": 4}),
    "bf_level": (BruteForceWorkload,
                 {"n_points": 50_000, "n_dims": 16, "dimensionality": 3}),
    "model_stream": (StreamWorkload,
                     {"n_points": 50_000, "n_dims": 20, "dimensionality": 4}),
}


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's current speed."""
    start = perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return perf_counter() - start


class Normaliser:
    """Scales consecutive timed spans by the speed probes around each."""

    def __init__(self) -> None:
        self.probes = [[speed_probe() for _ in range(PROBE_REPS)]]

    def scale(self, seconds: float) -> float:
        """Probe now; *seconds* as measured since the previous probe group."""
        before = self.probes[-1]
        after = [speed_probe() for _ in range(PROBE_REPS)]
        self.probes.append(after)
        return seconds * PROBE_NOMINAL_S / statistics.median(before + after)


def run(name: str, seed: int, seconds: float, trace: bool = False,
        **sizes) -> dict:
    """Run workload *name* and return its report.

    *sizes* override the workload's full-size arguments (the smoke test
    shrinks them).  Untraced, the whole budget measures end-to-end
    metrics.  Traced, the first half runs untraced as the overhead
    baseline and the second half runs under the tracer; only the traced
    ops feed the per-layer metrics.
    """
    cls, arguments = WORKLOADS[name]
    workload = cls(seed, **{**arguments, **sizes})
    OUT_DIR.mkdir(exist_ok=True)

    normaliser = Normaliser()
    setup_s, setup_raw = [], []
    for _ in range(SETUP_REPS):
        gc.collect()
        start = perf_counter()
        workload.setup()
        setup_raw.append(perf_counter() - start)
        setup_s.append(normaliser.scale(setup_raw[-1]))

    phases = [None, tracing.Tracer()] if trace else [None]
    min_rounds = MIN_ROUNDS // len(phases)
    budget = seconds / len(phases)
    clock = Clock()
    attempted = failed = 0
    rounds: list[list] = []
    op_raw: list[float] = []
    op_seconds: list[list[float]] = []
    extras: dict[str, list] = defaultdict(list)
    for tracer in phases:
        clock.tracer = tracer
        phase_seconds: list[float] = []
        restore = tracing.install(tracer) if tracer is not None else None
        try:
            start = perf_counter()
            n_rounds = 0
            while n_rounds < min_rounds or perf_counter() - start < budget:
                gc.collect()
                workload.start_round()
                round_mined = []
                for _ in range(workload.ops_per_round):
                    attempted += 1
                    clock.op_seconds = 0.0
                    try:
                        problems, cubes, op_extras = workload.op(
                            clock.op_id, clock
                        )
                    except Exception:  # a failed op is counted; the run goes on
                        traceback.print_exc()
                        problems, cubes, op_extras = ["raised"], None, {}
                        normaliser.scale(0.0)
                    else:
                        op_raw.append(clock.op_seconds)
                        phase_seconds.append(normaliser.scale(clock.op_seconds))
                    if problems:
                        failed += 1
                        print(f"op {clock.op_id} failed: {problems}",
                              file=sys.stderr)
                    if cubes is not None:
                        round_mined.append(cubes)
                    if tracer is not None:
                        for key, value in op_extras.items():
                            extras[key].append(value)
                    clock.op_id += 1
                rounds.append(round_mined)
                n_rounds += 1
        finally:
            if restore is not None:
                restore()
        op_seconds.append(phase_seconds)

    digest = hashlib.sha256(
        json.dumps(workload.setup_mined + rounds[:MIN_ROUNDS]).encode()
    ).hexdigest()
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "result_digest": digest,
    }
    if trace:
        tracer = phases[-1]
        untraced, traced = op_seconds
        overhead = statistics.median(traced) / statistics.median(untraced) - 1
        report["metrics"] = tracing.layer_metrics(
            tracer, len(traced), extras, overhead
        )
        report["trace_file"] = str(tracer.write(OUT_DIR / f"trace-{name}.jsonl"))
        return report
    ops = op_seconds[0]
    report["metrics"] = {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "op_p50_s": (statistics.median(ops), "s", len(ops)),
        "op_mean_s": (statistics.fmean(ops), "s", len(ops)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1
        ),
    }
    # Raw (not speed-normalised) times: reported, never gated.
    detail = {
        "setup_raw_s": (statistics.median(setup_raw), "s", len(setup_raw)),
        "op_p50_raw_s": (statistics.median(op_raw), "s", len(op_raw)),
        "probe_p50_ms": (
            statistics.median(sum(normaliser.probes, [])) * 1000, "ms",
            PROBE_REPS * len(normaliser.probes),
        ),
    }
    for region, samples in clock.samples.items():
        unit = REGION_UNITS[region]
        scale = 1000.0 if unit == "ms" else 1.0
        quantiles = [50] + ([99] if len(samples) >= 1000 else [])
        for q in quantiles:
            detail[f"{region}_p{q}_{unit}"] = (
                float(np.percentile(samples, q)) * scale, unit, len(samples)
            )
    report["detail"] = detail
    report["op_raw_s"] = op_raw
    report["probe_s"] = normaliser.probes
    return report
