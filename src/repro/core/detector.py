"""High-level detector facade: data in, outliers + projections out.

This wires the full pipeline of the paper together:

1. equi-depth grid discretization (§1.3),
2. projection search — evolutionary (Figure 3) or brute force
   (Figure 2),
3. postprocessing (§2.3): the reported outliers ``O`` are the points
   covered by the mined abnormal projections.

Typical use::

    detector = SubspaceOutlierDetector(random_state=7)
    result = detector.detect(data)
    for point, score in result.ranked_outliers():
        print(point, score)

``dimensionality=None`` (the default) applies Equation 2 to pick
``k*`` from N, φ and the target sparsity, as §2.4 recommends.
"""

from __future__ import annotations

import logging
import shutil
import tempfile
import time
import weakref
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from .._validation import check_choice, check_matrix, check_positive_int
from ..engine.context import RunContext
from ..engine.events import CompositeSink, EventSink, emit_event
from ..engine.registry import ENGINES, create_engine
from ..engine.stats import StatsAssemblySink
from ..exceptions import NotFittedError, ResourceError, ValidationError
from ..resilience.ladder import ResilienceReport
from ..grid.counter import CubeCounter
from ..grid.discretizer import EquiDepthDiscretizer, GridDiscretizer
from ..model import GridModel
from ..model.grid_model import RequestScorer
from ..grid.sharded import (
    DEFAULT_SHARD_ROWS,
    ShardCheckpointer,
    ShardedCounter,
    ShardedMaskStore,
)
from ..run.checkpoint import data_fingerprint, params_fingerprint
from ..run.controller import RunController
from ..search.evolutionary.config import EvolutionaryConfig
from ..search.evolutionary.crossover import CrossoverOperator
from ..search.evolutionary.selection import SelectionOperator
from ..search.outcome import SearchOutcome
from .params import CountingBackend, choose_projection_dimensionality
from .results import DetectionResult, ScoredProjection

__all__ = ["SubspaceOutlierDetector"]

logger = logging.getLogger(__name__)


class SubspaceOutlierDetector:
    """Aggarwal-Yu subspace outlier detector.

    Parameters
    ----------
    dimensionality:
        k — projection dimensionality; ``None`` derives ``k*`` via
        Equation 2 at detect time.
    n_ranges:
        φ — equi-depth ranges per attribute (default 10, as in the
        paper's examples).
    n_projections:
        m — number of abnormal projections to mine (paper uses 20).
        May be ``None`` when *threshold* is given, reproducing the
        arrhythmia protocol ("all projections with coefficient ≤ −3").
    method:
        One of the five searches of
        :data:`~repro.engine.registry.ENGINES` — ``"evolutionary"``
        (default), ``"brute_force"``, or the §2.1 ablation searchers
        ``"random"`` / ``"hill_climbing"`` / ``"simulated_annealing"``.
    threshold:
        Optional sparsity-coefficient cutoff for mined projections.
    target_sparsity:
        s in Equation 2; only used when *dimensionality* is None.
    config, crossover, selection, random_state:
        Passed through to the evolutionary engine.
    discretizer:
        Custom :class:`~repro.grid.discretizer.GridDiscretizer`
        (defaults to equi-depth with φ = *n_ranges*).
    max_seconds:
        Wall-clock budget; brute force returns a partial result with
        ``stats["completed"] = 0.0`` when exceeded.
    packed:
        Deprecated no-op, accepted for one release.  The cube counter
        always stores bit-packed masks now.
    mmap_dir:
        Directory for an out-of-core
        :class:`~repro.grid.sharded.ShardedMaskStore`.  When set, the
        packed membership masks are written there in row shards and
        counting streams them back through read-only mmap views
        (:class:`~repro.grid.sharded.ShardedCounter`) — peak counting
        memory becomes one shard plus the batch accumulator, and
        counts stay bit-identical to the in-memory counters.  A
        directory already holding the store for byte-identical data is
        reused, so resumed runs skip the packing pass.  With a
        checkpointing *controller*, per-shard progress of the in-flight
        batch is recorded too, so a killed run resumes mid-dataset.
        See ``docs/scaling.md``.
    shard_rows:
        Rows per mask shard for *mmap_dir* (default
        :data:`~repro.grid.sharded.DEFAULT_SHARD_ROWS`); shard sizing
        trades per-shard overhead against peak memory.
    spill_dir:
        Directory the degradation ladder spills the packed mask store
        to when the in-memory mask stack cannot be allocated
        (``MemoryError``): the run continues out-of-core through a
        :class:`~repro.grid.sharded.ShardedCounter` with bit-identical
        results.  ``None`` (the default) spills to a temporary
        directory removed when the counter is garbage-collected.  The
        downgrade is recorded in ``result.stats["resilience"]`` and
        emitted as a ``degradation_applied`` event.
    verify_shards:
        Verify every mask shard against its manifest checksum before
        counting it (out-of-core runs only).  A corrupt shard is
        quarantined and rebuilt from the in-memory codes; see
        :class:`~repro.grid.sharded.ShardedCounter`.
    counting:
        A :class:`~repro.core.params.CountingBackend` controlling how
        batched cube counts execute (serial in-process by default; a
        ``process`` backend fans batches out to a shared-memory worker
        pool).  Counts and results are identical across backends; the
        pool is released when :meth:`detect` returns.  The counter's
        throughput statistics land in ``result.stats["counter_stats"]``
        either way.
    controller:
        Optional :class:`~repro.run.controller.RunController` tying this
        detector into a run lifecycle: its cancel token is threaded into
        the search and the counting engine (SIGINT/SIGTERM or a
        programmatic flip stops the run at a safe boundary with
        best-so-far results), its remaining wall-clock budget caps the
        search, and — when it has a checkpoint directory — the search
        state is checkpointed at every generation/level boundary so
        ``detect(..., resume=True)`` continues bit-identically after a
        kill.
    event_sink:
        Optional :class:`~repro.engine.events.EventSink` receiving the
        run's typed events (``run_started``, ``generation_end`` /
        ``level_end``, ``chunk_retry``, ``checkpoint_written``,
        ``engine_finished``) — e.g. an
        :class:`~repro.engine.events.InMemoryEventSink` for tests or a
        :class:`~repro.engine.events.JsonlTraceSink` for a trace file.
        Composed with the controller's sink when both are set.
    engine_options:
        Extra keyword arguments for the engine factory (e.g.
        ``{"max_evaluations": 5000}`` for the ablation searchers),
        merged over the detector-derived arguments.  Keywords the
        engine's :data:`~repro.engine.registry.ENGINES` row does not
        accept are dropped silently.

    Attributes (populated by :meth:`detect`)
    ----------------------------------------
    cells_:
        The grid assignment of the last dataset.
    counter_:
        The cube counter built over it.
    outcome_:
        The raw :class:`~repro.search.outcome.SearchOutcome`.
    """

    def __init__(
        self,
        dimensionality: int | None = None,
        n_ranges: int = 10,
        n_projections: int | None = 20,
        *,
        method: str = "evolutionary",
        threshold: float | None = None,
        require_nonempty: bool = True,
        target_sparsity: float = -3.0,
        config: EvolutionaryConfig | None = None,
        crossover: str | CrossoverOperator = "optimized",
        selection: SelectionOperator | None = None,
        discretizer: GridDiscretizer | None = None,
        max_seconds: float | None = None,
        packed: bool = False,
        mmap_dir=None,
        shard_rows: int | None = None,
        spill_dir=None,
        verify_shards: bool = False,
        counting: CountingBackend | None = None,
        random_state=None,
        controller: RunController | None = None,
        event_sink: EventSink | None = None,
        engine_options: Mapping | None = None,
    ):
        if dimensionality is not None:
            dimensionality = check_positive_int(dimensionality, "dimensionality")
        self.dimensionality = dimensionality
        self.n_ranges = check_positive_int(n_ranges, "n_ranges", minimum=2)
        if n_projections is None and threshold is None:
            raise ValidationError(
                "n_projections=None requires a threshold (unbounded mining)"
            )
        self.n_projections = n_projections
        self.method = check_choice(method, ENGINES, "search engine")
        self.threshold = threshold
        self.require_nonempty = require_nonempty
        self.target_sparsity = target_sparsity
        self.config = config
        self.crossover = crossover
        self.selection = selection
        self.discretizer = discretizer
        self.max_seconds = max_seconds
        del packed  # deprecated no-op: masks are always bit-packed
        self.mmap_dir = mmap_dir
        if shard_rows is not None:
            shard_rows = check_positive_int(shard_rows, "shard_rows")
        if shard_rows is not None and mmap_dir is None:
            raise ValidationError("shard_rows requires mmap_dir")
        self.shard_rows = shard_rows
        if spill_dir is not None and mmap_dir is not None:
            raise ValidationError(
                "spill_dir only applies to in-memory counters; mmap_dir "
                "runs are already out-of-core"
            )
        self.spill_dir = spill_dir
        self.verify_shards = bool(verify_shards)
        if counting is not None and not isinstance(counting, CountingBackend):
            raise ValidationError(
                f"counting must be a CountingBackend, got {type(counting).__name__}"
            )
        self.counting = counting
        self.random_state = random_state
        if controller is not None and not isinstance(controller, RunController):
            raise ValidationError(
                f"controller must be a RunController, got "
                f"{type(controller).__name__}"
            )
        self.controller = controller
        self.event_sink = event_sink
        self.engine_options = dict(engine_options) if engine_options else {}

        self.cells_ = None
        self.counter_: CubeCounter | None = None
        self.outcome_: SearchOutcome | None = None
        self.result_: DetectionResult | None = None
        self.discretizer_: GridDiscretizer | None = None
        self.model_: GridModel | None = None
        self._scorer: RequestScorer | None = None

    # ------------------------------------------------------------------
    def detect(
        self,
        data,
        feature_names: Sequence[str] | None = None,
        *,
        resume: bool = False,
    ) -> DetectionResult:
        """Run the full pipeline on *data* and return the result.

        *data* is an ``(N, d)`` float matrix; NaN marks missing values.
        With ``resume=True`` (requires a checkpointing *controller*) the
        search continues from its last boundary checkpoint — after a
        kill mid-run, the resumed result is bit-identical to the run
        never having been interrupted.  A checkpoint written with
        different parameters or data is rejected as stale.
        """
        if resume and (self.controller is None or self.controller.store is None):
            raise ValidationError(
                "resume=True needs a controller with a checkpoint_dir"
            )
        array = check_matrix(data, "data", min_cols=1)
        start = time.perf_counter()

        discretizer = self.discretizer or EquiDepthDiscretizer(self.n_ranges)
        # The sinks are created before the counter so that build-time
        # degradations (e.g. the in-memory → sharded spill on
        # MemoryError) can be emitted.
        stats_sink, sink = self._sinks()
        # All fitted state (grid + cells + counter) lives in a GridModel
        # so the caller can keep updating/merging/rebinning it after
        # this detect call; the model routes counter construction back
        # through the detector's degradation ladder.
        model = GridModel._fit_checked(
            array,
            feature_names=feature_names,
            discretizer=discretizer,
            counter_factory=lambda built: self._build_counter(built, sink),
            event_sink=self.event_sink,
        )
        k = self.resolve_dimensionality(array.shape[0], array.shape[1])
        logger.info(
            "detect: N=%d d=%d phi=%d k=%d method=%s m=%s threshold=%s backend=%s",
            array.shape[0], array.shape[1], self.n_ranges, k, self.method,
            self.n_projections, self.threshold, model.counter.backend.kind,
        )
        result = self._mine(
            model, k, resume, lambda: time.perf_counter() - start,
            stats_sink, sink,
        )
        logger.info(
            "detect done: %d projections (best %.3f), %d outliers, %.3fs%s",
            len(result.projections),
            result.best_coefficient,
            result.n_outliers,
            result.stats["total_elapsed_seconds"],
            "" if self.outcome_.completed
            else f" [INCOMPLETE: {self.outcome_.stopped_reason}]",
        )
        return result

    # ------------------------------------------------------------------
    def detect_model(self, model, *, resume: bool = False) -> DetectionResult:
        """Re-mine projections on an existing :class:`~repro.model.GridModel`.

        The incremental entry point: after ``model.update(...)`` /
        ``model.merge(...)`` / ``model.rebin()`` this runs the search on
        the model's *current* counter without refitting anything.  A
        model built by one-shot batch fit and a model grown to the same
        rows through any update/merge/rebin interleaving hold
        bit-identical counts, so this mines identical projections (the
        invariant ``tests/test_model_incremental.py`` locks).  The mined
        projections are installed on the model (served by
        ``model.score``) and the detector's fitted attributes point at
        the model's state, so ``score``/``save_model`` work as usual.
        """
        if not isinstance(model, GridModel):
            raise ValidationError(
                f"detect_model needs a GridModel, got {type(model).__name__}"
            )
        if model.counter is None:
            raise ValidationError(
                "this model was restored for serving (no mask stacks); "
                "detect_model needs a full model built by GridModel.fit "
                "or detect()"
            )
        if resume and (self.controller is None or self.controller.store is None):
            raise ValidationError(
                "resume=True needs a controller with a checkpoint_dir"
            )
        start = time.perf_counter()
        stats_sink, sink = self._sinks()
        k = self.resolve_dimensionality(model.cells.n_points, model.cells.n_dims)
        return self._mine(
            model, k, resume, lambda: time.perf_counter() - start,
            stats_sink, sink,
        )

    def _sinks(self) -> tuple[StatsAssemblySink, EventSink]:
        """The run's stats sink, and the sink the run emits into.

        The stats sink is always present (it reconstructs the classic
        ``result.stats``); the user's sink — and the controller's,
        inside ``build_context`` — see the same event stream.
        """
        stats_sink = StatsAssemblySink()
        if self.event_sink is None:
            return stats_sink, stats_sink
        return stats_sink, CompositeSink(stats_sink, self.event_sink)

    def _mine(
        self,
        model: GridModel,
        k: int,
        resume: bool,
        elapsed: Callable[[], float],
        stats_sink: StatsAssemblySink,
        sink: EventSink,
    ) -> DetectionResult:
        """Search, postprocess and install the fitted attributes.

        The one mining path of :meth:`detect` and :meth:`detect_model`;
        *elapsed* reads the seconds since the caller's clock started,
        so ``detect``'s ``total_elapsed_seconds`` includes its fit.  The
        counting pool (if a process backend spun one up) is released
        whatever happens; the counter itself stays usable serially.
        """
        cells, counter = model.cells, model.counter
        try:
            outcome = self._run_search(
                counter, k, cells=cells, resume=resume, sink=sink
            )
            result = self._postprocess(
                outcome, counter, k, elapsed(), stats_sink, model=model,
            )
        finally:
            counter.close()
        model.projections = result.projections
        self.cells_ = cells
        self.counter_ = counter
        self.outcome_ = outcome
        self.result_ = result
        self.discretizer_ = model.discretizer
        self.model_ = model
        # The model bound this result's scorer when it took the
        # projections; requests to the detector share it.
        self._scorer = model._scorer
        return result

    # ------------------------------------------------------------------
    def _build_counter(self, cells, sink: EventSink | None = None) -> CubeCounter:
        """The counter for one detect call: in-memory or out-of-core.

        ``mmap_dir`` selects the sharded counter;
        when the controller checkpoints, shard progress is recorded in
        the same checkpoint directory under the ``shard_counts``
        stream, beside the search streams.  An in-memory build that
        dies with ``MemoryError`` walks the mask-storage degradation
        ladder instead: the masks spill to a sharded on-disk store
        (``spill_dir`` or a temporary directory) and the run proceeds
        out-of-core with bit-identical counts.
        """
        checkpointer = None
        if self.controller is not None and self.controller.store is not None:
            checkpointer = ShardCheckpointer(self.controller.store)
        if self.mmap_dir is None:
            try:
                return CubeCounter(cells, backend=self.counting)
            except MemoryError as exc:
                return self._spill_counter(cells, checkpointer, sink, exc)
        return self._sharded_counter(cells, self.mmap_dir, checkpointer)

    def _sharded_counter(self, cells, directory, checkpointer) -> ShardedCounter:
        """A :class:`ShardedCounter` over a store built (or reused) in
        *directory* — the ``mmap_dir`` counter and the spill target."""
        store = ShardedMaskStore.build(
            cells, directory, shard_rows=self.shard_rows or DEFAULT_SHARD_ROWS
        )
        return ShardedCounter(
            store,
            cells=cells,
            backend=self.counting,
            checkpointer=checkpointer,
            verify_reads=self.verify_shards,
        )

    def _spill_counter(
        self, cells, checkpointer, sink: EventSink | None, cause: MemoryError
    ) -> CubeCounter:
        """Mask-storage ladder: in-memory stack → sharded on-disk store.

        Invoked when the in-memory mask stack cannot be allocated.  The
        sharded store packs the masks one row-shard at a time, so its
        peak memory is one shard rather than the full stack; counts stay
        bit-identical (property-tested).  A second ``MemoryError`` here
        is unrecoverable and surfaces as a typed
        :class:`~repro.exceptions.ResourceError`.
        """
        directory = self.spill_dir
        temporary = directory is None
        if temporary:
            directory = tempfile.mkdtemp(prefix="repro-spill-")
        logger.warning(
            "in-memory mask allocation failed (%s); spilling masks to "
            "sharded store at %s", cause, directory,
        )
        try:
            counter = self._sharded_counter(cells, directory, checkpointer)
        except MemoryError as spill_exc:
            raise ResourceError(
                "out of memory: the mask stack did not fit in memory and "
                f"the sharded spill to {directory} also failed; reduce "
                "shard_rows or run on a larger machine"
            ) from spill_exc
        if temporary:
            # The spilled store must outlive detect() — counter_ stays
            # usable for post-hoc counting — so tie cleanup to the
            # counter's lifetime, not this call's.
            weakref.finalize(counter, shutil.rmtree, directory, True)
        counter.resilience.record_degradation(
            "mask-storage", "in-memory", "sharded", f"MemoryError: {cause}"
        )
        counter.resilience.record_recovery("packed_alloc")
        if sink is not None:
            emit_event(
                sink,
                "degradation_applied",
                **{
                    "chain": "mask-storage",
                    "from": "in-memory",
                    "to": "sharded",
                    "reason": f"MemoryError: {cause}",
                },
            )
            emit_event(sink, "fault_recovered", point="packed_alloc")
        return counter

    # ------------------------------------------------------------------
    def score(self, data) -> np.ndarray:
        """Deviation scores of *new* points against the fitted model.

        Each row of *data* is mapped through the grid fitted by
        :meth:`detect`; its score is the most negative coefficient among
        the mined projections whose cube contains it, or NaN when no
        mined cube covers it (the point looks normal).  More negative =
        more abnormal, matching
        :meth:`~repro.core.results.DetectionResult.point_score`.
        """
        if self.result_ is None or self._scorer is None:
            raise NotFittedError("call detect() before score()")
        return self._scorer(check_matrix(data, "data"))

    def predict(self, data) -> np.ndarray:
        """Boolean outlier mask for *new* points (see :meth:`score`)."""
        return ~np.isnan(self.score(data))

    def resolve_dimensionality(self, n_points: int, n_dims: int) -> int:
        """The k actually used: explicit, or Equation 2's k*, capped at d."""
        if self.dimensionality is not None:
            if self.dimensionality > n_dims:
                raise ValidationError(
                    f"dimensionality ({self.dimensionality}) exceeds the "
                    f"data dimensionality ({n_dims})"
                )
            return self.dimensionality
        k_star = choose_projection_dimensionality(
            n_points, self.n_ranges, self.target_sparsity
        )
        return min(k_star, n_dims)

    # ------------------------------------------------------------------
    def _trajectory_params(self) -> dict:
        """The parameters that shape a search: a checkpoint's run identity.

        Budgets and the counting placement are left out, so a resumed
        run (or multi-k sweep) may get a fresh budget or another one.
        The selection and discretizer (by ``repr``) and the engine
        options enter only when set, so a run on their defaults keeps
        its fingerprint.
        """
        config = self.config or EvolutionaryConfig()
        params = {
            "method": self.method,
            "n_ranges": self.n_ranges,
            "n_projections": self.n_projections,
            "threshold": self.threshold,
            "require_nonempty": self.require_nonempty,
            "random_state": repr(self.random_state),
            "crossover": (
                self.crossover
                if isinstance(self.crossover, str)
                else type(self.crossover).__name__
            ),
            "config": {
                key: value
                for key, value in vars(config).items()
                if key != "max_seconds"
            },
        }
        operators = {"selection": self.selection, "discretizer": self.discretizer}
        params.update({k: repr(v) for k, v in operators.items() if v is not None})
        if self.engine_options:
            params["engine_options"] = self.engine_options
        return params

    def _manifest(self, k: int, cells) -> dict:
        """Run identity for checkpoint staleness checks.

        Any change to the parameters that shape the search trajectory —
        or to the discretized data itself — must invalidate old
        checkpoints.
        """
        params = {**self._trajectory_params(), "dimensionality": k}
        return {
            "params": params_fingerprint(params),
            "data": data_fingerprint(cells.codes),
        }

    def _run_search(
        self,
        counter: CubeCounter,
        k: int,
        *,
        cells=None,
        resume: bool = False,
        sink: EventSink | None = None,
    ) -> SearchOutcome:
        """Build the engine from :data:`ENGINES` and drive its run.

        The engine is constructed from its table row (extra
        ``engine_options`` merged over the detector-derived arguments),
        then injected with one :class:`~repro.engine.context.RunContext`
        carrying the cancel token, the remaining wall-clock budget, the
        checkpointer (only for engines that set ``algorithm``, the ones
        that can fill it) and the event sink.
        """
        engine_kwargs = {
            "require_nonempty": self.require_nonempty,
            "threshold": self.threshold,
            "config": self.config,
            "crossover": self.crossover,
            "selection": self.selection,
            "random_state": self.random_state,
            **self.engine_options,
        }
        engine = create_engine(
            self.method, counter, k, self.n_projections, **engine_kwargs
        )
        controller = self.controller
        checkpointer = None
        if (
            controller is not None
            and controller.store is not None
            and engine.algorithm
        ):
            manifest = self._manifest(k, cells) if cells is not None else None
            checkpointer = controller.checkpointer(
                f"search_k{k}", manifest=manifest
            )
        resume_from = (
            True
            if resume and checkpointer is not None and checkpointer.exists()
            else None
        )
        if controller is not None:
            context = controller.build_context(
                checkpointer=checkpointer,
                sink=sink,
                resume_from=resume_from,
            )
            # The detector's own budget composes with the controller's
            # remaining one; the engine takes the minimum of both.
            context.max_seconds = (
                self.max_seconds
                if context.max_seconds is None
                else context.merged_budget(self.max_seconds)
            )
        else:
            context = RunContext(
                max_seconds=self.max_seconds,
                resume_from=resume_from,
            )
            if sink is not None:
                context.sink = sink
        return engine.run(context=context)

    def _postprocess(
        self,
        outcome: SearchOutcome,
        counter: CubeCounter,
        k: int,
        elapsed: float,
        stats_sink: StatsAssemblySink,
        model: GridModel | None = None,
    ) -> DetectionResult:
        """§2.3: map mined projections back to the covered points."""
        coverage: dict[int, list[int]] = {}
        for proj_index, projection in enumerate(outcome.projections):
            for point in counter.covered_points(projection.subspace):
                coverage.setdefault(int(point), []).append(proj_index)
        outlier_indices = np.array(sorted(coverage), dtype=np.intp)
        report = ResilienceReport()
        report.merge(counter.resilience)
        if self.controller is not None:
            report.merge(self.controller.resilience)
        stats = stats_sink.assemble(outcome, counter, elapsed, resilience=report)
        if model is not None:
            stats["model"] = model.stats_dict()
        if report.degraded:
            logger.warning(
                "resilience ladder engaged during detect: %s "
                "(results are bit-identical to the healthy path)",
                report.summary(),
            )
        return DetectionResult(
            projections=outcome.projections,
            outlier_indices=outlier_indices,
            n_points=counter.n_points,
            n_dims=counter.n_dims,
            n_ranges=counter.n_ranges,
            dimensionality=k,
            coverage={p: tuple(v) for p, v in coverage.items()},
            stats=stats,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def mined_projection(projection: ScoredProjection) -> ScoredProjection:
        """Identity helper kept for API symmetry with baselines."""
        return projection

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SubspaceOutlierDetector(method={self.method!r}, "
            f"k={self.dimensionality}, phi={self.n_ranges}, "
            f"m={self.n_projections}, threshold={self.threshold})"
        )
