"""The SearchEngine protocol: ``prepare(ctx) / step(ctx) / finalize(ctx)``.

Every projection searcher — evolutionary, brute force, and the local /
random ablation searchers — implements this three-phase protocol:

``prepare(ctx)``
    Bind the :class:`~repro.engine.context.RunContext`, build (or
    restore from checkpoint) the internal search state, and emit
    ``run_started``.  No search work happens yet.
``step(ctx)``
    Advance the search by exactly one *safe boundary* (a GA generation,
    a brute-force level, a local-search move/chunk) and return True, or
    return False once the search has nothing left to do.  Cancellation,
    deadlines and checkpoints all happen at these boundaries, so an
    external driver stepping the engine gets the same interruption
    semantics as :meth:`SearchEngine.run`.
``finalize(ctx)``
    Assemble the :class:`~repro.search.outcome.SearchOutcome` from the
    current state and emit ``engine_finished``.  Calling it before the
    steps are exhausted is allowed — the run is wound down as if
    cancelled at the last completed boundary.

:class:`SearchEngine` implements the protocol once: engines write
their search loop as a ``_iterate(ctx)`` generator that yields at
every safe boundary, and the class maps the three phases onto it.
The generator form keeps each loop body identical to its pre-protocol
shape, which is what the differential golden tests lock down.  Every
engine of :data:`~repro.engine.registry.ENGINES` derives from it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from typing import TYPE_CHECKING, Any, ClassVar

from .._validation import check_positive_int
from ..exceptions import CheckpointError, SearchError, ValidationError
from ..run.controller import RunBudget
from .context import RunContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..search.outcome import SearchOutcome

__all__ = ["SearchEngine"]


class SearchEngine:
    """The protocol, mapped onto a generator (see module docstring).

    Subclasses implement:

    * ``_iterate(context)`` — a generator that runs the search, yielding
      once right after setup (the prepare boundary) and once per safe
      boundary thereafter;
    * ``_build_outcome(context)`` — assemble the
      :class:`~repro.search.outcome.SearchOutcome` from instance state.

    The run bookkeeping lives here once: ``_iterate`` sets
    :attr:`_budget` (a :class:`~repro.run.controller.RunBudget`), stops
    through it at every boundary, and writes checkpoints through
    :meth:`_checkpoint` / :meth:`_at_boundary`; :meth:`finalize` called
    before the generator is exhausted latches ``cancelled`` on it.

    Checkpointing engines set ``algorithm``: the name their checkpoint
    states carry, which :meth:`_load_resume_state` checks on resume.
    """

    algorithm: ClassVar[str] = ""
    _iterator: Iterator[None] | None = None
    _budget: RunBudget | None = None

    # ------------------------------------------------------------------
    def prepare(self, context: RunContext) -> None:
        self._iterator = self._iterate(context)
        # Prime the generator: setup runs now, stopping at the initial
        # yield, so finalize() always has state to assemble from.
        try:
            next(self._iterator)
        except StopIteration:  # pragma: no cover - defensive
            self._iterator = None

    def step(self, context: RunContext) -> bool:
        if self._iterator is None:
            return False
        try:
            next(self._iterator)
        except StopIteration:
            self._iterator = None
            return False
        return True

    def finalize(self, context: RunContext) -> "SearchOutcome":
        if self._iterator is not None:
            # Abandoned mid-run: close the generator so its try/finally
            # blocks (counter token/sink restoration) run immediately,
            # then report the run as cancelled at the last boundary.
            self._iterator.close()
            self._iterator = None
            if self._budget is not None:
                self._budget.latch("cancelled")
        outcome = self._build_outcome(context)
        counter = getattr(self, "counter", None)
        context.emit(
            "engine_finished",
            algorithm=str(outcome.stats.get("algorithm", type(self).__name__)),
            stopped_reason=outcome.stopped_reason,
            completed=outcome.completed,
            n_projections=len(outcome.projections),
            best_coefficient=outcome.best_coefficient,
            evaluations=int(outcome.stats.get("evaluations", 0)),
            counter_stats=counter.cache_stats() if counter is not None else {},
            backend_health=(
                counter.backend_health() if counter is not None else {}
            ),
        )
        return outcome

    def run(self, *, context: RunContext | None = None) -> "SearchOutcome":
        """Drive the full protocol: prepare, step until done, finalize.

        *context* carries the run state (token, checkpointer, budget,
        resume request, sink); None runs with a default
        :class:`~repro.engine.context.RunContext`.
        """
        if context is None:
            context = RunContext()
        self.prepare(context)
        while self.step(context):
            pass
        return self.finalize(context)

    # ------------------------------------------------------------------
    def _iterate(
        self, context: RunContext
    ) -> Iterator[None]:  # pragma: no cover - interface
        raise NotImplementedError

    def _build_outcome(
        self, context: RunContext
    ) -> "SearchOutcome":  # pragma: no cover
        raise NotImplementedError

    def _bind_counter(self, counter: Any, dimensionality: int) -> None:
        """Validate and keep the counter and k every built-in engine takes."""
        from ..grid.counter import CubeCounter

        if not isinstance(counter, CubeCounter):
            raise ValidationError(
                f"counter must be a CubeCounter, got {type(counter).__name__}"
            )
        self.counter = counter
        self.dimensionality = check_positive_int(dimensionality, "dimensionality")
        if self.dimensionality > counter.n_dims:
            raise ValidationError(
                f"dimensionality ({self.dimensionality}) exceeds data "
                f"dimensionality ({counter.n_dims})"
            )

    def _require_run_state(self) -> dict:
        """The per-run state bundle built by ``_iterate``'s setup."""
        run = getattr(self, "_run", None)
        if not isinstance(run, dict):
            raise SearchError("finalize()/step() called before prepare()")
        return run

    def _load_resume_state(self, context: RunContext) -> dict[str, Any] | None:
        """Normalize ``context.resume_from`` into a state dict (or None)."""
        resume_from = context.resume_from
        if resume_from is None or resume_from is False:
            return None
        if resume_from is True:
            if context.checkpointer is None:
                raise CheckpointError(
                    "resume_from=True needs a checkpointer; set "
                    "RunContext.checkpointer"
                )
            state = context.checkpointer.load()
        elif isinstance(resume_from, Mapping):
            state = dict(resume_from)
        else:
            raise ValidationError(
                "resume_from must be None, True, or a checkpoint state "
                f"mapping, got {type(resume_from).__name__}"
            )
        if state.get("algorithm") != self.algorithm:
            raise CheckpointError(
                "checkpoint was written by a "
                f"{state.get('algorithm', 'unknown')!r} search, not a "
                f"{self.algorithm!r} one"
            )
        return state

    # ------------------------------------------------------------------
    def _checkpoint(
        self,
        context: RunContext,
        boundary: int,
        build_state: Callable[[], Mapping[str, Any]],
        trigger: str = "interval",
    ) -> None:
        """Write one boundary snapshot and emit ``checkpoint_written``.

        ``trigger="interval"`` saves only when *boundary* is due under
        the checkpointer's interval, and builds the state only then.
        Any other trigger is a stop snapshot (the stop reason), written
        unconditionally.  No checkpointer on the context: a no-op.
        """
        checkpointer = context.checkpointer
        if checkpointer is None:
            return
        if trigger != "interval":
            checkpointer.save(build_state())
        elif not checkpointer.maybe_save(boundary, build_state):
            return
        context.emit("checkpoint_written", boundary=boundary, trigger=trigger)

    def _at_boundary(
        self,
        context: RunContext,
        boundary: int,
        build_state: Callable[[], Mapping[str, Any]],
    ) -> str | None:
        """A safe boundary's bookkeeping; the stop reason, if any.

        Interval checkpoint first, then one budget check (one token
        poll), then — when the run must stop — the stop snapshot of
        this same boundary.
        """
        assert self._budget is not None
        self._checkpoint(context, boundary, build_state)
        reason = self._budget.check()
        if reason is not None:
            self._checkpoint(context, boundary, build_state, reason)
        return reason
