"""Run-wide lifecycle: one budget, one cancel token, one checkpoint dir.

A :class:`RunBudget` is the one stop check: it polls the cancel token,
checks the deadline and an optional evaluation cap, latches the first
stop reason and reports elapsed time.  Every search engine stops and
times itself through one, and so does the controller below.

A :class:`RunController` owns everything that outlives a single search
inside a long job:

* a **wall-clock budget** shared across all the searches of a multi-k
  sweep (each successive k sees only the time that is left),
* the **cancel token** that SIGINT/SIGTERM handlers flip,
* the **checkpoint store** every component writes through, plus the
  checkpoint interval policy.

Typical use::

    controller = RunController(max_seconds=3600, checkpoint_dir="ckpt")
    with controller.signal_handlers():
        result = detect_across_dimensionalities(
            data, [2, 3, 4], controller=controller
        )
    sys.exit(controller.exit_code())
"""

from __future__ import annotations

import os
import time
from collections.abc import Mapping
from contextlib import AbstractContextManager
from typing import TYPE_CHECKING

from .._validation import check_in_range
from ..exceptions import ValidationError
from ..resilience.ladder import ResilienceReport
from .cancel import CancelToken
from .checkpoint import CheckpointStore, SearchCheckpointer
from .signals import exit_code_for_signal, installed_signal_handlers

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.context import RunContext
    from ..engine.events import EventSink

__all__ = ["RunBudget", "RunController"]


class RunBudget:
    """When a run must stop: cancel token, deadline, evaluation cap.

    The one stop check of every search engine and of the multi-k sweep.
    :meth:`check` latches the first stop reason (``cancelled``,
    ``evaluation_cap`` or ``deadline``, checked in that order); once a
    reason is latched every later check returns it without touching
    the token again.  At a safe boundary the token is *polled* — the
    chaos seam, one ``poll()`` per boundary (see
    :class:`~repro.run.cancel.CancelAfterBoundaries`); between the
    counting chunks of one boundary only its raw ``cancelled`` flag is
    read, so a boundary budget is never consumed mid-level.

    Parameters
    ----------
    token:
        The run's :class:`~repro.run.cancel.CancelToken`, or None.
    max_seconds:
        Wall-clock budget of this process invocation; None disables.
    max_evaluations:
        Cap on :attr:`evaluations`, which the engine advances; None
        disables.
    elapsed_base:
        Seconds a resumed run had already spent before its checkpoint;
        :meth:`elapsed_seconds` adds it, the deadline does not.
    """

    def __init__(
        self,
        token: CancelToken | None = None,
        max_seconds: float | None = None,
        *,
        max_evaluations: int | None = None,
        elapsed_base: float = 0.0,
    ) -> None:
        self.token = token
        self.max_seconds = max_seconds
        self.max_evaluations = max_evaluations
        self.elapsed_base = float(elapsed_base)
        self.evaluations = 0
        self.reason: str | None = None
        self._started_at = time.perf_counter()

    def latch(self, reason: str) -> str:
        """Record a stop reason; the first one wins."""
        if self.reason is None:
            self.reason = reason
        return self.reason

    def check(self, *, boundary: bool = True) -> str | None:
        """The latched stop reason, checking token, cap and clock first.

        *boundary* polls the token; ``boundary=False`` (between the
        chunks of one boundary) reads its raw flag instead.
        """
        if self.reason is None:
            token = self.token
            if token is not None and (
                token.poll() if boundary else token.cancelled
            ):
                self.reason = "cancelled"
            elif (
                self.max_evaluations is not None
                and self.evaluations >= self.max_evaluations
            ):
                self.reason = "evaluation_cap"
            elif self.deadline_passed():
                self.reason = "deadline"
        return self.reason

    def elapsed_seconds(self) -> float:
        """Run time so far, including a resumed run's ``elapsed_base``."""
        return self.elapsed_base + (time.perf_counter() - self._started_at)

    def remaining_seconds(self) -> float | None:
        """Budget left, ``None`` when unbudgeted (never negative)."""
        if self.max_seconds is None:
            return None
        spent = time.perf_counter() - self._started_at
        return max(0.0, self.max_seconds - spent)

    def deadline_passed(self) -> bool:
        """True once the wall-clock budget is spent."""
        remaining = self.remaining_seconds()
        return remaining is not None and remaining <= 0.0


class RunController:
    """Shared lifecycle state for one (possibly multi-search) run.

    Parameters
    ----------
    max_seconds:
        Wall-clock budget for the *whole* run; ``None`` disables.  The
        clock starts at construction (or at an explicit :meth:`start`).
    checkpoint_dir:
        Directory for crash-safe checkpoints; ``None`` disables
        checkpointing.
    checkpoint_every:
        Safe boundaries (GA generations / brute-force levels) between
        checkpoint writes.
    token:
        An externally-owned :class:`~repro.run.cancel.CancelToken`
        (e.g. a chaos-injection token in tests); a fresh one by default.
    sink:
        An :class:`~repro.engine.events.EventSink` receiving every
        engine event of the run (e.g. a
        :class:`~repro.engine.events.JsonlTraceSink` for the CLI's
        ``--trace-file``); ``None`` disables run-wide tracing.
    """

    def __init__(
        self,
        *,
        max_seconds: float | None = None,
        checkpoint_dir: str | os.PathLike[str] | None = None,
        checkpoint_every: int = 1,
        token: CancelToken | None = None,
        sink: "EventSink | None" = None,
    ) -> None:
        if (
            max_seconds is not None
            and check_in_range(max_seconds, "max_seconds") <= 0
        ):
            raise ValidationError(
                f"max_seconds must be positive, got {max_seconds}"
            )
        if checkpoint_every < 1:
            raise ValidationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.max_seconds = max_seconds
        self.checkpoint_every = int(checkpoint_every)
        self.token = token if token is not None else CancelToken()
        # Run-wide resilience ledger: checkpoint-read retries land here;
        # the detector merges it into result.stats["resilience"].
        self.resilience = ResilienceReport()
        self.store: CheckpointStore | None = (
            CheckpointStore(checkpoint_dir, report=self.resilience)
            if checkpoint_dir is not None
            else None
        )
        self.sink = sink
        self.start()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Restart the budget clock (e.g. right before the first search)."""
        self._budget = RunBudget(self.token, self.max_seconds)

    def elapsed_seconds(self) -> float:
        """Seconds since the budget clock started."""
        return self._budget.elapsed_seconds()

    def remaining_seconds(self) -> float | None:
        """Budget left, ``None`` when unbudgeted (never negative)."""
        return self._budget.remaining_seconds()

    def deadline_passed(self) -> bool:
        """True once the run-wide budget is spent."""
        return self._budget.deadline_passed()

    def should_stop(self) -> str | None:
        """``"cancelled"`` / ``"deadline"`` when the run must wind down."""
        return self._budget.check()

    # ------------------------------------------------------------------
    def signal_handlers(self) -> AbstractContextManager[CancelToken]:
        """Context manager routing SIGINT/SIGTERM into the cancel token."""
        return installed_signal_handlers(self.token)

    def exit_code(self) -> int:
        """0, or ``128 + signum`` if a signal cancelled the run."""
        return exit_code_for_signal(self.token.signal_number)

    # ------------------------------------------------------------------
    def checkpointer(
        self, name: str, manifest: Mapping | None = None
    ) -> SearchCheckpointer | None:
        """A checkpoint stream bound to this run, or None if disabled."""
        if self.store is None:
            return None
        return SearchCheckpointer(
            self.store, name, every=self.checkpoint_every, manifest=manifest
        )

    def build_context(
        self,
        *,
        checkpointer: SearchCheckpointer | None = None,
        sink: "EventSink | None" = None,
        resume_from: object = None,
    ) -> "RunContext":
        """A :class:`~repro.engine.context.RunContext` for one engine run.

        Bundles this controller's cancel token, *remaining* wall-clock
        budget and event sink (composed with *sink* when both are set)
        so the engine sees one coherent injection point.  The budget is
        clamped to a tiny positive value when already spent: the engine
        must still construct, then stop at its first boundary with
        reason ``deadline`` rather than raise.
        """
        from ..engine.context import RunContext
        from ..engine.events import CompositeSink

        remaining = self.remaining_seconds()
        if remaining is not None:
            remaining = max(remaining, 1e-9)
        sinks = [s for s in (self.sink, sink) if s is not None]
        if not sinks:
            resolved_sink = None
        elif len(sinks) == 1:
            resolved_sink = sinks[0]
        else:
            resolved_sink = CompositeSink(*sinks)
        context = RunContext(
            cancel_token=self.token,
            checkpointer=checkpointer,
            max_seconds=remaining,
            resume_from=resume_from,
        )
        if resolved_sink is not None:
            context.sink = resolved_sink
        return context

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunController(max_seconds={self.max_seconds}, "
            f"checkpoint_dir={self.store.directory if self.store else None}, "
            f"token={self.token!r})"
        )
