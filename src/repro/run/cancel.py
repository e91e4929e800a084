"""Cooperative cancellation and structured stop reasons.

The paper's searches are long-running by design — brute force is
exponential in k, the GA is bounded only by convergence or a wall-clock
cap — so an operator must be able to interrupt a run and get the
best-so-far results instead of a stack trace.  Cancellation here is
*cooperative*: a :class:`CancelToken` is a thread-safe flag that signal
handlers (or tests) flip, and every search loop polls it at its safe
boundaries (GA generation, brute-force level, counting-pool dispatch
wave) and exits cleanly.

:data:`STOP_REASONS` enumerates the structured ``stopped_reason`` every
:class:`~repro.search.outcome.SearchOutcome` now carries:

``converged``
    Natural termination: De Jong convergence (GA, including the
    stall-generations early stop) or exhaustive enumeration completing
    (brute force).
``optimal``
    The best set is certified final
    (:meth:`~repro.search.best_set.BestProjectionSet.certified`): it is
    full and every kept cube holds the floor count, so no cube left to
    visit can enter it.  The brute force and the GA stop there with
    ``completed=True`` and the set they would have returned anyway.
``generation_cap``
    The GA hit ``max_generations`` without converging.
``deadline``
    The wall-clock budget (``max_seconds`` or a run-wide
    :class:`~repro.run.controller.RunController` budget) expired.
``evaluation_cap``
    The evaluation budget was consumed (brute force
    ``max_evaluations``; also the natural terminus of the
    single-solution searchers, which run *until* their budget).
``cancelled``
    A :class:`CancelToken` was flipped — operator interrupt
    (SIGINT/SIGTERM) or programmatic cancellation.
"""

from __future__ import annotations

import threading

from ..exceptions import ValidationError

__all__ = [
    "STOP_REASONS",
    "check_stop_reason",
    "CancelToken",
    "CancelAfterBoundaries",
]

#: The vocabulary of ``SearchOutcome.stopped_reason``.
STOP_REASONS = (
    "converged",
    "optimal",
    "generation_cap",
    "deadline",
    "evaluation_cap",
    "cancelled",
)


def check_stop_reason(reason: str) -> str:
    """Validate a ``stopped_reason`` value."""
    if reason not in STOP_REASONS:
        raise ValidationError(
            f"stopped_reason must be one of {STOP_REASONS}, got {reason!r}"
        )
    return reason


class CancelToken:
    """A thread-safe cooperative cancellation flag.

    Signal handlers (any thread) call :meth:`cancel`; search loops call
    :meth:`poll` at their safe boundaries and unwind when it returns
    True.  The token records *why* it was flipped (e.g. the signal
    number) so the CLI can translate a cooperative exit back into the
    conventional ``128 + signum`` process exit code.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self.signal_number: int | None = None
        self.reason: str | None = None

    def cancel(self, *, reason: str | None = None, signal_number: int | None = None) -> None:
        """Flip the token (idempotent; first cause wins)."""
        if not self._event.is_set():
            self.reason = reason
            self.signal_number = signal_number
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._event.is_set()

    def poll(self) -> bool:
        """Boundary check used by the search loops.

        Subclasses may override this to *inject* cancellation at a
        chosen boundary — the chaos seam the interruption test suite is
        built on (see :class:`CancelAfterBoundaries`).
        """
        return self._event.is_set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self.cancelled else "live"
        return f"CancelToken({state}, reason={self.reason!r})"


class CancelAfterBoundaries(CancelToken):
    """Chaos token: flips itself after *n* boundary polls.

    Deterministic cancellation injection for tests — ``n=0`` cancels at
    the very first safe boundary, ``n=3`` lets three boundaries pass
    first.  Because every search polls exactly once per boundary, the
    kill lands on a precise, reproducible generation/level.
    """

    def __init__(self, n: int) -> None:
        super().__init__()
        if n < 0:
            raise ValidationError(f"n must be >= 0, got {n}")
        self.remaining = n

    def poll(self) -> bool:
        if not self.cancelled:
            if self.remaining <= 0:
                self.cancel(reason="injected")
            else:
                self.remaining -= 1
        return self.cancelled
