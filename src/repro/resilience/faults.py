"""Deterministic fault injection at named points across the stack.

Any layer can declare a **fault point** — a named seam where a specific
failure class can occur — and call :func:`maybe_inject` there.  Chaos
tests then arm one or more :class:`FaultSpec` instances via the
:func:`fault_injection` context manager; production runs pay a single
global ``None`` check.

Injection is deterministic by construction, in one of two modes:

* **Counted calls** (``maybe_inject(point, **detail)``): each fault
  point keeps an invocation counter, and a spec fires when that counter
  reaches its ``trigger`` index (and keeps firing for ``times``
  invocations).
* **Keyed calls** (``maybe_inject(point, key=k, attempt=a)``): the call
  site names what it is working on — the counting pools pass the
  run-wide chunk id and its 1-based dispatch attempt, or the pool
  generation.  A keyed call matches a spec iff ``key == trigger`` and
  (``times is None`` or ``attempt <= times``).  It touches no counter
  and keeps no fired state.

No clocks, no randomness — the same program order yields the same
faults, which is what lets the chaos suite assert bit-identical
recovery.

A point's default factory either returns the exception to raise or
performs an action itself and returns ``None``: ``worker_kill`` ends
the process, ``worker_stall`` sleeps past any chaos-test timeout.

.. note::
   Counters live in the :class:`FaultInjector` of the *current
   process*.  Pool workers forked inside :func:`fault_injection`
   inherit the armed specs **and a copy of the parent's counters as
   they stood at fork time**; from then on each process counts on its
   own.  A ``trigger=0, times=1`` spec the parent already fired never
   fires in a worker, while one the parent never reached fires on each
   worker's first touch.  Keyed calls (the ``worker_*`` points) carry
   their own key, so they are immune to this: they fire the same way
   in every process, including workers re-forked after a kill.
"""

from __future__ import annotations

import contextlib
import errno
import os
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from .._validation import check_positive_int
from ..exceptions import ValidationError

__all__ = [
    "FAULT_POINTS",
    "FaultInjector",
    "FaultSpec",
    "active_injector",
    "fault_injection",
    "maybe_inject",
    "register_fault_point",
]


#: Seconds the default ``worker_stall`` action sleeps: longer than any
#: per-chunk ``timeout`` a chaos test sets, so the watchdog always fires.
WORKER_STALL_SECONDS = 1.5


def _enospc(detail: dict) -> BaseException:
    exc = OSError(errno.ENOSPC, "injected: no space left on device")
    return exc


def _eio(detail: dict) -> BaseException:
    return OSError(errno.EIO, "injected: I/O error")


def _oom(detail: dict) -> BaseException:
    return MemoryError("injected: allocation failure")


def _kill(detail: dict) -> None:
    os._exit(1)


def _stall(detail: dict) -> None:
    time.sleep(WORKER_STALL_SECONDS)


def _init_failure(detail: dict) -> BaseException:
    return RuntimeError("injected: pool worker initialization failure")


#: Registry of named fault points → default factory.  A factory takes
#: the ``detail`` mapping passed to :func:`maybe_inject` and returns the
#: exception instance to raise, or acts itself and returns ``None``.
FAULT_POINTS: dict[str, Callable[[dict], BaseException | None]] = {
    "atomic_write": _enospc,
    "shard_open": _eio,
    "shard_read": _eio,
    "checkpoint_load": _eio,
    "packed_alloc": _oom,
    "worker_kill": _kill,
    "worker_stall": _stall,
    "worker_init": _init_failure,
}


def register_fault_point(
    name: str, default_error: Callable[[dict], BaseException | None]
) -> None:
    """Declare a new named fault point with its default factory."""
    if not name or not isinstance(name, str):
        raise ValidationError("fault point name must be a non-empty string")
    FAULT_POINTS[name] = default_error


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: fire at *point* starting at invocation *trigger*.

    For counted calls, ``trigger`` is the 0-based invocation index of
    the fault point at which the fault first fires and ``times`` bounds
    how many consecutive invocations fail (``None`` = every invocation
    from *trigger* on, modelling a persistent fault).  For keyed calls,
    ``trigger`` is the key to match and ``times`` the last 1-based
    attempt that fails (``None`` = every attempt).  ``error`` overrides
    the point's default factory with a fixed exception instance.
    """

    point: str
    trigger: int = 0
    times: int | None = 1
    error: BaseException | None = None

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            known = ", ".join(sorted(FAULT_POINTS))
            raise ValidationError(
                f"unknown fault point {self.point!r}; registered points: "
                f"{known}"
            )
        check_positive_int(self.trigger, "trigger", minimum=0)
        if self.times is not None:
            check_positive_int(self.times, "times")


class FaultInjector:
    """Holds armed specs plus per-point invocation/fired counters."""

    def __init__(self, specs: tuple[FaultSpec, ...]) -> None:
        self.specs = specs
        self._invocations: dict[str, int] = {}
        self._fired: dict[int, int] = {}

    def check(
        self, point: str, detail: dict, key: int | None = None, attempt: int = 1
    ) -> None:
        """Fire the armed fault for *point* if a spec matches this call.

        Counted calls (``key is None``) match on the invocation counter;
        keyed calls match ``key == trigger`` and ``attempt <= times``.
        """
        if key is not None:
            for spec in self.specs:
                if (
                    spec.point == point
                    and spec.trigger == key
                    and (spec.times is None or attempt <= spec.times)
                ):
                    _fire(spec, detail)
                    return
            return
        seen = self._invocations.get(point, 0)
        self._invocations[point] = seen + 1
        for i, spec in enumerate(self.specs):
            if spec.point != point or seen < spec.trigger:
                continue
            fired = self._fired.get(i, 0)
            if spec.times is not None and fired >= spec.times:
                continue
            self._fired[i] = fired + 1
            _fire(spec, detail)
            return

    def invocations(self, point: str) -> int:
        """How many times *point* was reached in this process."""
        return self._invocations.get(point, 0)

    def fired(self) -> int:
        """Total counted faults fired by this injector in this process."""
        return sum(self._fired.values())


def _fire(spec: FaultSpec, detail: dict) -> None:
    """Raise *spec*'s error, or run the point's default action."""
    exc = spec.error
    if exc is None:
        exc = FAULT_POINTS[spec.point](detail)
    if exc is not None:
        raise exc


#: Process-global active injector; ``None`` outside chaos tests, so the
#: hot-path cost of an unarmed fault point is one global load.
_ACTIVE: FaultInjector | None = None


def active_injector() -> FaultInjector | None:
    """The currently armed injector, or ``None`` outside chaos tests."""
    return _ACTIVE


def maybe_inject(
    point: str, *, key: int | None = None, attempt: int = 1, **detail
) -> None:
    """Hook placed at a fault point; no-op unless an injector is armed.

    Pass *key* (and the 1-based *attempt*) to make the call keyed; see
    the module docstring.
    """
    if _ACTIVE is not None:
        _ACTIVE.check(point, detail, key, attempt)


@contextlib.contextmanager
def fault_injection(*specs: FaultSpec) -> Iterator[FaultInjector]:
    """Arm *specs* for the duration of the ``with`` block.

    Nested arming is rejected — overlapping injectors would make
    trigger indices ambiguous, and no test needs it.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("fault injection is already active")
    injector = FaultInjector(tuple(specs))
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = None
