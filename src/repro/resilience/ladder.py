"""Degradation ladder: explicit downgrade chains plus a run-wide report.

When a layer fails repeatedly it should step down to a slower-but-safe
configuration rather than crash: the ``process → serial`` counting
placement, the ``native → numpy`` counting kernel (a C kernel that
fails while counting; one that never built is not a step, the counter
simply chose the reference), in-memory packed stacks → the out-of-core
:class:`~repro.grid.sharded.ShardedMaskStore` on :class:`MemoryError`,
quarantine-plus-rebuild for a corrupted shard.  Every completed
fallback is bit-identical to the healthy path — the chains only ever
trade speed or memory, never results.

:class:`ResilienceReport` accumulates what happened (retries,
recoveries, degradations, quarantines, final ladder positions) and
lands in ``result.stats["resilience"]``; :class:`DegradationLadder`
applies downgrades, emitting typed ``degradation_applied`` /
``fault_recovered`` events on the run's event bus as it goes.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable

from ..exceptions import SearchCancelled

__all__ = ["DegradationLadder", "ResilienceReport", "describe_resilience"]


def describe_resilience(record: Mapping[str, Any]) -> str:
    """One human-readable line for a ``stats["resilience"]`` record.

    Takes the :meth:`ResilienceReport.as_dict` shape, so it renders a
    live report and a persisted result's record alike.
    """
    if not record.get("degraded"):
        return "resilience: clean run"

    def tally(counts: Mapping[str, int]) -> str:
        return ", ".join(f"{name} {n}" for name, n in counts.items())

    parts = []
    if record.get("retries"):
        parts.append(f"retries ({tally(record['retries'])})")
    if record.get("recoveries"):
        parts.append(f"faults recovered ({tally(record['recoveries'])})")
    if record.get("degradations"):
        steps = ", ".join(
            f"{d['chain']}:{d['from']}→{d['to']}"
            for d in record["degradations"]
        )
        parts.append(f"degraded ({steps})")
    if record.get("quarantines"):
        shards = ", ".join(str(q["shard"]) for q in record["quarantines"])
        parts.append(f"shards quarantined ({shards})")
    return "resilience: " + "; ".join(parts)


class ResilienceReport:
    """Mutable accumulator of resilience activity for one run.

    The one fault ledger of a run: every layer that survives a fault
    (counting pools, shard reads, checkpoint loads, atomic writes,
    kernel and mask-storage downgrades) records it here.  ``as_dict``
    is JSON-safe for ``result.stats``, ``merge`` folds a child report
    (e.g. a per-counter report into the run-wide one), and ``summary``
    renders one log-friendly line.
    """

    __slots__ = ("retries", "recoveries", "degradations", "quarantines",
                 "ladder")

    def __init__(self) -> None:
        self.retries: dict[str, int] = {}
        self.recoveries: dict[str, int] = {}
        self.degradations: list[dict[str, Any]] = []
        self.quarantines: list[dict[str, Any]] = []
        self.ladder: dict[str, str] = {}

    # ------------------------------------------------------------------
    def record_retry(self, site: str, count: int = 1) -> None:
        """Count *count* retries at *site* (e.g. ``"checkpoint.load"``)."""
        if count > 0:
            self.retries[site] = self.retries.get(site, 0) + count

    def record_recovery(self, point: str, count: int = 1) -> None:
        """Count a fault at *point* that the run survived."""
        if count > 0:
            self.recoveries[point] = self.recoveries.get(point, 0) + count

    def record_degradation(
        self, chain: str, src: str, dst: str, reason: str
    ) -> None:
        """Record a ladder step ``src → dst`` on *chain*."""
        self.degradations.append(
            {"chain": chain, "from": src, "to": dst, "reason": reason}
        )
        self.ladder[chain] = dst

    def record_quarantine(self, shard: int, reason: str) -> None:
        """Record one shard quarantined and rebuilt."""
        self.quarantines.append({"shard": int(shard), "reason": reason})

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Whether anything at all had to be retried or downgraded."""
        return bool(
            self.retries or self.recoveries or self.degradations
            or self.quarantines
        )

    def merge(self, other: "ResilienceReport") -> None:
        """Fold *other* into this report in place."""
        for site, count in other.retries.items():
            self.record_retry(site, count)
        for point, count in other.recoveries.items():
            self.record_recovery(point, count)
        self.degradations.extend(other.degradations)
        self.quarantines.extend(other.quarantines)
        self.ladder.update(other.ladder)

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot for ``result.stats["resilience"]``."""
        return {
            "degraded": self.degraded,
            "retries": dict(self.retries),
            "recoveries": dict(self.recoveries),
            "degradations": [dict(d) for d in self.degradations],
            "quarantines": [dict(q) for q in self.quarantines],
            "ladder": dict(self.ladder),
        }

    def summary(self) -> str:
        """One human-readable line (see :func:`describe_resilience`)."""
        return describe_resilience(self.as_dict())


class DegradationLadder:
    """Applies downgrade chains and narrates them on the event bus.

    *sink_provider* is a zero-arg callable returning the current event
    sink (or ``None``); it is a callable rather than a sink because the
    counter's sink is attached after construction and may change per
    ``detect`` call.
    """

    def __init__(
        self,
        report: ResilienceReport,
        sink_provider: Callable[[], Any] | None = None,
    ) -> None:
        self.report = report
        self._sink_provider = sink_provider

    def _emit(self, event_type: str, payload: dict[str, Any]) -> None:
        sink = self._sink_provider() if self._sink_provider else None
        if sink is None:
            return
        from ..engine.events import emit_event

        emit_event(sink, event_type, **payload)

    # ------------------------------------------------------------------
    def apply(self, chain: str, src: str, dst: str, reason: str) -> None:
        """Record and announce one ladder step ``src → dst``."""
        self.report.record_degradation(chain, src, dst, reason)
        self._emit(
            "degradation_applied",
            {"chain": chain, "from": src, "to": dst, "reason": reason},
        )

    def recovered(self, point: str, **detail: Any) -> None:
        """Record and announce a fault at *point* the run survived."""
        self.report.record_recovery(point)
        self._emit("fault_recovered", {"point": point, **detail})

    def quarantine(self, shard: int, reason: str) -> None:
        """Record and announce one shard quarantined and rebuilt."""
        self.report.record_quarantine(shard, reason)
        self.recovered("shard_quarantine", shard=int(shard), reason=reason)

    def guarded(
        self,
        chain: str,
        src: str,
        dst: str,
        primary: Callable[[], Any],
        fallback: Callable[[], Any],
        on_downgrade: Callable[[BaseException], None] | None = None,
    ):
        """Run *primary*; on failure step down the ladder and run *fallback*.

        Cooperative cancellation is never swallowed — a
        :class:`SearchCancelled` from *primary* propagates unchanged.
        Everything else (a native kernel segfault surfacing as a pool
        error, a transient numpy failure) triggers the downgrade: the
        step is recorded, ``on_downgrade(exc)`` runs (e.g. to disable
        the broken backend), and *fallback* produces the bit-identical
        result.
        """
        try:
            return primary()
        except SearchCancelled:
            raise
        except Exception as exc:
            self.apply(chain, src, dst, f"{type(exc).__name__}: {exc}")
            if on_downgrade is not None:
                on_downgrade(exc)
            return fallback()
