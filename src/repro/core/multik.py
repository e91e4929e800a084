"""Multi-dimensionality mining: one run per k, as the paper's housing analysis.

§3.1's housing experiment mines "interesting 3- and 4-dimensional
projections"; §2.4 notes every k ≤ k* is informative at its own
significance scale.  This helper runs the detector once per requested
dimensionality and aggregates the per-k results — keeping them
*separate*, because sparsity coefficients at different k are not
comparable (§1.1's explicit desideratum).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

from .._validation import check_matrix
from ..engine.stats import merge_backend_health
from ..exceptions import SearchCancelled, ValidationError
from ..run.cancel import check_stop_reason
from ..run.checkpoint import data_fingerprint, params_fingerprint
from ..run.controller import RunController
from .detector import SubspaceOutlierDetector
from .params import CountingBackend, choose_projection_dimensionality
from .results import DetectionResult

__all__ = ["MultiKResult", "detect_across_dimensionalities"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MultiKResult:
    """Per-dimensionality detection results plus a merged outlier view.

    ``stopped_reason`` reports how the *sweep* ended: ``converged``
    when every requested k ran to its natural end, ``cancelled`` /
    ``deadline`` when the run was interrupted — the ``results`` then
    hold every completed k plus the in-flight k's best-so-far partial.
    """

    results: Mapping[int, DetectionResult]
    stopped_reason: str = "converged"

    def __post_init__(self) -> None:
        if not self.results:
            raise ValidationError("MultiKResult needs at least one k")
        object.__setattr__(self, "results", dict(self.results))
        check_stop_reason(self.stopped_reason)

    @property
    def cancelled(self) -> bool:
        """True when a cooperative cancellation stopped the sweep."""
        return self.stopped_reason == "cancelled"

    @property
    def dimensionalities(self) -> list[int]:
        """The mined k values, ascending."""
        return sorted(self.results)

    def outlier_union(self) -> np.ndarray:
        """Points flagged at *any* dimensionality, ascending."""
        union: set[int] = set()
        for result in self.results.values():
            union.update(int(i) for i in result.outlier_indices)
        return np.array(sorted(union), dtype=np.intp)

    def outlier_intersection(self) -> np.ndarray:
        """Points flagged at *every* dimensionality, ascending."""
        iterator = iter(self.results.values())
        common = set(int(i) for i in next(iterator).outlier_indices)
        for result in iterator:
            common &= set(int(i) for i in result.outlier_indices)
        return np.array(sorted(common), dtype=np.intp)

    def flagging_dimensionalities(self, point_index: int) -> list[int]:
        """Which k values flag *point_index* (interpretability aid)."""
        return [
            k
            for k in self.dimensionalities
            if int(point_index) in set(self.results[k].outlier_indices.tolist())
        ]

    def backend_health_totals(self) -> dict:
        """Fault-tolerance telemetry summed over every per-k run.

        Long multi-run sweeps are exactly where a single crashed worker
        must not lose the whole job; this aggregates each run's
        ``stats["backend_health"]`` counters (booleans OR together) so
        ensemble drivers can check one record instead of |K|.
        """
        return merge_backend_health(
            result.backend_health for result in self.results.values()
        )

    @property
    def backend_degraded(self) -> bool:
        """True if any per-k run's counting backend degraded."""
        return any(r.backend_degraded for r in self.results.values())

    def summary_lines(self) -> list[str]:
        """One line per k plus the union/intersection counts."""
        lines = []
        for k in self.dimensionalities:
            result = self.results[k]
            lines.append(
                f"k={k}: {len(result.projections)} projections "
                f"(best {result.best_coefficient:.3f}), "
                f"{result.n_outliers} outliers"
            )
        lines.append(
            f"union {self.outlier_union().size} outliers, "
            f"intersection {self.outlier_intersection().size}"
        )
        if self.stopped_reason != "converged":
            lines.append(f"stopped early: {self.stopped_reason}")
        if self.backend_degraded:
            totals = self.backend_health_totals()
            lines.append(
                "backend degraded: "
                f"{totals['retries']} retries, {totals['timeouts']} timeouts, "
                f"{totals['rebuilds']} rebuilds, {totals['fallbacks']} fallbacks"
            )
        return lines


def detect_across_dimensionalities(
    data,
    dimensionalities: Sequence[int] | None = None,
    *,
    feature_names=None,
    counting: CountingBackend | None = None,
    detector_kwargs: Mapping | None = None,
    controller: RunController | None = None,
    resume: bool = False,
) -> MultiKResult:
    """Run the detector once per k and aggregate.

    Parameters
    ----------
    data:
        ``(N, d)`` matrix; NaN = missing.
    dimensionalities:
        The k values to mine; ``None`` mines every k in ``[1, k*]``
        (Equation 2's feasible range for the configured φ).
    counting:
        Optional :class:`~repro.core.params.CountingBackend` applied to
        every per-k run (the multi-k sweep repeats the whole search per
        dimensionality, so a process backend pays off here first).
    detector_kwargs:
        Forwarded to every :class:`SubspaceOutlierDetector` (must not
        contain ``dimensionality``).
    controller:
        Optional :class:`~repro.run.controller.RunController` shared by
        every per-k run: one wall-clock budget for the whole sweep, one
        cancel token (SIGINT/SIGTERM stops the sweep at a safe boundary
        with every completed k plus the in-flight k's partial result),
        and — with a checkpoint directory — one checkpoint store holding
        each completed k's result and the in-flight k's search state.
    resume:
        Continue an interrupted sweep from the controller's checkpoint
        directory: completed ks are loaded from their result
        checkpoints (no recomputation), the in-flight k resumes from
        its search checkpoint bit-identically, and the remaining ks run
        fresh.

    Raises
    ------
    SearchCancelled
        When the run is cancelled before the first k produced any
        result.
    """
    array = check_matrix(data, "data")
    kwargs = dict(detector_kwargs or {})
    if "dimensionality" in kwargs or "controller" in kwargs:
        raise ValidationError(
            "pass dimensionalities and controller as their own arguments, "
            "not in detector_kwargs"
        )
    if counting is not None:
        kwargs["counting"] = counting
    if resume and (controller is None or controller.store is None):
        raise ValidationError(
            "resume=True needs a controller with a checkpoint_dir"
        )
    if dimensionalities is None:
        phi = int(kwargs.get("n_ranges", 10))
        target = float(kwargs.get("target_sparsity", -3.0))
        k_star = choose_projection_dimensionality(array.shape[0], phi, target)
        dimensionalities = range(1, min(k_star, array.shape[1]) + 1)
    ks = sorted({int(k) for k in dimensionalities})
    if not ks:
        raise ValidationError("no dimensionalities to mine")

    sweep_manifest = None
    if controller is not None and controller.store is not None:
        # The detector's own run identity, so a sweep resumed with
        # another budget or counting placement still matches.
        params = SubspaceOutlierDetector(**kwargs)._trajectory_params()
        sweep_manifest = {
            "params": params_fingerprint({"ks": ks, **params}),
            "data": data_fingerprint(array),
        }

    from ..persist import result_from_dict, result_to_dict

    results = {}
    stopped_reason = "converged"
    for k in ks:
        if controller is not None:
            early = controller.should_stop()
            if early is not None:
                stopped_reason = early
                break
        result_stream = (
            controller.checkpointer(f"result_k{k}", manifest=sweep_manifest)
            if sweep_manifest is not None
            else None
        )
        if resume and result_stream is not None and result_stream.exists():
            results[k] = result_from_dict(result_stream.load())
            logger.info("k=%d: loaded completed result from checkpoint", k)
            continue
        detector = SubspaceOutlierDetector(
            dimensionality=k, controller=controller, **kwargs
        )
        result = detector.detect(array, feature_names=feature_names, resume=resume)
        results[k] = result
        if result.stats.get("stopped_reason") in ("cancelled", "deadline"):
            # The in-flight k's partial result is kept in `results` but
            # NOT checkpointed as complete — a resume re-enters it from
            # its own search checkpoint instead.
            stopped_reason = str(result.stats["stopped_reason"])
            break
        if result_stream is not None:
            result_stream.save(result_to_dict(result))
    if not results:
        raise SearchCancelled(
            f"multi-k sweep {stopped_reason} before any dimensionality "
            "produced a result"
        )
    return MultiKResult(results=results, stopped_reason=stopped_reason)
