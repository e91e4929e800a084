"""Out-of-program tracer for the benchmark's traced run.

:func:`install` patches public layer entry points of ``repro`` (in the
benchmark's own process only) with wrappers that keep a stack of open
calls, so each call's *self* time is its duration minus the time of the
wrapped calls it made.  Calls made outside a timed op region pass
straight through.

Op regions and low-frequency calls (detect, search runs, fits, rebins,
saves, loads) are kept as spans: name, op id, start, end, parent.
Every call, high-frequency ones included, is folded into per-op
``(name, parent)`` aggregates of count, total and self time.
:meth:`Tracer.write` dumps both as JSON lines.  Times are raw seconds,
not speed-normalised.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from repro import (
    BestProjectionSet,
    BruteForceSearch,
    CubeCounter,
    EquiDepthDiscretizer,
    EvolutionarySearch,
    OptimizedCrossover,
    RankRouletteSelection,
    Subspace,
    SubspaceOutlierDetector,
    persist,
)
from repro._atomic import atomic_write_text
from repro.model import GridModel
from repro.search.evolutionary.mutation import BalancedMutation
from repro.search.evolutionary.population import FitnessEvaluator

#: (owner, attribute, traced name, kept as a span).
TIMED = (
    (EquiDepthDiscretizer, "fit_transform", "discretizer.fit_transform", True),
    (EquiDepthDiscretizer, "transform", "discretizer.transform", False),
    (EquiDepthDiscretizer, "partial_fit", "discretizer.partial_fit", False),
    (CubeCounter, "__init__", "counter.build", True),
    (CubeCounter, "count", "counter.count", False),
    (CubeCounter, "count_batch", "counter.count_batch", False),
    (CubeCounter, "covered_points", "counter.covered_points", False),
    (CubeCounter, "append_rows", "counter.append_rows", False),
    (OptimizedCrossover, "apply", "crossover.apply", False),
    (RankRouletteSelection, "select", "selection.select", False),
    (BalancedMutation, "apply", "mutation.apply", False),
    (FitnessEvaluator, "partial_fitness", "fitness.partial", False),
    (FitnessEvaluator, "score_batch", "fitness.score_batch", False),
    (EvolutionarySearch, "run", "evolutionary.run", True),
    (BruteForceSearch, "run", "brute_force.run", True),
    (BestProjectionSet, "offer", "best_set.offer", False),
    (SubspaceOutlierDetector, "detect", "detector.detect", True),
    (SubspaceOutlierDetector, "detect_model", "detector.detect_model", True),
    (GridModel, "fit", "model.fit", True),
    (GridModel, "update", "model.update", True),
    (GridModel, "rebin", "model.rebin", True),
    (GridModel, "score", "model.score", False),
    (persist, "save_model", "persist.save", True),
    (persist, "load_model", "persist.load", True),
)

#: Per-op counts taken from call results: traced name -> (tally, size).
TALLIED = {
    "counter.count_batch": ("counter.batch_cubes", len),
    "kernel": ("kernel.words_and", lambda result: result[1]["words_and"]),
}

#: Layer of each traced name's prefix (the Amdahl table's rows).
LAYERS = {
    "discretizer": "discretizer", "counter": "counter", "kernel": "kernel",
    "crossover": "evolutionary", "selection": "evolutionary",
    "mutation": "evolutionary", "fitness": "evolutionary",
    "evolutionary": "evolutionary", "brute_force": "brute_force",
    "best_set": "best_set", "detector": "detector", "model": "model",
    "persist": "persist",
}

#: Self-time metrics (seconds per op): metric -> traced names summed.
SELF_TIME = {
    "discretizer.fit_transform_s": ("discretizer.fit_transform",),
    "discretizer.transform_s": ("discretizer.transform",),
    "discretizer.partial_fit_s": ("discretizer.partial_fit",),
    "counter.build_s": ("counter.build",),
    "counter.count_s": ("counter.count",),
    "counter.batch_s": ("counter.count_batch",),
    "counter.covered_points_s": ("counter.covered_points",),
    "counter.append_rows_s": ("counter.append_rows",),
    "kernel.s": ("kernel",),
    "crossover.apply_s": ("crossover.apply",),
    "selection.select_s": ("selection.select",),
    "mutation.apply_s": ("mutation.apply",),
    "fitness.partial_s": ("fitness.partial",),
    "fitness.score_batch_s": ("fitness.score_batch",),
    "evolutionary.self_s": ("evolutionary.run",),
    "brute_force.self_s": ("brute_force.run",),
    "search.self_s": ("evolutionary.run", "brute_force.run"),
    "best_set.offer_s": ("best_set.offer",),
    "detector.self_s": ("detector.detect", "detector.detect_model"),
    "model.score_s": ("model.score",),
    "model.update_s": ("model.update",),
    "model.rebin_s": ("model.rebin",),
    "model.self_s": ("model.fit", "model.update", "model.rebin", "model.score"),
    "persist.save_s": ("persist.save",),
    "persist.load_s": ("persist.load",),
}

#: Call-count metrics (calls per op): metric -> traced name.
CALLS = {
    "counter.count_calls": "counter.count",
    "counter.batch_calls": "counter.count_batch",
    "kernel.calls": "kernel",
    "fitness.partial_calls": "fitness.partial",
    "best_set.offers": "best_set.offer",
}

MB = float(1 << 20)


class Tracer:
    """Spans and per-op call aggregates of the ops run while installed."""

    def __init__(self) -> None:
        self._origin = perf_counter()
        # Open frames, innermost last: [name, child seconds, start].
        self._stack: list[list] = []
        self._op: int | None = None
        self.spans: list[dict] = []
        # (op, name, parent) -> [count, total seconds, self seconds].
        self.calls: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        # (op, tally) -> amount.
        self.tallies: dict[tuple, int] = defaultdict(int)

    # -- op regions (opened by the workload's clock) -------------------
    def begin(self, op_id: int, region: str) -> None:
        self._op = op_id
        self._stack.append([f"op.{region}", 0.0, perf_counter()])

    def end(self) -> None:
        name, child, start = self._stack.pop()
        end = perf_counter()
        self._record(name, None, start, end, child, span=True)
        self._op = None

    def _record(self, name, parent, start, end, child, span) -> None:
        total = end - start
        entry = self.calls[(self._op, name, parent)]
        entry[0] += 1
        entry[1] += total
        entry[2] += total - child
        if span:
            self.spans.append({
                "op": self._op, "name": name, "parent": parent,
                "start": start - self._origin, "end": end - self._origin,
            })

    # -- wrappers -------------------------------------------------------
    def timed(self, name: str, fn, span: bool = False):
        """Wrap *fn* so calls inside an op region record self time."""
        tally = TALLIED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1][0]
            frame = [name, 0.0, perf_counter()]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                stack[-1][1] += end - frame[2]
                self._record(name, parent, frame[2], end, frame[1], span)
            if tally is not None:
                self.tallies[(self._op, tally[0])] += tally[1](result)
            return result

        return wrapper

    def counted(self, key: str, fn):
        """Wrap *fn* so calls inside an op region are counted, not timed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is not None:
                self.tallies[(self._op, key)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- output ---------------------------------------------------------
    def write(self, path: Path) -> Path:
        """Dump spans, call aggregates and tallies as JSON lines."""
        rows = [{"type": "span", **span} for span in self.spans]
        rows += [
            {"type": "calls", "op": op, "name": name, "parent": parent,
             "count": count, "total_s": total, "self_s": self_s}
            for (op, name, parent), (count, total, self_s) in self.calls.items()
        ]
        rows += [
            {"type": "tally", "op": op, "key": key, "n": amount}
            for (op, key), amount in self.tallies.items()
        ]
        return atomic_write_text(path, "".join(json.dumps(r) + "\n" for r in rows))


def install(tracer: Tracer):
    """Patch every traced entry point; returns the function that undoes it."""
    undo = []

    def patch(owner, attr, new) -> None:
        own = owner.__dict__.get(attr)
        setattr(owner, attr, new)
        undo.append((owner, attr, own))

    for owner, attr, name, span in TIMED:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            patch(owner, attr, classmethod(tracer.timed(name, raw.__func__, span)))
        else:
            patch(owner, attr, tracer.timed(name, raw, span))
    kernel_property = inspect.getattr_static(CubeCounter, "batch_kernel")
    patch(CubeCounter, "batch_kernel", property(
        lambda counter: tracer.timed("kernel", kernel_property.fget(counter))
    ))
    patch(Subspace, "__post_init__",
          tracer.counted("subspace.constructed", Subspace.__post_init__))

    def restore() -> None:
        for owner, attr, own in reversed(undo):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    return restore


def layer_metrics(tracer: Tracer, n_ops: int, extras: dict,
                  overhead: float) -> dict:
    """Every per-layer metric as ``name -> (value, unit, n_ops)``.

    Times and counts are per op; *extras* carries what the workload read
    from results (GA generations and evaluations, cache hits, mask and
    snapshot sizes); *overhead* is the traced/untraced op median ratio
    minus one.
    """
    calls: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for (_, name, _), entry in tracer.calls.items():
        for i in range(3):
            calls[name][i] += entry[i]
    tallies: dict[str, int] = defaultdict(int)
    for (_, key), amount in tracer.tallies.items():
        tallies[key] += amount

    metrics = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = (float(value), unit, n_ops)

    for metric, names in SELF_TIME.items():
        put(metric, sum(calls[n][2] for n in names) / n_ops, "s")
    for metric, name in CALLS.items():
        put(metric, calls[name][0] / n_ops, "count")
    for key in ("counter.batch_cubes", "kernel.words_and", "subspace.constructed"):
        put(key, tallies[key] / n_ops, "count")
    kernel_s = calls["kernel"][1]
    put("kernel.gbps_computed",
        8 * tallies["kernel.words_and"] / kernel_s / 1e9 if kernel_s else 0.0,
        "GB/s")
    put("evolutionary.generations", sum(extras["generations"]) / n_ops, "count")
    put("evolutionary.evaluations", sum(extras["evaluations"]) / n_ops, "count")
    looked_up = sum(extras["count_calls"])
    put("counter.cache_hit_ratio",
        sum(extras["cache_hits"]) / looked_up if looked_up else 0.0, "ratio")
    put("counter.mask_mb", statistics.fmean(extras["mask_bytes"]) / MB, "MB")
    snapshots = extras["snapshot_bytes"]
    put("persist.snapshot_mb",
        statistics.fmean(snapshots) / MB if snapshots else 0.0, "MB")
    put("trace.overhead_frac", overhead, "ratio")

    # Amdahl view: each layer's self time as a share of op time; the op
    # regions' own self time is the unattributed remainder.
    op_total = sum(e[1] for n, e in calls.items() if n.startswith("op."))
    shares = dict.fromkeys(sorted(set(LAYERS.values())), 0.0)
    unattributed = 0.0
    for name, (_, _, self_s) in calls.items():
        if name.startswith("op."):
            unattributed += self_s
        else:
            shares[LAYERS[name.split(".")[0]]] += self_s
    for layer, self_s in shares.items():
        put(f"amdahl.{layer}", self_s / op_total, "ratio")
    put("amdahl.unattributed", unattributed / op_total, "ratio")
    return metrics
