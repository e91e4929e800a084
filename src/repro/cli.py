"""Command-line interface: ``repro-outliers`` / ``python -m repro``.

Subcommands
-----------
``detect``
    Run the subspace detector on a CSV file or a built-in dataset and
    print the report (projections, outliers, explanations).  Supports
    ``--output json`` for machine-readable results and ``--save`` to
    persist the fitted model.
``multik``
    Run the detector across several dimensionalities with one shared
    time budget, checkpoint directory and SIGINT/SIGTERM handling —
    an interrupted sweep exits with the conventional ``128+signum``
    code and ``--resume`` picks up where it stopped without
    recomputing completed ks.
``score``
    Score one or more data batches against a model saved by ``detect
    --save``.  Extra batches ride along via repeated ``--in``; the
    model file is stat/digest-checked and hot-reloaded between batches,
    and ``--update`` absorbs each scored batch back into the model
    (atomic save-back) so its sketch and drift state keep tracking the
    served traffic.
``explain``
    Explain a single point of a dataset.
``table1``
    Regenerate the paper's Table 1 comparison on the built-in
    stand-ins (a lighter-weight version of the full benchmark suite).
``datasets``
    List the built-in datasets.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .core.detector import SubspaceOutlierDetector
from .core.explain import explain_point, render_report
from .core.params import CountingBackend
from .data.loaders import load_csv
from .data.registry import DATASETS, load_dataset
from .engine.registry import ENGINES
from .eval.comparison import build_table1, render_table
from .grid.backends import PLACEMENTS, canonical_backend
from .exceptions import ReproError, SearchCancelled
from .persist import result_to_dict, save_model
from .resilience.ladder import describe_resilience
from .run.controller import RunController
from .search.evolutionary.config import EvolutionaryConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-outliers",
        description=(
            "Subspace outlier detection for high dimensional data "
            "(Aggarwal & Yu, SIGMOD 2001)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="run the detector and print a report")
    _add_data_arguments(detect)
    _add_detector_arguments(detect)
    _add_lifecycle_arguments(detect)
    detect.add_argument(
        "--top", type=int, default=10, help="outliers/projections to print"
    )
    detect.add_argument(
        "--output",
        choices=["report", "json"],
        default="report",
        help="report (human-readable) or json (machine-readable result)",
    )
    detect.add_argument(
        "--save", metavar="MODEL", default=None,
        help="persist the fitted model for later `score` runs",
    )

    multik = sub.add_parser(
        "multik",
        help="mine several dimensionalities under one budget/checkpoint dir",
    )
    _add_data_arguments(multik)
    _add_detector_arguments(multik)
    _add_lifecycle_arguments(multik)
    multik.add_argument(
        "--ks", nargs="+", type=int, default=None, metavar="K",
        help="dimensionalities to mine (default: every k in [1, k*])",
    )
    multik.add_argument(
        "--output",
        choices=["report", "json"],
        default="report",
        help="report (human-readable) or json (per-k results)",
    )

    score = sub.add_parser("score", help="score new data with a saved model")
    _add_data_arguments(score)
    score.add_argument(
        "--model", required=True, metavar="MODEL",
        help="model file written by `detect --save`",
    )
    score.add_argument(
        "--top", type=int, default=10, help="most abnormal points to print"
    )
    score.add_argument(
        "--in", dest="inputs", action="append", default=None, metavar="CSV",
        help=(
            "additional CSV batch to score after the primary input (may "
            "repeat); the model file is re-checked and hot-reloaded "
            "between batches"
        ),
    )
    score.add_argument(
        "--update", action="store_true",
        help=(
            "after scoring each batch, absorb its rows into the model's "
            "incremental state (sketch + occupancy drift) and atomically "
            "save the model back"
        ),
    )
    score.add_argument(
        "--trace-file", default=None, metavar="PATH",
        help=(
            "stream score_request / model_updated / grid_drift_detected "
            "events to PATH as one JSON object per line"
        ),
    )

    explain = sub.add_parser("explain", help="explain one point of a dataset")
    _add_data_arguments(explain)
    _add_detector_arguments(explain)
    explain.add_argument("--point", type=int, required=True, help="row index")
    explain.add_argument(
        "--output",
        choices=["report", "json"],
        default="report",
        help="report (human-readable) or json",
    )

    experiment = sub.add_parser(
        "experiment", help="run one of the paper's evaluation protocols"
    )
    experiment.add_argument(
        "protocol", choices=["arrhythmia", "figure1", "housing"]
    )
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument(
        "--restarts", type=int, default=None,
        help="GA restarts (protocol default if omitted)",
    )

    table1 = sub.add_parser("table1", help="regenerate the paper's Table 1")
    table1.add_argument(
        "--datasets",
        nargs="+",
        default=["breast_cancer", "ionosphere", "segmentation", "musk", "machine"],
        help="built-in dataset names",
    )
    table1.add_argument(
        "--brute-budget",
        type=float,
        default=60.0,
        help="seconds before a brute-force run is reported as '-'",
    )
    table1.add_argument(
        "--skip-brute-above",
        type=int,
        default=100,
        help="skip brute force above this dimensionality",
    )
    table1.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser(
        "sweep", help="sweep one detector parameter over a dataset"
    )
    _add_data_arguments(sweep)
    sweep.add_argument(
        "--parameter", required=True,
        choices=["dimensionality", "n_ranges", "n_projections"],
    )
    sweep.add_argument(
        "--values", required=True, nargs="+", type=int, help="settings to sweep"
    )
    sweep.add_argument("-k", "--dimensionality", type=int, default=None)
    sweep.add_argument("--phi", type=int, default=None)
    sweep.add_argument("-m", "--projections", type=int, default=20)
    sweep.add_argument(
        "--method", choices=sorted(ENGINES), default="brute_force"
    )
    sweep.add_argument("--seed", type=int, default=0)

    export = sub.add_parser(
        "export", help="materialize a built-in dataset as CSV or ARFF"
    )
    export.add_argument("--dataset", choices=sorted(DATASETS), required=True)
    export.add_argument("--format", choices=["csv", "arff"], default="csv")
    export.add_argument("--out", required=True, help="output file path")

    sub.add_parser("datasets", help="list built-in datasets")
    return parser


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--csv", help="path to a headered CSV file")
    source.add_argument(
        "--dataset", choices=sorted(DATASETS), help="built-in dataset name"
    )
    parser.add_argument(
        "--label-column", default=None, help="CSV column holding class labels"
    )


def _add_detector_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-k", "--dimensionality", type=int, default=None)
    parser.add_argument("--phi", type=int, default=None, help="grid ranges per dim")
    parser.add_argument("-m", "--projections", type=int, default=20)
    parser.add_argument(
        "--method",
        choices=sorted(ENGINES),
        default="evolutionary",
        help="search engine",
    )
    parser.add_argument("--threshold", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--population", type=int, default=50)
    parser.add_argument("--generations", type=int, default=100)
    parser.add_argument(
        "--mmap-dir",
        default=None,
        metavar="DIR",
        help=(
            "count out-of-core: write the packed membership masks to "
            "DIR in row shards and stream them back through read-only "
            "mmap views, so peak counting memory is one shard instead "
            "of the whole mask stack (counts stay bit-identical); a "
            "directory already holding the store for identical data is "
            "reused, and with --checkpoint-dir an interrupted run "
            "resumes mid-dataset"
        ),
    )
    parser.add_argument(
        "--shard-rows",
        type=int,
        default=None,
        metavar="ROWS",
        help=(
            "rows per mask shard for --mmap-dir (default: 2^20); "
            "smaller shards lower peak memory and checkpoint more "
            "often, larger shards amortize per-shard overhead"
        ),
    )
    parser.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help=(
            "where the degradation ladder spills the packed masks when "
            "the in-memory stack cannot be allocated (MemoryError): the "
            "run continues out-of-core with bit-identical counts "
            "(default: a temporary directory removed afterwards); "
            "incompatible with --mmap-dir, which is already out-of-core"
        ),
    )
    parser.add_argument(
        "--verify-shards",
        action="store_true",
        help=(
            "verify every mask shard against its manifest checksum "
            "before counting it (out-of-core runs); a corrupt shard is "
            "quarantined and rebuilt from the in-memory codes"
        ),
    )
    parser.add_argument(
        "--count-backend",
        type=canonical_backend,
        choices=sorted(PLACEMENTS),
        default="serial",
        help=(
            "where batched cube counts run: "
            + "; ".join(f"'{name}' {text}" for name, text in PLACEMENTS.items())
            + ".  Both count on the compiled C kernel when it builds (a "
            "cc-compiled library) and on the bit-identical numpy kernel "
            "otherwise.  'native' and 'process-native' are deprecated "
            "aliases of 'serial' and 'process'"
        ),
    )
    parser.add_argument(
        "--count-workers",
        type=int,
        default=None,
        help="worker processes for --count-backend process (default: all cores)",
    )
    parser.add_argument(
        "--count-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-chunk watchdog for --count-backend process: a chunk "
            "exceeding this is retried and the pool rebuilt (default: "
            "no timeout)"
        ),
    )
    parser.add_argument(
        "--count-retries",
        type=int,
        default=CountingBackend.max_retries,
        help=(
            "failed attempts per chunk before it degrades to the serial "
            "kernel (default: %(default)s); counts stay bit-identical "
            "either way"
        ),
    )
    parser.add_argument(
        "--count-chunk-size",
        type=int,
        default=CountingBackend.chunk_size,
        metavar="CUBES",
        help=(
            "cubes per worker task for --count-backend process; batches "
            "smaller than this stay serial (default: %(default)s)"
        ),
    )


def _add_lifecycle_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="wall-clock budget for the whole run (partial results after)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help=(
            "write crash-safe checkpoints at every search boundary; an "
            "interrupted run continues bit-identically with --resume"
        ),
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="boundaries (GA generations / brute-force levels) per checkpoint",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue from the checkpoints in --checkpoint-dir",
    )
    parser.add_argument(
        "--trace-file",
        default=None,
        metavar="PATH",
        help=(
            "stream every engine event (generations, levels, retries, "
            "checkpoints) to PATH as one JSON object per line"
        ),
    )


def _controller(args) -> RunController:
    """Run lifecycle shared by detect/multik: budget + signals + checkpoints."""
    if args.resume and args.checkpoint_dir is None:
        raise ReproError("--resume requires --checkpoint-dir")
    sink = None
    if getattr(args, "trace_file", None) is not None:
        from .engine.events import JsonlTraceSink

        sink = JsonlTraceSink(args.trace_file)
    return RunController(
        max_seconds=args.max_seconds,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        sink=sink,
    )


def _report_interruption(controller: RunController, stopped_reason: str) -> int:
    """Stderr note + exit code for a run that stopped early."""
    if stopped_reason == "cancelled":
        hint = (
            "; resume with --resume" if controller.store is not None
            else "; rerun with --checkpoint-dir to make runs resumable"
        )
        print(
            f"interrupted: partial results above ({stopped_reason}){hint}",
            file=sys.stderr,
        )
    elif stopped_reason == "deadline":
        print(
            "time budget exhausted: partial results above", file=sys.stderr
        )
    return controller.exit_code()


def _load(args) -> tuple:
    if args.csv:
        dataset = load_csv(args.csv, label_column=args.label_column)
    else:
        dataset = load_dataset(args.dataset)
    return dataset


def _phi(args, dataset) -> int:
    """``--phi`` as given (0 included), else the dataset's default φ."""
    if args.phi is not None:
        return args.phi
    return int(dataset.metadata.get("phi", 10))


def _counting(args) -> CountingBackend:
    """The ``--count-*`` options as a validated counting policy."""
    return CountingBackend(
        kind=args.count_backend,
        n_workers=args.count_workers,
        chunk_size=args.count_chunk_size,
        timeout=args.count_timeout,
        max_retries=args.count_retries,
    )


def _detector_kwargs(args, dataset) -> dict:
    """The detector options ``detect`` and ``multik`` share, from *args*."""
    return {
        "n_ranges": _phi(args, dataset),
        "n_projections": args.projections,
        "method": args.method,
        "threshold": args.threshold,
        "config": EvolutionaryConfig(
            population_size=args.population, max_generations=args.generations
        ),
        "mmap_dir": args.mmap_dir,
        "shard_rows": args.shard_rows,
        "spill_dir": args.spill_dir,
        "verify_shards": args.verify_shards,
        "counting": _counting(args),
        "random_state": args.seed,
    }


def _detector(args, dataset, controller=None) -> SubspaceOutlierDetector:
    return SubspaceOutlierDetector(
        dimensionality=args.dimensionality,
        controller=controller,
        **_detector_kwargs(args, dataset),
    )


def _cmd_detect(args) -> int:
    dataset = _load(args)
    controller = _controller(args)
    detector = _detector(args, dataset, controller)
    try:
        with controller.signal_handlers():
            result = detector.detect(
                dataset.values,
                feature_names=dataset.feature_names,
                resume=args.resume,
            )
    finally:
        if controller.sink is not None:
            controller.sink.close()
    if args.output == "json":
        print(json.dumps(result_to_dict(result), indent=2))
    else:
        print(
            render_report(
                result, detector.cells_, dataset.values, top=args.top,
                feature_names=dataset.feature_names,
            )
        )
    resilience = result.stats.get("resilience", {})
    if resilience.get("degraded"):
        print(
            f"warning: {describe_resilience(resilience)}; results are "
            "bit-identical to the healthy path",
            file=sys.stderr,
        )
    if args.save:
        path = save_model(detector, args.save)
        print(f"model saved to {path}", file=sys.stderr)
    return _report_interruption(controller, result.stopped_reason)


def _cmd_multik(args) -> int:
    from .core.multik import detect_across_dimensionalities

    dataset = _load(args)
    controller = _controller(args)
    try:
        with controller.signal_handlers():
            outcome = detect_across_dimensionalities(
                dataset.values,
                args.ks,
                feature_names=dataset.feature_names,
                detector_kwargs=_detector_kwargs(args, dataset),
                controller=controller,
                resume=args.resume,
            )
    except SearchCancelled as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return controller.exit_code() or 1
    finally:
        if controller.sink is not None:
            controller.sink.close()
    if args.output == "json":
        payload = {
            "stopped_reason": outcome.stopped_reason,
            "results": {
                str(k): result_to_dict(result)
                for k, result in outcome.results.items()
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"dataset: {dataset.summary()}")
        for line in outcome.summary_lines():
            print(line)
    return _report_interruption(controller, outcome.stopped_reason)


def _cmd_score(args) -> int:
    from .model import ModelHandle

    sink = None
    if getattr(args, "trace_file", None) is not None:
        from .engine.events import JsonlTraceSink

        sink = JsonlTraceSink(args.trace_file)
    batches = [(None, _load(args))]
    for extra in getattr(args, "inputs", None) or []:
        batches.append((extra, load_csv(extra, label_column=args.label_column)))
    handle = ModelHandle(args.model, event_sink=sink)
    try:
        for label, dataset in batches:
            # Hot reload: a concurrent retrain/update that rewrote the
            # model file between batches is picked up here.
            model = handle.current()
            if label is not None:
                print(f"--- {label}")
            scores = model.score(dataset.values)
            flagged = [
                (int(i), float(scores[i]))
                for i in np.argsort(scores)
                if not np.isnan(scores[i])
            ]
            print(
                f"{len(flagged)} of {dataset.n_points} points covered by the "
                f"model's {len(model.projections)} projections"
            )
            for point, value in flagged[: args.top]:
                print(f"  point {point:>6}  score {value:.3f}")
            if getattr(args, "update", False):
                drift = model.update(dataset.values)
                handle.save(model)
                note = (
                    f"; drift {drift.max_divergence:.3f} over "
                    f"{drift.n_rows} absorbed rows"
                    + (" [DRIFTED past threshold]" if drift.drifted else "")
                )
                print(
                    f"model updated (+{dataset.n_points} rows, "
                    f"version {model.version}){note}",
                    file=sys.stderr,
                )
    finally:
        if sink is not None:
            sink.close()
    return 0


def _cmd_explain(args) -> int:
    dataset = _load(args)
    detector = _detector(args, dataset)
    result = detector.detect(dataset.values, feature_names=dataset.feature_names)
    explanation = explain_point(
        args.point, result, detector.cells_, dataset.values, dataset.feature_names
    )
    if args.output == "json":
        print(json.dumps(explanation.to_dict(), indent=2))
    else:
        print(explanation)
    return 0


def _cmd_experiment(args) -> int:
    from .eval.protocols import (
        run_arrhythmia_protocol,
        run_figure1_protocol,
        run_housing_protocol,
    )

    if args.protocol == "arrhythmia":
        dataset = load_dataset("arrhythmia")
        config = EvolutionaryConfig(
            population_size=100,
            max_generations=60,
            restarts=args.restarts or 10,
        )
        outcome = run_arrhythmia_protocol(
            dataset, config=config, random_state=args.seed
        )
    elif args.protocol == "figure1":
        dataset = load_dataset("figure1_views")
        config = EvolutionaryConfig(
            population_size=60,
            max_generations=60,
            restarts=args.restarts or 4,
        )
        outcome = run_figure1_protocol(
            dataset, config=config, random_state=args.seed
        )
    else:
        dataset = load_dataset("housing")
        outcome = run_housing_protocol(dataset, random_state=args.seed)
    print(f"protocol: {args.protocol}  ({dataset.summary()})")
    for line in outcome.summary_lines():
        print(line)
    return 0


def _cmd_table1(args) -> int:
    datasets = [load_dataset(name) for name in args.datasets]
    rows = build_table1(
        datasets,
        brute_max_seconds=args.brute_budget,
        skip_brute_above_dims=args.skip_brute_above,
        random_state=args.seed,
    )
    print(render_table(rows))
    return 0


def _cmd_sweep(args) -> int:
    from .eval.sweeps import render_sweep, sweep_detector_parameter

    dataset = _load(args)
    base = {
        "n_projections": args.projections,
        "method": args.method,
        "random_state": args.seed,
    }
    if args.parameter != "n_ranges":
        base["n_ranges"] = _phi(args, dataset)
    if args.parameter != "dimensionality" and args.dimensionality is not None:
        base["dimensionality"] = args.dimensionality
    if args.parameter == "n_projections":
        base.pop("n_projections")
    rows = sweep_detector_parameter(
        dataset.values, args.parameter, args.values, base_kwargs=base
    )
    print(f"dataset: {dataset.summary()}")
    print(render_sweep(rows, args.parameter))
    return 0


def _cmd_export(args) -> int:
    from .data.export import write_arff, write_csv

    dataset = load_dataset(args.dataset)
    writer = write_csv if args.format == "csv" else write_arff
    path = writer(dataset, args.out)
    print(f"wrote {dataset.summary()} to {path}")
    return 0


def _cmd_datasets(_args) -> int:
    for name in sorted(DATASETS):
        dataset = load_dataset(name)
        print(f"{name:<16} {dataset.summary()}")
    return 0


_COMMANDS = {
    "detect": _cmd_detect,
    "multik": _cmd_multik,
    "score": _cmd_score,
    "explain": _cmd_explain,
    "experiment": _cmd_experiment,
    "table1": _cmd_table1,
    "sweep": _cmd_sweep,
    "export": _cmd_export,
    "datasets": _cmd_datasets,
}


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
