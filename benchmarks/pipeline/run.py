"""Pipeline benchmark: paper-shaped workloads, end to end and per layer.

Run from the repository root::

    python3 benchmarks/pipeline/run.py --workload ga_paper --seed 0 --seconds 20 --trace 0
    python3 benchmarks/pipeline/run.py --workload all        # every workload, one child each
    python3 benchmarks/pipeline/run.py compare --base A1 A2 A3 --head B1 B2 B3

A run prints a header, a metric table (name, value, unit, sample count),
a ``record`` line and, last, one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` holding the end-to-end metrics declared in
``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
(``--trace 1``).  ``compare`` reads saved stdout of such runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cap_threads(nproc: int) -> None:
    """Cap BLAS/OpenMP pools at *nproc*; must run before numpy loads."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        limit = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(limit, nproc))


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def header(seed: int, nproc: int) -> dict:
    import numpy
    from repro.grid.native import kernel_info

    # Resolving the tier compiles the C kernel into REPRO_NATIVE_CACHE,
    # so no timed region pays for the compiler.
    tier = kernel_info()["tier"]
    return {
        "kernel_tier": tier,
        "kernel_tier_flag": "" if tier == "c" else "tier is not c",
        "nproc": nproc,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "seed": seed,
    }


def result_line(report: dict, spec: dict) -> dict:
    """The run's last output line: the declared metrics of this run's kind."""
    declared = spec["per_layer"] if report["trace"] else spec["end_to_end"]
    metrics = report["metrics"]
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
            for m in declared
        },
    }


def print_table(title: str, metrics: dict) -> None:
    print(f"{title:<30} {'value':>14}  {'unit':<6} n")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<30} {value:>14.6g}  {unit:<6} {n}")


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Each workload in a fresh child process, one after another."""
    status = 0
    for workload in spec["workloads"]:
        child = subprocess.run([
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        status = max(status, child.returncode)
    return status


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    nproc = len(os.sched_getaffinity(0))
    cap_threads(nproc)
    # Keep the compiled kernel and the compiler's temporaries in the tree.
    tmp = HERE / "out" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["REPRO_NATIVE_CACHE"] = str(HERE / "out" / "native")
    if args.workload == "all":
        return run_all(args, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; expected one of {names}",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    info = header(args.seed, nproc)
    print(f"# pipeline benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("header " + json.dumps(info))
    if info["kernel_tier_flag"]:
        print(f"WARNING: native kernel {info['kernel_tier_flag']} "
              f"({info['kernel_tier']}); bf_level timings are not comparable")
    report = workloads.run(args.workload, args.seed, args.seconds,
                           trace=bool(args.trace))
    report["header"] = info
    print_table("metric", report["metrics"])
    if args.trace:
        print("amdahl (self-time share of op time):")
        shares = {k: v for k, v in report["metrics"].items()
                  if k.startswith("amdahl.") and k != "amdahl.unattributed"}
        for name, (share, _, _) in sorted(shares.items(), key=lambda kv: -kv[1][0]):
            print(f"  {name[len('amdahl.'):]:<16} {share:7.1%}")
        print(f"  {'(unattributed)':<16} "
              f"{report['metrics']['amdahl.unattributed'][0]:7.1%}")
        print(f"trace written to {report['trace_file']}")
    else:
        print_table("detail (raw, not gated)", report["detail"])
    print(f"result_digest {report['result_digest']}  "
          f"attempted={report['attempted']} failed={report['failed']}")
    print("record " + json.dumps(report))
    print(json.dumps(result_line(report, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
