"""Compare two sets of pipeline-benchmark runs against BENCHMARK.json bounds.

Usage (files are saved stdout of ``run.py``, at least 3 runs per side)::

    python3 benchmarks/pipeline/run.py compare --base base/*.txt --head head/*.txt

For every workload and end-to-end metric it prints each side's median
and quartiles and a verdict:

``regressed``
    the head median is worse than the base median by more than the bound;
``unresolved``
    either side's interquartile spread exceeds the bound, so the runs
    cannot tell (unless every head run beats every base run: ``better``);
``better`` / ``ok``
    otherwise.

Exit status: 0 when nothing regressed, 1 on any regression, any rise of
the failed fraction, or differing result digests for one workload and
seed; 2 on unusable input.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_RUNS = 3


def load_records(paths: list[str]) -> list[dict]:
    """Every ``record`` line in the given saved run outputs."""
    records = []
    for path in paths:
        for line in Path(path).read_text().splitlines():
            if line.startswith("record "):
                records.append(json.loads(line[len("record "):]))
    return records


def verdict(base: list[float], head: list[float], bound: float,
            lower_is_better: bool) -> tuple[str, float]:
    """The verdict and the head median's relative worsening."""
    sign = 1.0 if lower_is_better else -1.0
    b1, bmed, b3 = statistics.quantiles(base, n=4)
    h1, hmed, h3 = statistics.quantiles(head, n=4)
    worse = sign * (hmed - bmed) / bmed
    # Worst head run against best base run, in the metric's direction.
    if max(sign * v for v in head) < min(sign * v for v in base):
        return "better", worse
    if (b3 - b1) / bmed > bound or (h3 - h1) / hmed > bound:
        return "unresolved", worse
    return ("regressed" if worse > bound else "ok"), worse


def failed_fraction(records: list[dict]) -> float:
    return sum(r["failed"] for r in records) / sum(r["attempted"] for r in records)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    sides = {"base": load_records(args.base), "head": load_records(args.head)}

    status = 0
    print(f"{'workload':<13} {'metric':<12} {'base p50 [q1, q3]':<32} "
          f"{'head p50 [q1, q3]':<32} {'change':>8} {'bound':>6}  verdict")
    workloads = sorted({r["workload"] for rs in sides.values() for r in rs})
    for workload in workloads:
        runs = {side: [r for r in rs if r["workload"] == workload]
                for side, rs in sides.items()}
        untraced = {side: [r for r in rs if not r["trace"]]
                    for side, rs in runs.items()}
        if any(len(rs) < MIN_RUNS for rs in untraced.values()):
            print(f"{workload}: need {MIN_RUNS}+ untraced runs per side, got "
                  f"{len(untraced['base'])} and {len(untraced['head'])}")
            status = max(status, 2)
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name][0] for r in rs]
                      for side, rs in untraced.items()}
            result, worse = verdict(values["base"], values["head"],
                                    metric["bound"], metric["better"] == "lower")
            cells = []
            for side in ("base", "head"):
                q1, median, q3 = statistics.quantiles(values[side], n=4)
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{workload:<13} {name:<12} {cells[0]:<32} {cells[1]:<32} "
                  f"{worse:>+8.1%} {metric['bound']:>6.0%}  {result}")
            if result == "regressed":
                status = max(status, 1)
        base_failed = failed_fraction(runs["base"])
        head_failed = failed_fraction(runs["head"])
        if head_failed > base_failed:
            print(f"{workload}: failed fraction rose from {base_failed:.4f} "
                  f"to {head_failed:.4f}")
            status = max(status, 1)

    digests = defaultdict(set)
    for records in sides.values():
        for r in records:
            digests[(r["workload"], r["seed"])].add(r["result_digest"])
    for (workload, seed), seen in sorted(digests.items()):
        if len(seen) > 1:
            print(f"{workload} seed {seed}: result digests differ: {sorted(seen)}")
            status = max(status, 1)
    print("compare: " + {0: "no regression", 1: "REGRESSION",
                         2: "unusable input"}[status])
    return status
