"""Smoke test of the pipeline benchmark at tiny sizes.

Run from the repository root: ``PYTHONPATH=src python -m pytest benchmarks/pipeline``.
"""

from __future__ import annotations

import json

import pytest
from repro._atomic import atomic_write_text

import compare
import run
import workloads

SPEC = run.load_spec()

#: Size overrides small enough for every workload to finish in seconds.
TINY = {
    "ga_paper": {"n_points": 2_000},
    "ga_scale10": {"n_points": 4_000},
    "bf_level": {"n_points": 2_000, "n_dims": 8},
    "model_stream": {"n_points": 2_000},
}


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_workload_emits_declared_metrics(name, trace):
    report = workloads.run(name, seed=0, seconds=0, trace=bool(trace), **TINY[name])
    assert report["attempted"] > 0
    assert report["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    units = {metric: report["metrics"][metric][1] for metric in declared(kind)}
    assert units == declared(kind)
    line = run.result_line(report, SPEC)
    assert line["correct"] is True
    assert {m: v["unit"] for m, v in line["metrics"].items()} == declared(kind)


def test_compare_exit_status(tmp_path):
    def runs(name: str, values: list[float], digest: str = "d") -> str:
        lines = []
        for value in values:
            record = {
                "workload": "ga_paper", "seed": 0, "trace": 0, "attempted": 1,
                "failed": 0, "result_digest": digest,
                "metrics": {m: [value, u, 1] for m, u in declared("end_to_end").items()},
            }
            lines.append("record " + json.dumps(record) + "\n")
        return str(atomic_write_text(tmp_path / name, "".join(lines)))

    base = runs("base", [1.0, 1.01, 0.99])
    assert compare.main(["--base", base, "--head", runs("same", [1.0, 0.995, 1.005])]) == 0
    assert compare.main(["--base", base, "--head", runs("slow", [1.5, 1.49, 1.51])]) == 1
    assert compare.main(["--base", base, "--head", runs("other", [1.0] * 3, "e")]) == 1
    assert compare.main(["--base", base, "--head", runs("few", [1.0])]) == 2
