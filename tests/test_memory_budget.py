"""Memory-budget regression tests for the out-of-core counting path.

The tentpole claim of the sharded counter is a *resource* claim:
counting memory is one shard plus the batch accumulator, independent of
N.  These tests enforce it with ``resource.setrlimit`` in a child
process — the sharded pipeline (streamed discretizer codes →
``build_from_chunks`` → :class:`ShardedCounter`) must complete a
dataset whose in-memory twin **cannot even materialize its code matrix**
under the same address-space cap.

The cap is set relative to the child's post-import ``VmSize`` so the
python/numpy baseline (which varies by build) never skews the budget:
only the headroom the pipeline itself is allowed to allocate is fixed.

The fast variants run in tier 1; the ``slow``-marked one scales the same
scenario to 10^7 rows (ISSUE acceptance scale).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Child protocol: argv = [mode, n, d, phi, shard_rows, headroom_mb, dir].
#: Sets RLIMIT_AS to (current VmSize + headroom), then runs the pipeline.
#: Exit 0 = completed (sharded mode also self-checks a count partition);
#: exit 42 = MemoryError (the expected in-memory failure); anything else
#: is a real bug.
CHILD = r"""
import resource, sys
import numpy as np

mode, n, d, phi, shard_rows, headroom_mb, directory = sys.argv[1:8]
n, d, phi, shard_rows = int(n), int(d), int(phi), int(shard_rows)

from repro.core.subspace import Subspace
from repro.grid.cells import CellAssignment
from repro.grid.counter import CubeCounter
from repro.grid.sharded import ShardedCounter, ShardedMaskStore


def code_chunks():
    # Deterministic codes, generated one shard-sized chunk at a time —
    # the only way any stage sees the data in sharded mode.
    rng = np.random.default_rng(2024)
    for lo in range(0, n, shard_rows):
        m = min(shard_rows, n - lo)
        yield rng.integers(0, phi, size=(m, d), dtype=np.int16)


def vmsize_bytes():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmSize"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmSize in /proc/self/status")


limit = vmsize_bytes() + int(headroom_mb) * 1024 * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

try:
    if mode == "sharded":
        store = ShardedMaskStore.build_from_chunks(
            code_chunks(), directory, n_ranges=phi, shard_rows=shard_rows
        )
        counter = ShardedCounter(store)
        cubes = [Subspace((0,), (r,)) for r in range(phi)]
        cubes += [Subspace((0, d - 1), (r, 0)) for r in range(phi)]
        counts = counter.count_batch(cubes)
        counter.close()
        # The phi single-range cubes on one dimension partition the
        # (fully observed) rows: their counts must resum to N exactly.
        if int(counts[:phi].sum()) != n:
            print("PARTITION MISMATCH", counts[:phi].sum(), n)
            sys.exit(3)
        print("OK", counts.tolist())
    elif mode == "inmemory":
        codes = np.concatenate(list(code_chunks()), axis=0)
        counter = CubeCounter(CellAssignment(codes=codes, n_ranges=phi))
        counter.count_batch([Subspace((0,), (r,)) for r in range(phi)])
        counter.close()
        print("OK")
    else:
        sys.exit(2)
except MemoryError:
    sys.exit(42)
"""


def run_child(mode, tmp_path, *, n, d=8, phi=5, shard_rows=1 << 17, headroom_mb):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [
            sys.executable, "-c", CHILD,
            mode, str(n), str(d), str(phi), str(shard_rows),
            str(headroom_mb), str(tmp_path / "store"),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


class TestMemoryBudget:
    def test_sharded_completes_under_small_cap(self, tmp_path):
        # 10^6 rows: the in-memory code matrix alone is 16 MB and the
        # packed stack another 25 MB, but the sharded pipeline only ever
        # holds one 2 MB chunk of codes and one 640 KB shard stack — it
        # must fit (and self-check its counts) in 32 MB of headroom.
        result = run_child(
            "sharded", tmp_path, n=1_000_000, headroom_mb=32
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("OK")

    def test_in_memory_fails_under_same_scale_cap(self, tmp_path):
        # The same generator at 4x the rows: materializing the full code
        # matrix (64 MB) must blow a 48 MB cap with a MemoryError —
        # this is the failure mode the sharded path exists to remove.
        result = run_child(
            "inmemory", tmp_path, n=4_000_000, headroom_mb=48
        )
        assert result.returncode == 42, (result.returncode, result.stderr)

    def test_sharded_cap_is_real(self, tmp_path):
        # Sanity for the harness itself: the sharded pipeline is not
        # exempt from the rlimit — a headroom below one chunk of codes
        # must fail, proving the cap actually binds in child processes.
        result = run_child(
            "sharded", tmp_path, n=1_000_000, headroom_mb=1
        )
        assert result.returncode == 42, (result.returncode, result.stderr)


@pytest.mark.slow
class TestMemoryBudgetAtScale:
    def test_ten_million_rows_out_of_core(self, tmp_path):
        # ISSUE acceptance scale: 10^7 rows (160 MB of codes, 50 MB
        # packed) counted under a cap that the in-memory twin cannot
        # even load its data within.
        sharded = run_child(
            "sharded", tmp_path / "a", n=10_000_000, headroom_mb=96
        )
        assert sharded.returncode == 0, sharded.stderr
        assert sharded.stdout.startswith("OK")
        inmemory = run_child(
            "inmemory", tmp_path / "b", n=10_000_000, headroom_mb=96
        )
        assert inmemory.returncode == 42, (inmemory.returncode, inmemory.stderr)
