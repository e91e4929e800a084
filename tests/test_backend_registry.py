"""The counting placements, the kernel table and the conformance gate.

:mod:`repro.grid.backends` is the single source of truth for
``--count-backend`` choices, ``CountingBackend.kind`` validation
(``PLACEMENTS``, plus the deprecated ``_ALIASES``), and which kernel of
``KERNELS`` every placement counts with — and no kernel may serve
counts without passing the differential self-check.  These tests pin
that contract:

* unknown names fail loudly *with the menu* (CLI exits 2 listing the
  placements; the API raises ``ValidationError`` naming them),
* a kernel that diverges from the reference — or lies about its stats —
  raises :class:`BackendConformanceError` and never serves counts,
* every deprecated alias names a placement and none shadows one,
* the builtin kernels genuinely pass their own gate, and what a
  counter serves passes it on every tier,
* a counter reports the kernel that actually serves, before and after
  a ``kernel`` ladder step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core.params import CountingBackend
from repro.exceptions import ResourceError, ValidationError
from repro.grid import backends as reg
from repro.grid.backends import (
    KERNELS,
    PLACEMENTS,
    BackendConformanceError,
    resolve_kernel,
    verify_kernel,
)
from repro.grid.kernels import batch_counts
from repro.grid import native
from repro.grid.native import native_batch_counts

from conftest import native_tier, native_tiers

BUILTIN_BACKENDS = ["process", "serial"]


@pytest.fixture
def diverging_native(monkeypatch):
    """Swap a diverging kernel in under the ``native`` name, unverified
    (the table and the verified set are module state shared by the
    whole process; monkeypatch rolls both back)."""
    monkeypatch.setitem(KERNELS, "native", _diverging_kernel)
    monkeypatch.setattr(reg, "_VERIFIED", reg._VERIFIED - {"native"})


def _diverging_kernel(stack, dims_arr, rng_arr):
    # Off-by-one on every count: must never pass the gate.
    counts, stats = batch_counts(stack, dims_arr, rng_arr)
    return counts + 1, stats


def _stats_lying_kernel(stack, dims_arr, rng_arr):
    counts, _ = batch_counts(stack, dims_arr, rng_arr)
    return counts, {"words": 0}  # missing the required keys


class TestRegistryMenu:
    def test_builtin_backends_registered(self):
        assert sorted(PLACEMENTS) == BUILTIN_BACKENDS

    def test_builtin_kernels_registered(self):
        assert sorted(KERNELS) == ["native", "numpy"]

    def test_counting_backend_kind_validated_via_registry(self):
        with pytest.raises(ValidationError) as exc:
            CountingBackend(kind="bogus")  # repro-lint: disable=RPL014
        for name in BUILTIN_BACKENDS:
            assert name in str(exc.value)
        # The deprecated aliases resolve to the placement they name.
        assert CountingBackend(kind="native") == CountingBackend()
        assert CountingBackend(kind="process-native").kind == "process"

    def test_resolve_kernel_unknown(self):
        with pytest.raises(ValidationError, match="numpy"):
            resolve_kernel("bogus")  # repro-lint: disable=RPL014


class TestCLIMenu:
    def test_unknown_count_backend_exits_2_with_menu(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["detect", "--dataset", "machine",
                 "--count-backend", "bogus"]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        for name in BUILTIN_BACKENDS:
            assert name in err

    def test_native_backend_accepted(self, capsys):
        code = main(
            ["detect", "--dataset", "machine", "--method", "brute_force",
             "--top", "3", "--count-backend", "native"]
        )
        assert code == 0
        assert "Top 3 outliers" in capsys.readouterr().out


class TestConformanceGate:
    def test_builtin_native_kernel_passes_every_tier(self, rng):
        from repro.core.subspace import Subspace
        from repro.grid.cells import CellAssignment
        from repro.grid.counter import CubeCounter

        codes = rng.integers(0, 3, size=(40, 3)).astype(np.int16)
        cubes = [Subspace((0, 2), (r, 1)) for r in range(3)]
        for tier in native_tiers():
            with native_tier(tier):
                counter = CubeCounter(CellAssignment(codes, 3))
                counter.count_batch(cubes)
                if tier == "c":
                    # The C kernel itself passes, and the default
                    # counter chose it.
                    verify_kernel(native_batch_counts, "native[c]")
                    assert reg.select_kernel() == ("native", None)
                    assert counter.kernel_info()["kernel"] == "native"
                else:
                    # The failed build is refused by the gate, typed,
                    # and the counter chose the reference instead.
                    with pytest.raises(ResourceError, match="unavailable"):
                        verify_kernel(native_batch_counts)
                    assert reg.select_kernel()[0] == "numpy"
                    assert counter.kernel_info()["kernel"] == "numpy"
                # Either way no ladder step: nothing was refused.
                assert counter.resilience.ladder == {}
                # Whatever the counter now serves passes the gate.
                verify_kernel(counter.batch_kernel, f"native[{tier}]")

    def test_native_kernel_rejects_non_word_stack(self):
        # A bool stack's rows need not be whole words; the C tier would
        # skip the ragged tail, so the entry point refuses it.
        stack = np.ones((2, 2, 13), dtype=bool)
        index = np.zeros((1, 1), dtype=np.intp)
        with pytest.raises(ValidationError, match="uint64"):
            native_batch_counts(stack, index, index)

    def test_diverging_kernel_raises_and_is_not_registered(
        self, diverging_native
    ):
        with pytest.raises(BackendConformanceError, match="differential"):
            resolve_kernel("native")
        assert "native" not in reg._VERIFIED

    def test_stats_contract_enforced(self):
        with pytest.raises(BackendConformanceError, match="stats"):
            verify_kernel(_stats_lying_kernel, "tests-lying")

    def test_backend_over_unverified_bad_kernel_raises(
        self, diverging_native, rng
    ):
        # A placement whose fast kernel fails the gate counts on the
        # reference, and says why.
        from repro.core.subspace import Subspace
        from repro.grid.cells import CellAssignment
        from repro.grid.counter import CubeCounter

        name, reason = reg.select_kernel()
        assert name == "numpy"
        assert "differential" in reason
        codes = rng.integers(0, 3, size=(40, 3)).astype(np.int16)
        counter = CubeCounter(CellAssignment(codes, 3))
        cubes = [Subspace((0, 2), (r, 1)) for r in range(3)]
        expected = [int(np.sum((codes[:, 0] == r) & (codes[:, 2] == 1)))
                    for r in range(3)]
        assert counter.count_batch(cubes).tolist() == expected
        info = counter.kernel_info()
        assert info["kernel"] == "numpy"
        assert "differential" in info["reason"]
        assert counter.resilience.ladder == {}

    def test_duplicate_backend_rejected(self):
        # A deprecated alias never shadows a placement.
        assert set(reg._ALIASES).isdisjoint(PLACEMENTS)

    def test_backend_requires_registered_kernel(self):
        # Both kernels select_kernel can serve are in the table, and
        # every deprecated alias names a placement.
        assert {reg._REFERENCE_KERNEL, reg._FAST_KERNEL} <= set(KERNELS)
        assert set(reg._ALIASES.values()) <= set(PLACEMENTS)

    def test_verify_kernel_names_divergence(self):
        with pytest.raises(BackendConformanceError, match="candidate"):
            verify_kernel(_diverging_kernel)


class TestCounterIntegration:
    def test_counter_reports_backend_kernel(self, rng, monkeypatch):
        from repro.core.subspace import Subspace
        from repro.grid.cells import CellAssignment
        from repro.grid.counter import CubeCounter

        codes = rng.integers(0, 3, size=(50, 4)).astype(np.int16)
        kernels = {"c": "native", "numpy": "numpy"}
        for tier in native_tiers():
            counter = CubeCounter(
                CellAssignment(codes, 3),
                backend=CountingBackend(kind="native"),
            )
            with native_tier(tier):
                info = counter.kernel_info()
            assert info["backend"] == "serial"
            assert info["kernel"] == kernels[tier]
            assert info["tier"] == tier
            assert ("reason" in info) == (tier == "numpy")
            stats = counter.cache_stats()
            assert stats["backend"] == "serial"
            assert stats["kernel"] == kernels[tier]
            assert stats["kernel_tier"] == tier
            assert ("kernel_reason" in stats) == (tier == "numpy")
        if "c" not in native_tiers():
            return
        # A C kernel that fails while counting steps the ladder, and
        # both reports then name the kernel that serves: numpy.
        counter = CubeCounter(CellAssignment(codes, 3))
        assert counter.kernel_info()["kernel"] == "native"

        def crash():
            raise ResourceError("simulated kernel crash")

        monkeypatch.setattr(native, "_load_kernel", crash)
        counter.count_batch([Subspace((0, 1), (r, 2)) for r in range(3)])
        assert counter.resilience.ladder == {"kernel": "numpy"}
        info = counter.kernel_info()
        assert (info["kernel"], info["tier"]) == ("numpy", "numpy")
        assert "simulated kernel crash" in info["reason"]
        stats = counter.cache_stats()
        assert (stats["kernel"], stats["kernel_tier"]) == ("numpy", "numpy")
        assert "simulated kernel crash" in stats["kernel_reason"]
