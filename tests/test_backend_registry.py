"""The counting-backend registry and its conformance gate.

The registry (:mod:`repro.grid.backends`) is the single source of
truth for ``--count-backend`` choices, ``CountingBackend.kind``
validation, and which kernel every placement counts with — and no
kernel may serve counts without passing the differential self-check.
These tests pin that contract:

* unknown names fail loudly *with the menu* (CLI exits 2 listing the
  registered backends; the API raises ``ValidationError`` naming them),
* a kernel that diverges from the reference — or lies about its stats —
  raises :class:`BackendConformanceError` and is **not** registered,
* duplicate registrations are rejected,
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
    BackendConformanceError,
    BackendSpec,
    get_backend,
    register_backend,
    register_kernel,
    registered_backends,
    registered_kernels,
    resolve_kernel,
    verify_kernel,
)
from repro.grid.kernels import batch_counts
from repro.grid import native
from repro.grid.native import native_batch_counts

from conftest import native_tier, native_tiers

BUILTIN_BACKENDS = ["process", "serial"]


@pytest.fixture
def scratch_registry():
    """Roll back any names a test registers (the registry is module
    state shared by the whole process)."""
    kernels = dict(reg._KERNELS)
    backends = dict(reg._BACKENDS)
    verified = set(reg._VERIFIED)
    yield
    reg._KERNELS.clear()
    reg._KERNELS.update(kernels)
    reg._BACKENDS.clear()
    reg._BACKENDS.update(backends)
    reg._VERIFIED.clear()
    reg._VERIFIED.update(verified)


def _diverging_kernel(stack, dims_arr, rng_arr):
    # Off-by-one on every count: must never pass the gate.
    counts, stats = batch_counts(stack, dims_arr, rng_arr)
    return counts + 1, stats


def _stats_lying_kernel(stack, dims_arr, rng_arr):
    counts, _ = batch_counts(stack, dims_arr, rng_arr)
    return counts, {"words": 0}  # missing the required keys


class TestRegistryMenu:
    def test_builtin_backends_registered(self):
        assert registered_backends() == BUILTIN_BACKENDS

    def test_builtin_kernels_registered(self):
        assert registered_kernels() == ["native", "numpy"]

    def test_get_backend_unknown_lists_menu(self):
        with pytest.raises(ValidationError) as exc:
            get_backend("bogus")  # repro-lint: disable=RPL014
        message = str(exc.value)
        for name in BUILTIN_BACKENDS:
            assert name in message

    def test_counting_backend_kind_validated_via_registry(self):
        with pytest.raises(ValidationError) as exc:
            CountingBackend(kind="bogus")  # repro-lint: disable=RPL014
        assert "process" in str(exc.value)
        # The deprecated aliases resolve to the placement they name.
        assert CountingBackend(kind="native") == CountingBackend()
        assert CountingBackend(kind="process-native").kind == "process"

    def test_resolve_kernel_unknown(self):
        with pytest.raises(ValidationError, match="numpy"):
            resolve_kernel("bogus")  # repro-lint: disable=RPL014

    def test_backend_spec_rejects_empty_name(self):
        with pytest.raises(ValidationError):
            BackendSpec(name="", uses_pool=False, description="x")


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
        self, scratch_registry
    ):
        with pytest.raises(BackendConformanceError, match="differential"):
            register_kernel("tests-diverging", _diverging_kernel)
        assert "tests-diverging" not in registered_kernels()

    def test_stats_contract_enforced(self, scratch_registry):
        with pytest.raises(BackendConformanceError, match="stats"):
            register_kernel("tests-lying", _stats_lying_kernel)
        assert "tests-lying" not in registered_kernels()

    def test_backend_over_unverified_bad_kernel_raises(
        self, scratch_registry, rng
    ):
        # Sneaking a diverging kernel in unverified does not help:
        # resolving it re-runs the gate and refuses, and a placement
        # whose fast kernel fails the gate counts on the reference.
        from repro.core.subspace import Subspace
        from repro.grid.cells import CellAssignment
        from repro.grid.counter import CubeCounter

        register_kernel("tests-sneaky", _diverging_kernel, verify=False)
        with pytest.raises(BackendConformanceError):
            resolve_kernel("tests-sneaky")
        reg._KERNELS["native"] = _diverging_kernel
        reg._VERIFIED.discard("native")
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

    def test_good_custom_kernel_registers(self, scratch_registry):
        register_kernel("tests-clone", batch_counts)
        assert "tests-clone" in registered_kernels()
        assert resolve_kernel("tests-clone") is batch_counts
        register_backend(
            BackendSpec(
                name="tests-clone-backend",
                uses_pool=False,
                description="another in-process placement",
            )
        )
        assert get_backend("tests-clone-backend").uses_pool is False
        # ...and the params layer immediately accepts the new kind.
        assert CountingBackend(kind="tests-clone-backend").kind == (
            "tests-clone-backend"
        )

    def test_duplicate_kernel_rejected(self, scratch_registry):
        with pytest.raises(ValidationError, match="already"):
            register_kernel("numpy", batch_counts, verify=False)

    def test_duplicate_backend_rejected(self, scratch_registry):
        with pytest.raises(ValidationError, match="already"):
            register_backend(
                BackendSpec(name="serial", uses_pool=False, description="dup")
            )
        # A deprecated alias is taken too.
        with pytest.raises(ValidationError, match="already"):
            register_backend(
                BackendSpec(name="native", uses_pool=False, description="dup")
            )

    def test_backend_requires_registered_kernel(self, scratch_registry):
        # A backend names no kernel; what it names must be registered
        # is its fallback.
        with pytest.raises(ValidationError, match="unregistered"):
            register_backend(
                BackendSpec(  # repro-lint: disable=RPL014
                    name="tests-orphan", uses_pool=True,
                    description="orphan", fallback="no-such-backend",
                )
            )
        assert "tests-orphan" not in registered_backends()

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
