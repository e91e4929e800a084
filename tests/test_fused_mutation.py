"""The C mutation against the Python loop it replaces.

On the C tier :meth:`BalancedMutation.apply` mutates the whole gene
matrix in one call of :func:`~repro.grid.native.native_mutate`, drawing
from the caller's :class:`numpy.random.Generator` through numpy's
``bitgen_t`` interface.  The Python loop,
:meth:`BalancedMutation._mutate_loop`, stays the reference, and the
per-row mutation of ``tests/test_evo_matrix_operators.py`` is a third
opinion.  The genes and the generator's ``bit_generator.state`` must
agree after every call: over drawn populations (p up to 60, d up to 24,
rows of every k from 1 to d mixed with all-wildcard rows, φ up to 12,
probabilities 0, 1 and in between), under four of numpy's bit
generators, for several generations in a row on one generator.

Mutation does not count, so the C path serves every counter placement
(a serial counter runs it inside the one-call generation); a whole
detect must mine the same set, make the same evaluations and leave the
generator in the same state with it on or off.  Without the
C library, with a library that cannot be loaded and with a routine
that fails its proof, the loop serves (a failed proof is logged once).
The wrapper refuses malformed input before its first draw.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from conftest import native_tier, native_tiers
from hypothesis import given, settings, strategies as st
from test_evo_matrix_operators import reference_mutation

from repro.core.detector import SubspaceOutlierDetector
from repro.core.params import CountingBackend
from repro.exceptions import ResourceError, ValidationError
from repro.grid import backends, native
from repro.grid.native import NativeGeneration, native_mutate
from repro.search.evolutionary import generation as generation_module
from repro.search.evolutionary import mutation as mutation_module
from repro.search.evolutionary.encoding import WILDCARD_GENE
from repro.search.evolutionary.mutation import (
    BalancedMutation,
    _mutation_serves,
    _same_state,
)

BIT_GENERATORS = {
    "pcg64": np.random.PCG64,
    "mt19937": np.random.MT19937,
    "philox": np.random.Philox,
    "sfc64": np.random.SFC64,
}


def population(rng, p: int, d: int, k: int, phi: int) -> np.ndarray:
    """*p* rows fixing *k* random genes each; about one in five fixes
    none, and the first fixes all *d*."""
    genes = np.full((p, d), WILDCARD_GENE)
    for row in genes:
        row[rng.choice(d, size=k, replace=False)] = rng.integers(0, phi, size=k)
    genes[rng.random(p) < 0.2] = WILDCARD_GENE
    genes[0] = rng.integers(0, phi, size=d)
    return genes


def generators(name: str, seed: int) -> tuple:
    """Three generators of one seed over bit generator *name*."""
    return tuple(
        np.random.Generator(BIT_GENERATORS[name](seed)) for _ in range(3)
    )


def assert_same_state(*rngs) -> None:
    first = rngs[0].bit_generator.state
    for other in rngs[1:]:
        assert _same_state(first, other.bit_generator.state)


def check_case(seed, p, d, k, phi, p1, p2, bit_generator, generations, tier):
    """apply (on *tier*), the loop and the per-row reference agree on
    the genes and the generator state after every generation."""
    draw = np.random.default_rng(seed)
    genes = population(draw, p, d, min(k, d), phi)
    fast, slow, oracle = generators(bit_generator, seed)
    mutation = BalancedMutation(p1, p2, phi)
    got = want = genes
    rows = genes.tolist()
    with native_tier(tier):
        assert _mutation_serves() == (tier == "c")
        for _ in range(generations):
            got = mutation.apply(got, fast)
            want = mutation._mutate_loop(want, slow)
            rows = reference_mutation(rows, p1, p2, phi, oracle)
            np.testing.assert_array_equal(got, want)
            assert got.tolist() == rows
            assert_same_state(fast, slow, oracle)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(
        (got != WILDCARD_GENE).sum(axis=1), (genes != WILDCARD_GENE).sum(axis=1)
    )


PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, allow_nan=False)
)


@st.composite
def cases(draw, max_p: int):
    d = draw(st.integers(1, 24))
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "p": draw(st.integers(1, max_p)),
        "d": d,
        "k": draw(st.integers(1, d)),
        "phi": draw(st.integers(1, 12)),
        "p1": draw(PROBABILITIES),
        "p2": draw(PROBABILITIES),
        "bit_generator": draw(st.sampled_from(sorted(BIT_GENERATORS))),
        "generations": draw(st.integers(1, 4)),
    }


@pytest.mark.parametrize("tier", ["c", "numpy"])
@settings(max_examples=60, deadline=None)
@given(case=cases(max_p=60))
def test_c_mutation_matches_the_loop(tier, case):
    check_case(**case, tier=tier)


@pytest.mark.slow
@pytest.mark.parametrize("tier", ["c", "numpy"])
@settings(max_examples=800, deadline=None)
@given(case=cases(max_p=60))
def test_c_mutation_matches_the_loop_deep(tier, case):
    check_case(**case, tier=tier)


@pytest.mark.parametrize("phi", [1 << 30, 3 << 29, (1 << 31) - 1])
@pytest.mark.parametrize("bit_generator", sorted(BIT_GENERATORS))
def test_rejected_draws_are_redrawn_as_numpy_does(phi, bit_generator):
    """Large φ: numpy's bounded draw rejects up to a quarter of its
    32-bit words here (3·2^29), which the C draw must redraw alike."""
    check_case(7, 40, 9, 3, phi, 1.0, 1.0, bit_generator, 4, native_tiers()[0])


class TestServing:
    """Mutation does not count, so every counter placement serves it."""

    @pytest.fixture
    def data(self):
        return np.random.default_rng(3).normal(size=(300, 7))

    @pytest.mark.parametrize("placement", ["serial", "process", "sharded"])
    def test_detect_is_the_same_with_c_on_and_off(
        self, data, placement, tmp_path, monkeypatch
    ):
        if "c" not in native_tiers():
            pytest.skip("the C kernel does not build on this machine")
        calls = []

        def counted(*args):
            calls.append(args[0].shape)
            return native_mutate(*args)

        def counted_generation(self):
            calls.append(self._shape)
            return run_generation(self)

        # A serial counter mutates inside the one-call generation, which
        # runs the same C mutation; it is switched on and off with it.
        run_generation = NativeGeneration.__call__
        monkeypatch.setattr(mutation_module, "native_mutate", counted)
        monkeypatch.setattr(NativeGeneration, "__call__", counted_generation)

        def detect(serve: bool, run: int):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(mutation_module, "_mutation_serves", lambda: serve)
                patch.setattr(generation_module, "_generation_serves", lambda: serve)
                options = {}
                if placement == "process":
                    options["counting"] = CountingBackend(
                        kind="process", n_workers=2, chunk_size=32
                    )
                elif placement == "sharded":
                    options.update(mmap_dir=tmp_path / str(run), shard_rows=64)
                rng = np.random.default_rng(11)
                detector = SubspaceOutlierDetector(
                    dimensionality=3, n_ranges=4, n_projections=5,
                    random_state=rng, **options,
                )
                return detector.detect(data), rng

        python, python_rng = detect(False, 0)
        assert calls == []
        fused, fused_rng = detect(True, 1)
        assert calls, "the C mutation did not serve"
        assert fused.projections == python.projections
        assert fused.stats["evaluations"] == python.stats["evaluations"]
        assert fused.stats["generations"] == python.stats["generations"]
        assert_same_state(fused_rng, python_rng)

    def test_no_c_library_serves_the_loop(self):
        rng = np.random.default_rng(5)
        genes = population(rng, 30, 8, 3, 5)
        mutation = BalancedMutation(0.7, 0.7, 5)
        fast, slow, _ = generators("pcg64", 5)
        with native_tier("numpy"):
            assert not _mutation_serves()
            got = mutation.apply(genes, fast)
        np.testing.assert_array_equal(got, mutation._mutate_loop(genes, slow))
        assert_same_state(fast, slow)

    def test_an_unloadable_library_serves_the_loop(self, monkeypatch):
        if "c" not in native_tiers():
            pytest.skip("the C kernel does not build on this machine")
        assert _mutation_serves()  # proven before the library breaks
        rng = np.random.default_rng(6)
        genes = population(rng, 30, 8, 3, 5)
        mutation = BalancedMutation(0.7, 0.7, 5)
        fast, slow, _ = generators("sfc64", 6)
        monkeypatch.setattr(native, "_load_kernel", _crash)
        got = mutation.apply(genes, fast)
        np.testing.assert_array_equal(got, mutation._mutate_loop(genes, slow))
        assert_same_state(fast, slow)

    def test_a_failed_proof_logs_once_and_serves_the_loop(
        self, monkeypatch, caplog
    ):
        if "c" not in native_tiers():
            pytest.skip("the C kernel does not build on this machine")

        def one_draw_short(genes, *args):
            # The C routine, with the first string's Type I coin skipped.
            rng = args[-1]
            rng.random()
            return native_mutate(genes, *args)

        monkeypatch.setattr(mutation_module, "native_mutate", one_draw_short)
        mutation_module._mutation_serves.verdict.cache_clear()
        try:
            with caplog.at_level(logging.WARNING, logger=backends.__name__):
                assert not _mutation_serves()
                assert not _mutation_serves()
            warnings = [r for r in caplog.records if "mutation" in r.getMessage()]
            assert len(warnings) == 1
            assert "self-check" in warnings[0].getMessage()
            rng = np.random.default_rng(8)
            genes = population(rng, 30, 8, 3, 5)
            mutation = BalancedMutation(0.7, 0.7, 5)
            fast, slow, _ = generators("mt19937", 8)
            got = mutation.apply(genes, fast)
            np.testing.assert_array_equal(got, mutation._mutate_loop(genes, slow))
            assert_same_state(fast, slow)
        finally:
            mutation_module._mutation_serves.verdict.cache_clear()

    def test_oversized_phi_or_width_serves_the_loop(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            mutation_module, "native_mutate", lambda *args: calls.append(args)
        )
        monkeypatch.setattr(mutation_module, "MUTATE_LIMIT", 6)
        rng = np.random.default_rng(9)
        for d, phi in ((6, 3), (4, 6)):
            genes = population(rng, 10, d, 2, phi)
            mutation = BalancedMutation(1.0, 1.0, phi)
            fast, slow, _ = generators("philox", 9)
            got = mutation.apply(genes, fast)
            np.testing.assert_array_equal(got, mutation._mutate_loop(genes, slow))
            assert_same_state(fast, slow)
        assert calls == []


def _crash():
    raise ResourceError("simulated library crash")


class TestWrapperRefusals:
    """Refused before the first draw: these run whether or not the
    library builds, and the generator must stay untouched."""

    @pytest.fixture
    def genes(self):
        return population(np.random.default_rng(4), 12, 6, 2, 4)

    def refuse(self, *args, error=ValidationError):
        rng = np.random.default_rng(10)
        before = rng.bit_generator.state
        with pytest.raises(error):
            native_mutate(*args, rng)
        assert _same_state(before, rng.bit_generator.state)

    def test_accepts_the_case(self, genes):
        if "c" not in native_tiers():
            pytest.skip("the C kernel does not build on this machine")
        got = native_mutate(genes, 4, 0.5, 0.5, np.random.default_rng(10))
        assert got.shape == genes.shape and got is not genes

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(lambda g: g[0], id="1-d"),
            pytest.param(lambda g: g[None], id="3-d"),
            pytest.param(lambda g: g.tolist(), id="list"),
            pytest.param(lambda g: g.astype(float), id="float"),
            pytest.param(lambda g: g.astype(np.uint64), id="uint64"),
            pytest.param(lambda g: g[:, :0], id="no-columns"),
            pytest.param(lambda g: np.where(g >= 0, -2, g), id="gene-2"),
            pytest.param(lambda g: np.where(g >= 0, 4, g), id="gene-phi"),
        ],
    )
    def test_refuses_genes(self, genes, bad):
        self.refuse(bad(genes.copy()), 4, 0.5, 0.5)

    @pytest.mark.parametrize("phi", [0, -1, 1 << 31, 4.0, None])
    def test_refuses_phi(self, genes, phi):
        self.refuse(genes, phi, 0.5, 0.5)

    def test_refuses_width_from_the_limit_on(self, genes, monkeypatch):
        monkeypatch.setattr(native, "MUTATE_LIMIT", genes.shape[1])
        self.refuse(genes, 4, 0.5, 0.5)

    @pytest.mark.parametrize(
        "p1, p2", [(-0.1, 0.5), (0.5, 1.5), (np.nan, 0.5), (0.5, "0.5"), (None, 0.5)]
    )
    def test_refuses_probabilities(self, genes, p1, p2):
        self.refuse(genes, 4, p1, p2)

    @pytest.mark.parametrize(
        "rng", [None, 10, np.random.RandomState(10), np.random.PCG64(10)]
    )
    def test_refuses_other_rngs(self, genes, rng):
        with pytest.raises(ValidationError):
            native_mutate(genes, 4, 0.5, 0.5, rng)

    def test_an_unloadable_library_draws_nothing(self, genes, monkeypatch):
        monkeypatch.setattr(native, "_load_kernel", _crash)
        self.refuse(genes, 4, 0.5, 0.5, error=ResourceError)
