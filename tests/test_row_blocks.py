"""The in-memory counter's packed row blocks and the bound request scorer.

A :class:`~repro.grid.counter.CubeCounter` holds its mask stack as row
blocks of ``counter._BLOCK_ROWS`` rows and appends rows into the last
one.  Here the block size is patched down to 64 and 128 rows (and, in
the ``-m slow`` sweep, 4096) so that short random append sequences
cross many block boundaries.  After every sequence, each counting entry
point must agree with a fresh one-block counter over the concatenated
codes, on both kernel tiers, and the blocks laid end to end must be
byte-identical to packing those codes at once.  Full blocks are never
copied or rewritten by an append.

The scorer :class:`~repro.model.grid_model.RequestScorer` is bound once
per grid and mined set; the stale-binding checks compare it with the
numpy reference after every operation that changes either.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import native_tier, native_tiers

from repro.core.detector import SubspaceOutlierDetector
from repro.core.results import CubeTable, score_cells
from repro.core.subspace import Subspace
from repro.exceptions import ValidationError
from repro.grid import counter as counter_module
from repro.grid.backends import BackendConformanceError, verify_kernel
from repro.grid.cells import MISSING_CELL, CellAssignment
from repro.grid.counter import CubeCounter
from repro.grid.kernels import batch_counts, pack_codes_block, range_codes_block
from repro.grid.native import native_batch_counts, native_pack_codes_into
from repro.model import GridModel
from repro.persist import load_model, save_model
from repro.search.brute_force import BruteForceSearch
from repro.search.evolutionary.config import EvolutionaryConfig
from repro.search.evolutionary.engine import EvolutionarySearch

#: Append sizes the sequences draw from: empty, one row, both sides of
#: a 64-row word and a run longer than the smallest block.
APPEND_SIZES = (0, 1, 63, 64, 65, 300)

N_DIMS, PHI = 4, 3


def random_codes(rng, n_rows: int) -> np.ndarray:
    codes = rng.integers(0, PHI, size=(n_rows, N_DIMS)).astype(np.int16)
    codes[rng.random(codes.shape) < 0.1] = MISSING_CELL
    return codes


def blocked_counter(monkeypatch, block_rows: int, codes: np.ndarray) -> CubeCounter:
    """A counter built over *codes* with *block_rows*-row blocks."""
    monkeypatch.setattr(counter_module, "_BLOCK_ROWS", block_rows)
    counter = CubeCounter(CellAssignment(codes, PHI))
    monkeypatch.undo()
    return counter


def assert_matches_fresh(counter: CubeCounter, codes: np.ndarray, rng) -> None:
    """Every entry point of *counter* equals a fresh counter over *codes*."""
    fresh = CubeCounter(CellAssignment(codes, PHI))
    assert counter.n_points == fresh.n_points == len(codes)
    np.testing.assert_array_equal(counter.cells.codes, codes)
    joined = np.concatenate(counter._blocks, axis=2)
    assert joined.tobytes() == pack_codes_block(codes, PHI).tobytes()
    assert counter.mask_memory_bytes() == fresh.mask_memory_bytes()

    cubes = [Subspace((), ())] + [
        Subspace(
            tuple(sorted(rng.choice(N_DIMS, size=k, replace=False))),
            tuple(rng.integers(0, PHI, size=k)),
        )
        for k in (1, 1, 2, 2, 3, 4)
    ]
    for cube in cubes:
        assert counter.count(cube) == fresh.count(cube)
        np.testing.assert_array_equal(counter.mask(cube), fresh.mask(cube))
        np.testing.assert_array_equal(
            counter.covered_points(cube), fresh.covered_points(cube)
        )
    dims = np.sort(np.argsort(rng.random((40, N_DIMS)), axis=1)[:, :2], axis=1)
    ranges = rng.integers(0, PHI, size=(40, 2))
    np.testing.assert_array_equal(
        counter.count_cubes(dims, ranges), fresh.count_cubes(dims, ranges)
    )
    genes = rng.integers(-1, PHI, size=(40, N_DIMS))
    genes[genes.max(axis=1) < 0, 0] = 0
    np.testing.assert_array_equal(
        counter.count_genes(genes), fresh.count_genes(genes)
    )


def run_appends(monkeypatch, block_rows: int, n_appends: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    codes = random_codes(rng, int(rng.choice(APPEND_SIZES)))
    counter = blocked_counter(monkeypatch, block_rows, codes)
    for _ in range(n_appends):
        block = random_codes(rng, int(rng.choice(APPEND_SIZES)))
        assert counter.append_rows(block) == len(block)
        codes = np.concatenate([codes, block])
        assert_matches_fresh(counter, codes, rng)


class TestBlockBoundaryDifferential:
    @pytest.mark.parametrize("tier", native_tiers())
    @pytest.mark.parametrize("block_rows", [64, 128])
    @pytest.mark.parametrize("seed", range(3))
    def test_appends_match_a_fresh_counter(self, monkeypatch, tier, block_rows, seed):
        with native_tier(tier):
            run_appends(monkeypatch, block_rows, n_appends=6, seed=seed)

    @pytest.mark.slow
    @pytest.mark.parametrize("tier", native_tiers())
    @pytest.mark.parametrize("block_rows", [64, 128, 4096])
    @pytest.mark.parametrize("seed", range(10))
    def test_deep_appends_match_a_fresh_counter(
        self, monkeypatch, tier, block_rows, seed
    ):
        with native_tier(tier):
            run_appends(monkeypatch, block_rows, n_appends=30, seed=100 + seed)

    @pytest.mark.parametrize("tier", native_tiers())
    def test_counter_stats_follow_the_appends(self, monkeypatch, tier):
        rng = np.random.default_rng(7)
        with native_tier(tier):
            counter = blocked_counter(monkeypatch, 64, random_codes(rng, 65))
            counter.append_rows(random_codes(rng, 300))
            counter.append_rows(CellAssignment(random_codes(rng, 1), PHI))
            stats = counter.cache_stats()
        assert (stats["appends"], stats["rows_appended"]) == (2, 301)
        assert len(counter._blocks) == 6  # 366 rows in 64-row blocks


class TestAppendCostsItsRows:
    """An append leaves every full block as it was: the same object,
    the same bytes.  Only the last block (and the ones it opens) is
    written, so an append's work does not grow with N."""

    @pytest.mark.parametrize("tier", native_tiers())
    def test_full_blocks_are_never_copied(self, monkeypatch, tier):
        rng = np.random.default_rng(11)
        with native_tier(tier):
            counter = blocked_counter(monkeypatch, 128, random_codes(rng, 300))
            for size in (1, 63, 64, 65, 300, 0, 128):
                full = counter._blocks[:-1]
                before = [block.tobytes() for block in full]
                counter.append_rows(random_codes(rng, size))
                for block, kept, data in zip(counter._blocks, full, before):
                    assert block is kept
                    assert block.tobytes() == data

    def test_appended_codes_are_owned(self):
        codes = np.zeros((10, N_DIMS), dtype=np.int16)
        counter = CubeCounter(CellAssignment(codes[:5], PHI))
        block = codes[5:]
        counter.append_rows(block)
        block[:] = 1  # the caller's array changes after the append
        np.testing.assert_array_equal(counter.cells.codes, np.zeros((10, N_DIMS)))

    def test_spare_capacity_stays_within_a_quarter(self):
        """The last block's buffer grows by a quarter of what it held:
        after any append its spare bytes are at most a quarter of its
        filled bytes (plus one word of rounding), and a run of appends
        that doubles the rows regrows it only a few times."""
        rng = np.random.default_rng(12)
        counter = CubeCounter(CellAssignment(random_codes(rng, 5000), PHI))
        buffers = []
        for size in [1] * 50 + [63, 64, 65, 300] * 10:
            counter.append_rows(random_codes(rng, size))
            filled = counter._blocks[-1].shape[2]
            capacity = counter._tail.shape[2]
            assert filled <= capacity <= filled + filled // 4 + 8
            if not buffers or counter._tail is not buffers[-1]:
                buffers.append(counter._tail)
        assert counter.n_points == 9970
        assert len(buffers) <= 5


class TestBlockTableFollowsTheBlocks:
    """The C routines read the row blocks through one
    :class:`~repro.grid.native.BlockTable` per state of the blocks: bound
    on first use, dropped by every append."""

    def test_an_append_rebinds_the_table(self, monkeypatch):
        if "c" not in native_tiers():
            pytest.skip("the C kernel does not build on this machine")
        rng = np.random.default_rng(13)
        built, appended = random_codes(rng, 100), random_codes(rng, 90)
        counter = blocked_counter(monkeypatch, 128, built)
        table = counter._resident_table()
        assert counter._resident_table() is table
        tail = counter._tail
        counter.append_rows(appended)  # fills the block, opens another
        assert counter._tail is not tail and len(counter._blocks) == 2
        table = counter._resident_table()
        assert table.rows[:, 0].tolist() == [
            block.ctypes.data for block in counter._blocks
        ]
        assert table.rows[:, 2].tolist() == [2, 1]
        codes = np.concatenate([built, appended])
        fresh = CubeCounter(CellAssignment(codes, PHI))
        assert counter.serves_level() and counter.serves_generation(2)
        for search in (
            lambda c: BruteForceSearch(c, 2, 5, require_nonempty=False),
            lambda c: EvolutionarySearch(
                c, 2, 5, config=EvolutionaryConfig(population_size=10,
                                                   max_generations=5),
                random_state=3,
            ),
        ):
            got, want = search(counter).run(), search(fresh).run()
            assert [(p.subspace, p.count) for p in got.projections] == [
                (p.subspace, p.count) for p in want.projections
            ]
        assert counter.resilience.ladder == {}


class TestKernelsReadRowBlocksInPlace:
    """The last row block is the filled prefix of a larger buffer; the
    kernels count it through its row stride and must not read past it."""

    def test_gate_refuses_a_kernel_that_reads_spare_capacity(self):
        def greedy(stack, dims, ranges):
            base = stack.base
            if isinstance(base, np.ndarray) and base.dtype == np.uint64:
                stack = base  # the whole buffer, spare words included
            return batch_counts(stack, dims, ranges)

        with pytest.raises(BackendConformanceError, match="spare capacity"):
            verify_kernel(greedy, "greedy")

    def test_native_kernel_counts_any_layout(self):
        with native_tier("c"):
            stack = pack_codes_block(random_codes(np.random.default_rng(3), 200), PHI)
            words = stack.view(np.uint64)
            wide = np.full(words.shape[:2] + (words.shape[2] + 2,), ~np.uint64(0))
            wide[:, :, :-2] = words
            dims = np.array([[0, 1], [1, 3], [2, 3]])
            ranges = np.array([[0, 2], [1, 1], [2, 0]])
            expected, _ = batch_counts(words, dims, ranges)
            flipped = np.flip(np.flip(words, axis=0).copy(), axis=0)
            for layout in (wide[:, :, :-2], np.asfortranarray(words), flipped):
                got, _ = native_batch_counts(layout, dims, ranges)
                np.testing.assert_array_equal(got, expected)

    def test_native_pack_refuses_a_stack_without_room(self):
        with native_tier("c"):
            codes = random_codes(np.random.default_rng(4), 20)
            out = np.zeros((N_DIMS, PHI, 8), dtype=np.uint8)
            for bad, first in (
                (out, 60),  # rows 60..79 past the 64 the stack holds
                (out, -1),
                (np.zeros((N_DIMS, PHI, 16), dtype=np.uint8)[:, :, ::2], 0),
                (out.astype(np.uint16), 0),
                (np.zeros((N_DIMS + 1, PHI, 8), dtype=np.uint8), 0),
            ):
                with pytest.raises(ValidationError, match="native pack"):
                    native_pack_codes_into(codes, bad, first)
            assert not out.any()


def reference_scores(model: GridModel, batch: np.ndarray, projections) -> np.ndarray:
    """What the bound scorer must return: the numpy reference, coded
    under the model's current cut matrix."""
    codes = range_codes_block(batch, model.discretizer._cut_matrix)
    return score_cells(codes, CubeTable.from_projections(projections))


def assert_same_scores(got: np.ndarray, expected: np.ndarray) -> None:
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan], expected[~nan])
    np.testing.assert_array_equal(np.signbit(got[~nan]), np.signbit(expected[~nan]))


class TestBoundScorerIsNeverStale:
    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(400, 5))
        data[rng.random(data.shape) < 0.05] = np.nan
        return data

    @pytest.fixture
    def batch(self):
        rng = np.random.default_rng(6)
        batch = rng.normal(scale=1.5, size=(60, 5))
        batch[::7, 1] = np.nan
        return batch

    @staticmethod
    def detector(seed: int) -> SubspaceOutlierDetector:
        return SubspaceOutlierDetector(
            dimensionality=2, n_ranges=4, n_projections=8, random_state=seed
        )

    @pytest.mark.parametrize("tier", native_tiers())
    def test_every_rebinding_operation(self, tier, data, batch, tmp_path):
        with native_tier(tier):
            model = GridModel.fit(data[:300], n_ranges=4)
            detector = self.detector(1)
            detector.detect_model(model)
            mined = model.projections
            assert_same_scores(
                model.score(batch), reference_scores(model, batch, mined)
            )
            assert_same_scores(
                detector.score(batch), reference_scores(model, batch, mined)
            )

            # A projection swap: the reversed set ties differently.
            model.projections = mined[::-1]
            assert_same_scores(
                model.score(batch), reference_scores(model, batch, mined[::-1])
            )

            # An update moves no cut: the binding stays valid.
            model.update(data[300:])
            assert_same_scores(
                model.score(batch), reference_scores(model, batch, mined[::-1])
            )

            # A rebin recuts the grid under the live detector, which then
            # scores its own result on the new cuts; a re-mine rebinds.
            model.rebin(force=True)
            assert_same_scores(
                detector.score(batch), reference_scores(model, batch, mined)
            )
            result = self.detector(2).detect_model(model)
            assert_same_scores(
                model.score(batch),
                reference_scores(model, batch, result.projections),
            )

            # A saved and loaded model binds its restored grid.
            save_model(model, tmp_path / "model.json")
            loaded = load_model(tmp_path / "model.json")
            assert_same_scores(
                loaded.score(batch),
                reference_scores(loaded, batch, result.projections),
            )
            assert_same_scores(loaded.score(batch), model.score(batch))

    @pytest.mark.parametrize("tier", native_tiers())
    def test_detector_scores_on_its_fitted_grid(self, tier, data, batch):
        with native_tier(tier):
            detector = self.detector(3)
            result = detector.detect(data)
            expected = reference_scores(detector.model_, batch, result.projections)
            assert_same_scores(detector.score(batch), expected)
            assert detector._scorer is detector.model_._scorer
