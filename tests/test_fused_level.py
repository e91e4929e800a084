"""The one-call brute-force level block against the path it replaces.

On the C tier a default serial :class:`~repro.grid.counter.CubeCounter`
counts each streamed block of a brute-force level in one call of
:class:`~repro.grid.native.NativeLevel` over its row blocks
(:meth:`~repro.grid.counter.CubeCounter.count_level`): each parent's
cells are ANDed once per row block, every child is counted, scored
with Equation 1 and filtered as the best set filters a block, and only
the survivors come back.  The reference is the same search with the
call switched off — :func:`~repro.search.brute_force._children`,
:meth:`~repro.grid.counter.CubeCounter.count_cubes`,
:func:`~repro.sparsity.coefficient.sparsity_coefficients` and
:meth:`~repro.search.best_set.BestProjectionSet.offer_batch` — and
``tests/test_search_brute_force.py``'s ``exhaustive_reference`` (one
row scan per cube) is a third opinion.  Mined projections, counts,
coefficients, ``best.to_state()``, ``evaluations`` and the counting
figures must agree over drawn grids: k 1..5, φ 2..7, d up to 10,
missing codes, ``require_nonempty`` on and off, threshold mode,
equal-coefficient ties, row blocks patched down to 64 and 128 rows with
a tail appended after the build and ``max_evaluations`` cuts inside a
parent's children, on both tiers (without the C library the call must
decline).  Single calls over pruned frontiers are checked survivor by
survivor against the same reference, with a full set's worst entry, a
threshold and a limit drawn from the children themselves, so every
filter and cut has a child on its boundary.

A run cancelled inside a level resumes bit-identically; a library that
breaks after the first block leaves the mined set unchanged with one
``kernel`` ladder step; the leaf level is one C call per block and no
``repro_count_batch`` call; and the wrapper refuses malformed input
before anything runs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import native_tier, native_tiers
from hypothesis import given, settings, strategies as st
from test_fused_crossover import blocked_counter, random_codes
from test_search_best_set import ROWS, best_set_configs, cube_arrays
from test_search_brute_force import exhaustive_reference

from repro.core.results import ScoredProjection
from repro.core.subspace import Subspace
from repro.engine.context import RunContext
from repro.exceptions import ResourceError, ValidationError
from repro.grid import native
from repro.grid.cells import CellAssignment
from repro.grid.counter import CubeCounter
from repro.grid.native import BlockTable, NativeLevel
from repro.run.cancel import CancelToken
from repro.run.checkpoint import CheckpointStore, SearchCheckpointer
from repro.search import brute_force
from repro.search.best_set import BestProjectionSet
from repro.search.brute_force import BruteForceSearch, _children, _parent_blocks
from repro.sparsity.coefficient import (
    cube_count_std,
    expected_count,
    sparsity_coefficients,
)

#: The counting figures a brute-force run books.
FIGURES = ("count_calls", "batch_calls", "batch_cubes", "words_and")


def figures(counter: CubeCounter) -> dict:
    stats = counter.cache_stats()
    return {key: stats[key] for key in FIGURES}


def run(counter: CubeCounter, k: int, serve: bool, context=None, **params):
    """A brute-force run with the level call on or off: its outcome, best
    set, the counting figures it booked and its level-call count."""
    calls = []
    original = CubeCounter.count_level

    def spy(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        calls.append(out is not None)
        return out

    before = figures(counter)
    with pytest.MonkeyPatch.context() as patch:
        if serve:
            patch.setattr(CubeCounter, "count_level", spy)
        else:
            patch.setattr(CubeCounter, "serves_level", lambda self: False)
        search = BruteForceSearch(counter, k, **params)
        outcome = search.run(context=context)
    booked = {key: value - before[key] for key, value in figures(counter).items()}
    return outcome, search._run["best"], booked, calls


def outcome_key(outcome) -> tuple:
    return (
        [(p.subspace, p.count, p.coefficient) for p in outcome.projections],
        outcome.stats["evaluations"],
        outcome.stopped_reason,
        outcome.completed,
    )


def check_case(case: dict, tier: str) -> None:
    """Level call (on C), reference path and row scans agree."""
    rng = np.random.default_rng(case["seed"])
    k, phi = case["k"], case["phi"]
    d = min(10, k + case["extra_dims"])
    # Keep the row-scan reference quick: shrink d, then φ, to the cap.
    while math.comb(d, k) * phi**k > case["max_cubes"]:
        d, phi = (d - 1, phi) if d > k else (d, phi - 1)
    codes = random_codes(rng, int(rng.integers(1, case["max_rows"])), d, phi)
    tail = min(case["tail"], len(codes))
    params = dict(
        n_projections=case["m"], require_nonempty=case["nonempty"],
        threshold=case["threshold"], max_evaluations=case["max_evaluations"],
    )
    with native_tier(tier):
        fused_counter = blocked_counter(case["block_rows"], codes, phi, tail)
        plain_counter = CubeCounter(CellAssignment(codes, phi))
        fused, fused_best, fused_booked, calls = run(fused_counter, k, True, **params)
        want, want_best, want_booked, _ = run(plain_counter, k, False, **params)
    assert outcome_key(fused) == outcome_key(want)
    assert fused_best.to_state() == want_best.to_state()
    assert fused_booked == want_booked
    assert fused_counter.resilience.ladder == {}
    assert any(calls) == (tier == "c")
    if tier == "c":
        assert all(calls)
        assert fused_counter.cache_stats()["prefix_reuse"] == 0
    if case["max_evaluations"] is not None:
        return
    reference = exhaustive_reference(
        CellAssignment(codes, phi), k, require_nonempty=case["nonempty"]
    )
    if case["threshold"] is not None:
        reference = [row for row in reference if row[0] <= case["threshold"]]
    # The row scans list cubes dims-major, the search parent by parent,
    # so equal coefficients may arrive in another order: the mined set
    # must hold the lowest coefficients, each mined cube scored as the
    # row scan scores it.
    if case["m"] is not None:
        reference = reference[: case["m"]]
    assert [p.coefficient for p in fused.projections] == [
        coefficient for coefficient, _, _ in reference
    ]
    scanned = {subspace: (count, coefficient) for coefficient, subspace, count in
               exhaustive_reference(CellAssignment(codes, phi), k, False)}
    for projection in fused.projections:
        assert scanned[projection.subspace] == (
            projection.count, projection.coefficient
        )


@st.composite
def cases(draw, max_rows: int, max_cubes: int):
    k = draw(st.integers(1, 5))
    m = draw(st.sampled_from([None, 1, 3, 20]))
    threshold = draw(st.sampled_from([-1.0, 0.0, 1.5])) if m is None else draw(
        st.sampled_from([None, None, -0.5])
    )
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "k": k,
        "extra_dims": draw(st.integers(0, 5)),
        "phi": draw(st.integers(2, 7)),
        "max_rows": max_rows,
        "max_cubes": max_cubes,
        "m": m,
        "threshold": threshold,
        "nonempty": draw(st.booleans()),
        "max_evaluations": draw(st.sampled_from([None, None, 1, 7, 150, 1001])),
        "block_rows": draw(st.sampled_from([64, 128, 1 << 20])),
        "tail": draw(st.sampled_from([0, 1, 63, 65, 200])),
    }


@pytest.mark.parametrize("tier", ["c", "numpy"])
@settings(max_examples=40, deadline=None)
@given(case=cases(300, 5000))
def test_level_matches_the_reference_path(tier, case):
    check_case(case, tier)


@pytest.mark.slow
@pytest.mark.parametrize("tier", ["c", "numpy"])
@settings(max_examples=300, deadline=None)
@given(case=cases(700, 30000))
def test_level_matches_the_reference_path_deep(tier, case):
    check_case(case, tier)


def needs_c():
    if "c" not in native_tiers():
        pytest.skip("the C kernel does not build on this machine")


def check_call(case: dict) -> None:
    """One NativeLevel call over a blocked counter's table returns
    exactly the children the reference path counts, scores and admits."""
    rng = np.random.default_rng(case["seed"])
    k, phi = case["k"], case["phi"]
    d = min(10, k + case["extra_dims"])
    codes = random_codes(rng, int(rng.integers(1, 300)), d, phi)
    tail = min(case["tail"], len(codes))
    counter = blocked_counter(case["block_rows"], codes, phi, tail)
    dims = ranges = np.empty((1, 0), np.intp)
    for depth in range(1, k):
        dims, ranges = _children(dims, ranges, d - (k - depth), phi)
        keep = rng.random(len(dims)) < 0.7  # a pruned frontier
        dims, ranges = dims[keep], ranges[keep]
        if len(dims) > 400:
            dims, ranges = dims[:400], ranges[:400]
    child_dims, child_ranges = _children(dims, ranges, d, phi)
    if not len(child_dims):
        return
    plain = CubeCounter(CellAssignment(codes, phi))
    counts = plain.count_cubes(child_dims, child_ranges)
    coefficients = sparsity_coefficients(counts, len(codes), phi, k)
    drawn = coefficients[rng.integers(len(coefficients), size=2)]
    best = BestProjectionSet(
        1 if case["full"] else None if case["threshold"] else 5,
        require_nonempty=case["nonempty"],
        threshold=float(drawn[0]) if case["threshold"] else None,
    )
    if case["full"]:
        best.offer_cube(Subspace((0,), (0,)), 1, float(drawn[1]))
    limit = None
    if case["limit"]:
        limit = int(rng.integers(0, len(counts) + 2))
    evaluated = len(counts) if limit is None else min(limit, len(counts))
    rows = np.flatnonzero(best.admits(counts[:evaluated], coefficients[:evaluated]))
    nonempty, threshold, worst = best.prefilter()
    call = NativeLevel(
        counter._resident_table(), dims, ranges, d,
        mean=expected_count(len(codes), phi, k), sd=cube_count_std(len(codes), phi, k),
        nonempty=nonempty, threshold=threshold, worst=worst, limit=limit,
    )
    index, got_counts, got_coefficients = call()
    assert call.evaluated == evaluated
    np.testing.assert_array_equal(index, rows)
    np.testing.assert_array_equal(got_counts, counts[rows])
    np.testing.assert_array_equal(got_coefficients, coefficients[rows])
    got_dims, got_ranges = _children(dims, ranges, d, phi, index)
    np.testing.assert_array_equal(got_dims, child_dims[rows])
    np.testing.assert_array_equal(got_ranges, child_ranges[rows])


@st.composite
def calls(draw):
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "k": draw(st.integers(1, 5)),
        "extra_dims": draw(st.integers(0, 5)),
        "phi": draw(st.integers(2, 7)),
        "nonempty": draw(st.booleans()),
        "threshold": draw(st.booleans()),
        "full": draw(st.booleans()),
        "limit": draw(st.booleans()),
        "block_rows": draw(st.sampled_from([64, 128, 1 << 20])),
        "tail": draw(st.sampled_from([0, 1, 63, 65, 200])),
    }


@settings(max_examples=60, deadline=None)
@given(case=calls())
def test_call_returns_the_admitted_children(case):
    needs_c()
    check_call(case)


@pytest.mark.slow
@settings(max_examples=500, deadline=None)
@given(case=calls())
def test_call_returns_the_admitted_children_deep(case):
    needs_c()
    check_call(case)


@settings(max_examples=200, deadline=None)
@given(
    config=best_set_configs(),
    prefill=st.lists(ROWS, max_size=8),
    rows=st.lists(ROWS, min_size=1, max_size=40),
)
def test_survivors_with_a_skipped_count_equal_offer_batch(config, prefill, rows):
    """offer_survivors on the rows admits() passes, plus the skipped
    count, leaves exactly the state offer_batch on the whole block does."""
    batched, survivors = BestProjectionSet(**config), BestProjectionSet(**config)
    for best in (batched, survivors):
        for dims, ranges, count, coefficient in zip(
            *cube_arrays(prefill),
            [row[2] for row in prefill], [row[3] for row in prefill],
        ):
            best.offer(ScoredProjection(
                Subspace(tuple(dims.tolist()), tuple(ranges.tolist())), count,
                coefficient,
            ))
    dims, ranges = cube_arrays(rows)
    counts = np.array([row[2] for row in rows], dtype=np.int64)
    coefficients = np.array([row[3] for row in rows], dtype=np.float64)
    kept = np.flatnonzero(survivors.admits(counts, coefficients))
    got = survivors.offer_survivors(
        dims[kept], ranges[kept], counts[kept], coefficients[kept],
        len(rows) - len(kept),
    )
    assert got == batched.offer_batch(dims, ranges, counts, coefficients)
    assert survivors.n_offers == batched.n_offers
    assert survivors.n_accepted == batched.n_accepted
    assert survivors.to_state() == batched.to_state()


@pytest.fixture
def cells():
    data = np.random.default_rng(8).normal(size=(600, 7))
    codes = np.digitize(data, [-0.8, -0.2, 0.3, 0.9]).astype(np.int16)
    codes[np.random.default_rng(9).random(codes.shape) < 0.05] = -1
    return CellAssignment(codes, 5)


class TestSearch:
    def test_ties_keep_the_first_arrival(self):
        """Every k = 2 cube of a two-row grid holds zero, one or two
        points: the mined set is the first arrivals among the tied
        one-point cubes."""
        needs_c()
        codes = np.array([[0, 1, 2, 0], [1, 1, 0, 2]], dtype=np.int16)
        counter = CubeCounter(CellAssignment(codes, 3))
        fused, fused_best, _, calls = run(counter, 2, True, n_projections=4)
        want, want_best, _, _ = run(counter, 2, False, n_projections=4)
        assert all(calls) and calls
        assert outcome_key(fused) == outcome_key(want)
        assert fused_best.to_state() == want_best.to_state()
        counts = [p.count for p in fused.projections]
        assert counts == [1, 1, 1, 1]
        # The first four one-point cubes in the search's order: parent
        # (0: 0) first, extended by dims 1, 2, 3, then parent (0: 1).
        assert [p.subspace for p in fused.projections] == [
            Subspace((0, 1), (0, 1)), Subspace((0, 2), (0, 2)),
            Subspace((0, 3), (0, 0)), Subspace((0, 1), (1, 1)),
        ]

    @pytest.mark.parametrize("cancel_after", [1, 3])
    def test_cancel_mid_level_resumes_bit_identically(
        self, uncertified, cells, tmp_path, cancel_after
    ):
        needs_c()
        counter = CubeCounter(cells)
        reference, reference_best, _, _ = run(
            counter, 3, True, n_projections=6, require_nonempty=False
        )
        token = CancelToken()
        original = CubeCounter.count_level
        calls = []

        def cancelling(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == cancel_after:
                token.cancel(reason="test")
            return original(self, *args, **kwargs)

        stream = SearchCheckpointer(CheckpointStore(tmp_path), "bf")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(brute_force, "_parent_blocks", _small_blocks)
            patch.setattr(CubeCounter, "count_level", cancelling)
            interrupted = BruteForceSearch(
                counter, 3, 6, require_nonempty=False
            ).run(context=RunContext(cancel_token=token, checkpointer=stream))
        assert interrupted.stopped_reason == "cancelled"
        assert 0 < interrupted.stats["evaluations"] < reference.stats["evaluations"]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(brute_force, "_parent_blocks", _small_blocks)
            search = BruteForceSearch(counter, 3, 6, require_nonempty=False)
            resumed = search.run(
                context=RunContext(checkpointer=stream, resume_from=True)
            )
        assert outcome_key(resumed) == outcome_key(reference)
        assert search._run["best"].to_state() == reference_best.to_state()

    def test_a_library_broken_after_the_first_block(self, cells, monkeypatch):
        needs_c()
        monkeypatch.setattr(brute_force, "_parent_blocks", _small_blocks)
        clean_counter = CubeCounter(cells)
        clean, clean_best, clean_booked, _ = run(
            clean_counter, 3, True, n_projections=6
        )
        counter = CubeCounter(cells)
        original = CubeCounter.count_level
        outcomes = []
        with pytest.MonkeyPatch.context() as patch:

            def breaking(self, *args, **kwargs):
                out = original(self, *args, **kwargs)
                outcomes.append(out is not None)
                patch.setattr(native, "_load_kernel", _crash)
                return out

            patch.setattr(CubeCounter, "count_level", breaking)
            search = BruteForceSearch(counter, 3, 6)
            broken = search.run()
        assert outcomes[:2] == [True, False] and not any(outcomes[2:])
        assert outcome_key(broken) == outcome_key(clean)
        assert search._run["best"].to_state() == clean_best.to_state()
        assert counter.resilience.ladder == {"kernel": "numpy"}
        assert "simulated level crash" in counter.kernel_info()["reason"]
        stats = counter.cache_stats()
        for key in ("count_calls", "batch_calls", "batch_cubes"):
            assert stats[key] == clean_booked[key]

    @pytest.mark.parametrize("tier", ["c", "numpy"])
    def test_figures_are_the_reference_paths(self, cells, tier):
        """count_calls, batch_calls, batch_cubes and words_and of a whole
        run are the same with the call on or off."""
        with native_tier(tier):
            on = run(CubeCounter(cells), 3, True, n_projections=6)
            off = run(CubeCounter(cells), 3, False, n_projections=6)
        assert outcome_key(on[0]) == outcome_key(off[0])
        assert on[2] == off[2]

    def test_leaf_level_is_one_call_per_block(self, uncertified, cells):
        """A spy on the loaded library: the leaf level's blocks are
        repro_level calls, one each, and no repro_count_batch call."""
        needs_c()
        counter = CubeCounter(cells)
        k, chunk = 3, max(1024, counter.backend.chunk_size)
        outcome = BruteForceSearch(counter, k, 6, require_nonempty=False).run()
        dims = ranges = np.empty((1, 0), np.intp)
        for depth in range(1, k):
            dims, ranges = _children(dims, ranges, cells.n_dims - (k - depth), 5)
        blocks = len(list(_parent_blocks(dims, cells.n_dims, 5, chunk)))
        assert blocks > 1
        spy = _LibrarySpy(native._load_kernel())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native, "_load_kernel", lambda: spy)
            spied = BruteForceSearch(counter, k, 6, require_nonempty=False).run()
        assert outcome_key(spied) == outcome_key(outcome)
        assert spy.calls == {"repro_level": blocks}

    def test_a_copied_counter_reads_its_own_blocks(self, cells):
        """The bound table of a deep copy points at the copy's blocks,
        not at the original's, which may be gone."""
        import copy
        import gc

        needs_c()
        want = run(CubeCounter(cells), 3, False, n_projections=6)[0]
        counter = CubeCounter(cells)
        table = counter._resident_table()
        twin = copy.deepcopy(counter)
        assert set(twin._resident_table().rows[:, 0]).isdisjoint(table.rows[:, 0])
        del counter, table
        gc.collect()
        got, _, _, calls = run(twin, 3, True, n_projections=6)
        assert calls and all(calls)
        assert outcome_key(got) == outcome_key(want)

    def test_process_placement_keeps_count_cubes(self, cells):
        from repro.core.params import CountingBackend

        counter = CubeCounter(cells, CountingBackend(kind="process", chunk_size=8))
        try:
            outcome, _, _, calls = run(counter, 2, True, n_projections=6)
        finally:
            counter.close()
        assert not counter.serves_level()
        assert not any(calls)
        want = run(CubeCounter(cells), 2, False, n_projections=6)[0]
        assert outcome_key(outcome) == outcome_key(want)


def _small_blocks(dims, stop, n_ranges, chunk):
    """The streamed blocks at 40 children, so small grids cross many."""
    return _parent_blocks(dims, stop, n_ranges, 40)


class _LibrarySpy:
    """The loaded library, counting the calls of each routine."""

    def __init__(self, lib):
        self._lib = lib
        self.calls: dict[str, int] = {}

    def __getattr__(self, name):
        routine = getattr(self._lib, name)

        def counted(*args):
            self.calls[name] = self.calls.get(name, 0) + 1
            return routine(*args)

        return counted


def _crash():
    raise ResourceError("simulated level crash")


class TestWrapperRefusals:
    """Refused before anything runs: these run whether or not the
    library builds."""

    @pytest.fixture
    def case(self):
        rng = np.random.default_rng(2)
        codes = random_codes(rng, 300, 5, 4)
        table = BlockTable([CubeCounter(CellAssignment(codes, 4))._stack])
        dims = np.array([[0, 2], [1, 3]])
        ranges = np.array([[1, 0], [3, 2]])
        return table, dims, ranges

    def call(self, case, **overrides):
        table, dims, ranges = case
        args = dict(
            table=table, dims=dims, ranges=ranges, stop=5, mean=1.0, sd=2.0,
            nonempty=True, threshold=math.inf, worst=math.nan, limit=None,
        )
        args.update(overrides)
        return NativeLevel(**args)

    def test_accepts_the_case(self, case):
        needs_c()
        index, counts, coefficients = self.call(case)()
        call = self.call(case)
        assert call.evaluated == 2 * 4 + 1 * 4
        assert np.all(counts > 0) and len(index) == len(counts) == len(coefficients)
        np.testing.assert_array_equal(coefficients, (counts - 1.0) / 2.0)
        assert self.call(case, limit=5).evaluated == 5

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({"table": "stack"}, id="table"),
            pytest.param({"dims": "descending"}, id="dims-order"),
            pytest.param({"dims": "past-d"}, id="dims-past-d"),
            pytest.param({"dims": "negative"}, id="dims-negative"),
            pytest.param({"dims": "float"}, id="dims-float"),
            pytest.param({"dims": "1-d"}, id="dims-1-d"),
            pytest.param({"dims": "deep"}, id="depth-d"),
            pytest.param({"ranges": "phi"}, id="ranges-phi"),
            pytest.param({"ranges": "short"}, id="ranges-shape"),
            pytest.param({"stop": 6}, id="stop-past-d"),
            pytest.param({"stop": -1}, id="stop-negative"),
            pytest.param({"stop": 2.0}, id="stop-float"),
            pytest.param({"limit": -1}, id="limit-negative"),
            pytest.param({"limit": 1.5}, id="limit-float"),
            pytest.param({"mean": "1"}, id="mean-str"),
            pytest.param({"worst": None}, id="worst-none"),
        ],
    )
    def test_refuses_before_anything_runs(self, case, overrides, monkeypatch):
        table, dims, ranges = case
        bad = {
            "stack": table.blocks, "descending": dims[:, ::-1],
            "past-d": dims + 3, "negative": dims - 1, "float": dims.astype(float),
            "1-d": dims[0], "deep": np.tile(np.arange(5), (2, 1)),
            "phi": ranges + 1, "short": ranges[:1],
        }
        key, value = next(iter(overrides.items()))
        if isinstance(value, str) and value in bad:
            value = bad[value]
        if key == "dims" and np.ndim(value) == 2 and value.shape[1] == 5:
            overrides = {"dims": value, "ranges": np.zeros_like(value)}
        else:
            overrides = {key: value}
        monkeypatch.setattr(native, "_load_kernel", _crash)
        with pytest.raises(ValidationError):
            self.call(case, **overrides)

    def test_an_unloadable_library_raises_on_call(self, case, monkeypatch):
        call = self.call(case)
        monkeypatch.setattr(native, "_load_kernel", _crash)
        with pytest.raises(ResourceError):
            call()

    @pytest.mark.parametrize(
        "blocks", ["none", "narrow-phi", "int64", "reversed", "mixed"]
    )
    def test_block_table_refuses(self, case, blocks):
        stack = case[0].blocks[0]
        bad = {
            "none": [], "narrow-phi": [stack, stack[:, :-1]],
            "int64": [stack.astype(np.int64)], "reversed": [stack[:, :, ::-1]],
            "mixed": [stack, stack[:-1]],
        }
        with pytest.raises(ValidationError):
            BlockTable(bad[blocks])

    def test_counter_refuses_before_the_ladder(self, cells):
        needs_c()
        counter = CubeCounter(cells)
        before = figures(counter)
        for dims, ranges, stop in (
            (np.array([[0, 9]]), np.array([[0, 0]]), 7),
            (np.array([[0, 1]]), np.array([[0, 5]]), 7),
            (np.array([[0, 1]]), np.array([[0, 0]]), 8),
        ):
            with pytest.raises(ValidationError):
                counter.count_level(
                    dims, ranges, stop, mean=0.0, sd=1.0, nonempty=True,
                    threshold=math.inf, worst=math.nan,
                )
        assert counter.resilience.ladder == {}
        assert figures(counter) == before
