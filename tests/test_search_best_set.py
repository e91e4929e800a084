"""Tests for BestProjectionSet (the paper's BestSet tracker)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.results import ScoredProjection
from repro.core.subspace import Subspace
from repro.exceptions import ValidationError
from repro.search.best_set import BestProjectionSet


def proj(dim, rng_, coefficient, count=1):
    return ScoredProjection(Subspace((dim,), (rng_,)), count, coefficient)


class TestTopM:
    def test_keeps_most_negative(self):
        best = BestProjectionSet(2)
        best.offer(proj(0, 0, -1.0))
        best.offer(proj(1, 0, -3.0))
        best.offer(proj(2, 0, -2.0))
        coefficients = [p.coefficient for p in best.entries()]
        assert coefficients == [-3.0, -2.0]

    def test_entries_sorted_most_negative_first(self):
        best = BestProjectionSet(5)
        for i, c in enumerate([-1.0, -5.0, -3.0]):
            best.offer(proj(i, 0, c))
        coefficients = [p.coefficient for p in best.entries()]
        assert coefficients == sorted(coefficients)

    def test_rejects_when_full_and_worse(self):
        best = BestProjectionSet(1)
        assert best.offer(proj(0, 0, -2.0))
        assert not best.offer(proj(1, 0, -1.0))
        assert best.best().coefficient == -2.0

    def test_duplicates_kept_once(self):
        best = BestProjectionSet(5)
        assert best.offer(proj(0, 0, -2.0))
        assert not best.offer(proj(0, 0, -2.0))
        assert len(best) == 1

    def test_contains(self):
        best = BestProjectionSet(5)
        best.offer(proj(0, 1, -2.0))
        assert Subspace((0,), (1,)) in best
        assert Subspace((0,), (2,)) not in best

    def test_displacement_updates_seen(self):
        best = BestProjectionSet(1)
        best.offer(proj(0, 0, -1.0))
        best.offer(proj(1, 0, -2.0))
        # The displaced cube can re-enter later if it beats the current.
        assert Subspace((0,), (0,)) not in best
        assert len(best) == 1


class TestNonEmptyFilter:
    def test_empty_cubes_skipped_by_default(self):
        best = BestProjectionSet(5)
        assert not best.offer(proj(0, 0, -9.0, count=0))
        assert len(best) == 0

    def test_empty_cubes_kept_when_allowed(self):
        best = BestProjectionSet(5, require_nonempty=False)
        assert best.offer(proj(0, 0, -9.0, count=0))


class TestThreshold:
    def test_threshold_filters(self):
        best = BestProjectionSet(10, threshold=-3.0)
        assert best.offer(proj(0, 0, -3.5))
        assert not best.offer(proj(1, 0, -2.9))
        assert len(best) == 1

    def test_unbounded_with_threshold(self):
        best = BestProjectionSet(None, threshold=-1.0)
        for i in range(50):
            best.offer(proj(i, 0, -2.0))
        assert len(best) == 50

    def test_unbounded_without_threshold_rejected(self):
        with pytest.raises(ValidationError):
            BestProjectionSet(None)


class TestWouldAccept:
    def test_true_when_not_full(self):
        best = BestProjectionSet(2)
        assert best.would_accept(+5.0)

    def test_respects_threshold(self):
        best = BestProjectionSet(2, threshold=-3.0)
        assert not best.would_accept(-2.0)
        assert best.would_accept(-3.0)

    def test_compares_to_worst_kept(self):
        best = BestProjectionSet(1)
        best.offer(proj(0, 0, -2.0))
        assert not best.would_accept(-1.5)
        assert best.would_accept(-2.5)


class TestStats:
    def test_mean_coefficient(self):
        best = BestProjectionSet(5)
        best.offer(proj(0, 0, -1.0))
        best.offer(proj(1, 0, -3.0))
        assert best.mean_coefficient() == pytest.approx(-2.0)

    def test_mean_of_empty_is_nan(self):
        assert BestProjectionSet(5).mean_coefficient() != BestProjectionSet(
            5
        ).mean_coefficient()

    def test_worst_kept_of_empty_is_inf(self):
        assert BestProjectionSet(3).worst_kept_coefficient() == float("inf")

    def test_offer_counters(self):
        best = BestProjectionSet(1)
        best.offer(proj(0, 0, -1.0))
        best.offer(proj(1, 0, -0.5))
        assert best.n_offers == 2
        assert best.n_accepted == 1


@settings(max_examples=50)
@given(
    coefficients=st.lists(
        st.floats(-100, 100, allow_nan=False), min_size=0, max_size=60
    ),
    m=st.integers(1, 10),
)
def test_property_equals_true_top_m(coefficients, m):
    """The kept set is exactly the m most-negative offered coefficients."""
    best = BestProjectionSet(m, require_nonempty=False)
    for i, c in enumerate(coefficients):
        best.offer(ScoredProjection(Subspace((i,), (0,)), 1, c))
    kept = [p.coefficient for p in best.entries()]
    assert kept == sorted(coefficients)[: min(m, len(coefficients))]


#: Few distinct values, so ties between coefficients are common.
TIE_PRONE = st.sampled_from([-math.inf, -3.0, -2.0, -1.5, -1.0, 0.0, 0.5, 2.0])
#: (dim, range, count, coefficient): a 12-key space, so repeats are common.
ROWS = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2), TIE_PRONE)


@st.composite
def best_set_configs(draw):
    max_size = draw(st.one_of(st.none(), st.integers(1, 6)))
    threshold_values = st.sampled_from([-1.5, 0.0])
    threshold = draw(
        threshold_values if max_size is None else st.one_of(st.none(), threshold_values)
    )
    return {
        "max_size": max_size,
        "threshold": threshold,
        "require_nonempty": draw(st.booleans()),
    }


def cube_arrays(rows):
    """Two-dimensional cubes ``(dim, dim + 4)`` / ``(range, 1)`` per row."""
    dims = np.array([[dim, dim + 4] for dim, _, _, _ in rows], dtype=np.intp)
    ranges = np.array([[rng_, 1] for _, rng_, _, _ in rows], dtype=np.intp)
    return dims.reshape(-1, 2), ranges.reshape(-1, 2)


@settings(max_examples=200, deadline=None)
@given(
    config=best_set_configs(),
    prefill=st.lists(ROWS, max_size=8),
    rows=st.lists(ROWS, min_size=10, max_size=40),
    cuts=st.lists(st.integers(0, 40), max_size=4),
)
def test_property_offer_batch_equals_sequential_offers(config, prefill, rows, cuts):
    """offer_batch leaves exactly the state sequential offer() calls do."""
    sequential = BestProjectionSet(**config)
    batched = BestProjectionSet(**config)
    for best in (sequential, batched):
        dims, ranges = cube_arrays(prefill)
        for dm, rg, (_, _, count, coefficient) in zip(dims, ranges, prefill):
            best.offer(ScoredProjection(
                Subspace(tuple(dm.tolist()), tuple(rg.tolist())), count, coefficient
            ))
    dims, ranges = cube_arrays(rows)
    counts = np.array([count for _, _, count, _ in rows], dtype=np.int64)
    coefficients = np.array([c for _, _, _, c in rows], dtype=np.float64)
    want_accepted = sum(
        sequential.offer(ScoredProjection(
            Subspace(tuple(dm.tolist()), tuple(rg.tolist())), int(n), float(c)
        ))
        for dm, rg, n, c in zip(dims, ranges, counts, coefficients)
    )
    bounds = [0, *sorted(min(cut, len(rows)) for cut in cuts), len(rows)]
    got_accepted = sum(
        batched.offer_batch(
            dims[lo:hi], ranges[lo:hi], counts[lo:hi], coefficients[lo:hi]
        )
        for lo, hi in zip(bounds, bounds[1:])
    )
    assert got_accepted == want_accepted
    assert batched.to_state() == sequential.to_state()
    assert [(p.subspace, p.count, p.coefficient) for p in batched.entries()] == [
        (p.subspace, p.count, p.coefficient) for p in sequential.entries()
    ]
