"""Tests for the sparsity coefficient (Eq. 1) and significance machinery."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ValidationError
from repro.sparsity.coefficient import (
    cube_count_std,
    expected_count,
    sparsity_coefficient,
    sparsity_coefficients,
)
from repro.sparsity.statistics import (
    binomial_tail_probability,
    normal_tail_probability,
    significance_of_coefficient,
)


class TestEquationOne:
    def test_paper_formula_verbatim(self):
        # S(D) = (n - N f^k) / sqrt(N f^k (1 - f^k))
        n_points, phi, k, count = 10_000, 10, 3, 2
        f_k = (1 / phi) ** k
        expected = (count - n_points * f_k) / math.sqrt(
            n_points * f_k * (1 - f_k)
        )
        assert sparsity_coefficient(count, n_points, phi, k) == pytest.approx(expected)

    def test_zero_when_count_equals_expectation(self):
        # N=1000, phi=10, k=1 -> expected 100 points per range.
        assert sparsity_coefficient(100, 1000, 10, 1) == pytest.approx(0.0)

    def test_negative_below_expectation(self):
        assert sparsity_coefficient(10, 1000, 10, 1) < 0

    def test_positive_above_expectation(self):
        assert sparsity_coefficient(500, 1000, 10, 1) > 0

    def test_empty_cube_closed_form(self):
        # S(empty) = -sqrt(N / (phi^k - 1))  (used by Eq. 2).
        for n_points, phi, k in [(10_000, 10, 3), (452, 5, 2), (699, 4, 3)]:
            assert sparsity_coefficient(0, n_points, phi, k) == pytest.approx(
                -math.sqrt(n_points / (phi**k - 1))
            )

    def test_zero_dimensional_cube_is_zero(self):
        assert sparsity_coefficient(500, 500, 10, 0) == 0.0

    def test_count_cannot_exceed_n(self):
        with pytest.raises(ValidationError):
            sparsity_coefficient(11, 10, 10, 2)

    def test_phi_one_degenerate(self):
        with pytest.raises(ValidationError):
            sparsity_coefficient(5, 10, 1, 2)

    def test_rejects_negative_count(self):
        with pytest.raises(ValidationError):
            sparsity_coefficient(-1, 10, 10, 2)

    @given(
        count=st.integers(0, 500),
        n_points=st.integers(501, 100_000),
        phi=st.integers(2, 20),
        k=st.integers(1, 6),
    )
    def test_property_monotone_in_count(self, count, n_points, phi, k):
        a = sparsity_coefficient(count, n_points, phi, k)
        b = sparsity_coefficient(count + 1, n_points, phi, k)
        assert b > a

    @given(
        n_points=st.integers(10, 10_000),
        phi=st.integers(2, 12),
        k=st.integers(1, 5),
    )
    def test_property_sign_pivots_at_expectation(self, n_points, phi, k):
        mean = expected_count(n_points, phi, k)
        below = math.floor(mean)
        if below < mean:
            assert sparsity_coefficient(below, n_points, phi, k) < 0
        above = math.ceil(mean)
        if above > mean and above <= n_points:
            assert sparsity_coefficient(above, n_points, phi, k) > 0


class TestHelpers:
    def test_expected_count(self):
        assert expected_count(10_000, 10, 4) == pytest.approx(1.0)

    def test_cube_count_std(self):
        p = 0.01
        assert cube_count_std(1000, 10, 2) == pytest.approx(
            math.sqrt(1000 * p * (1 - p))
        )

    def test_vectorized_matches_scalar(self):
        counts = np.array([0, 1, 5, 50])
        vec = sparsity_coefficients(counts, 1000, 10, 2)
        for c, v in zip(counts, vec, strict=True):
            assert v == pytest.approx(sparsity_coefficient(int(c), 1000, 10, 2))

    def test_vectorized_rejects_bad_counts(self):
        with pytest.raises(ValidationError):
            sparsity_coefficients(np.array([-1]), 100, 10, 2)
        with pytest.raises(ValidationError):
            sparsity_coefficients(np.array([101]), 100, 10, 2)


class TestSignificance:
    def test_normal_tail_at_minus_three(self):
        # The paper's "-3 => 99.9% level of significance" reference point.
        assert normal_tail_probability(-3.0) == pytest.approx(0.00135, abs=1e-4)

    def test_normal_tail_symmetry(self):
        assert normal_tail_probability(0.0) == pytest.approx(0.5)
        assert normal_tail_probability(2.0) + normal_tail_probability(
            -2.0
        ) == pytest.approx(1.0)

    def test_significance_negative_coefficient(self):
        assert significance_of_coefficient(-3.0) == pytest.approx(0.99865, abs=1e-4)

    def test_significance_zero_for_dense_cubes(self):
        assert significance_of_coefficient(0.0) == 0.0
        assert significance_of_coefficient(2.5) == 0.0

    def test_binomial_tail_exact_small_case(self):
        # N=4, phi=2, k=1 -> p=0.5; P(X <= 1) = (1 + 4) / 16.
        assert binomial_tail_probability(1, 4, 2, 1) == pytest.approx(5 / 16)

    def test_binomial_approaches_normal_for_large_n(self):
        n_points, phi, k = 100_000, 10, 2
        count = 900  # expectation 1000, std ~31.5
        coeff = sparsity_coefficient(count, n_points, phi, k)
        exact = binomial_tail_probability(count, n_points, phi, k)
        approx = normal_tail_probability(coeff)
        assert exact == pytest.approx(approx, rel=0.2)

    def test_binomial_tail_at_the_paper_example(self):
        # N=50k, φ=10, k=4: N·f^k = 5, so one point has P(X <= 1) = 6e^-5.
        assert binomial_tail_probability(1, 50_000, 10, 4) == pytest.approx(
            0.0404, abs=5e-5
        )

    def test_import_repro_loads_no_scipy(self):
        """scipy is imported by the one function that uses it, on call."""
        script = (
            "import json, sys, repro\n"
            "print(json.dumps([m for m in sys.modules"
            " if m.split('.')[0] == 'scipy']))\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, timeout=120, check=False,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.strip().splitlines()[-1]) == []

    def test_binomial_validates(self):
        with pytest.raises(ValidationError):
            binomial_tail_probability(5, 4, 2, 1)


@settings(max_examples=60)
@given(coefficient=st.floats(-10, 10, allow_nan=False))
def test_property_normal_tail_monotone(coefficient):
    assert normal_tail_probability(coefficient) <= normal_tail_probability(
        coefficient + 0.5
    )
