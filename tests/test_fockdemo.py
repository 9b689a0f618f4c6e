"""Tests for the Fock-space position-eigenstate expansion and divergence demo."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pthamil.errors import CoefficientOverflow
from pthamil.fockdemo import (
    divergence_witness,
    expand_position_state,
    oscillator_contrast,
    oscillator_hamiltonian,
    truncated_position_matrix,
)
from pthamil.linalg import SIGMA1, eigendecompose
from testutil import scaled_coefficient_exact, squared_terms_exact

# frozen table of the scaled coefficients c_n sqrt(n!) / c0 for n <= 6
# (monic Hermite-type polynomials)
POLYNOMIALS = {
    1: [0, 1],
    2: [-1, 0, 1],
    3: [0, -3, 0, 1],
    4: [3, 0, -6, 0, 1],
    5: [0, 15, 0, -10, 0, 1],
    6: [-15, 0, 45, 0, -15, 0, 1],
}


def _poly_eval(coeffs, x: Fraction) -> Fraction:
    return sum(Fraction(c) * x**k for k, c in enumerate(coeffs))


class TestExactCoefficients:
    @pytest.mark.parametrize("x", [Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(3)])
    @pytest.mark.parametrize("n", sorted(POLYNOMIALS))
    def test_polynomial_table(self, n, x):
        assert scaled_coefficient_exact(n, x) == _poly_eval(POLYNOMIALS[n], x)

    def test_squared_sequence_at_zero(self):
        terms = squared_terms_exact(8)
        assert [terms[n] for n in (0, 2, 4, 6, 8)] == [
            Fraction(1),
            Fraction(1, 2),
            Fraction(3, 8),
            Fraction(5, 16),
            Fraction(35, 128),
        ]
        assert all(terms[n] == 0 for n in (1, 3, 5, 7))

    def test_ratio_recursion_at_zero(self):
        # c_n = -c_{n-2} sqrt(n-1)/sqrt(n), exactly in the squares, up to n=40
        terms = squared_terms_exact(40)
        for n in range(2, 41, 2):
            assert terms[n] == terms[n - 2] * Fraction(n - 1, n)

    def test_matches_float_recurrence(self):
        expansion = expand_position_state(0.5, 1.0, 20)
        x = Fraction(1, 2)
        factorial = 1
        for n in range(21):
            if n > 0:
                factorial *= n
            exact = float(scaled_coefficient_exact(n, x)) / float(factorial) ** 0.5
            assert abs(expansion.coeffs[n] - exact) <= 1e-12


class TestExpansion:
    def test_first_squared_terms_float(self):
        expansion = expand_position_state(0.0, 1.0, 8)
        squares = expansion.coeffs**2
        expected = [1.0, 0.5, 3.0 / 8.0, 5.0 / 16.0, 35.0 / 128.0]
        assert np.allclose(squares[[0, 2, 4, 6, 8]], expected, atol=1e-14)

    def test_odd_terms_vanish_at_zero(self):
        expansion = expand_position_state(0.0, 1.0, 31)
        assert np.all(expansion.coeffs[1::2] == 0.0)

    def test_partial_norms_nondecreasing(self):
        expansion = expand_position_state(1.7, 1.0, 300)
        assert np.all(np.diff(expansion.partial_norms) >= 0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-4.0, 4.0), st.integers(5, 120))
    def test_recurrence_residual(self, x, nmax):
        expansion = expand_position_state(x, 1.0, nmax)
        c = expansion.coeffs
        assert abs(c[1] - x * c[0]) <= 1e-12
        for n in range(2, nmax + 1):
            residual = (n - 1) ** 0.5 * c[n - 2] + n**0.5 * c[n] - x * c[n - 1]
            assert abs(residual) <= 1e-10 * max(1.0, abs(c[n - 1]), abs(c[n]))

    def test_overflow_reported_with_index(self):
        with pytest.raises(CoefficientOverflow) as info:
            expand_position_state(1e40, 1.0, 30)
        assert info.value.n >= 2

    @pytest.mark.parametrize("x, c0", [(1e300, 1.0), (-1e200, 1.0), (1e160, 1e160)])
    def test_first_coefficient_checked_before_the_recurrence(self, x, c0):
        # c_1 = x c0 is out of range: named at n = 1, before c_2 = x c_1 would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CoefficientOverflow) as info:
                expand_position_state(x, c0, 60)
        assert info.value.n == 1
        assert f"~{abs(x * c0):.3e} exceeded the supported range at n=1" in str(info.value)

    def test_nmax_validation(self):
        with pytest.raises(ValueError):
            expand_position_state(0.0, 1.0, 1)

    @pytest.mark.parametrize("x, c0", [(float("nan"), 1.0), (float("inf"), 1.0),
                                       (0.5, float("nan")), (0.5, float("-inf"))])
    def test_non_finite_input_rejected(self, x, c0):
        with pytest.raises(ValueError, match="must be finite"):
            expand_position_state(x, c0, 10)


class TestDivergence:
    def test_tail_exponent_at_zero(self):
        witness = divergence_witness(0.0, 2000)
        assert witness.fitted_tail_exponent > -1.0
        # the known asymptotic decay of the even squares is ~ n^(-1/2)
        assert abs(witness.fitted_tail_exponent + 0.5) < 0.25

    def test_harmonic_comparison_term_by_term(self):
        terms = squared_terms_exact(600)
        even = [terms[2 * k] for k in range(301)]
        for k, term in enumerate(even):
            assert term >= Fraction(1, k + 1) or k < 2
        for k, term in list(enumerate(even))[2:]:
            assert term > Fraction(1, k + 1)

    def test_partial_norms_exceed_scaled_harmonic_sum(self):
        expansion = expand_position_state(0.0, 1.0, 1200)
        harmonic = sum(1.0 / k for k in range(1, 601))
        assert expansion.partial_norms[-1] >= harmonic - 1.0

    def test_larger_x_diverges_faster(self):
        at_zero = expand_position_state(0.0, 1.0, 1500)
        at_three = expand_position_state(3.0, 1.0, 1500)
        assert at_three.partial_norms[-1] > at_zero.partial_norms[-1]

    def test_growth_does_not_saturate(self):
        expansion = expand_position_state(0.0, 1.0, 2000)
        s = expansion.partial_norms
        assert s[1999] > s[999] + 0.1
        assert s[999] > s[499] + 0.1


class TestOscillatorContrast:
    def test_truncated_oscillator_normalized(self):
        assert oscillator_contrast(10)
        es = eigendecompose(oscillator_hamiltonian(10))
        assert np.allclose(np.sort(es.values.real), np.arange(10) + 0.5, atol=1e-12)

    def test_position_matrix_smallest_truncation(self):
        m = truncated_position_matrix(2)
        assert np.allclose(m, SIGMA1)
        es = eigendecompose(m)
        assert np.allclose(es.values, [1.0, -1.0], atol=1e-12)

    @pytest.mark.parametrize("nmax", [8, 16, 32])
    def test_truncated_position_eigenvectors_normalizable(self, nmax):
        # at every finite truncation the eigenvectors are unit vectors; the
        # divergence lives only in the nmax -> infinity trend of the expansion
        es = eigendecompose(truncated_position_matrix(nmax))
        norms = np.linalg.norm(es.right, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-10)
