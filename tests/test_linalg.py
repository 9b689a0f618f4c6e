"""Tests for the matrix primitives and the eigendecomposition."""

import math

import numpy as np
import pytest

from pthamil.errors import NonDiagonalizable
from pthamil.linalg import (
    DEFAULT_TOL,
    _canonical_phases,
    as_matrix,
    eigendecompose,
    identity,
    mat_norm,
)
from pthamil.twolevel import TwoLevelModel, hamiltonian as two_level_hamiltonian
from testutil import random_real, rng


class TestEigendecompose:
    def test_identity(self):
        es = eigendecompose(identity(3))
        assert np.allclose(es.values, [1.0, 1.0, 1.0], atol=1e-14)
        assert np.allclose(es.right, identity(3), atol=1e-14)
        assert np.allclose(es.left, identity(3), atol=1e-14)

    def test_two_level_real_eigenvalues(self):
        # eigenvalues +-sqrt(alpha^2 - beta^2) with alpha=5, beta=3
        es = eigendecompose(np.array([[0.0, 8.0], [2.0, 0.0]]))
        assert np.allclose(es.values, [4.0, -4.0], atol=1e-12)

    def test_two_level_imaginary_eigenvalues(self):
        # alpha=1, beta=2: conjugate pair +-i sqrt(3)
        es = eigendecompose(np.array([[0.0, 3.0], [-1.0, 0.0]]))
        got = sorted(es.values, key=lambda z: z.imag)
        root = math.sqrt(3.0)
        assert np.allclose(got, [-1j * root, 1j * root], atol=1e-12)

    def test_canonical_order(self):
        es = eigendecompose(np.diag([1.0, 3.0, 2.0]))
        assert np.allclose(es.values, [3.0, 2.0, 1.0], atol=1e-14)
        m = np.diag([1.0 + 1.0j, 1.0 - 1.0j, 1.0 + 2.0j])
        es = eigendecompose(m)
        assert np.allclose(es.values, [1.0 + 2.0j, 1.0 + 1.0j, 1.0 - 1.0j], atol=1e-14)

    @pytest.mark.parametrize("ulps", [-3, -1, 1, 3])
    def test_conjugate_pair_order_ignores_rounding(self, ulps):
        # real parts a few ulps apart, in either direction, still list Im > 0 first
        low = 1.0 + 0.5j
        high = np.nextafter(1.0, math.copysign(np.inf, ulps))
        for _ in range(abs(ulps) - 1):
            high = np.nextafter(high, math.copysign(np.inf, ulps))
        es = eigendecompose(np.diag([complex(high, -0.5), low, -2.0]))
        assert [z.imag for z in es.values] == [0.5, -0.5, 0.0]

    def test_real_parts_beyond_tolerance_keep_real_order(self):
        es = eigendecompose(np.diag([1.0 + 0.5j, 1.0 + 1e-6 - 0.5j]))
        assert es.values[0].imag == -0.5

    @pytest.mark.parametrize("diag, tol", [
        ([1.0, 1.0 + 1e-12], DEFAULT_TOL),
        ([1.0, 1.0005], 1e-3),
    ])
    def test_equal_imaginary_parts_keep_real_order(self, diag, tol):
        # real parts merged by the tolerance still sort larger first
        es = eigendecompose(np.diag(diag), tol=tol)
        assert list(es.values.real) == sorted(diag, reverse=True)

    def test_two_level_grid_lists_positive_imaginary_first(self):
        grid = np.linspace(0.1, 3.0, 40)
        for alpha in grid:
            for beta in grid[grid > alpha]:
                es = eigendecompose(two_level_hamiltonian(TwoLevelModel(alpha, beta)))
                assert es.values[0].imag > 0.0 > es.values[1].imag, (alpha, beta)

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 3.0])
    def test_two_level_near_exceptional_point(self, alpha):
        # beta = alpha (1 + 1e-12): eigenvector condition ~1e6, pair still Im > 0 first
        es = eigendecompose(two_level_hamiltonian(TwoLevelModel(alpha, alpha * (1 + 1e-12))))
        assert es.values[0].imag > 0.0 > es.values[1].imag

    def test_phase_convention(self):
        es = eigendecompose(random_real(rng(3), 5))
        for j in range(5):
            col = es.right[:, j]
            assert abs(np.linalg.norm(col) - 1.0) <= 1e-12
            pivot = col[int(np.argmax(np.abs(col)))]
            assert pivot.real > 0.0
            assert abs(pivot.imag) <= 1e-12 * abs(pivot)

    def test_phases_match_column_loop(self):
        # reference: the column-by-column loop, on eigenvectors and a zero column
        generator = rng(5)
        r = np.column_stack([random_real(generator, 6) + 1j * random_real(generator, 6),
                             np.zeros(6)])
        ref = r.copy()
        for j in range(r.shape[1]):
            col = ref[:, j]
            nrm = np.linalg.norm(col)
            col = col / nrm if nrm > 0.0 else col
            pivot = col[int(np.argmax(np.abs(col)))]
            ref[:, j] = col * (pivot.conjugate() / abs(pivot)) if abs(pivot) > 0.0 else col
        assert np.allclose(_canonical_phases(r), ref, rtol=0, atol=1e-15)

    def test_jordan_block_raises(self):
        with pytest.raises(NonDiagonalizable):
            eigendecompose(np.array([[0.0, 4.0], [0.0, 0.0]]))

    def test_immutable(self):
        es = eigendecompose(identity(2))
        with pytest.raises(ValueError):
            es.right[0, 0] = 5.0


class TestEigenSystemInvariants:
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_reconstruction_and_biorthogonality(self, dim):
        generator = rng(dim)
        for _ in range(25):
            a = random_real(generator, dim) + 1j * random_real(generator, dim)
            try:
                es = eigendecompose(a)
            except NonDiagonalizable:
                continue
            scale = np.linalg.norm(a)
            assert np.linalg.norm(es.reconstruct() - a) <= 1e-9 * scale
            assert np.linalg.norm(es.left @ es.right - identity(dim)) <= 1e-9 * es.condition

    @pytest.mark.parametrize("unit_modulus", [False, True])
    def test_rescaled_keeps_biorthogonality(self, unit_modulus):
        generator = rng(41)
        es = eigendecompose(random_real(generator, 6) + 1j * random_real(generator, 6))
        factors = np.exp(1j * generator.uniform(-np.pi, np.pi, size=6))
        if not unit_modulus:
            factors = factors * generator.uniform(0.1, 10.0, size=6)
        scaled = es.rescaled(factors, es.condition if unit_modulus else None)
        assert np.array_equal(scaled.values, es.values)
        assert np.allclose(scaled.right, es.right * factors, rtol=1e-15, atol=0)
        assert np.linalg.norm(scaled.left @ scaled.right - identity(6)) <= 1e-12 * es.condition
        cond = np.linalg.cond(scaled.right)
        assert abs(scaled.condition - cond) <= 1e-12 * cond

    def test_hermitian_eigenvalues_real(self):
        generator = rng(7)
        a = random_real(generator, 6) + 1j * random_real(generator, 6)
        h = a + a.conj().T
        es = eigendecompose(h)
        assert float(np.max(np.abs(es.values.imag))) <= DEFAULT_TOL * np.linalg.norm(h)


def test_as_matrix_rejects_nonfinite():
    for entry in (np.nan, np.inf, complex(0.0, np.nan), complex(1.0, -np.inf)):
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            as_matrix([[entry, 0.0], [0.0, 1.0]])


def test_as_matrix_copies():
    a = np.eye(2, dtype=complex)
    m = as_matrix(a)
    m[0, 0] = 5.0
    assert a[0, 0] == 1.0


_GEN = rng(11)
_COMPLEX = random_real(_GEN, 7) + 1j * random_real(_GEN, 7)


@pytest.mark.parametrize("a", [
    _COMPLEX,
    _COMPLEX.real,
    np.arange(-12, 13).reshape(5, 5),
    _COMPLEX.T,
    _COMPLEX[::2, 1:].T,
    _COMPLEX.real.T,
], ids=["complex", "real", "integer", "transposed", "strided", "real-transposed"])
def test_mat_norm_matches_numpy_bit_for_bit(a):
    assert mat_norm(a) == float(np.linalg.norm(a))
    assert type(mat_norm(a)) is float


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_mat_norm_overflows_to_inf():
    assert mat_norm(np.array([[0.0, 8e300], [2e300, 0.0]])) == np.inf
    assert mat_norm(np.array([[0.0, 8e300j], [2e300, 0.0]])) == np.inf
