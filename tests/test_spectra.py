"""Tests for spectrum classification and antilinear-symmetry checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pthamil.antilinear import AntilinearOp
from pthamil.errors import NonDiagonalizable, UnpairedComplexEigenvalue
from pthamil.linalg import eigendecompose, identity
from pthamil.spectra import (
    SpectrumKind,
    antilinear_symmetry_check,
    classify,
)
from pthamil.twolevel import TwoLevelModel, hamiltonian
from testutil import random_invertible, random_real, rng


class TestClassify:
    def test_real_phase(self):
        es = eigendecompose(hamiltonian(TwoLevelModel(5, 3)))
        cls = classify(es)
        assert cls.kind is SpectrumKind.ALL_REAL
        assert cls.real_indices == (0, 1)
        assert cls.pairs == ()

    def test_complex_phase_single_pair(self):
        es = eigendecompose(hamiltonian(TwoLevelModel(3, 5)))
        cls = classify(es)
        assert cls.kind is SpectrumKind.CONJUGATE_PAIRS
        assert len(cls.pairs) == 1
        n_plus, n_minus = cls.pairs[0]
        assert es.values[n_plus].imag > 0.0
        assert abs(es.values[n_plus] - np.conj(es.values[n_minus])) <= 1e-12

    def test_unpaired_complex_eigenvalue(self):
        es = eigendecompose(np.diag([1.0, 2.0 + 1.0j]))
        with pytest.raises(UnpairedComplexEigenvalue):
            classify(es)

    def test_partition_invariant(self):
        generator = rng(5)
        for _ in range(40):
            es = eigendecompose(random_real(generator, 7))
            cls = classify(es)
            touched = sorted(list(cls.real_indices) + [i for p in cls.pairs for i in p])
            assert touched == list(range(7))
            for n_plus, n_minus in cls.pairs:
                assert es.values[n_plus].imag >= 0.0
                assert abs(es.values[n_plus] - np.conj(es.values[n_minus])) <= 1e-9

    def test_degenerate_real_eigenvalues_allowed(self):
        cls = classify(eigendecompose(np.diag([1.0, 1.0, 2.0])))
        assert cls.kind is SpectrumKind.ALL_REAL

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, (5, 5), elements=st.floats(-5, 5)))
    def test_real_matrices_never_unpaired(self, h):
        # a real matrix commutes with plain conjugation, so pairing must succeed
        try:
            es = eigendecompose(h)
        except Exception:
            return
        cls = classify(es)
        assert cls.kind in (SpectrumKind.ALL_REAL, SpectrumKind.CONJUGATE_PAIRS)

    def test_similarity_invariance(self):
        generator = rng(13)
        for _ in range(20):
            h = random_real(generator, 5)
            s = random_invertible(generator, 5, max_cond=20.0)
            es = eigendecompose(h)
            es_t = eigendecompose(s @ h @ np.linalg.inv(s))
            assert classify(es).kind is classify(es_t).kind
            scale = max(1.0, np.max(np.abs(es.values)))
            remaining = list(es_t.values)
            for value in es.values:  # nearest-match multiset comparison
                gaps = [abs(value - other) for other in remaining]
                k = int(np.argmin(gaps))
                assert gaps[k] <= 1e-7 * scale
                remaining.pop(k)


class TestDetectExceptional:
    """The exceptional class is signalled by ``eigendecompose`` raising
    ``NonDiagonalizable``."""

    def test_jordan_crossover(self):
        with pytest.raises(NonDiagonalizable):
            eigendecompose(hamiltonian(TwoLevelModel(2, 2)))

    def test_well_conditioned_two_level(self):
        # oracle: condition number of the analytic eigenvector matrix, computed
        # directly from its singular values
        h = hamiltonian(TwoLevelModel(5, 3))
        r = np.array([[1.0, 1.0], [0.5, -0.5]])
        r /= np.linalg.norm(r, axis=0)
        sv = np.linalg.svd(r, compute_uv=False)
        assert sv[0] / sv[-1] < 1e10
        eigendecompose(h)

    def test_degenerate_but_diagonalizable(self):
        eigendecompose(identity(2))


class TestAntilinearSymmetryCheck:
    def test_two_level_pt(self):
        # PT = K i acts with unitary part -i I
        h = hamiltonian(TwoLevelModel(1.3, 0.7))
        a = AntilinearOp(-1j * identity(2))
        assert antilinear_symmetry_check(h, a)

    def test_real_matrix_plain_conjugation(self):
        h = random_real(rng(2), 4)
        assert antilinear_symmetry_check(h, AntilinearOp(identity(4)))

    def test_non_real_matrix_fails_plain_conjugation(self):
        h = np.diag([1.0, 2.0 + 1.0j])
        assert not antilinear_symmetry_check(h, AntilinearOp(identity(2)))
