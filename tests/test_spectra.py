"""Tests for spectrum classification and antilinear-symmetry checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pthamil.errors import NonDiagonalizable, UnpairedComplexEigenvalue
from pthamil.linalg import EigenSystem, eigendecompose, identity
from pthamil.spectra import (
    SpectrumClass,
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

    def test_partner_fixes_real_indices_and_swaps_pairs(self):
        cls = SpectrumClass(SpectrumKind.CONJUGATE_PAIRS, ((0, 3), (4, 1)), (2,))
        assert cls.partner.tolist() == [3, 4, 2, 0, 1]
        assert SpectrumClass.all_real(3).partner.tolist() == [0, 1, 2]

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

    @pytest.mark.parametrize("values, pairs", [
        # 1+1j is matched first and takes 1.08-1j, its nearest, although
        # 1.1+1j is nearer still; 1.1+1j is left with 0.8-1j
        ([1 + 1j, 1.08 - 1j, 1.1 + 1j, 0.8 - 1j], ((0, 1), (2, 3))),
        # the same spectrum listed the other way round pairs the other way
        ([1.1 + 1j, 0.8 - 1j, 1 + 1j, 1.08 - 1j], ((0, 3), (2, 1))),
        # equal gaps (0.25 exactly): the first remaining minus index wins
        ([1 + 1j, 0.75 - 1j, 1.25 - 1j, 1 + 1j], ((0, 1), (3, 2))),
    ], ids=["first-plus-first", "reversed", "tie"])
    def test_greedy_order_decides_pairs(self, values, pairs):
        n = len(values)
        es = EigenSystem(np.array(values), identity(n), identity(n), 1.0, np.diag(values))
        assert classify(es, tol=0.25).pairs == pairs

    @pytest.mark.parametrize("seed", range(6))
    def test_pairs_match_greedy_loop(self, seed):
        # reference: the pair-by-pair loop over the remaining minus members,
        # on clustered spectra where many pairs compete for the same partner
        generator = rng(seed)
        n_pairs = 6
        centers = np.round(generator.normal(size=n_pairs) * 4.0) / 4.0 + 1.0j
        plus = centers + 0.05 * generator.normal(size=n_pairs)
        minus = np.conj(centers + 0.05 * generator.normal(size=n_pairs))
        values = generator.permutation(np.concatenate([plus, minus]))
        es = EigenSystem(values, identity(2 * n_pairs), identity(2 * n_pairs), 1.0, np.diag(values))
        tol = 0.1
        slack = tol * float(np.max(np.abs(values)))
        expected = []
        remaining = [j for j in range(2 * n_pairs) if values[j].imag < 0.0]
        try:
            for i in (i for i in range(2 * n_pairs) if values[i].imag > 0.0):
                gaps = [abs(values[i] - np.conj(values[j])) for j in remaining]
                k = int(np.argmin(gaps))
                if gaps[k] > slack:
                    raise UnpairedComplexEigenvalue(
                        f"eigenvalue {values[i]:.6g} has no conjugate partner within "
                        f"tolerance (best mismatch {gaps[k]:.3e})")
                expected.append((i, remaining.pop(k)))
        except UnpairedComplexEigenvalue as exc:
            with pytest.raises(UnpairedComplexEigenvalue) as got:
                classify(es, tol)
            assert str(got.value) == str(exc)
        else:
            assert classify(es, tol).pairs == tuple(expected)

    @pytest.mark.parametrize("condition,kind", [
        (1.0, SpectrumKind.CONJUGATE_PAIRS), (1e6, SpectrumKind.ALL_REAL),
    ])
    def test_slack_is_floored_at_the_eigenvalue_resolution(self, condition, kind):
        # Im = 1e-12 is above tol = 1e-14 but below eps * cond = 2.2e-10 at
        # cond 1e6, where the eigenvalues are determined only to that resolution
        values = np.array([1.0 + 1e-12j, 1.0 - 1e-12j])
        es = EigenSystem(values, identity(2), identity(2), condition, np.diag(values))
        assert classify(es, tol=1e-14).kind is kind

    def test_unpaired_count_in_message(self):
        values = np.array([1 + 1j, 1 - 1j, 2 + 1j])
        es = EigenSystem(values, identity(3), identity(3), 1.0, np.diag(values))
        with pytest.raises(UnpairedComplexEigenvalue,
                           match=r"^1 complex eigenvalue\(s\) lack conjugate partners$"):
            classify(es)

    def test_best_mismatch_in_message(self):
        es = EigenSystem(np.array([1 + 1j, 3 - 1j]), identity(2), identity(2), 1.0, np.diag([1 + 1j, 3 - 1j]))
        with pytest.raises(UnpairedComplexEigenvalue, match=r"\(best mismatch 2\.000e\+00\)"):
            classify(es)


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
        # PT = K i acts as v -> -i conj(v)
        h = hamiltonian(TwoLevelModel(1.3, 0.7))
        assert antilinear_symmetry_check(h, -1j * identity(2))

    def test_real_matrix_plain_conjugation(self):
        h = random_real(rng(2), 4)
        assert antilinear_symmetry_check(h, identity(4))

    def test_non_real_matrix_fails_plain_conjugation(self):
        h = np.diag([1.0, 2.0 + 1.0j])
        assert not antilinear_symmetry_check(h, identity(2))
