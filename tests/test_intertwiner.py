"""Tests for similarity construction, the metric, Gram reports, and evolution."""

import numpy as np
import pytest
import scipy.linalg

from pthamil.cpt import p_normalize
from pthamil.errors import NotRealSpectrum, Singular
from pthamil.intertwiner import (
    build_metric,
    build_similarity,
    evolution_operator,
    metric_transform,
    v_gram,
    verify_time_independence,
)
from pthamil.linalg import SIGMA1, eigendecompose, identity
from pthamil.spectra import SpectrumKind, classify
from pthamil.twolevel import TwoLevelModel, closed_forms, hamiltonian
from testutil import random_real, rng


def _system(alpha, beta, calibrate=True):
    h = hamiltonian(TwoLevelModel(alpha, beta))
    es = eigendecompose(h)
    cls = classify(es)
    if calibrate and cls.kind is SpectrumKind.ALL_REAL:
        es, _ = p_normalize(es, SIGMA1)
    return h, es, cls


class TestBuildSimilarity:
    def test_two_level_hermitian_conjugation(self):
        h, es, cls = _system(5, 3)
        s = build_similarity(es, cls)
        conj = s @ h @ np.linalg.inv(s)
        assert np.allclose(conj, conj.conj().T, atol=1e-12)

    def test_closed_form_similarity(self):
        # the closed-form S(theta) sends H to sqrt(alpha^2-beta^2) sigma_1
        m = TwoLevelModel(5, 3)
        cf = closed_forms(m)
        conj = cf.s @ hamiltonian(m) @ np.linalg.inv(cf.s)
        assert np.allclose(conj, 4.0 * SIGMA1, atol=1e-12)

    def test_hermitian_input(self):
        h = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
        es = eigendecompose(h)
        cls = classify(es)
        s = build_similarity(es, cls)
        conj = s @ h @ np.linalg.inv(s)
        assert np.allclose(conj, conj.conj().T, atol=1e-12)

    def test_complex_phase_rejected(self):
        _, es, cls = _system(3, 5)
        with pytest.raises(NotRealSpectrum):
            build_similarity(es, cls)


class TestBuildMetric:
    def test_two_level_closed_form(self):
        h, es, cls = _system(5, 3)
        itw = build_metric(es, cls)
        assert np.allclose(itw.v, np.diag([0.5, 2.0]), atol=1e-12)
        assert itw.positive and itw.hermitian
        assert itw.residual <= 1e-12
        # V = S^dagger S for the similarity of this eigensystem
        s = build_similarity(es, cls)
        assert np.allclose(itw.v, s.conj().T @ s, atol=1e-12)

    def test_hermitian_input_gives_identity(self):
        h = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
        es = eigendecompose(h)
        itw = build_metric(es, classify(es))
        assert np.allclose(itw.v, identity(2), atol=1e-10)

    def test_complex_pair_metric(self):
        h, es, cls = _system(3, 5)
        itw = build_metric(es, cls)
        assert itw.hermitian and not itw.positive
        assert itw.s is None
        assert itw.residual <= 1e-12
        h_dag = h.conj().T
        assert np.allclose(itw.v @ h @ np.linalg.inv(itw.v), h_dag, atol=1e-10)
        gram = es.right.conj().T @ itw.v @ es.right
        for n_plus, n_minus in cls.pairs:
            assert abs(gram[n_plus, n_plus]) <= 1e-12
            assert abs(gram[n_minus, n_minus]) <= 1e-12


class TestVGram:
    def test_two_level_dirac_overlap(self):
        # closed form: u-^dagger u+ = beta / sqrt(alpha^2 - beta^2) = 3/4
        _, es, cls = _system(5, 3)
        itw = build_metric(es, cls)
        report = v_gram(es, itw, cls, p=SIGMA1)
        assert abs(report.dirac[1, 0] - 0.75) <= 1e-12
        assert np.allclose(report.vnorm, identity(2), atol=1e-12)
        assert np.allclose(report.pnorm, np.diag([1.0, -1.0]), atol=1e-12)
        assert report.flags["v_gram_identity"].passed

    def test_hermitian_all_identities(self):
        h = np.array([[0.0, 2.0], [2.0, 0.0]], dtype=complex)
        es = eigendecompose(h)
        cls = classify(es)
        itw = build_metric(es, cls)
        report = v_gram(es, itw, cls)
        assert np.allclose(report.dirac, identity(2), atol=1e-12)
        assert np.allclose(report.vnorm, identity(2), atol=1e-12)

    def test_complex_pair_structure_flag(self):
        _, es, cls = _system(3, 5)
        itw = build_metric(es, cls)
        report = v_gram(es, itw, cls)
        assert report.flags["v_gram_pair_swap"].passed
        assert report.flags["v_gram_zero_diagonal_on_pairs"].passed


class TestTimeIndependence:
    def test_two_level_real_phase_constant(self):
        # oracle: independent dense propagator from scipy.linalg.expm
        h, es, cls = _system(5, 3)
        itw = build_metric(es, cls)
        times = (0.0, 0.7, 3.1)
        tic = verify_time_independence(h, itw.v, times, es=es)
        assert tic.ok and tic.max_drift <= 1e-10
        for t in times:
            u = scipy.linalg.expm(-1j * h * t)
            evolved = u @ es.right
            gram = evolved.conj().T @ itw.v @ evolved
            assert np.allclose(gram, tic.gram0, atol=1e-10)

    def test_complex_phase_selection_rule(self):
        h, es, cls = _system(3, 5)
        itw = build_metric(es, cls)
        tic = verify_time_independence(h, itw.v, (0.0, 0.5, 1.7, 4.3), es=es)
        assert tic.ok
        assert tic.selection_violations == ()
        n_plus, n_minus = cls.pairs[0]
        assert not tic.present[n_plus, n_plus]
        assert not tic.present[n_minus, n_minus]
        assert tic.present[n_plus, n_minus] and tic.present[n_minus, n_plus]
        # moderate-time cross-check against the dense propagator
        u = scipy.linalg.expm(-1j * h * 0.3)
        evolved = u @ es.right
        gram = evolved.conj().T @ itw.v @ evolved
        assert abs(gram[n_plus, n_minus] - tic.gram0[n_plus, n_minus]) <= 1e-9

    @pytest.mark.parametrize("seed,n", [(1, 2), (2, 5), (3, 8)])
    def test_selection_violations_match_entry_loop(self, seed, n):
        # the Dirac product (V = I) breaks the selection rule off the diagonal;
        # reference: the entry-by-entry loop, in row-major order
        h = random_real(rng(seed), n)
        es = eigendecompose(h)
        tol = 1e-8
        tic = verify_time_independence(h, identity(n), (0.0, 0.5), tol, es=es)
        scale = max(np.abs(es.values))
        expected = tuple(
            (i, j) for i in range(n) for j in range(n)
            if tic.present[i, j] and abs(es.values[j] - np.conj(es.values[i])) > tol * scale
        )
        assert expected and tic.selection_violations == expected
        assert all(type(k) is int for vio in tic.selection_violations for k in vio)

    def test_time_zero_trivially_constant(self):
        h, es, cls = _system(2, 1)
        itw = build_metric(es, cls)
        tic = verify_time_independence(h, itw.v, (0.0,), es=es)
        assert tic.ok and tic.max_drift == 0.0

    def test_evolution_operator_matches_expm(self):
        h = random_real(rng(31), 5, unit_radius=True)
        es = eigendecompose(h)
        for t in (0.4, 1.3):
            assert np.allclose(
                evolution_operator(es, t), scipy.linalg.expm(-1j * h * t), atol=1e-9
            )

    def test_converse_theorem(self):
        # constancy of every Gram entry forces the intertwining relation:
        # rebuild V H - H^dagger V from Gram data and energies
        h, es, cls = _system(5, 3)
        itw = build_metric(es, cls)
        tic = verify_time_independence(h, itw.v, (0.0, 0.5, 1.7, 4.3), es=es)
        assert tic.ok
        gram = es.right.conj().T @ itw.v @ es.right
        commutator_eigenbasis = gram * (
            es.values[np.newaxis, :] - np.conj(es.values)[:, np.newaxis]
        )
        rebuilt = es.left.conj().T @ commutator_eigenbasis @ es.left
        direct = itw.v @ h - h.conj().T @ itw.v
        assert np.allclose(rebuilt, direct, atol=1e-10)
        assert np.linalg.norm(direct) <= 1e-10


class TestMetricTransform:
    def test_own_similarity_gives_identity(self):
        h, es, cls = _system(5, 3)
        itw = build_metric(es, cls)
        s = build_similarity(es, cls)
        assert np.allclose(metric_transform(itw.v, s, h=h), identity(2), atol=1e-12)

    def test_identity_similarity(self):
        h, es, cls = _system(5, 3)
        itw = build_metric(es, cls)
        assert np.allclose(metric_transform(itw.v, identity(2), h=h), itw.v, atol=1e-14)

    def test_closed_form_similarity(self):
        # oracle: direct substitution of the closed-form S and V matrices
        m = TwoLevelModel(5, 3)
        cf = closed_forms(m)
        transformed = metric_transform(cf.v, cf.s, h=hamiltonian(m))
        assert np.allclose(transformed, identity(2), atol=1e-12)

    def test_singular_similarity_rejected(self):
        with pytest.raises(Singular):
            metric_transform(identity(2), np.zeros((2, 2)))

    def test_wrong_hamiltonian_rejected(self):
        # transported metric must keep intertwining the transported matrix
        h, es, cls = _system(5, 3)
        itw = build_metric(es, cls)
        from pthamil.errors import PTHamilError

        with pytest.raises(PTHamilError):
            metric_transform(itw.v, identity(2), h=np.array([[1.0, 1.0], [0.0, 2.0]]))


class TestMetricProperties:
    def test_random_real_matrices(self):
        generator = rng(37)
        seen_real = seen_pairs = 0
        for _ in range(120):
            h = random_real(generator, 6, unit_radius=True)
            es = eigendecompose(h)
            cls = classify(es)
            itw = build_metric(es, cls)
            assert itw.residual <= 1e-9
            assert itw.hermitian
            if cls.kind is SpectrumKind.ALL_REAL:
                seen_real += 1
                assert itw.positive
                assert float(np.min(np.linalg.eigvalsh(itw.v))) > 0.0
            else:
                seen_pairs += 1
        assert seen_pairs > 0

    def test_forced_real_spectrum_positive_definite(self):
        # random real matrices with an all-real spectrum by construction
        generator = rng(38)
        for _ in range(40):
            basis = random_real(generator, 6)
            while np.linalg.cond(basis) > 50.0:
                basis = random_real(generator, 6)
            h = basis @ np.diag(generator.uniform(-2.0, 2.0, size=6)) @ np.linalg.inv(basis)
            es = eigendecompose(h)
            cls = classify(es)
            assert cls.kind is SpectrumKind.ALL_REAL
            itw = build_metric(es, cls)
            assert itw.positive
            assert itw.residual <= 1e-9

    def test_commutant_freedom(self):
        # V q(H) intertwines whenever q is a real-coefficient polynomial in H
        h, es, cls = _system(5, 3)
        itw = build_metric(es, cls)
        q = identity(2) + 0.3 * h + 0.05 * (h @ h)
        assert np.allclose(q @ h, h @ q, atol=1e-12)
        assert np.allclose(q.conj().T @ itw.v, itw.v @ q, atol=1e-12)
        vq = itw.v @ q
        assert np.linalg.norm(vq @ h - h.conj().T @ vq) <= 1e-10
