"""Tests for similarity construction, the metric, Gram reports, and evolution."""

import numpy as np
import pytest
import scipy.linalg

from pthamil.cpt import p_normalize
from pthamil.intertwiner import (
    build_metric,
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


def _pa(generator, n, shift):
    """``P A`` with P the alternating parity and A Hermitian with
    ``conj(A) = P A P``; real spectrum when A is positive definite."""
    s = generator.normal(size=(n, n))
    s = (s + s.T) / 2 + shift * np.eye(n)
    d = 1j ** np.arange(n)
    return (-1.0) ** np.arange(n)[:, None] * (d[:, None] * s * d.conj()[None, :])


def _pa_real(generator, n):
    return _pa(generator, n, 10.0)


def _pa_pairs(generator, n):
    return _pa(generator, n, 0.0)


class TestBuildSimilarity:
    # the similarity to Hermitian form is the left-eigenvector matrix es.left:
    # L H L^-1 = diag(E), Hermitian exactly when the spectrum is real

    def test_two_level_hermitian_conjugation(self):
        h, es, cls = _system(5, 3)
        s = es.left
        conj = s @ h @ np.linalg.inv(s)
        assert np.allclose(conj, np.diag(es.values), atol=1e-12)
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
        s = es.left
        conj = s @ h @ np.linalg.inv(s)
        assert np.allclose(conj, np.diag(es.values), atol=1e-12)
        assert np.allclose(conj, conj.conj().T, atol=1e-12)

    def test_complex_phase_diagonal_not_hermitian(self):
        h, es, cls = _system(3, 5)
        assert cls.kind is SpectrumKind.CONJUGATE_PAIRS
        conj = es.left @ h @ np.linalg.inv(es.left)
        assert np.allclose(conj, np.diag(es.values), atol=1e-12)
        assert not np.allclose(conj, conj.conj().T, atol=1e-3)


class TestBuildMetric:
    def test_two_level_closed_form(self):
        h, es, cls = _system(5, 3)
        itw = build_metric(es, cls)
        assert np.allclose(itw.v, np.diag([0.5, 2.0]), atol=1e-12)
        assert itw.positive and itw.hermitian
        assert itw.residual <= 1e-12
        # V = S^dagger S for the similarity S = L of this eigensystem
        s = es.left
        assert np.allclose(itw.v, s.conj().T @ s, atol=1e-12)

    def test_hermitian_input_gives_identity(self):
        h = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
        es = eigendecompose(h)
        itw = build_metric(es, classify(es))
        assert np.allclose(itw.v, identity(2), atol=1e-10)

    @pytest.mark.parametrize("pa", [True, False], ids=["pa", "random"])
    def test_pair_metric_matches_outer_products(self, pa):
        # reference: one outer product of left vectors per state and pair member
        h = _pa_pairs(rng(44), 8) if pa else random_real(rng(43), 7)
        es = eigendecompose(h)
        cls = classify(es)
        assert len(cls.pairs) >= 2 and cls.real_indices
        ref = np.zeros((es.dim, es.dim), dtype=complex)
        for n in cls.real_indices:
            ref += np.outer(np.conj(es.left[n]), es.left[n])
        for n_plus, n_minus in cls.pairs:
            ref += np.outer(np.conj(es.left[n_minus]), es.left[n_plus])
            ref += np.outer(np.conj(es.left[n_plus]), es.left[n_minus])
        ref = 0.5 * (ref + ref.conj().T)
        assert np.linalg.norm(build_metric(es, cls).v - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_complex_pair_metric(self):
        h, es, cls = _system(3, 5)
        itw = build_metric(es, cls)
        assert itw.hermitian and not itw.positive
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

    @pytest.mark.parametrize("definite", [True, False], ids=["real", "pairs"])
    def test_phase_form_matches_matmul_reference(self, definite):
        # a V that does not intertwine H, so every Gram entry moves; reference:
        # the Gram of the evolved eigenvectors by two matrix products
        generator = rng(45)
        h = _pa_real(generator, 8) if definite else _pa_pairs(generator, 8)
        es = eigendecompose(h)
        a = random_real(generator, 8) + 1j * random_real(generator, 8)
        v = a @ a.conj().T
        times = (0.0, 0.3, 1.1)
        tic = verify_time_independence(h, v, times, es=es)
        gram0 = es.right.conj().T @ v @ es.right
        drift = np.zeros(gram0.shape)
        for t in times:
            evolved = es.right * np.exp(-1j * es.values * t)
            drift = np.maximum(drift, np.abs(evolved.conj().T @ v @ evolved - gram0))
        assert tic.present.all() and np.max(drift) > 0.1
        assert np.linalg.norm(tic.drift - drift) <= 1e-12 * np.linalg.norm(drift)

    def test_phase_rows_match_per_time_loop(self):
        # the phases of all times come from one exp; the arithmetic of each
        # entry is the per-time loop's, so the drift is equal bit for bit
        h = _pa_pairs(rng(47), 8)
        es = eigendecompose(h)
        v = build_metric(es, classify(es)).v
        times = (0.0, 0.5, 1.7, 4.3)
        tic = verify_time_independence(h, v, times, es=es)
        drift = np.zeros((8, 8))
        for t in times:
            phase = np.exp(-1j * es.values * float(t))
            gram_t = np.conj(phase)[:, np.newaxis] * tic.gram0 * phase[np.newaxis, :]
            drift = np.maximum(drift, np.abs(gram_t - tic.gram0))
        assert np.array_equal(tic.drift, drift)

    def test_shadow_is_initial_dust_times_growth(self):
        # an analytically-zero entry's shadow is its t = 0 dust scaled by the
        # phases, not the fresh dust of a product at each time
        h = _pa_pairs(rng(46), 8)
        es = eigendecompose(h)
        itw = build_metric(es, classify(es))
        times = (0.5, 2.0)
        tic = verify_time_independence(h, itw.v, times, es=es)
        shadow = 0.0
        for t in times:
            phase = np.exp(-1j * es.values * t)
            growth = np.abs(np.conj(phase)[:, None] * phase[None, :] - 1.0)
            shadow = max(shadow, np.max((np.abs(tic.gram0) * growth)[~tic.present]))
        assert tic.max_shadow > 0.0
        assert abs(tic.max_shadow - shadow) <= 1e-12 * shadow

    def test_time_zero_trivially_constant(self):
        h, es, cls = _system(2, 1)
        itw = build_metric(es, cls)
        tic = verify_time_independence(h, itw.v, (0.0,), es=es)
        assert tic.ok and tic.max_drift == 0.0

    @pytest.mark.parametrize("alpha, beta", [(5, 3), (3, 5)], ids=["real", "pair"])
    def test_no_times_no_drift(self, alpha, beta):
        h, es, cls = _system(alpha, beta)
        tic = verify_time_independence(h, build_metric(es, cls).v, (), es=es)
        assert tic.times == ()
        assert tic.drift.shape == (2, 2) and not tic.drift.any()
        assert tic.passed.all() and tic.ok
        assert tic.max_drift == 0.0 and tic.max_shadow == 0.0

    def test_evolution_operator_matches_expm(self):
        # verify_time_independence evolves eigenvectors by their phases alone
        h = random_real(rng(31), 5, unit_radius=True)
        es = eigendecompose(h)
        for t in (0.4, 1.3):
            assert np.allclose(
                es.right * np.exp(-1j * es.values * t),
                scipy.linalg.expm(-1j * h * t) @ es.right,
                atol=1e-9,
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
