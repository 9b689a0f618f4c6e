"""Tests for the PV operator, the C operator, and whether C commutes with PT."""

import numpy as np
import pytest

from pthamil.antilinear import calibrate, make_frame, parity_overlaps
from pthamil.cpt import (
    build_c,
    build_pv,
    c_commutes_with_pt,
    check_p_intertwines,
)
from pthamil.errors import NotCommuting
from pthamil.intertwiner import Intertwiner, build_metric, v_gram
from pthamil.linalg import SIGMA1, eigendecompose, identity
from pthamil.spectra import SpectrumClass, SpectrumKind, classify
from pthamil.twolevel import TwoLevelModel, hamiltonian
from testutil import canonical_two_level_frame, rng

FRAME = canonical_two_level_frame()  # P = sigma_1

def _real_system(alpha=5.0, beta=3.0, parity_calibrated=True):
    h = hamiltonian(TwoLevelModel(alpha, beta))
    es = eigendecompose(h)
    cls = classify(es)
    if parity_calibrated:
        es = calibrate(es, cls, FRAME, True)[0]
    itw = build_metric(es, cls)
    return h, es, cls, itw


class TestCheckPIntertwines:
    def test_two_level_family(self):
        for alpha, beta in ((5.0, 3.0), (3.0, 5.0), (1.0, 0.2)):
            h = hamiltonian(TwoLevelModel(alpha, beta))
            assert check_p_intertwines(h, SIGMA1)

    def test_hermitian_commuting_case(self):
        h = np.array([[0.0, 2.0], [2.0, 0.0]], dtype=complex)
        assert check_p_intertwines(h, SIGMA1)

    def test_upper_triangular_fails(self):
        # oracle: sigma_1 [[1,1],[0,2]] sigma_1 = [[2,0],[1,1]] != adjoint
        h = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
        assert np.allclose(SIGMA1 @ h @ SIGMA1, np.array([[2.0, 0.0], [1.0, 1.0]]))
        assert not check_p_intertwines(h, SIGMA1)

    def test_requires_involution(self):
        with pytest.raises(ValueError):
            check_p_intertwines(identity(2), np.diag([1.0, 2.0]))


class TestBuildPV:
    def test_two_level_closed_form(self):
        h, es, cls, itw = _real_system()
        pv = build_pv(FRAME, itw, es)
        assert np.allclose(pv.matrix, np.array([[0.0, 2.0], [0.5, 0.0]]), atol=1e-12)
        assert np.allclose(pv.matrix @ pv.matrix, identity(2), atol=1e-12)
        assert pv.squares_to_identity
        assert np.allclose(pv.alphas, [1.0, -1.0], atol=1e-12)

    def test_trivial_hermitian_case(self):
        h = np.array([[0.0, 2.0], [2.0, 0.0]], dtype=complex)
        es = eigendecompose(h)
        pv = build_pv(make_frame(identity(2), identity(2)), Intertwiner(identity(2), True, 0.0), es)
        assert np.allclose(pv.matrix, identity(2))
        assert np.allclose(pv.alphas, [1.0, 1.0])

    def test_alpha_reciprocity(self):
        # alpha_n <R_n|P|R_n> = 1 for any eigenvector scaling
        h, es, cls, itw = _real_system(parity_calibrated=False)
        pv = build_pv(FRAME, itw, es)
        overlaps = parity_overlaps(es, FRAME)
        assert np.allclose(pv.alphas * overlaps, [1.0, 1.0], atol=1e-12)

    def test_squares_flag_depends_on_calibration(self):
        # without parity calibration (PV)^2 = I fails by a scale factor
        h, es, cls, itw = _real_system(parity_calibrated=False)
        pv = build_pv(FRAME, itw, es)
        assert not pv.squares_to_identity

    def test_non_intertwining_parity_rejected(self):
        h = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
        es = eigendecompose(h)
        itw = build_metric(es, classify(es))
        with pytest.raises(NotCommuting):
            build_pv(FRAME, itw, es)

    def test_complex_pair_alphas_rejected(self):
        # PV still commutes with H but its eigenvalues are imaginary
        h = hamiltonian(TwoLevelModel(3, 5))
        es = eigendecompose(h)
        itw = build_metric(es, classify(es))
        with pytest.raises(ValueError):
            build_pv(FRAME, itw, es)

    def test_parity_gram_reciprocal_structure(self):
        # <R_n|P|R_m> = delta_nm / alpha_m
        h, es, cls, itw = _real_system(2.0, 0.7, parity_calibrated=False)
        pv = build_pv(FRAME, itw, es)
        gram = es.right.conj().T @ SIGMA1 @ es.right
        assert np.allclose(gram, np.diag(1.0 / pv.alphas), atol=1e-12)


class TestBuildC:
    def test_all_plus_signs_is_identity(self):
        h, es, cls, _ = _real_system()
        c = build_c(es, cls, [1, 1])
        assert np.allclose(c, identity(2), atol=1e-12)

    def test_matches_pv(self):
        h, es, cls, itw = _real_system()
        pv = build_pv(FRAME, itw, es)
        c = build_c(es, cls, [1, -1])
        assert np.allclose(c, pv.matrix, atol=1e-12)

    def test_pc_equals_metric(self):
        # P C = V when C = PV and P squares to one
        h, es, cls, itw = _real_system()
        c = build_c(es, cls, [1, -1])
        assert np.allclose(SIGMA1 @ c, itw.v, atol=1e-12)

    def test_complex_pair_form(self):
        h = hamiltonian(TwoLevelModel(3, 5))
        es = eigendecompose(h)
        cls = classify(es)
        c = build_c(es, cls, [1])
        assert np.allclose(c @ c, identity(2), atol=1e-12)
        assert np.linalg.norm(c @ h - h @ c) <= 1e-10
        # metric-weighted elements are transition-only: zero diagonal
        v = build_metric(es, cls).v
        weighted = es.right.conj().T @ v @ c @ es.right
        assert abs(weighted[0, 0]) <= 1e-12
        assert abs(weighted[1, 1]) <= 1e-12

    def test_sign_validation(self):
        h, es, cls, _ = _real_system()
        with pytest.raises(ValueError):
            build_c(es, cls, [1, 2])
        with pytest.raises(ValueError):
            build_c(es, cls, [1])


class TestDiagnostic:
    def test_real_phase(self):
        frame = canonical_two_level_frame()
        h, es, cls, itw = _real_system()
        pv = build_pv(FRAME, itw, es)
        assert c_commutes_with_pt(pv.matrix, frame) is True

    def test_complex_phase(self):
        frame = canonical_two_level_frame()
        h = hamiltonian(TwoLevelModel(3, 5))
        es = eigendecompose(h)
        cls = classify(es)
        c = build_c(es, cls, [1])
        assert c_commutes_with_pt(c, frame) is False

    def test_identity_c_is_degenerate(self):
        frame = canonical_two_level_frame()
        h, es, cls, _ = _real_system()
        c = build_c(es, cls, [1, 1])
        # C = I commutes with everything, so its [C, PT] carries no information
        assert np.allclose(c, np.eye(2), atol=1e-12)
        assert c_commutes_with_pt(c, frame) is True

    def test_sampled_family(self):
        generator = rng(41)
        frame = canonical_two_level_frame()
        for _ in range(40):
            alpha = generator.uniform(0.3, 3.0)
            ratio = generator.uniform(0.1, 0.85)
            for a, b in ((alpha, alpha * ratio), (alpha * ratio, alpha)):
                h = hamiltonian(TwoLevelModel(a, b))
                es = eigendecompose(h)
                cls = classify(es)
                if cls.kind is SpectrumKind.ALL_REAL:
                    es = calibrate(es, cls, FRAME, True)[0]
                    itw = build_metric(es, cls)
                    op = build_pv(FRAME, itw, es).matrix
                    expected = True
                else:
                    op = build_c(es, cls, [1])
                    expected = False
                assert c_commutes_with_pt(op, frame) is expected


class TestPairCompleteness:
    """The completeness relations of a conjugate-pair spectrum, through the
    metric built on the pairing map: ``<L^-_n|R^+_m> = <L^+_n|R^-_m> = delta``
    with ``<L^s_n| = <R^s_n| V`` is the pair-swap V Gram, and a wrong map
    shows in the intertwining residual."""

    @staticmethod
    def _assert_complete(h, es, cls):
        itw = build_metric(es, cls)
        assert itw.residual <= 1e-12
        assert v_gram(es, itw, cls).flags["v_gram_pair_swap"].passed

    def test_two_level_complex(self):
        h = hamiltonian(TwoLevelModel(3, 5))
        es = eigendecompose(h)
        self._assert_complete(h, es, classify(es))

    def test_broken_pairing_detected(self):
        # two distinct pairs, partners deliberately exchanged
        h = np.zeros((4, 4), dtype=complex)
        h[:2, :2] = hamiltonian(TwoLevelModel(3, 5))
        h[2:, 2:] = hamiltonian(TwoLevelModel(2, 7))
        es = eigendecompose(h)
        cls = classify(es)
        self._assert_complete(h, es, cls)
        (a_plus, a_minus), (b_plus, b_minus) = cls.pairs
        broken = SpectrumClass(
            SpectrumKind.CONJUGATE_PAIRS,
            ((a_plus, b_minus), (b_plus, a_minus)),
            cls.real_indices,
        )
        itw = build_metric(es, broken)
        # the pair-swap Gram holds for any map by construction; the residual
        # is what catches the wrong one
        assert v_gram(es, itw, broken).flags["v_gram_pair_swap"].passed
        assert itw.residual > 1e-3

    def test_mixed_spectrum(self):
        h = np.zeros((3, 3), dtype=complex)
        h[:2, :2] = hamiltonian(TwoLevelModel(3, 5))
        h[2, 2] = 1.5
        es = eigendecompose(h)
        cls = classify(es)
        assert cls.real_indices != ()
        self._assert_complete(h, es, cls)


class TestCommutantInvariant:
    def test_commutator_bound(self):
        generator = rng(43)
        for _ in range(20):
            h = generator.normal(size=(5, 5))
            es = eigendecompose(h)
            cls = classify(es)
            if cls.kind is SpectrumKind.ALL_REAL:
                c = build_c(es, cls, [1] * 5)
            else:
                c = build_c(es, cls, [1] * len(cls.pairs))
            norm = np.linalg.norm(c @ h - h @ c)
            assert norm <= 1e-9 * max(1.0, np.linalg.norm(c) * np.linalg.norm(h))

    def test_c_signs_match_parity_overlap_signs(self):
        # sign(alpha_n) = sign(<R_n|P|R_n>)
        h, es, cls, itw = _real_system(3.0, 1.2)
        pv = build_pv(FRAME, itw, es)
        overlaps = parity_overlaps(es, FRAME)
        assert np.allclose(np.sign(pv.alphas.real), np.sign(overlaps.real))
