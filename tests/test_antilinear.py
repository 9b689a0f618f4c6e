"""Tests for antilinear operators, PT frames, and intrinsic phase fixing."""

import numpy as np
import pytest

from pthamil.antilinear import (
    AntilinearOp,
    fix_pt_phases,
    make_frame,
    make_two_level_frame,
    pt_eigenphase,
    pt_gram,
)
from pthamil.cpt import p_normalize
from pthamil.errors import InvalidFrame, NotPTEigenstate, NotRealSpectrum
from pthamil.intertwiner import build_metric
from pthamil.linalg import SIGMA1, SIGMA2, SIGMA3, eigendecompose, identity
from pthamil.spectra import SpectrumClass, classify
from pthamil.twolevel import TwoLevelModel, hamiltonian
from testutil import (
    canonical_two_level_frame,
    conjugated_two_level_frame,
    random_invertible,
    random_unitary,
    rng,
)


class TestAntilinearOp:
    def test_apply_conjugates(self):
        op = AntilinearOp(SIGMA1)
        v = np.array([1.0j, 2.0])
        assert np.allclose(op(v), SIGMA1 @ np.array([-1.0j, 2.0]))

    def test_compose_rule(self):
        # the product of two antilinear operators is the linear u_a conj(u_b)
        a = AntilinearOp(np.array([[0, 1.0], [1.0, 0]]))
        b = AntilinearOp(np.array([[1.0j, 0], [0, 2.0]]))
        v = np.array([1.0 + 1.0j, -2.0j])
        assert np.allclose(a(b(v)), a.u @ np.conj(b.u) @ v)


class TestTwoLevelFrame:
    def test_canonical_frame(self):
        frame = make_two_level_frame((1, 0, 0), (0, 0, 1))
        assert np.allclose(frame.p, SIGMA1)
        # T = K sigma_2 sigma_3 = K i sigma_1, i.e. u_T = conj(i sigma_1)
        assert np.allclose(frame.t.u, -1j * SIGMA1)
        assert np.allclose(frame.pt.u, -1j * identity(2))

    def test_swapped_frame(self):
        # oracle: direct substitution, u_T = conj(sigma_2 sigma_1)
        frame = make_two_level_frame((0, 0, 1), (1, 0, 0))
        assert np.allclose(frame.p, SIGMA3)
        assert np.allclose(frame.t.u, np.conj(SIGMA2 @ SIGMA1))

    def test_parallel_vectors_rejected(self):
        with pytest.raises(InvalidFrame):
            make_two_level_frame((1, 0, 0), (1, 0, 0))

    def test_non_unit_rejected(self):
        with pytest.raises(InvalidFrame):
            make_two_level_frame((2, 0, 0), (0, 0, 1))

    def test_frame_invariants(self):
        frame = make_two_level_frame((0.6, 0.8, 0.0), (0.0, 0.0, 1.0))
        eye = identity(2)
        assert np.allclose(frame.p @ frame.p, eye, atol=1e-12)
        assert np.allclose(frame.p, frame.p.conj().T, atol=1e-12)
        for op in (frame.t, frame.pt):
            assert np.allclose(op.u @ np.conj(op.u), eye, atol=1e-10)
        assert np.allclose(frame.pt.u, frame.p @ frame.t.u, atol=1e-12)

    def test_make_frame_rejects_broken_pair(self):
        with pytest.raises(InvalidFrame):
            make_frame(np.diag([1.0, 2.0]), AntilinearOp(identity(2)))

    @pytest.mark.parametrize("p, u_t, broken", [
        # a Kramers-type T = K sigma_2 squares to minus one
        (identity(2), SIGMA2, "T^2 = I"),
        # T = K sigma_1 swaps the eigenspaces of P = sigma_3
        (SIGMA3, SIGMA1, "[P, T] = 0"),
        # P = sigma_2 is imaginary, so plain conjugation flips its sign
        (SIGMA2, identity(2), "(PT)^2 = I"),
    ])
    def test_make_frame_names_each_broken_identity(self, p, u_t, broken):
        # oracle: each identity's residual from the operators' action on a basis
        t = AntilinearOp(u_t)
        actions = {
            "T^2 = I": lambda v: t(t(v)) - v,
            "[P, T] = 0": lambda v: p @ t(v) - t(p @ v),
            "(PT)^2 = I": lambda v: p @ t(p @ t(v)) - v,
        }
        residuals = {name: np.linalg.norm(np.column_stack([f(e) for e in identity(2)]))
                     for name, f in actions.items()}
        with pytest.raises(InvalidFrame) as info:
            make_frame(p, t)
        message = str(info.value)
        assert f"{broken} (residual {residuals[broken]:.3e})" in message
        for name, residual in residuals.items():
            assert (f"{name} (residual" in message) == (residual > 1e-10)


class TestPTEigenphase:
    def test_real_vector_under_ki(self):
        # oracle: PT v = -i conj(v) = -i v for real v
        frame = canonical_two_level_frame()
        state = np.array([1.0, 0.5])
        assert abs(pt_eigenphase(frame.pt, state) - (-1.0j)) <= 1e-12

    def test_real_vector_under_plain_conjugation(self):
        op = AntilinearOp(identity(3))
        assert abs(pt_eigenphase(op, np.array([1.0, 2.0, -0.5])) - 1.0) <= 1e-12

    def test_complex_pair_state_rejected(self):
        # PT maps a complex-pair eigenstate onto its partner, not itself
        frame = canonical_two_level_frame()
        es = eigendecompose(hamiltonian(TwoLevelModel(3, 5)))
        with pytest.raises(NotPTEigenstate):
            pt_eigenphase(frame.pt, es.right[:, 0])


def _fixed_two_level(alpha=5.0, beta=3.0):
    frame = canonical_two_level_frame()
    es = eigendecompose(hamiltonian(TwoLevelModel(alpha, beta)))
    cls = classify(es)
    es, _ = p_normalize(es, frame.p)
    phases = fix_pt_phases(frame.pt, es, cls, p=frame.p)
    return frame, es, cls, phases


class TestFixPTPhases:
    def test_two_level_branches(self):
        frame, es, cls, phases = _fixed_two_level()
        assert np.allclose(phases.eta, [1.0, -1.0], atol=1e-12)
        # raw eta is -i for a real state; landing on +1 applies e^{-i pi/4}
        assert abs(phases.phase_fix[0] - np.exp(-0.25j * np.pi)) <= 1e-12
        for j in range(2):
            eta = pt_eigenphase(frame.pt, phases.system.right[:, j])
            assert abs(eta - phases.eta[j]) <= 1e-10

    def test_biorthonormality_preserved(self):
        _, _, _, phases = _fixed_two_level(2.0, 0.5)
        assert np.allclose(
            phases.system.left @ phases.system.right, identity(2), atol=1e-12
        )

    def test_already_real_phase_kept(self):
        # a state with eta = -1 keeps it; the fix is the identity
        frame, _, cls, phases = _fixed_two_level()
        again = fix_pt_phases(frame.pt, phases.system, cls, p=frame.p)
        assert np.allclose(again.eta, phases.eta, atol=1e-12)
        assert np.allclose(again.phase_fix, [1.0, 1.0], atol=1e-10)

    def test_already_real_phase_kept_without_parity(self):
        frame, _, cls, phases = _fixed_two_level()
        again = fix_pt_phases(frame.pt, phases.system, cls)
        assert np.allclose(again.eta, [1.0, -1.0], atol=1e-12)
        assert np.allclose(again.phase_fix, [1.0, 1.0], atol=1e-10)

    def test_without_parity_lands_on_plus_one(self):
        frame = canonical_two_level_frame()
        es = eigendecompose(hamiltonian(TwoLevelModel(5, 3)))
        cls = classify(es)
        phases = fix_pt_phases(frame.pt, es, cls)
        assert np.allclose(phases.eta, [1.0, 1.0], atol=1e-12)

    def test_requires_real_spectrum(self):
        frame = canonical_two_level_frame()
        es = eigendecompose(hamiltonian(TwoLevelModel(3, 5)))
        cls = classify(es)
        with pytest.raises(NotRealSpectrum):
            fix_pt_phases(frame.pt, es, cls)

    def test_degenerate_subspace(self):
        # identity Hamiltonian: fully degenerate, PT-symmetric
        frame = canonical_two_level_frame()
        es = eigendecompose(identity(2))
        cls = SpectrumClass.all_real(2)
        phases = fix_pt_phases(frame.pt, es, cls)
        assert phases.degenerate_groups == ((0, 1),)
        assert np.allclose(np.abs(phases.eta), [1.0, 1.0], atol=1e-10)
        assert np.allclose(
            phases.system.left @ phases.system.right, identity(2), atol=1e-10
        )


class TestPTConjugateNorm:
    def test_parity_overlaps_real(self):
        # the raw parity overlap of a real-spectrum eigenstate is real
        generator = rng(21)
        frame = canonical_two_level_frame()
        for _ in range(25):
            alpha = generator.uniform(0.5, 3.0)
            beta = alpha * generator.uniform(0.0, 0.9)
            es = eigendecompose(hamiltonian(TwoLevelModel(alpha, beta)))
            for j in range(2):
                overlap = np.vdot(es.right[:, j], frame.p @ es.right[:, j])
                assert abs(overlap.imag) <= 1e-12 * max(1.0, abs(overlap))

    def test_diagonal_is_unity(self):
        frame, es, cls, phases = _fixed_two_level()
        gram = pt_gram(frame, phases)
        for n in range(2):
            assert abs(gram[n, n] - 1.0) <= 1e-12

    def test_off_diagonal_vanishes(self):
        frame, es, cls, phases = _fixed_two_level(2.7, 1.1)
        gram = pt_gram(frame, phases)
        assert abs(gram[0, 1]) <= 1e-12
        assert abs(gram[1, 0]) <= 1e-12

    def test_matches_parity_gram_without_phase(self):
        # u+ and u- carry parity overlaps +1 and -1; off-diagonals vanish
        frame, es, cls, phases = _fixed_two_level()
        raw = es.right.conj().T @ frame.p @ es.right
        assert np.allclose(raw, np.diag([1.0, -1.0]), atol=1e-12)
        assert np.allclose(pt_gram(frame, phases), identity(2), atol=1e-12)

    def test_gram_equals_metric_gram_on_family(self):
        generator = rng(22)
        frame = canonical_two_level_frame()
        for _ in range(30):
            alpha = generator.uniform(0.4, 3.0)
            beta = alpha * generator.uniform(0.05, 0.9)
            es = eigendecompose(hamiltonian(TwoLevelModel(alpha, beta)))
            cls = classify(es)
            es, _ = p_normalize(es, frame.p)
            itw = build_metric(es, cls)
            phases = fix_pt_phases(frame.pt, es, cls, p=frame.p)
            v_gram_matrix = es.right.conj().T @ itw.v @ es.right
            assert np.allclose(pt_gram(frame, phases), v_gram_matrix, atol=1e-10)


class TestSimilarityPreservation:
    def test_eta_preserved_under_invertible_transport(self):
        # transported states S R_n are PT' eigenstates with the same eta,
        # checked without re-decomposition
        generator = rng(23)
        frame, es, cls, phases = _fixed_two_level(2.5, 1.0)
        for _ in range(15):
            s = random_invertible(generator, 2, max_cond=15.0)
            s_inv = np.linalg.inv(s)
            u_pt_t = s @ frame.pt.u @ np.conj(s_inv)
            pt_t = AntilinearOp(u_pt_t)
            for j in range(2):
                transported = s @ phases.system.right[:, j]
                eta = pt_eigenphase(pt_t, transported, tol=1e-7)
                assert abs(eta - phases.eta[j]) <= 1e-7

    def test_fixed_eta_multiset_under_unitary_conjugation(self):
        generator = rng(24)
        for _ in range(10):
            q = random_unitary(generator, 2)
            h = hamiltonian(TwoLevelModel(4.0, 1.5))
            frame_t = conjugated_two_level_frame(q)
            es = eigendecompose(q @ h @ q.conj().T)
            cls = classify(es)
            es, _ = p_normalize(es, frame_t.p)
            phases = fix_pt_phases(frame_t.pt, es, cls, p=frame_t.p)
            assert sorted(phases.eta.real.tolist()) == [-1.0, 1.0]
