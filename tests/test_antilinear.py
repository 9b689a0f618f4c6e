"""Tests for PT frames and the calibration of an eigenbasis: parity
normalization and intrinsic phase fixing."""

import numpy as np
import pytest

from pthamil.antilinear import (
    PTFrame,
    _pt_plus_basis,
    _recombine_degenerate,
    calibrate,
    make_frame,
    parity_overlaps,
)
from pthamil.errors import InvalidFrame
from pthamil.intertwiner import build_metric, v_gram
from pthamil.linalg import (
    DEFAULT_TOL,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    EigenSystem,
    degenerate_groups,
    eigendecompose,
    identity,
)
from pthamil.spectra import SpectrumClass, classify
from pthamil.twolevel import TwoLevelModel, hamiltonian
from testutil import (
    canonical_two_level_frame,
    conjugated_two_level_frame,
    random_invertible,
    random_unitary,
    rng,
)

_PAIRS = ("complex-pair spectrum: PT maps each state onto its partner, "
          "so per-state PT phases do not exist")


class TestTwoLevelFrame:
    def test_canonical_frame(self):
        frame = make_frame(SIGMA1, -1j * SIGMA1)
        assert np.allclose(frame.p, SIGMA1)
        # T = K i sigma_1, i.e. u_T = -i sigma_1, is P PT since P^2 = I
        assert np.allclose(frame.p @ frame.pt, -1j * SIGMA1)
        assert np.allclose(frame.pt, -1j * identity(2))

    def test_swapped_frame(self):
        # oracle: PT acts as P after T = K sigma_2 sigma_1, u_T = conj(sigma_2 sigma_1)
        u_t = np.conj(SIGMA2 @ SIGMA1)
        frame = make_frame(SIGMA3, u_t)
        assert np.allclose(frame.p, SIGMA3)
        v = np.array([1.0 + 2.0j, -0.5j])
        assert np.allclose(frame.pt @ np.conj(v), SIGMA3 @ (u_t @ np.conj(v)))
        assert np.allclose(frame.p @ frame.pt, u_t)

    def test_frame_invariants(self):
        # P = sigma . (0.6, 0.8, 0), T = K sigma_2 sigma_3, so u_T = -sigma_2 sigma_3
        frame = make_frame(0.6 * SIGMA1 + 0.8 * SIGMA2, -SIGMA2 @ SIGMA3)
        eye = identity(2)
        u_t = frame.p @ frame.pt
        assert np.allclose(frame.p @ frame.p, eye, atol=1e-12)
        assert np.allclose(frame.p, frame.p.conj().T, atol=1e-12)
        for u in (u_t, frame.pt):
            assert np.allclose(u @ np.conj(u), eye, atol=1e-10)
        assert np.allclose(u_t, -SIGMA2 @ SIGMA3, atol=1e-12)

    def test_make_frame_rejects_broken_pair(self):
        with pytest.raises(InvalidFrame):
            make_frame(np.diag([1.0, 2.0]), identity(2))

    def test_make_frame_rejects_a_nan_residual(self):
        # P = 1e300 [[1, 1], [1, -1]] is Hermitian, but P^2 overflows to
        # inf - inf: a NaN residual, which fails like any other
        p = 1e300 * np.array([[1.0, 1.0], [1.0, -1.0]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidFrame) as info:
            make_frame(p, identity(2))
        assert "P^2 = I (residual nan), (PT)^2 = I (residual nan)" in str(info.value)

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
        def t(v):
            return u_t @ np.conj(v)

        actions = {
            "T^2 = I": lambda v: t(t(v)) - v,
            "[P, T] = 0": lambda v: p @ t(v) - t(p @ v),
            "(PT)^2 = I": lambda v: p @ t(p @ t(v)) - v,
        }
        residuals = {name: np.linalg.norm(np.column_stack([f(e) for e in identity(2)]))
                     for name, f in actions.items()}
        with pytest.raises(InvalidFrame) as info:
            make_frame(p, u_t)
        message = str(info.value)
        assert f"{broken} (residual {residuals[broken]:.3e})" in message
        for name, residual in residuals.items():
            assert (f"{name} (residual" in message) == (residual > 1e-10)


def _real_eigensystem(state, other, values):
    """Eigensystem of the real matrix with right eigenvectors ``state`` and ``other``."""
    r = np.column_stack([state, other]).astype(float)
    return eigendecompose(r @ np.diag(values) @ np.linalg.inv(r))


class TestPTEigenphase:
    """The raw PT phase of each state, as read by ``calibrate``."""

    def test_real_vector_under_ki(self):
        # oracle: PT v = -i conj(v) = -i v for real v; landing on +1 applies
        # e^{-i pi/4}, for the positive parity overlap of state 0 and the zero
        # one of state 1 alike
        frame = canonical_two_level_frame()
        es = _real_eigensystem([1.0, 0.5], [0.0, 1.0], [2.0, 1.0])
        _, phases, skipped, _ = calibrate(es, classify(es), frame, False)
        assert skipped is None
        assert np.allclose(phases.phase_fix, np.exp(-0.25j * np.pi), atol=1e-12)
        assert np.array_equal(phases.eta, [1.0, 1.0])

    def test_real_vector_under_plain_conjugation(self):
        # a real state is PT-fixed under K (P = I, T = K): its fix is exactly one
        es = _real_eigensystem([1.0, -0.5], [2.0, 1.0], [3.0, -1.0])
        _, phases, _, _ = calibrate(es, classify(es), make_frame(identity(2), identity(2)), False)
        assert np.array_equal(phases.phase_fix, [1.0, 1.0])
        assert np.array_equal(phases.eta, [1.0, 1.0])

    def test_complex_pair_state_rejected(self):
        # PT maps a complex-pair eigenstate onto its partner, not itself
        frame = canonical_two_level_frame()
        es = eigendecompose(hamiltonian(TwoLevelModel(3, 5)))
        out, phases, skipped, _ = calibrate(es, SpectrumClass.all_real(2), frame, False)
        assert out is es and phases is None
        assert skipped.startswith("PT phases unavailable: state 0 is not a PT eigenstate")


def _fixed_two_level(alpha=5.0, beta=3.0):
    frame = canonical_two_level_frame()
    es = eigendecompose(hamiltonian(TwoLevelModel(alpha, beta)))
    cls = classify(es)
    es, phases, _, _ = calibrate(es, cls, frame, True)
    return frame, es, cls, phases


def _ptnorm(frame, es, cls, phases):
    return v_gram(es, build_metric(es, cls), cls, frame, phases).ptnorm


class TestFixPTPhases:
    def test_two_level_branches(self):
        frame, es, cls, phases = _fixed_two_level()
        assert np.allclose(phases.eta, [1.0, -1.0], atol=1e-12)
        # raw eta is -i for a real state; landing on +1 applies e^{-i pi/4}
        assert abs(phases.phase_fix[0] - np.exp(-0.25j * np.pi)) <= 1e-12
        rephased = es.rescaled(phases.phase_fix)
        for j in range(2):
            state = rephased.right[:, j]
            assert np.allclose(frame.pt @ np.conj(state), phases.eta[j] * state, atol=1e-10)

    def test_biorthonormality_preserved(self):
        _, es, _, phases = _fixed_two_level(2.0, 0.5)
        rephased = es.rescaled(phases.phase_fix)
        assert np.allclose(rephased.left @ rephased.right, identity(2), atol=1e-12)

    def test_already_real_phase_kept(self):
        # calibrating a calibrated basis again changes nothing: a state with
        # eta = -1 keeps it, every fix is the identity
        frame, es, cls, phases = _fixed_two_level()
        rephased = es.rescaled(phases.phase_fix)
        out, again, _, uncalibrated = calibrate(rephased, cls, frame, True)
        assert uncalibrated == []
        assert np.allclose(again.eta, phases.eta, atol=1e-12)
        assert np.allclose(again.phase_fix, [1.0, 1.0], atol=1e-10)
        assert np.allclose(out.right, rephased.right, atol=1e-12)

    def test_already_real_phase_kept_without_parity(self):
        # without a usable parity overlap (sigma_1 has none on the states of
        # diag(2, 1)) a real phase is kept: e^{-+i pi/4} e_k carry eta = +1, -1
        frame = canonical_two_level_frame()
        es = eigendecompose(np.diag([2.0, 1.0]))
        es = es.rescaled(np.exp([-0.25j * np.pi, 0.25j * np.pi]))
        _, again, _, _ = calibrate(es, classify(es), frame, False)
        assert np.allclose(again.eta, [1.0, -1.0], atol=1e-12)
        # a real fix: the raw -1 reads as -1 - 0i here, at angle -pi, so the
        # fix is exp(-i pi) = -1, a sign, which keeps eta
        assert np.allclose(again.phase_fix, [1.0, -1.0], atol=1e-10)

    def test_without_parity_lands_on_plus_one(self):
        # without a usable parity overlap a complex phase rotates to +1: the
        # raw phase of a real state under K i is -i
        frame = canonical_two_level_frame()
        es = eigendecompose(np.diag([2.0, 1.0]))
        _, phases, _, _ = calibrate(es, classify(es), frame, False)
        assert np.allclose(phases.eta, [1.0, 1.0], atol=1e-12)
        assert np.allclose(phases.phase_fix, np.exp(-0.25j * np.pi), atol=1e-12)

    def test_requires_real_spectrum(self):
        # a pair spectrum comes back unchanged, with the reason
        frame = canonical_two_level_frame()
        es = eigendecompose(hamiltonian(TwoLevelModel(3, 5)))
        cls = classify(es)
        for given, reason in ((frame, _PAIRS), (None, "no parity/time-reversal frame supplied")):
            out, phases, skipped, uncalibrated = calibrate(es, cls, given, True)
            assert out is es and phases is None and uncalibrated == []
            assert skipped == reason

    def test_parity_calibration(self):
        frame = canonical_two_level_frame()
        es = eigendecompose(hamiltonian(TwoLevelModel(5, 3)))
        cls = classify(es)
        out, _, _, uncalibrated = calibrate(es, cls, frame, True)
        assert uncalibrated == []
        assert np.allclose(np.abs(parity_overlaps(out, frame)), 1.0, atol=1e-12)
        # a parity that does not intertwine H leaves the scale alone
        assert calibrate(es, cls, frame, False)[0] is es
        # sigma_1 has zero overlap on the eigenvectors of a diagonal H
        es = eigendecompose(np.diag([2.0, 1.0]))
        out, _, _, uncalibrated = calibrate(es, SpectrumClass.all_real(2), frame, True)
        assert uncalibrated == [0, 1]
        assert np.array_equal(out.right, es.right)

    def test_degenerate_subspace(self):
        # identity Hamiltonian: fully degenerate, PT-symmetric
        frame = canonical_two_level_frame()
        es = eigendecompose(identity(2))
        cls = SpectrumClass.all_real(2)
        out, phases, _, _ = calibrate(es, cls, frame, False)
        assert phases.degenerate_groups == ((0, 1),)
        assert np.allclose(np.abs(phases.eta), [1.0, 1.0], atol=1e-10)
        rephased = out.rescaled(phases.phase_fix)
        assert np.allclose(rephased.left @ rephased.right, identity(2), atol=1e-10)
        # the recombined basis comes back unphased: its fixes make the PT eigenstates
        assert np.allclose(frame.pt @ np.conj(rephased.right), rephased.right * phases.eta,
                           atol=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_pt_plus_basis_is_an_orthonormal_fixed_basis(self, seed):
        # a complex symmetric unitary u (W W^T) squares to one as c -> u conj(c)
        generator = rng(seed)
        w = random_unitary(generator, 1 + seed % 4)
        u = w @ w.T
        q = _pt_plus_basis(u, DEFAULT_TOL)
        assert q.shape == u.shape
        assert np.allclose(u @ np.conj(q), q, atol=1e-12)  # every column is PT-fixed
        assert np.allclose(q.conj().T @ q, identity(len(u)), atol=1e-12)

    @pytest.mark.parametrize("scales", [(2.5, 0.4), (1.0, 3.0), (0.01, 0.01)])
    def test_recombined_group_is_unit_norm_where_its_parity_form_is_singular(self, scales):
        # P = sigma_1 (+) sigma_1 vanishes on the span of e0 and e2, a level of
        # H that PT = K (T = P) preserves: the fallback gives unit-norm columns
        # whatever the group's own scale
        p = np.kron(identity(2), SIGMA1)
        frame = make_frame(p, p)
        es = eigendecompose(np.diag([1.0, 2.0, 1.0, 3.0]))
        groups = degenerate_groups(es.values)
        assert groups == [[2, 3]]
        es = es.rescaled(np.array([1.0, 1.0, *scales]))
        right = _recombine_degenerate(frame, es, groups, DEFAULT_TOL, DEFAULT_TOL)
        cols = right[:, groups[0]]
        assert np.allclose(np.linalg.norm(cols, axis=0), 1.0, rtol=0, atol=1e-14)
        assert np.allclose(frame.pt @ np.conj(cols), cols, atol=1e-14)  # still PT-fixed
        assert np.allclose(cols.conj().T @ p @ cols, 0.0, atol=1e-14)  # the singular form
        assert np.array_equal(right[:, :2], es.right[:, :2])


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
        gram = _ptnorm(*_fixed_two_level())
        for n in range(2):
            assert abs(gram[n, n] - 1.0) <= 1e-12

    def test_off_diagonal_vanishes(self):
        gram = _ptnorm(*_fixed_two_level(2.7, 1.1))
        assert abs(gram[0, 1]) <= 1e-12
        assert abs(gram[1, 0]) <= 1e-12

    def test_matches_parity_gram_without_phase(self):
        # u+ and u- carry parity overlaps +1 and -1; off-diagonals vanish
        frame, es, cls, phases = _fixed_two_level()
        raw = es.right.conj().T @ frame.p @ es.right
        assert np.allclose(raw, np.diag([1.0, -1.0]), atol=1e-12)
        assert np.allclose(_ptnorm(frame, es, cls, phases), identity(2), atol=1e-12)

    def test_gram_equals_metric_gram_on_family(self):
        generator = rng(22)
        frame = canonical_two_level_frame()
        for _ in range(30):
            alpha = generator.uniform(0.4, 3.0)
            beta = alpha * generator.uniform(0.05, 0.9)
            h = hamiltonian(TwoLevelModel(alpha, beta))
            es = eigendecompose(h)
            cls = classify(es)
            es, phases, _, _ = calibrate(es, cls, frame, True)
            itw = build_metric(es, cls)
            v_gram_matrix = es.right.conj().T @ itw.v @ es.right
            assert np.allclose(_ptnorm(frame, es, cls, phases), v_gram_matrix, atol=1e-10)


class TestSimilarityPreservation:
    def test_eta_preserved_under_invertible_transport(self):
        # transported states S R_n are PT' eigenstates with the same eta,
        # checked without re-decomposition; the parity form transports to
        # S^-dagger P S^-1, which keeps every overlap but is no involution, so
        # the frame is built as a PTFrame, not by make_frame
        generator = rng(23)
        frame, es, cls, phases = _fixed_two_level(2.5, 1.0)
        for _ in range(15):
            s = random_invertible(generator, 2, max_cond=15.0)
            s_inv = np.linalg.inv(s)
            transported_frame = PTFrame(s_inv.conj().T @ frame.p @ s_inv,
                                        s @ frame.pt @ np.conj(s_inv))
            system = es.rescaled(phases.phase_fix)
            transported = EigenSystem(system.values, s @ system.right, system.left @ s_inv,
                                      float(np.linalg.cond(s @ system.right)),
                                      s @ system.h @ s_inv)
            _, again, _, _ = calibrate(transported, cls, transported_frame, False, tol=1e-7)
            assert np.array_equal(again.eta, phases.eta)
            assert np.allclose(again.phase_fix, [1.0, 1.0], atol=1e-7)

    def test_fixed_eta_multiset_under_unitary_conjugation(self):
        generator = rng(24)
        for _ in range(10):
            q = random_unitary(generator, 2)
            h = hamiltonian(TwoLevelModel(4.0, 1.5))
            frame_t = conjugated_two_level_frame(q)
            es = eigendecompose(q @ h @ q.conj().T)
            cls = classify(es)
            _, phases, _, _ = calibrate(es, cls, frame_t, True)
            assert sorted(phases.eta.real.tolist()) == [-1.0, 1.0]
