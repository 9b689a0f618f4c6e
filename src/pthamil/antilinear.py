"""Parity/time-reversal frames, and intrinsic PT phases.

An antilinear operator is its matrix ``u``: it acts as ``v -> u @ conj(v)``,
and the product ``A B`` of two is the linear ``u_A conj(u_B)``. Time reversal
and PT are of this form; parity is an ordinary Hermitian involution. On a real
spectrum every eigenstate carries an intrinsic PT phase ``eta`` which can be
rotated onto the real axis by rephasing the state; keeping that phase in the
PT conjugate of a state is what turns the parity overlap into a positive inner
product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidFrame
from .linalg import (DEFAULT_TOL, EigenSystem, as_matrix, check_tier, degenerate_groups, mat_norm,
                     quarter_turn, read_only, residual_bound)
from .spectra import SpectrumClass, SpectrumKind


@dataclass(frozen=True)
class PTFrame:
    """A validated parity ``p`` and the matrix ``pt`` of PT, ``v -> pt @ conj(v)``;
    both read-only. ``T`` itself is ``P PT``."""

    p: np.ndarray
    pt: np.ndarray

    def __post_init__(self):
        for name in ("p", "pt"):
            object.__setattr__(self, name, read_only(as_matrix(getattr(self, name), name)))


def make_frame(p, u_t, tol: float = DEFAULT_TOL) -> PTFrame:
    """Build and validate a PT frame from a parity matrix and the matrix
    ``u_t`` of time reversal, ``v -> u_t conj(v)``.

    Enforces ``P^2 = I``, ``P = P^dagger``, ``T^2 = I``, ``[P, T] = 0`` and
    ``(PT)^2 = I``; with ``T = u_T K`` these are the matrix identities
    ``u_T conj(u_T) = I``, ``P u_T = u_T conj(P)`` and ``u_PT conj(u_PT) = I``
    for ``u_PT = P u_T``.
    """
    p = as_matrix(p, "P")
    u_t = as_matrix(u_t, "u")
    n = p.shape[0]
    if u_t.shape[0] != n:
        raise InvalidFrame(f"P is {n}x{n} but T acts on dimension {u_t.shape[0]}")
    eye = np.eye(n)
    u_pt = p @ u_t
    checks = {
        "P^2 = I": mat_norm(p @ p - eye),
        "P = P^dagger": mat_norm(p - p.conj().T),
        "T^2 = I": mat_norm(u_t @ np.conj(u_t) - eye),
        "[P, T] = 0": mat_norm(u_pt - u_t @ np.conj(p)),
        "(PT)^2 = I": mat_norm(u_pt @ np.conj(u_pt) - eye),
    }
    bound = residual_bound(tol, max(mat_norm(p), mat_norm(u_t)))
    bad = {k: v for k, v in checks.items() if v > bound}
    if bad:
        detail = ", ".join(f"{k} (residual {v:.3e})" for k, v in bad.items())
        raise InvalidFrame(f"frame constraints violated: {detail}")
    return PTFrame(p, u_pt)


@dataclass(frozen=True)
class PTPhases:
    """Intrinsic PT phases of the states of a calibrated real-spectrum basis.

    ``phase_fix[n]`` is the unit-modulus factor that takes right eigenvector
    ``n`` to its PT eigenstate, ``PT (R_n phase_fix[n]) = eta[n] R_n
    phase_fix[n]`` with ``eta[n]`` +1 or -1. ``degenerate_groups`` lists
    eigenvalue groups whose PT action had to be re-diagonalized before phases
    existed.
    """

    eta: np.ndarray
    phase_fix: np.ndarray
    degenerate_groups: tuple = ()

    def __post_init__(self):
        for name in ("eta", "phase_fix"):
            object.__setattr__(self, name, read_only(getattr(self, name)))


class _NoPTBasis(Exception):
    """A degenerate group has no PT eigenbasis; ``calibrate`` reports why."""


def _pt_plus_basis(a, tol):
    """Basis of the +1 eigenspace of the antilinear involution c -> a conj(c).

    On ``(Re c, Im c)`` the involution is the real matrix
    ``M = [[Re a, Im a], [Im a, -Re a]]``, whose fixed points are the range of
    the projector ``(I + M) / 2``: its top k left singular vectors. Fixed
    points independent over the reals are independent over the complex
    numbers, since ``sum z_j c_j = 0`` and its image under the involution give
    ``sum Re(z_j) c_j = sum Im(z_j) c_j = 0``.
    """
    k = a.shape[0]
    if mat_norm(a @ np.conj(a) - np.eye(k)) > residual_bound(check_tier(tol), mat_norm(a) ** 2):
        raise _NoPTBasis("PT does not square to one on the degenerate subspace")
    m = np.block([[a.real, a.imag], [a.imag, -a.real]])
    vectors, singular, _ = np.linalg.svd(0.5 * (np.eye(2 * k) + m))
    # a projector's nonzero singular values are at least one
    if singular[k - 1] < 0.5:
        raise _NoPTBasis("could not build a PT eigenbasis on the degenerate subspace")
    return vectors[:k, :k] + 1j * vectors[k:, :k]


def parity_overlaps(es: EigenSystem, frame: PTFrame) -> np.ndarray:
    """Diagonal parity matrix elements ``<R_n|P|R_n>``."""
    return np.sum(np.conj(es.right) * (frame.p @ es.right), axis=0)


def _recombine_degenerate(frame, es, groups, p_floor, tol) -> np.ndarray:
    """Right vectors with each degenerate group replaced by a PT-fixed basis.

    The parity form ``W^dagger P W`` is real on PT-fixed vectors, so a real
    rotation, which keeps them PT-fixed, diagonalizes it; the columns are then
    scaled to ``|<w|P|w>| = 1``. When the form has an eigenvalue at or below
    ``p_floor`` (the calibration floor), they are unit-norm instead.
    """
    right = np.array(es.right)
    for group in groups:
        idx = np.asarray(group)
        # antilinear action on the group span, in the group's own basis
        images = frame.pt @ np.conj(right[:, idx])
        a = es.left[idx, :] @ images
        leak = images - right[:, idx] @ a
        if mat_norm(leak) > residual_bound(check_tier(tol), mat_norm(images)):
            raise _NoPTBasis("PT does not preserve a degenerate eigenspace")
        cols = right[:, idx] @ _pt_plus_basis(a, tol)
        form, rotation = np.linalg.eigh((cols.conj().T @ frame.p @ cols).real)
        if np.abs(form).min() > p_floor:
            right[:, idx] = (cols @ rotation) / np.sqrt(np.abs(form))
        else:
            right[:, idx] = cols / np.linalg.norm(cols, axis=0)  # real rescale keeps eta
    return right


#: why ``calibrate`` fixes no PT phases: no frame, or a conjugate-pair spectrum
_NO_FRAME = "no parity/time-reversal frame supplied"
_PAIRS = ("complex-pair spectrum: PT maps each state onto its partner, "
          "so per-state PT phases do not exist")
#: ``|<L_n|PT|R_n>|`` of a PT eigenstate is one; below this it is none
_MIN_PT_COEFF = 0.5
#: a phase is real when its imaginary part is below this fraction of its modulus
_REAL_PHASE_TOL = 1e-6


def pt_eigenstates(frame: PTFrame, es: EigenSystem, tol: float = DEFAULT_TOL) -> tuple:
    """Whether each state of ``es`` is a PT eigenstate, ``PT R_n = c_n R_n``.

    Returns ``(coeff, residual, bad)``: the coefficients ``c_n = <L_n|PT|R_n>``,
    the residuals ``||PT R_n - c_n R_n||``, and the mask of the states that
    are not PT eigenstates, with ``|c_n|`` below ``_MIN_PT_COEFF`` or a
    residual above the check-tier bound of ``||PT R_n||``. On a PT-symmetric
    H every state of a real spectrum is one; a member of a conjugate pair,
    which PT maps onto its partner, is not.
    """
    images = frame.pt @ np.conj(es.right)
    coeff = np.einsum("ij,ji->i", es.left, images)
    residual = np.linalg.norm(images - coeff * es.right, axis=0)
    bound = residual_bound(check_tier(tol), np.linalg.norm(images, axis=0))
    return coeff, residual, (np.abs(coeff) < _MIN_PT_COEFF) | (residual > bound)


def calibrate(es: EigenSystem, cls: SpectrumClass, frame: PTFrame | None,
              p_intertwines: bool, tol: float = DEFAULT_TOL) -> tuple:
    """Calibrate a real-spectrum eigenbasis so its PT-conjugate norm is the V norm.

    Returns ``(system, phases, skipped, uncalibrated)``.

    1. When the frame's P intertwines H (``p_intertwines``, the caller's
       decision), each state is rescaled to ``|<R_n|P|R_n>| = 1``: parity
       calibration, under which the PV eigenvalues are +-1. States whose
       overlap is below tolerance keep their scale and are listed in
       ``uncalibrated``.
    2. Degenerate eigenvalue groups are recombined P-orthonormally so PT acts
       diagonally on them, and each state is given the phase fix that makes
       it ``PT R_n = eta_n R_n`` with eta_n = +-1. The branch is the sign of
       the parity overlap where that is usable (the choice that makes the
       PT-conjugate norm positive); otherwise a real phase is kept and
       anything else rotated to +1. ``phases``, a :class:`PTPhases`, holds
       those phases.

    ``system``, the basis every later section uses, is the parity-calibrated
    one with its degenerate groups recombined; it is never rephased, so
    ``phases.phase_fix`` is always still to apply. Where no phases exist,
    ``phases`` is None and ``skipped`` the reason; without a frame, or on a
    conjugate-pair spectrum, ``es`` comes back unchanged.
    """
    if frame is None:
        return es, None, _NO_FRAME, []
    if cls.kind is not SpectrumKind.ALL_REAL:
        return es, None, _PAIRS, []
    # a parity overlap at or below this floor neither calibrates nor signs a state
    p_floor = residual_bound(tol, mat_norm(frame.p))
    uncalibrated = []
    if p_intertwines:
        magnitudes = np.abs(parity_overlaps(es, frame))
        small = magnitudes <= p_floor
        es = es.rescaled(1.0 / np.sqrt(np.where(small, 1.0, magnitudes)))
        uncalibrated = np.flatnonzero(small).tolist()

    def unavailable(why):
        return es, None, f"PT phases unavailable: {why}", uncalibrated

    groups = degenerate_groups(es.values, tol)
    try:
        basis = es.with_right(_recombine_degenerate(frame, es, groups, p_floor, tol)) if groups else es
    except _NoPTBasis as exc:
        return unavailable(exc)

    coeff, residual, bad = pt_eigenstates(frame, basis, tol)
    if bad.any():
        j = int(np.argmax(bad))
        return unavailable(f"state {j} is not a PT eigenstate (residual {residual[j]:.3e})")
    eta_raw = coeff / np.abs(coeff)

    # without a usable parity overlap: keep a real phase, rotate the rest to +1
    targets = np.where((np.abs(eta_raw.imag) <= tol) & (eta_raw.real < 0.0), -1.0, 1.0)
    overlaps = parity_overlaps(basis, frame)
    usable = ((np.abs(overlaps) > p_floor)
              & (np.abs(overlaps.imag) <= _REAL_PHASE_TOL * np.abs(overlaps)))
    targets = np.where(usable, np.where(overlaps.real > 0.0, 1.0, -1.0), targets)

    # half the angle: whole quarter turns (a real eta_raw) exactly, as exp(0.5j * pi) != 1j
    angles = np.angle(eta_raw) - np.angle(targets)
    turns = angles / np.pi
    fixes = np.where(turns % 1 == 0, quarter_turn(1.0, turns.astype(int)), np.exp(0.5j * angles))
    rephased = basis.rescaled(fixes)

    coeff, _, bad = pt_eigenstates(frame, rephased, tol)  # re-read every phase as the final check
    bad |= np.abs(coeff - np.abs(coeff) * targets) > _REAL_PHASE_TOL * np.abs(coeff)
    if bad.any():
        return unavailable(f"phase fix failed to land state {int(np.argmax(bad))} on a real branch")
    return basis, PTPhases(targets, fixes, tuple(tuple(g) for g in groups)), None, uncalibrated
