"""Antilinear operators, parity/time-reversal frames, and intrinsic PT phases.

An antilinear operator is stored as the matrix ``u`` of its action
``v -> u @ conj(v)``, so products of operators are matrix products: ``A B``
acts as ``u_A conj(u_B)``. Time reversal and PT are of this form; parity is an
ordinary Hermitian involution. On a real spectrum every eigenstate carries an
intrinsic PT phase ``eta`` which can be rotated onto the real axis by
rephasing the state; keeping that phase in the PT conjugate of a state is what
turns the parity overlap into a positive inner product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidFrame, NotPTEigenstate, NotRealSpectrum
from .linalg import DEFAULT_TOL, SIGMA1, SIGMA2, SIGMA3, EigenSystem, as_matrix, mat_norm
from .spectra import SpectrumClass, SpectrumKind, spectral_scale

_SIGMA = (SIGMA1, SIGMA2, SIGMA3)


@dataclass(frozen=True)
class AntilinearOp:
    """Antilinear operator ``v -> u @ conj(v)``."""

    u: np.ndarray

    def __post_init__(self):
        u = as_matrix(self.u, "u")
        u.setflags(write=False)
        object.__setattr__(self, "u", u)

    @property
    def dim(self) -> int:
        return int(self.u.shape[0])

    def apply(self, v) -> np.ndarray:
        return self.u @ np.conj(np.asarray(v, dtype=complex))

    __call__ = apply


@dataclass(frozen=True)
class PTFrame:
    """A validated parity / time-reversal pair and their composition."""

    p: np.ndarray
    t: AntilinearOp
    pt: AntilinearOp

    def __post_init__(self):
        p = as_matrix(self.p, "P")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)


def make_frame(p, t, tol: float = DEFAULT_TOL) -> PTFrame:
    """Build and validate a PT frame from a parity matrix and a time-reversal
    operator (an :class:`AntilinearOp`, or the matrix ``u`` of ``v -> u conj(v)``).

    Enforces ``P^2 = I``, ``P = P^dagger``, ``T^2 = I``, ``[P, T] = 0`` and
    ``(PT)^2 = I``; with ``T = u_T K`` these are the matrix identities
    ``u_T conj(u_T) = I``, ``P u_T = u_T conj(P)`` and ``u_PT conj(u_PT) = I``
    for ``u_PT = P u_T``.
    """
    p = as_matrix(p, "P")
    if not isinstance(t, AntilinearOp):
        t = AntilinearOp(t)
    n = p.shape[0]
    if t.dim != n:
        raise InvalidFrame(f"P is {n}x{n} but T acts on dimension {t.dim}")
    eye = np.eye(n)
    u_pt = p @ t.u
    checks = {
        "P^2 = I": mat_norm(p @ p - eye),
        "P = P^dagger": mat_norm(p - p.conj().T),
        "T^2 = I": mat_norm(t.u @ np.conj(t.u) - eye),
        "[P, T] = 0": mat_norm(u_pt - t.u @ np.conj(p)),
        "(PT)^2 = I": mat_norm(u_pt @ np.conj(u_pt) - eye),
    }
    scale = max(1.0, mat_norm(p), mat_norm(t.u))
    bad = {k: v for k, v in checks.items() if v > tol * scale}
    if bad:
        detail = ", ".join(f"{k} (residual {v:.3e})" for k, v in bad.items())
        raise InvalidFrame(f"frame constraints violated: {detail}")
    return PTFrame(p, t, AntilinearOp(u_pt))


def make_two_level_frame(pvec, tvec, tol: float = DEFAULT_TOL) -> PTFrame:
    """Two-dimensional frame ``P = sigma . p`` and ``T = K sigma_2 (sigma . t)``
    from real orthogonal unit 3-vectors ``p`` and ``t``."""
    pvec = np.asarray(pvec, dtype=float)
    tvec = np.asarray(tvec, dtype=float)
    if pvec.shape != (3,) or tvec.shape != (3,):
        raise InvalidFrame("pvec and tvec must be real 3-vectors")
    if abs(np.dot(pvec, pvec) - 1.0) > tol or abs(np.dot(tvec, tvec) - 1.0) > tol:
        raise InvalidFrame("pvec and tvec must be unit vectors")
    if abs(np.dot(pvec, tvec)) > tol:
        raise InvalidFrame("pvec and tvec must be orthogonal")
    p = sigma_dot(pvec)
    # T = K sigma_2 (sigma.t) in operator form; as v -> u conj(v) this is
    # u = conj(sigma_2 (sigma.t)) = -sigma_2 (sigma.t) since sigma.t is real.
    t = AntilinearOp(-SIGMA2 @ sigma_dot(tvec))
    return make_frame(p, t, tol)


def sigma_dot(vec) -> np.ndarray:
    """``sigma . v`` for a real or complex 3-vector."""
    vec = np.asarray(vec)
    return sum(vec[k] * _SIGMA[k] for k in range(3))


def pt_eigenphase(pt: AntilinearOp, state, tol: float = DEFAULT_TOL) -> complex:
    """The phase ``eta`` with ``pt(state) = eta * state``.

    ``eta`` is extracted from the component of ``pt(state)`` along ``state``
    (a projection, never an elementwise division) and normalized to unit
    modulus; if the residual off the ray exceeds tolerance the state is not a
    PT eigenstate — which is exactly what happens for members of a
    complex-conjugate pair, whom PT maps onto their partner.
    """
    state = np.asarray(state, dtype=complex).reshape(-1)
    norm2 = np.vdot(state, state).real
    if norm2 <= 0.0:
        raise ValueError("zero state")
    image = pt.apply(state)
    coeff = np.vdot(state, image) / norm2
    scale = max(mat_norm(image), mat_norm(state))
    if abs(coeff) < 0.5:
        raise NotPTEigenstate(
            f"PT maps the state mostly off its own ray (|projection| = {abs(coeff):.3e})"
        )
    eta = coeff / abs(coeff)
    residual = mat_norm(image - eta * state)
    if residual > tol * max(1.0, scale):
        raise NotPTEigenstate(f"PT eigenstate residual {residual:.3e} exceeds tolerance")
    return complex(eta)


@dataclass(frozen=True)
class PTPhases:
    """Fixed intrinsic PT phases for a real-spectrum eigensystem.

    ``eta[n]`` is the PT eigenvalue of the rephased state ``n`` (+1 or -1),
    ``phase_fix[n]`` the unit-modulus multiplier that was applied to the right
    eigenvector, and ``system`` the rephased eigensystem (left vectors rescaled
    to preserve biorthonormality). ``degenerate_groups`` lists eigenvalue
    groups whose PT action had to be re-diagonalized before phases existed.
    """

    eta: np.ndarray
    phase_fix: np.ndarray
    system: EigenSystem
    degenerate_groups: tuple = ()

    def __post_init__(self):
        for name in ("eta", "phase_fix"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _degenerate_groups(values, tol):
    scale = spectral_scale(values)
    groups, current = [], [0]
    for i in range(1, len(values)):
        if abs(values[i] - values[current[-1]]) <= tol * scale:
            current.append(i)
        else:
            groups.append(current)
            current = [i]
    groups.append(current)
    return [g for g in groups if len(g) > 1]


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
    if mat_norm(a @ np.conj(a) - np.eye(k)) > max(1e-8, tol) * max(1.0, mat_norm(a) ** 2):
        raise NotPTEigenstate("PT does not square to one on the degenerate subspace")
    m = np.block([[a.real, a.imag], [a.imag, -a.real]])
    vectors, singular, _ = np.linalg.svd(0.5 * (np.eye(2 * k) + m))
    # a projector's nonzero singular values are at least one
    if singular[k - 1] < 0.5:
        raise NotPTEigenstate("could not build a PT eigenbasis on the degenerate subspace")
    return vectors[:k, :k] + 1j * vectors[k:, :k]


def parity_overlaps(es: EigenSystem, p) -> np.ndarray:
    """Diagonal parity matrix elements ``<R_n|P|R_n>``."""
    p = as_matrix(p, "P")
    return np.sum(np.conj(es.right) * (p @ es.right), axis=0)


def _recombine_degenerate(pt, es, groups, p, tol) -> np.ndarray:
    """Right vectors with each degenerate group replaced by a PT-fixed basis.

    The parity form ``W^dagger P W`` is real on PT-fixed vectors, so a real
    rotation, which keeps them PT-fixed, diagonalizes it; the columns are then
    scaled to ``|<w|P|w>| = 1``. Without ``p``, or when the form has an
    eigenvalue at or below the parity-calibration floor, they are unit-norm.
    """
    right = np.array(es.right)
    for group in groups:
        idx = np.asarray(group)
        # antilinear action on the group span, in the group's own basis
        images = pt.apply(right[:, idx])
        a = es.left[idx, :] @ images
        leak = images - right[:, idx] @ a
        if mat_norm(leak) > max(1e-8, tol) * max(1.0, mat_norm(images)):
            raise NotPTEigenstate("PT does not preserve a degenerate eigenspace")
        cols = right[:, idx] @ _pt_plus_basis(a, tol)
        if p is not None:
            form, rotation = np.linalg.eigh((cols.conj().T @ p @ cols).real)
            if np.abs(form).min() > tol * max(1.0, mat_norm(p)):
                right[:, idx] = (cols @ rotation) / np.sqrt(np.abs(form))
                continue
        right[:, idx] = cols / np.linalg.norm(cols, axis=0)  # real rescale keeps eta
    return right


def fix_pt_phases(pt: AntilinearOp, es: EigenSystem, cls: SpectrumClass, p=None,
                  tol: float = DEFAULT_TOL) -> PTPhases:
    """Rephase a real-spectrum eigenbasis so every PT eigenvalue is +1 or -1.

    The raw phase of state ``n`` is read off with the left-vector (metric)
    projection of ``pt(state)``. Which real branch a state lands on is chosen
    per state: when a parity matrix ``p`` is supplied, the sign of the (real,
    rephasing-invariant) parity overlap ``<R_n|P|R_n>`` is used, which is the
    choice that makes the phase-corrected PT norm positive; without ``p`` an
    already-real phase is kept (a ``-1`` is never flipped) and anything else is
    rotated to +1. Degenerate eigenvalue groups are first recombined so PT acts
    diagonally on them, P-orthonormally when ``p`` is supplied; such groups are
    recorded.
    """
    if cls.kind is not SpectrumKind.ALL_REAL:
        raise NotRealSpectrum("PT phases exist per-state only for an all-real spectrum")
    p = as_matrix(p, "P") if p is not None else None
    groups = _degenerate_groups(es.values, tol)
    if groups:
        es = es.with_right(_recombine_degenerate(pt, es, groups, p, tol))
    right, left = es.right, es.left

    images = pt.apply(right)
    coeff = np.einsum("ij,ji->i", left, images)
    residual = np.linalg.norm(images - coeff * right, axis=0)
    bound = max(1e-8, tol) * np.maximum(1.0, np.linalg.norm(images, axis=0))
    bad = (np.abs(coeff) < 0.5) | (residual > bound)
    if bad.any():
        j = int(np.argmax(bad))
        raise NotPTEigenstate(f"state {j} is not a PT eigenstate (residual {residual[j]:.3e})")
    eta_raw = coeff / np.abs(coeff)

    # without a usable parity overlap: keep a real phase, rotate the rest to +1
    targets = np.where((np.abs(eta_raw.imag) <= tol) & (eta_raw.real < 0.0), -1.0, 1.0)
    if p is not None:
        overlaps = parity_overlaps(es, p)
        usable = ((np.abs(overlaps) > tol * max(1.0, mat_norm(p)))
                  & (np.abs(overlaps.imag) <= 1e-6 * np.abs(overlaps)))
        targets = np.where(usable, np.where(overlaps.real > 0.0, 1.0, -1.0), targets)

    fixes = np.exp(0.5j * (np.angle(eta_raw) - np.angle(targets)))
    system = es.rescaled(fixes, es.condition)  # unit-modulus factors keep cond

    for j in range(es.dim):  # re-read each phase as the final consistency check
        check = pt_eigenphase(pt, system.right[:, j], tol=max(1e-8, tol))
        if abs(check - targets[j]) > 1e-6:
            raise NotPTEigenstate(f"phase fix failed to land state {j} on a real branch")
    return PTPhases(targets, fixes, system, tuple(tuple(g) for g in groups))


def pt_gram(frame: PTFrame, phases: PTPhases) -> np.ndarray:
    """Full matrix of PT-conjugate inner products."""
    raw = phases.system.right.conj().T @ frame.p @ phases.system.right
    return raw / phases.eta[:, np.newaxis]
