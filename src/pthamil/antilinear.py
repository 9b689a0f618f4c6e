"""Antilinear operators, parity/time-reversal frames, and intrinsic PT phases.

An antilinear operator is stored as ``(u, conjugates)`` and acts as
``v -> u @ conj(v)`` when ``conjugates`` is set. Time reversal and the combined
PT operation are always of this form; parity is an ordinary Hermitian
involution. On a real spectrum every eigenstate carries an intrinsic PT phase
``eta`` which can be rotated onto the real axis by rephasing the state; keeping
that phase in the PT conjugate of a state is what turns the parity overlap
into a positive inner product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidFrame, NotPTEigenstate, NotRealSpectrum
from .linalg import (
    DEFAULT_TOL,
    EigenSystem,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    as_matrix,
    mat_norm,
)
from .spectra import SpectrumClass, SpectrumKind, spectral_scale

_SIGMA = (SIGMA1, SIGMA2, SIGMA3)


@dataclass(frozen=True)
class AntilinearOp:
    """Operator ``v -> u @ conj(v)`` (or plain ``u @ v`` when ``conjugates`` is
    False, for uniform composition)."""

    u: np.ndarray
    conjugates: bool = True

    def __post_init__(self):
        u = as_matrix(self.u, "u")
        u.setflags(write=False)
        object.__setattr__(self, "u", u)

    @property
    def dim(self) -> int:
        return int(self.u.shape[0])

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        return self.u @ (np.conj(v) if self.conjugates else v)

    __call__ = apply

    def compose(self, other: "AntilinearOp") -> "AntilinearOp":
        """self o other: apply ``other`` first."""
        u2 = np.conj(other.u) if self.conjugates else other.u
        return AntilinearOp(self.u @ u2, self.conjugates ^ other.conjugates)


def linear_op(matrix) -> AntilinearOp:
    """Wrap a plain matrix as a non-conjugating operator, for composition."""
    return AntilinearOp(matrix, conjugates=False)


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

    Enforces ``P^2 = I``, ``P = P^dagger``, ``T^2 = I`` and ``(PT)^2 = I`` as
    antilinear squares, and ``[P, T] = 0``.
    """
    p = as_matrix(p, "P")
    if not isinstance(t, AntilinearOp):
        t = AntilinearOp(t)
    if not t.conjugates:
        raise InvalidFrame("time reversal must be antilinear")
    n = p.shape[0]
    if t.dim != n:
        raise InvalidFrame(f"P is {n}x{n} but T acts on dimension {t.dim}")
    eye = np.eye(n)
    checks = {
        "P^2 = I": mat_norm(p @ p - eye),
        "P = P^dagger": mat_norm(p - p.conj().T),
        "T^2 = I": mat_norm(t.compose(t).u - eye),
    }
    p_op = linear_op(p)
    pt = p_op.compose(t)
    tp = t.compose(p_op)
    checks["[P, T] = 0"] = mat_norm(pt.u - tp.u)
    checks["(PT)^2 = I"] = mat_norm(pt.compose(pt).u - eye)
    scale = max(1.0, mat_norm(p), mat_norm(t.u))
    bad = {k: v for k, v in checks.items() if v > tol * scale}
    if bad:
        detail = ", ".join(f"{k} (residual {v:.3e})" for k, v in bad.items())
        raise InvalidFrame(f"frame constraints violated: {detail}")
    return PTFrame(p, t, pt)


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
    scale = max(np.linalg.norm(image), np.linalg.norm(state))
    if abs(coeff) < 0.5:
        raise NotPTEigenstate(
            f"PT maps the state mostly off its own ray (|projection| = {abs(coeff):.3e})"
        )
    eta = coeff / abs(coeff)
    residual = np.linalg.norm(image - eta * state)
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

    Candidates ``e + a conj(e)`` and ``i e + a conj(i e)`` are all fixed points;
    a greedy real-linear selection extracts k independent ones.
    """
    k = a.shape[0]
    if mat_norm(a @ np.conj(a) - np.eye(k)) > max(1e-8, tol) * max(1.0, mat_norm(a) ** 2):
        raise NotPTEigenstate("PT does not square to one on the degenerate subspace")
    candidates = []
    for j in range(k):
        e = np.zeros(k, dtype=complex)
        e[j] = 1.0
        candidates.append(e + a @ np.conj(e))
        candidates.append(1j * e + a @ np.conj(1j * e))
    candidates.sort(key=lambda v: -np.linalg.norm(v))
    picked = []
    for w in candidates:
        if len(picked) == k:
            break
        nw = np.linalg.norm(w)
        if nw < 1e-12:
            continue
        w = w / nw
        if picked:
            # real-linear independence: project out span_R(picked)
            basis = np.concatenate([np.column_stack(picked).real,
                                    np.column_stack(picked).imag])
            target = np.concatenate([w.real, w.imag])
            coeff, *_ = np.linalg.lstsq(basis, target, rcond=None)
            residual = target - basis @ coeff
            if np.linalg.norm(residual) < 1e-6:
                continue
        picked.append(w)
    if len(picked) != k:
        raise NotPTEigenstate("could not build a PT eigenbasis on the degenerate subspace")
    return np.column_stack(picked)


def fix_pt_phases(
    pt: AntilinearOp,
    es: EigenSystem,
    cls: SpectrumClass,
    p=None,
    tol: float = DEFAULT_TOL,
) -> PTPhases:
    """Rephase a real-spectrum eigenbasis so every PT eigenvalue is +1 or -1.

    The raw phase of state ``n`` is read off with the left-vector (metric)
    projection of ``pt(state)``. Which real branch a state lands on is chosen
    per state: when a parity matrix ``p`` is supplied, the sign of the (real,
    rephasing-invariant) parity overlap ``<R_n|P|R_n>`` is used, which is the
    choice that makes the phase-corrected PT norm positive; without ``p`` an
    already-real phase is kept (a ``-1`` is never flipped) and anything else is
    rotated to +1. Degenerate eigenvalue groups are first recombined so PT acts
    diagonally on them; such groups are recorded.
    """
    if cls.kind is not SpectrumKind.ALL_REAL:
        raise NotRealSpectrum("PT phases exist per-state only for an all-real spectrum")
    right = np.array(es.right)
    values = es.values
    n = es.dim

    groups = _degenerate_groups(values, tol)
    if groups:
        left = np.linalg.inv(right)
        for group in groups:
            idx = np.asarray(group)
            # antilinear action on the group span, in the group's own basis
            images = pt.apply(right[:, idx])
            a = left[idx, :] @ images
            leak = images - right[:, idx] @ a
            if mat_norm(leak) > max(1e-8, tol) * max(1.0, mat_norm(images)):
                raise NotPTEigenstate("PT does not preserve a degenerate eigenspace")
            w = _pt_plus_basis(a, tol)
            new_cols = right[:, idx] @ w
            new_cols /= np.linalg.norm(new_cols, axis=0)  # real rescale keeps eta
            right[:, idx] = new_cols
    left = np.linalg.inv(right)

    eta_raw = np.empty(n, dtype=complex)
    for j in range(n):
        image = pt.apply(right[:, j])
        coeff = left[j, :] @ image
        residual = np.linalg.norm(image - coeff * right[:, j])
        if abs(coeff) < 0.5 or residual > max(1e-8, tol) * max(1.0, np.linalg.norm(image)):
            raise NotPTEigenstate(
                f"state {j} is not a PT eigenstate (residual {residual:.3e})"
            )
        eta_raw[j] = coeff / abs(coeff)

    targets = np.empty(n, dtype=complex)
    p_matrix = as_matrix(p, "P") if p is not None else None
    p_floor = tol * max(1.0, mat_norm(p_matrix)) if p_matrix is not None else 0.0
    for j in range(n):
        target = None
        if p_matrix is not None:
            overlap = complex(np.vdot(right[:, j], p_matrix @ right[:, j]))
            if abs(overlap) > p_floor and abs(overlap.imag) <= 1e-6 * abs(overlap):
                target = 1.0 if overlap.real > 0.0 else -1.0
        if target is None:
            if abs(eta_raw[j].imag) <= tol:
                target = 1.0 if eta_raw[j].real >= 0.0 else -1.0
            else:
                target = 1.0
        targets[j] = target

    fixes = np.exp(0.5j * (np.angle(eta_raw) - np.angle(targets)))
    right = right * fixes[np.newaxis, :]
    left = left / fixes[:, np.newaxis]
    system = EigenSystem(values.copy(), right, left, float(np.linalg.cond(right)))

    for j in range(n):  # re-read each phase as the final consistency check
        check = pt_eigenphase(pt, system.right[:, j], tol=max(1e-8, tol))
        if abs(check - targets[j]) > 1e-6:
            raise NotPTEigenstate(f"phase fix failed to land state {j} on a real branch")
    return PTPhases(targets, fixes, system, tuple(tuple(g) for g in groups))


def pt_gram(frame: PTFrame, phases: PTPhases, es: EigenSystem | None = None) -> np.ndarray:
    """Full matrix of PT-conjugate inner products."""
    system = es if es is not None else phases.system
    raw = system.right.conj().T @ frame.p @ system.right
    return np.diag(1.0 / phases.eta) @ raw
