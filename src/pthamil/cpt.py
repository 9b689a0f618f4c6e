"""The PV operator, the discrete C operator, and whether C commutes with PT.

When parity intertwines the Hamiltonian with its adjoint (``P^-1 H P = H^dagger``)
the product ``PV`` commutes with H and its eigenvalues are real; rescaling the
eigenbasis so those eigenvalues are +-1 turns ``PV`` into a C operator
(``C^2 = I``, ``[C, H] = 0``). A C of other signs is built only from signs
the caller gives (:func:`build_c`); whether it commutes with PT
(:func:`c_commutes_with_pt`) tells an all-real spectrum from conjugate pairs,
which PT alone tells too (:func:`pthamil.antilinear.pt_eigenstates`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .antilinear import PTFrame
from .errors import NotCommuting, PTHamilError
from .intertwiner import Intertwiner
from .linalg import DEFAULT_TOL, EigenSystem, as_matrix, mat_norm, read_only, within
from .spectra import SpectrumClass, SpectrumKind


@dataclass(frozen=True)
class CommutantOp:
    """PV (:func:`build_pv`): its matrix, eigenvalues ``alphas``, and whether it squares to one."""

    matrix: np.ndarray
    alphas: np.ndarray
    squares_to_identity: bool

    def __post_init__(self):
        for name in ("matrix", "alphas"):
            object.__setattr__(self, name, read_only(getattr(self, name)))


def check_p_intertwines(h, p, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``P^-1 H P == H^dagger`` (with ``P^2 = I`` required), each
    decided by :func:`~pthamil.linalg.within` at ``tol``."""
    h = as_matrix(h, "H")
    p = as_matrix(p, "P")
    eye = np.eye(p.shape[0])
    if not within(mat_norm(p @ p - eye), tol, mat_norm(p) ** 2):
        raise ValueError("P must square to the identity")
    return within(mat_norm(p @ h @ p - h.conj().T), tol, mat_norm(h))


def build_pv(frame: PTFrame, itw: Intertwiner, es: EigenSystem,
             tol: float = DEFAULT_TOL) -> CommutantOp:
    """Form ``PV`` from the frame's parity, which the caller found to
    intertwine ``es.h``, and the metric ``itw.v``, verify it commutes with
    ``es.h``, and extract its (real) eigenvalues.

    ``squares_to_identity`` records the explicit test ``P V P V == I``
    (equivalently ``P V P == V^-1``, stated without inverting V, whose
    condition number is the square of the eigenvector one). The reciprocity
    ``alpha_n <R_n|P|R_n> = 1`` holds for any eigenvector scaling; the alphas
    are +-1 exactly when the states are parity-calibrated. Each check is
    decided by :func:`~pthamil.linalg.within` at ``tol``.
    """
    pv = frame.p @ itw.v
    comm = mat_norm(pv @ es.h - es.h @ pv)
    if not within(comm, tol, mat_norm(pv) * mat_norm(es.h)):
        raise NotCommuting(f"[PV, H] residual {comm:.3e} exceeds tolerance")
    alphas = np.diag(es.left @ pv @ es.right).copy()
    if not within(float(np.abs(alphas.imag).max()), tol, float(np.abs(alphas).max())):
        raise ValueError(
            "PV eigenvalues are not real; this is expected for a "
            "complex-conjugate-pair spectrum, where PV plays no role"
        )
    squares = within(mat_norm(pv @ pv - np.eye(es.dim)), tol, mat_norm(pv) ** 2)
    return CommutantOp(pv, alphas.real.astype(complex), squares)


def build_c(es: EigenSystem, cls: SpectrumClass, signs, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The read-only matrix of C from biorthogonal projectors with +-1 weights,
    checked against ``es.h``, the matrix ``es`` decomposes.

    All-real spectrum: one sign per eigenstate. Conjugate pairs: one sign per
    pair, realized with opposite weights ``(s, -s)`` on the two members (real
    eigenvalues inside a mixed spectrum get weight +1); this is the choice
    whose commutator with PT detects the pair structure.
    """
    signs = [int(s) for s in signs]
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    weights = np.ones(es.dim, dtype=complex)
    if cls.kind is SpectrumKind.ALL_REAL:
        if len(signs) != es.dim:
            raise ValueError(f"need one sign per eigenstate ({es.dim}), got {len(signs)}")
        weights[:] = signs
    else:
        if len(signs) != len(cls.pairs):
            raise ValueError(f"need one sign per pair ({len(cls.pairs)}), got {len(signs)}")
        for (n_plus, n_minus), s in zip(cls.pairs, signs):
            weights[n_plus] = s
            weights[n_minus] = -s
    c = (es.right * weights) @ es.left
    sq = mat_norm(c @ c - np.eye(es.dim))
    comm = mat_norm(c @ es.h - es.h @ c)
    if not within(sq, tol, mat_norm(c) ** 2):
        raise PTHamilError(f"constructed C fails C^2 = I (residual {sq:.3e})")
    if not within(comm, tol, mat_norm(c) * mat_norm(es.h)):
        raise PTHamilError(f"constructed C fails [C, H] = 0 (residual {comm:.3e})")
    return read_only(c)


def c_commutes_with_pt(c: np.ndarray, frame: PTFrame, tol: float = DEFAULT_TOL) -> bool:
    """True iff C, the matrix ``c``, commutes with the frame's PT, ``v -> u conj(v)``.

    ``[C, PT] = 0`` reduces to ``C u conj(C) = u``; it holds exactly when the
    spectrum is real and fails for conjugate pairs, as far as its bound, which
    grows as ``||C||^2``, can resolve, decided by
    :func:`~pthamil.linalg.within` at ``tol``.
    """
    u = frame.pt
    residual = mat_norm(c @ u @ np.conj(c) - u)
    return within(residual, tol, mat_norm(u) * mat_norm(c) ** 2)
