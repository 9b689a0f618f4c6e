"""The PV operator, the discrete C operator, and the [C, PT] diagnostic.

When parity intertwines the Hamiltonian with its adjoint (``P^-1 H P = H^dagger``)
the product ``PV`` commutes with H and its eigenvalues are real; rescaling the
eigenbasis so those eigenvalues are +-1 turns ``PV`` into a C operator
(``C^2 = I``, ``[C, H] = 0``). Whether C commutes with PT distinguishes an
all-real spectrum from conjugate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .antilinear import AntilinearOp, parity_overlaps
from .errors import NotCommuting, PTHamilError
from .linalg import DEFAULT_TOL, EigenSystem, as_matrix, mat_norm
from .spectra import SpectrumClass, SpectrumKind


@dataclass(frozen=True)
class CommutantOp:
    """An operator commuting with H, diagonal on the biorthogonal eigenbasis."""

    matrix: np.ndarray
    alphas: np.ndarray
    squares_to_identity: bool

    def __post_init__(self):
        m = as_matrix(self.matrix, "matrix")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        a = np.asarray(self.alphas, dtype=complex)
        a.setflags(write=False)
        object.__setattr__(self, "alphas", a)


class SpectrumDiagnostic(str, Enum):
    REAL_SPECTRUM = "real_spectrum"
    COMPLEX_PAIRS = "complex_pairs"


def check_p_intertwines(h, p, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``P^-1 H P == H^dagger`` (with ``P^2 = I`` required)."""
    h = as_matrix(h, "H")
    p = as_matrix(p, "P")
    eye = np.eye(p.shape[0])
    if mat_norm(p @ p - eye) > tol * max(1.0, mat_norm(p) ** 2):
        raise ValueError("P must square to the identity")
    return mat_norm(p @ h @ p - h.conj().T) <= tol * max(1.0, mat_norm(h))


def p_normalize(es: EigenSystem, p, tol: float = DEFAULT_TOL):
    """Rescale eigenvectors so ``|<R_n|P|R_n>| = 1``.

    This is the calibration under which the PV eigenvalues become +-1 and the
    parity Gram matrix is ``diag(+-1)``. States whose parity overlap is below
    tolerance (degenerate PV eigenvalues) are left untouched and returned in
    the skipped list.
    """
    magnitudes = np.abs(parity_overlaps(es, p))
    skipped = magnitudes <= tol * max(1.0, mat_norm(p))
    factors = 1.0 / np.sqrt(np.where(skipped, 1.0, magnitudes))
    return es.rescaled(factors), np.flatnonzero(skipped).tolist()


def build_pv(p, v, es: EigenSystem, tol: float = DEFAULT_TOL) -> CommutantOp:
    """Form ``PV``, verify it commutes with H, and extract its (real) eigenvalues.

    ``squares_to_identity`` records the explicit test ``P V P V == I``
    (equivalently ``P V P == V^-1``, stated without inverting V, whose
    condition number is the square of the eigenvector one). The reciprocity
    ``alpha_n <R_n|P|R_n> = 1`` holds for any eigenvector scaling; the alphas
    are +-1 exactly when the states are parity-calibrated.
    """
    p = as_matrix(p, "P")
    v = as_matrix(v, "V")
    h = es.reconstruct()
    if not check_p_intertwines(h, p, tol):
        raise NotCommuting("P does not intertwine H with its adjoint")
    pv = p @ v
    comm = mat_norm(pv @ h - h @ pv)
    if comm > tol * max(1.0, mat_norm(pv) * mat_norm(h)):
        raise NotCommuting(f"[PV, H] residual {comm:.3e} exceeds tolerance")
    alphas = np.diag(es.left @ pv @ es.right).copy()
    alpha_scale = max(1.0, float(np.abs(alphas).max()))
    if float(np.abs(alphas.imag).max()) > tol * alpha_scale:
        raise ValueError(
            "PV eigenvalues are not real; this is expected for a "
            "complex-conjugate-pair spectrum, where PV plays no role"
        )
    squares = mat_norm(pv @ pv - np.eye(es.dim)) <= tol * max(1.0, mat_norm(pv) ** 2)
    return CommutantOp(pv, alphas.real.astype(complex), squares)


def build_c(es: EigenSystem, cls: SpectrumClass, signs, tol: float = DEFAULT_TOL) -> CommutantOp:
    """C operator from biorthogonal projectors with +-1 weights.

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
    eye = np.eye(es.dim)
    h = es.reconstruct()
    sq = mat_norm(c @ c - eye)
    comm = mat_norm(c @ h - h @ c)
    if sq > max(1e-8, tol) * max(1.0, mat_norm(c) ** 2):
        raise PTHamilError(f"constructed C fails C^2 = I (residual {sq:.3e})")
    if comm > max(1e-8, tol) * max(1.0, mat_norm(c) * mat_norm(h)):
        raise PTHamilError(f"constructed C fails [C, H] = 0 (residual {comm:.3e})")
    return CommutantOp(c, weights, True)


def c_pt_diagnostic(c, pt: AntilinearOp, tol: float = DEFAULT_TOL) -> SpectrumDiagnostic:
    """Spectrum diagnostic from the antilinear commutator of C with PT.

    ``[C, PT] = 0`` reduces to ``C u conj(C) = u`` on the unitary part of PT;
    it holds exactly when the spectrum is real and fails for conjugate pairs.
    """
    cm = c.matrix if isinstance(c, CommutantOp) else as_matrix(c, "C")
    u = pt.u
    residual = mat_norm(cm @ u @ np.conj(cm) - u)
    if residual <= tol * max(1.0, mat_norm(u) * mat_norm(cm) ** 2):
        return SpectrumDiagnostic.REAL_SPECTRUM
    return SpectrumDiagnostic.COMPLEX_PAIRS


def diagnostic_is_degenerate(c, tol: float = DEFAULT_TOL) -> bool:
    """True when C is (a sign times) the identity, which commutes with
    everything and carries no information."""
    cm = c.matrix if isinstance(c, CommutantOp) else as_matrix(c, "C")
    eye = np.eye(cm.shape[0])
    scale = max(1.0, mat_norm(cm))
    return (mat_norm(cm - eye) <= tol * scale) or (mat_norm(cm + eye) <= tol * scale)
