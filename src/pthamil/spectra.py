"""Spectrum classification under the antilinear-symmetry trichotomy.

An antilinear symmetry forces every eigenvalue to be real or to belong to a
complex-conjugate pair; a complex eigenvalue without a partner proves no such
symmetry exists. Defective (Jordan) matrices form the third, exceptional class,
signalled by :func:`~pthamil.linalg.eigendecompose` raising ``NonDiagonalizable``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import UnpairedComplexEigenvalue
from .linalg import DEFAULT_TOL, EigenSystem, as_matrix, mat_norm


class SpectrumKind(str, Enum):
    ALL_REAL = "all_real"
    CONJUGATE_PAIRS = "conjugate_pairs"


@dataclass(frozen=True)
class SpectrumClass:
    """Classification of an eigenvalue set.

    ``pairs`` holds index pairs ``(n_plus, n_minus)`` with
    ``values[n_plus] == conj(values[n_minus])`` and ``Im values[n_plus] >= 0``;
    ``real_indices`` lists the remaining (real) eigenvalues. Together they
    partition all indices.
    """

    kind: SpectrumKind
    pairs: tuple = field(default=())
    real_indices: tuple = field(default=())

    @classmethod
    def all_real(cls, dim: int) -> "SpectrumClass":
        return cls(SpectrumKind.ALL_REAL, (), tuple(range(dim)))


def spectral_scale(values) -> float:
    """Spectral radius, with a unit fallback for the zero spectrum."""
    radius = float(np.abs(values).max()) if len(values) else 0.0
    return radius if radius > 0.0 else 1.0


def classify(es: EigenSystem, tol: float = DEFAULT_TOL) -> SpectrumClass:
    """Classify a spectrum as all-real or conjugate-paired.

    Non-real eigenvalues are matched greedily to their nearest conjugate; a
    leftover or badly matched eigenvalue raises
    :class:`UnpairedComplexEigenvalue`, signalling that the matrix has no
    antilinear symmetry at all. Tolerances are relative to the spectral radius,
    floored at the resolution to which the eigenvalues themselves are
    determined (machine epsilon times the eigenvector condition number):
    near-defective clusters split asymmetrically under rounding, and matching
    below that resolution would report noise as a broken pairing.
    """
    values = es.values
    scale = spectral_scale(values)
    slack = max(tol, np.finfo(float).eps * es.condition)
    imag = values.imag
    real_mask = np.abs(imag) <= slack * scale
    if real_mask.all():
        return SpectrumClass.all_real(es.dim)

    plus = np.flatnonzero(~real_mask & (imag > 0.0))
    minus = np.flatnonzero(~real_mask & (imag <= 0.0))
    if len(plus) != len(minus):
        raise UnpairedComplexEigenvalue(
            f"{abs(len(plus) - len(minus))} complex eigenvalue(s) lack conjugate partners"
        )
    # row i: distance of plus[i] to the conjugate of every minus member; a
    # used member's column is set to inf, so argmin keeps the first remaining
    gaps = np.abs(values[plus][:, np.newaxis] - np.conj(values[minus])[np.newaxis, :])
    pairs = []
    for row, i in enumerate(plus.tolist()):
        k = int(np.argmin(gaps[row]))
        if gaps[row, k] > slack * scale:
            raise UnpairedComplexEigenvalue(
                f"eigenvalue {values[i]:.6g} has no conjugate partner within tolerance "
                f"(best mismatch {gaps[row, k]:.3e})"
            )
        pairs.append((i, int(minus[k])))
        gaps[:, k] = np.inf
    real_indices = tuple(np.flatnonzero(real_mask).tolist())
    return SpectrumClass(SpectrumKind.CONJUGATE_PAIRS, tuple(pairs), real_indices)


def antilinear_symmetry_check(h, a, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``A H A^-1 == H`` for the antilinear operator ``A = U K``.

    ``a`` may be an :class:`~pthamil.antilinear.AntilinearOp` or a bare matrix,
    which is then taken as its matrix ``U``.
    """
    h = as_matrix(h, "H")
    u = as_matrix(getattr(a, "u", a), "U")
    transformed = u @ np.conj(h) @ np.linalg.inv(u)
    return mat_norm(transformed - h) <= tol * max(1.0, mat_norm(h))
