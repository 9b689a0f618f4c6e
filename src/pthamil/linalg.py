"""Dense complex matrix primitives and the biorthogonal eigendecomposition.

Everything downstream (classification, metrics, commutants) is built on the
:class:`EigenSystem` produced here: eigenvalues in a canonical order, right
eigenvectors with a deterministic phase, and left eigenvectors obtained by
inverting the right-eigenvector matrix so that ``left @ right == identity``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NonDiagonalizable

#: Default relative tolerance for every comparison in the toolkit.
DEFAULT_TOL = 1e-10

SIGMA0 = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate ``a`` as a square complex matrix with finite entries."""
    m = np.array(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():  # a complex entry is finite when both parts are
        raise ValueError(f"{name} contains non-finite entries")
    return m


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def mat_norm(a) -> float:
    """Frobenius norm, the scale used for all residuals.

    The arithmetic of ``np.linalg.norm(a)``, bit for bit, without its
    dispatch: memory-order ravel, then ``sqrt(re.re + im.im)``.
    """
    x = np.asarray(a)
    if not issubclass(x.dtype.type, np.inexact):
        x = x.astype(float)
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return float(np.sqrt(re.dot(re) + im.dot(im)))
    return float(np.sqrt(x.dot(x)))


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues with biorthogonal right/left eigenvectors.

    ``values[n]`` belongs to the right eigenvector ``right[:, n]`` and the left
    eigenvector ``left[n, :]``; ``left @ right`` is the identity within
    tolerance and ``right @ diag(values) @ left`` reconstructs the matrix.
    """

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray
    condition: float

    def __post_init__(self):
        for name in ("values", "right", "left"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.values.shape[0]
        if self.right.shape != (n, n) or self.left.shape != (n, n):
            raise ValueError("inconsistent eigensystem shapes")

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])

    def reconstruct(self) -> np.ndarray:
        """The matrix this system decomposes: ``right @ diag(values) @ left``."""
        return (self.right * self.values) @ self.left

    def with_right(self, right: np.ndarray) -> "EigenSystem":
        """New system with replaced right eigenvectors; left recomputed as the inverse."""
        right = np.asarray(right, dtype=complex)
        return EigenSystem(self.values.copy(), right, np.linalg.inv(right),
                           float(np.linalg.cond(right)))

    def rescaled(self, factors, condition: float | None = None) -> "EigenSystem":
        """New system with column ``n`` of ``right`` times ``factors[n]``, and
        ``left`` as ``inv(R D) = D^-1 inv(R)``. Pass ``condition`` when the
        scaling keeps it (unit-modulus factors do); else it is recomputed."""
        right = self.right * factors
        condition = float(np.linalg.cond(right)) if condition is None else condition
        return EigenSystem(self.values.copy(), right,
                           self.left / np.reshape(factors, (-1, 1)), condition)


def canonical_order(values: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Permutation sorting eigenvalues by real part descending, then imaginary
    part descending.

    Real parts within ``tol`` times the spectral radius of their neighbour in
    that order count as equal for the imaginary-part sort, so rounding of the
    real parts below that threshold cannot decide the order of a conjugate
    pair: its ``Im > 0`` member comes first. Where the imaginary parts tie as
    well, the larger real part still comes first.
    """
    values = np.asarray(values)
    by_real = np.argsort(-values.real, kind="stable")
    radius = float(np.abs(values).max()) if values.size else 0.0
    steps = -np.diff(values.real[by_real]) > tol * radius
    key = np.empty(values.shape[0])
    key[by_real] = np.concatenate(([0], np.cumsum(steps)))
    return np.lexsort((-values.real, -values.imag, key))


def _canonical_phases(r: np.ndarray) -> np.ndarray:
    """Unit-normalize each column and rotate its largest-magnitude component to
    the positive real axis."""
    r = np.asarray(r, dtype=complex)
    norms = np.linalg.norm(r, axis=0)
    r = r / np.where(norms > 0.0, norms, 1.0)
    pivots = r[np.argmax(np.abs(r), axis=0), np.arange(r.shape[1])]
    rotations = np.ones_like(pivots)
    nonzero = pivots != 0.0
    rotations[nonzero] = pivots[nonzero].conj() / np.abs(pivots[nonzero])
    return r * rotations


def eigendecompose(h, tol: float = DEFAULT_TOL) -> EigenSystem:
    """Full complex eigendecomposition with biorthogonal left vectors.

    Eigenvalues are sorted (real descending, imaginary descending; real parts
    within ``tol`` times the spectral radius count as equal unless the
    imaginary parts tie too), right
    eigenvectors are unit-norm with their largest-magnitude component real and
    positive, and ``left = inv(right)``.

    Raises
    ------
    NonDiagonalizable
        if ``cond(right)`` exceeds ``1/tol`` (exceptional-point threshold).
    ConvergenceFailure
        if the underlying QR iteration does not converge.
    """
    h = as_matrix(h, "H")
    try:
        values, r = np.linalg.eig(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    order = canonical_order(values, tol)
    values = values[order]
    r = _canonical_phases(r[:, order])
    condition = float(np.linalg.cond(r))
    threshold = 1.0 / tol
    if not np.isfinite(condition) or condition > threshold:
        raise NonDiagonalizable(condition, threshold)
    left = np.linalg.inv(r)
    return EigenSystem(values, r, left, condition)
