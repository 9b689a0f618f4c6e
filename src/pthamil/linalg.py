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


def residual_bound(tol, scale):
    """``tol * max(1.0, scale)``, the bound of every scaled residual, one per entry of an
    array scale; a NaN scale gives a NaN bound (``max`` keeps a NaN that comes first)."""
    return tol * (np.maximum(1.0, scale) if isinstance(scale, np.ndarray) else max(scale, 1.0))


def within(residual, tol, scale):
    """``residual <= residual_bound(check_tier(tol), scale)`` for the analysis
    tolerance ``tol``: the pass/fail rule of every residual check, elementwise
    for arrays, and a NaN residual or scale never passes."""
    return residual <= residual_bound(check_tier(tol), scale)


def gram_tier(tol: float) -> float:
    """``tol`` floored at 1e-9: the tolerance of the Gram-matrix and metric flags."""
    return max(tol, 1e-9)


def check_tier(tol: float) -> float:
    """``tol`` floored at 1e-8: the tolerance of the structural checks."""
    return max(tol, 1e-8)


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


def read_only(a, dtype=complex) -> np.ndarray:
    """``a`` as a read-only ndarray of ``dtype``; an array already of ``dtype`` is not copied."""
    a = np.asarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def quarter_turn(m, turns) -> np.ndarray:
    """``m * 1j ** turns`` (integer ``turns``, broadcast): each part of a finite
    result is exactly a part of ``m`` or its negative (``+0.0`` for a zero)."""
    return np.asarray(m) * (np.array([1.0, 1.0j, -1.0, -1.0j]) + 0.0)[np.asarray(turns) % 4]


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
    """Eigenvalues with biorthogonal right/left eigenvectors of ``h``.

    ``values[n]`` belongs to the right eigenvector ``right[:, n]`` and the left
    eigenvector ``left[n, :]``; ``left @ right`` is the identity within
    tolerance and ``right @ diag(values) @ left`` is ``h``, the validated
    matrix they diagonalize, against which every later residual is measured.
    ``condition`` is cond(R) of the unit-norm eigenvectors that
    :func:`eigendecompose` tested against ``1/tol``; a derived system keeps it.
    """

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray
    condition: float
    h: np.ndarray

    def __post_init__(self):
        for name in ("values", "right", "left", "h"):
            object.__setattr__(self, name, read_only(getattr(self, name)))
        n = self.values.shape[0]
        if any(getattr(self, name).shape != (n, n) for name in ("right", "left", "h")):
            raise ValueError("inconsistent eigensystem shapes")

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])

    def with_right(self, right: np.ndarray) -> "EigenSystem":
        """New system with replaced right eigenvectors; left recomputed as the inverse."""
        return EigenSystem(self.values.copy(), right, np.linalg.inv(right), self.condition, self.h)

    def rescaled(self, factors) -> "EigenSystem":
        """New system with column ``n`` of ``right`` times ``factors[n]``, and
        ``left`` as ``inv(R D) = D^-1 inv(R)``."""
        return EigenSystem(self.values.copy(), self.right * factors,
                           self.left / np.reshape(factors, (-1, 1)), self.condition, self.h)


def spectral_scale(values) -> float:
    """Spectral radius, with a unit fallback for the zero spectrum."""
    radius = float(np.abs(values).max()) if len(values) else 0.0
    return radius if radius > 0.0 else 1.0


def _joined(ordered, scale: float, tol: float) -> np.ndarray:
    """The rule for equal eigenvalues: ``joined[k]`` is True where
    ``ordered[k + 1]`` is within ``tol * scale`` of ``ordered[k]``, so a run
    continues while each value is that close to the one before it."""
    return np.abs(np.diff(ordered)) <= tol * scale


def canonical_order(values: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Permutation sorting eigenvalues by real part descending, then imaginary
    part descending.

    Real parts that tie, each within ``tol`` times the spectral scale of its
    neighbour in that order, count as equal for the imaginary-part sort, so
    rounding of the real parts below that threshold cannot decide the order
    of a conjugate pair: its ``Im > 0`` member comes first. Where the
    imaginary parts tie as well, the larger real part still comes first.
    """
    values = np.asarray(values)
    by_real = np.argsort(-values.real, kind="stable")
    steps = ~_joined(values.real[by_real], spectral_scale(values), tol)
    key = np.empty(values.shape[0])
    key[by_real] = np.concatenate(([0], np.cumsum(steps)))
    return np.lexsort((-values.real, -values.imag, key))


def degenerate_groups(values, tol: float = DEFAULT_TOL) -> list:
    """Index lists (plain ``int``) of the runs of two or more consecutive
    eigenvalues, each within ``tol`` times the spectral scale of the one
    before it: the ties of :func:`canonical_order`, applied to whole
    eigenvalues rather than to their real parts."""
    values = np.asarray(values)
    starts = np.flatnonzero(~_joined(values, spectral_scale(values), tol)) + 1
    return [run.tolist() for run in np.split(np.arange(len(values)), starts) if len(run) > 1]


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


def _real_turns(h: np.ndarray) -> np.ndarray | None:
    """Turns ``q`` (0 or 1 per axis) for ``W = diag(1j ** q)``: if any turns
    make ``W^dagger H W`` real, these do. Each entry of H must be real or
    imaginary (else None), and ``q_k - q_j`` is odd where ``H_jk`` is
    imaginary, labelled outward from ``q = 0`` at the lowest axis of each
    linked block."""
    re, im = h.real != 0.0, h.imag != 0.0
    if not im.any():  # a real H: no turns, and no search for them
        return np.zeros(len(h), dtype=int)
    if (re & im).any():
        return None
    odd = im | im.T
    linked = re | re.T | odd
    np.fill_diagonal(linked, False)
    # breadth first, one level per pass; an axis linked to no other keeps q = 0
    q, seen, front = np.zeros(len(h), dtype=int), ~linked.any(axis=1), ()
    while not seen.all():
        if not len(front):
            front = seen.argmin(keepdims=True)  # the lowest axis of a new block
            seen[front] = True
        hits = linked[front] & ~seen
        reached = np.flatnonzero(hits.any(axis=0))
        source = front[hits[:, reached].argmax(axis=0)]
        q[reached], seen[reached], front = q[source] ^ odd[source, reached], True, reached
    return q


def eigendecompose(h, tol: float = DEFAULT_TOL) -> EigenSystem:
    """Full complex eigendecomposition with biorthogonal left vectors.

    Eigenvalues are sorted (real descending, imaginary descending; real parts
    within ``tol`` times the spectral radius count as equal unless the
    imaginary parts tie too), right eigenvectors are unit-norm with their
    largest-magnitude component real and positive, and ``left = inv(right)``.
    H chooses its own basis: if ``W^dagger H W`` is exactly real for ``W =
    diag(1j ** q)``, with the turns ``q`` read from which parts of H's entries
    are zero, ``eig`` runs on it in real arithmetic and H's eigenvectors are
    ``W`` times its, so each entry of a real eigenvalue's eigenvector has an
    exactly zero real or imaginary part; otherwise ``eig`` runs on H.

    Raises
    ------
    NonDiagonalizable
        if ``cond(right)`` exceeds ``1/tol`` (exceptional-point threshold).
    ConvergenceFailure
        if the underlying QR iteration does not converge.
    """
    h = as_matrix(h, "H")
    turns = _real_turns(h)
    h_w = None if turns is None else quarter_turn(h, turns - turns[:, np.newaxis])  # W^dagger H W
    real = h_w is not None and not h_w.imag.any()
    try:
        values, r = np.linalg.eig(h_w.real if real else h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    order = canonical_order(values, tol)
    values = values[order]
    r = _canonical_phases(quarter_turn(r[:, order], turns[:, np.newaxis]) if real else r[:, order])
    condition = float(np.linalg.cond(r))
    threshold = 1.0 / tol
    if not np.isfinite(condition) or condition > threshold:
        raise NonDiagonalizable(condition, threshold)
    left = np.linalg.inv(r)
    return EigenSystem(values, r, left, condition, h)
