"""Truncated Fock-space expansion of position eigenstates and its divergence.

Expanding ``x_hat |psi> = x |psi>`` over number states gives the three-term
recurrence ``sqrt(n-1) c_{n-2} + sqrt(n) c_n = x c_{n-1}``. The squared
coefficients decay slower than ``1/n``, so the Dirac norm of a position
eigenstate diverges with the truncation — the structural reason parity-based
constructions that work in finite dimensions fail on position eigenstates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoefficientOverflow
from .linalg import read_only

#: Squares of coefficients this large would still sum finitely in float range.
OVERFLOW_LIMIT = 1e150


@dataclass(frozen=True)
class FockExpansion:
    """Coefficients ``c_n`` of a position eigenstate over number states, with
    running partial sums of ``c_n^2``."""

    x: float
    c0: float
    coeffs: np.ndarray
    partial_norms: np.ndarray

    def __post_init__(self):
        for name in ("coeffs", "partial_norms"):
            object.__setattr__(self, name, read_only(getattr(self, name), float))


def expand_position_state(x: float, c0: float = 1.0, nmax: int = 100) -> FockExpansion:
    """Forward recurrence for the expansion coefficients up to ``n = nmax``."""
    if nmax < 2:
        raise ValueError("nmax must be at least 2")
    if not (math.isfinite(x) and math.isfinite(c0)):
        raise ValueError(f"x and c0 must be finite, got x={x}, c0={c0}")
    c = np.zeros(nmax + 1, dtype=float)
    c[0] = c0
    c[1] = x * c0
    if abs(c[1]) > OVERFLOW_LIMIT:  # before the recurrence multiplies it by x
        raise CoefficientOverflow(1, abs(c[1]))
    for n in range(2, nmax + 1):
        c[n] = (x * c[n - 1] - math.sqrt(n - 1) * c[n - 2]) / math.sqrt(n)
        if abs(c[n]) > OVERFLOW_LIMIT:
            raise CoefficientOverflow(n, abs(c[n]))
    return FockExpansion(float(x), float(c0), c, np.cumsum(c * c))


@dataclass(frozen=True)
class DivergenceWitness:
    """Partial norms plus the fitted tail exponent of ``c_n^2`` vs ``n``.

    An exponent above -1 means the squared coefficients decay slower than
    ``1/n``, so the comparison series diverges. This finite computation stands
    in for the limit statement; it certifies the trend, not infinity itself.
    """

    x: float
    nmax: int
    partial_norms: np.ndarray
    fitted_tail_exponent: float

    def __post_init__(self):
        object.__setattr__(self, "partial_norms", read_only(self.partial_norms, float))


def divergence_witness(x: float, nmax: int) -> DivergenceWitness:
    """Expand at ``x`` and fit the tail of ``c_n^2`` on a log-log scale.

    The fit runs over geometric bins of the upper half of the range (bin means
    smooth out the oscillation of the coefficients at generic ``x``).
    """
    if nmax < 50:
        raise ValueError("nmax must be at least 50 for a meaningful tail fit")
    expansion = expand_position_state(x, 1.0, nmax)
    squares = expansion.coeffs**2
    start = nmax // 2
    edges = np.unique(np.geomspace(start, nmax, 25).astype(int))
    log_n, log_mean = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        window = squares[lo : hi + 1]
        mean = float(np.mean(window))
        if mean > 0.0:
            log_n.append(math.log(0.5 * (lo + hi)))
            log_mean.append(math.log(mean))
    if len(log_n) < 3:
        raise ValueError("not enough nonzero tail data to fit an exponent")
    slope = float(np.polyfit(log_n, log_mean, 1)[0])
    return DivergenceWitness(float(x), int(nmax), expansion.partial_norms, slope)


def truncated_position_matrix(nmax: int) -> np.ndarray:
    """The position operator ``a + a^dagger`` on the first ``nmax`` number states."""
    if nmax < 1:
        raise ValueError("nmax must be positive")
    m = np.zeros((nmax, nmax), dtype=complex)
    for n in range(nmax - 1):
        m[n, n + 1] = m[n + 1, n] = math.sqrt(n + 1)
    return m
