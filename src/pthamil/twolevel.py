"""Closed-form solution of the two-level model ``alpha*sigma_1 + i*beta*sigma_2``.

Every quantity the generic machinery computes numerically has an explicit
formula here, which makes the model the oracle for validating the pipeline:
energies ``+-sqrt(alpha^2 - beta^2)``, the similarity ``S(theta)``, the metric
``V = cosh(2 theta) - sigma_3 sinh(2 theta)``, the metric-normalized
eigenvectors, and the Dirac overlap ``beta / sqrt(alpha^2 - beta^2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotRealPhase
from .linalg import DEFAULT_TOL, SIGMA0, SIGMA3, mat_norm, read_only

#: Relative width of the exceptional strip around alpha == beta.
EXCEPTIONAL_REL_TOL = 1e-8


@dataclass(frozen=True)
class TwoLevelModel:
    """Parameters of the model matrix ``[[0, a+b], [a-b, 0]]``."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if self.alpha <= 0.0 or self.beta < 0.0:
            raise ValueError("require alpha > 0 and beta >= 0")

    def phase(self) -> str:
        """``real``, ``exceptional`` or ``complex`` according to alpha vs beta."""
        if abs(self.alpha - self.beta) <= EXCEPTIONAL_REL_TOL * (self.alpha + self.beta):
            return "exceptional"
        return "real" if self.alpha > self.beta else "complex"


def hamiltonian(m: TwoLevelModel) -> np.ndarray:
    """``[[0, alpha+beta], [alpha-beta, 0]]``."""
    return np.array(
        [[0.0, m.alpha + m.beta], [m.alpha - m.beta, 0.0]], dtype=complex
    )


@dataclass(frozen=True)
class ClosedForms:
    """The closed forms of the real phase; its arrays are read-only."""

    theta: float
    s: np.ndarray
    v: np.ndarray
    u_plus: np.ndarray
    u_minus: np.ndarray
    energies: tuple
    dirac_overlap: float

    def __post_init__(self):
        for name in ("s", "v", "u_plus", "u_minus"):
            object.__setattr__(self, name, read_only(getattr(self, name)))


def closed_forms(m: TwoLevelModel) -> ClosedForms:
    """All closed-form quantities of the real-eigenvalue phase."""
    if m.phase() != "real":
        raise NotRealPhase(
            f"closed forms require alpha > beta, got alpha={m.alpha}, beta={m.beta}"
        )
    alpha, beta = m.alpha, m.beta
    gap = math.sqrt(alpha * alpha - beta * beta)
    if not 0.0 < gap < math.inf:
        raise NotRealPhase(
            f"alpha^2 - beta^2 leaves the float range at alpha={alpha}, beta={beta}"
        )
    theta = 0.5 * math.atanh(beta / alpha)
    s = math.cosh(theta) * SIGMA0 - math.sinh(theta) * SIGMA3
    cosh2, sinh2 = alpha / gap, beta / gap
    v = cosh2 * SIGMA0 - sinh2 * SIGMA3
    norm = 2.0 * gap
    u_plus = np.array([math.sqrt(alpha + beta), math.sqrt(alpha - beta)], dtype=complex)
    u_plus = u_plus / math.sqrt(norm)
    u_minus = np.array([math.sqrt(alpha + beta), -math.sqrt(alpha - beta)], dtype=complex)
    u_minus = u_minus / math.sqrt(norm)
    return ClosedForms(
        theta=theta,
        s=s,
        v=v,
        u_plus=u_plus,
        u_minus=u_minus,
        energies=(gap, -gap),
        dirac_overlap=beta / gap,
    )


def compare_with_pipeline(m: TwoLevelModel, tol: float = DEFAULT_TOL) -> dict:
    """Run :func:`~pthamil.pipeline.run_analyze` on the model, in its default
    ``P = sigma_1``, ``T = K i sigma_1`` frame, and measure the report
    field by field against the closed forms: the residuals by name.

    The report's states are parity-calibrated but keep the phase convention
    of ``eigendecompose``, so a state may differ from its closed form by a
    phase: each state is compared through its projection onto the closed
    form, and the Dirac overlap is read in that rephased basis. Every other
    field is compared as reported. Every residual is relative: ``energies`` to
    the gap and ``similarity_hermitian`` to ``||S H S^-1||``; the others
    compare dimensionless quantities.
    """
    from .pipeline import AnalysisConfig, run_analyze  # pipeline imports this module

    cf = closed_forms(m)
    report = run_analyze(AnalysisConfig(model="two-level", alpha=m.alpha, beta=m.beta, tol=tol))
    def matrix(d):
        return d["re"] + 1j * d["im"]

    values = np.array([complex(re, im) for re, im in report.eigen["values"]])
    right = matrix(report.eigen["right"])
    s = matrix(report.eigen["left"])  # the similarity to Hermitian form
    pv = matrix(report.pv["matrix"])
    gram = {k: matrix(report.gram[k]) for k in ("dirac", "v", "p")}

    targets = np.column_stack([cf.u_plus, cf.u_minus])
    rephase = np.sum(right.conj() * targets, axis=0) / np.sum(right.conj() * right, axis=0)
    aligned = right * rephase
    conj = s @ hamiltonian(m) @ right
    return {
        "energies": float(np.abs(values - np.array(cf.energies)).max()) / cf.energies[0],
        "u_plus": mat_norm(aligned[:, 0] - cf.u_plus),
        "u_minus": mat_norm(aligned[:, 1] - cf.u_minus),
        "metric": mat_norm(matrix(report.v) - cf.v),
        "dirac_overlap": float(abs(np.conj(rephase[1]) * gram["dirac"][1, 0] * rephase[0]
                                   - cf.dirac_overlap)),
        "v_gram_identity": mat_norm(gram["v"] - np.eye(2)),
        "p_gram_signature": mat_norm(gram["p"] - np.diag([1.0, -1.0])),
        "pv_squares_to_identity": mat_norm(pv @ pv - np.eye(2)),
        "similarity_hermitian": mat_norm(conj - conj.conj().T) / mat_norm(conj),
    }
