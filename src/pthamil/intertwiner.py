"""Similarity transforms, the metric operator, and metric-based inner products.

For a diagonalizable H the operator ``V`` with ``V H V^-1 = H^dagger`` defines
the inner product ``<R_n|V|R_m>`` that stays constant under ``exp(-iHt)``
evolution. With an all-real spectrum ``V = S^dagger S`` is positive definite
(``S`` any similarity bringing H to Hermitian form); with conjugate pairs a
Hermitian, indefinite ``V`` still exists whose only non-vanishing eigenbasis
elements connect the two members of a pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .antilinear import PTFrame, PTPhases
from .linalg import DEFAULT_TOL, EigenSystem, check_tier, gram_tier, mat_norm, read_only, residual_bound
from .spectra import SpectrumClass, SpectrumKind


@dataclass(frozen=True)
class Intertwiner:
    """Metric data: ``v`` intertwines (``v @ H == H^dagger @ v``)."""

    v: np.ndarray
    positive: bool
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "v", read_only(self.v))


@dataclass(frozen=True)
class Flag:
    """A check's residual and threshold; it passes when ``residual <= threshold``,
    the rule of :func:`~pthamil.linalg.within` (NaN fails)."""

    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.threshold)


@dataclass(frozen=True)
class NormReport:
    """Gram matrices of the candidate inner products, read-only, plus pass/fail flags."""

    dirac: np.ndarray
    vnorm: np.ndarray
    pnorm: np.ndarray | None = None
    ptnorm: np.ndarray | None = None
    flags: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("dirac", "vnorm", "pnorm", "ptnorm"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, read_only(getattr(self, name)))


def build_metric(es: EigenSystem, cls: SpectrumClass) -> Intertwiner:
    """The metric ``V = L[partner]^dagger L``, hermitized as
    ``0.5 (V + V^dagger)``, which is exactly Hermitian in floating point, on
    every spectrum (:attr:`SpectrumClass.partner`), so ``<R_n|V|R_m>`` is 1 where
    ``m = partner(n)`` and 0 elsewhere. On an all-real spectrum this is
    ``L^dagger L``, positive definite; on conjugate pairs V intertwines but is
    indefinite, with zero diagonal on the paired states, and its positivity
    is not tested. The intertwining residual is measured against ``es.h``,
    the matrix ``es`` decomposes.
    """
    v = es.left[cls.partner].conj().T @ es.left
    v = 0.5 * (v + v.conj().T)
    positive = cls.kind is SpectrumKind.ALL_REAL and bool((np.linalg.eigvalsh(v) > 0.0).all())
    denom = mat_norm(v) * mat_norm(es.h)
    residual = mat_norm(v @ es.h - es.h.conj().T @ v) / denom if denom > 0.0 else 0.0
    return Intertwiner(v, positive, float(residual))


def v_gram(es: EigenSystem, itw: Intertwiner, cls: SpectrumClass, frame: PTFrame | None = None,
           phases: PTPhases | None = None, tol: float = DEFAULT_TOL,
           p_intertwines: bool = False) -> NormReport:
    """Gram matrices of the Dirac, V, parity and PT-conjugate inner products,
    with the flags of their structure under ``cls``, each at ``gram_tier(tol)``
    for the analysis tolerance ``tol`` (``v_gram_entries`` at the check tier).

    The V Gram is checked against ``I[partner]``: the identity
    (``v_gram_identity``) or the pair swap (``v_gram_pair_swap``, whose
    residual bounds the diagonal on the paired states), and entry by entry
    (``v_gram_entries``). Each entry ``(n, m)`` of the V Gram moves under
    ``exp(-iHt)`` by ``exp(i (conj(E_n) - E_m) t)``, so these flags and
    ``metric_intertwines`` (``itw.residual``) are what certify that the V
    norm is constant in time. The Dirac, V and (given a ``frame``) parity
    Grams are evaluated on the given eigensystem. The PT-conjugate Gram,
    formed when that frame's ``phases`` are given too, is the parity Gram of
    the PT eigenstates ``R_n phase_fix[n]``, row ``n`` over ``eta[n]``. The
    identities of the parity and PT Grams, ``p_gram_real`` and
    ``pt_gram_equals_v_gram``, are checked only where P intertwines H:
    ``p_intertwines``, which the caller decides.
    """
    r = es.right
    dirac = r.conj().T @ r
    vnorm = r.conj().T @ itw.v @ r
    pnorm = r.conj().T @ frame.p @ r if frame is not None else None
    ptnorm = None
    if phases is not None:
        fix = phases.phase_fix
        ptnorm = (np.conj(fix) / phases.eta)[:, np.newaxis] * pnorm * fix

    tol = gram_tier(tol)
    bound = tol * es.dim
    deviation = vnorm - np.eye(es.dim)[cls.partner]
    name = "v_gram_pair_swap" if cls.pairs else "v_gram_identity"
    flags = {name: Flag(mat_norm(deviation), bound)}
    # above n = 100 one entry can pass the Frobenius bound yet exceed this floor
    res = float(np.abs(deviation).max())
    floor = residual_bound(check_tier(tol), mat_norm(vnorm))
    flags["v_gram_entries"] = Flag(res, floor)
    if p_intertwines and cls.kind is SpectrumKind.ALL_REAL:  # a real-spectrum theorem
        above = np.abs(pnorm) > tol
        res = float(np.abs(pnorm.imag[above]).max()) if above.any() else 0.0
        threshold = residual_bound(tol, mat_norm(pnorm))
        flags["p_gram_real"] = Flag(res, threshold)
    if p_intertwines and ptnorm is not None:
        res = mat_norm(ptnorm - vnorm)
        flags["pt_gram_equals_v_gram"] = Flag(res, bound)
    flags["metric_intertwines"] = Flag(itw.residual, tol)
    return NormReport(dirac, vnorm, pnorm, ptnorm, flags)
