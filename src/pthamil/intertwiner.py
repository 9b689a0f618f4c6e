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

from .antilinear import PTPhases, pt_gram
from .linalg import DEFAULT_TOL, EigenSystem, as_matrix, check_tier, mat_norm, residual_bound
from .spectra import SpectrumClass, SpectrumKind, spectral_scale


@dataclass(frozen=True)
class Intertwiner:
    """Metric data: ``v`` intertwines (``v @ H == H^dagger @ v``)."""

    v: np.ndarray
    positive: bool
    hermitian: bool
    residual: float

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex)
        v.setflags(write=False)
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class Flag:
    passed: bool
    residual: float
    threshold: float


@dataclass(frozen=True)
class NormReport:
    """Gram matrices of the candidate inner products plus pass/fail flags."""

    dirac: np.ndarray
    vnorm: np.ndarray
    pnorm: np.ndarray | None = None
    ptnorm: np.ndarray | None = None
    flags: dict = field(default_factory=dict)


def build_metric(es: EigenSystem, cls: SpectrumClass, h,
                 tol: float = DEFAULT_TOL) -> Intertwiner:
    """The metric ``V = L[partner]^dagger L``, hermitized, on every spectrum
    (:attr:`SpectrumClass.partner`), so ``<R_n|V|R_m>`` is 1 where
    ``m = partner(n)`` and 0 elsewhere. On an all-real spectrum this is
    ``L^dagger L``, positive definite; on conjugate pairs V intertwines but is
    indefinite, with zero diagonal on the paired states, and its positivity
    is not tested. The intertwining residual is measured against ``h``, the
    matrix ``es`` decomposes.
    """
    v = es.left[cls.partner].conj().T @ es.left
    v = 0.5 * (v + v.conj().T)
    positive = cls.kind is SpectrumKind.ALL_REAL and bool((np.linalg.eigvalsh(v) > 0.0).all())
    hermitian = mat_norm(v - v.conj().T) <= residual_bound(tol, mat_norm(v))
    denom = mat_norm(v) * mat_norm(h)
    residual = mat_norm(v @ h - h.conj().T @ v) / denom if denom > 0.0 else 0.0
    return Intertwiner(v, positive, hermitian, float(residual))


def v_gram(
    es: EigenSystem,
    itw: Intertwiner,
    cls: SpectrumClass,
    p=None,
    phases: PTPhases | None = None,
    tol: float = DEFAULT_TOL,
    p_intertwines: bool = False,
) -> NormReport:
    """Gram matrices of the Dirac, V, parity and PT-conjugate inner products,
    with the flags of their structure under ``cls``.

    The V Gram is checked against ``I[partner]``: the identity
    (``v_gram_identity``) or the pair swap (``v_gram_pair_swap`` and
    ``v_gram_zero_diagonal_on_pairs``). The Dirac, V and parity Grams are
    evaluated on the given eigensystem; the PT-conjugate Gram, formed when
    both ``p`` and ``phases`` are given, uses the phase-fixed states
    ``phases`` carries (its diagonal is rephasing-invariant, so the two bases
    give the same identities). The identities of the parity and PT Grams,
    ``p_gram_real`` and ``pt_gram_equals_v_gram``, are checked only where P
    intertwines H: ``p_intertwines``, which the caller decides.
    """
    r = es.right
    dirac = r.conj().T @ r
    vnorm = r.conj().T @ itw.v @ r
    p = as_matrix(p, "P") if p is not None else None
    pnorm = r.conj().T @ p @ r if p is not None else None
    ptnorm = pt_gram(p, phases) if (p is not None and phases is not None) else None

    bound = tol * es.dim
    res = mat_norm(vnorm - np.eye(es.dim)[cls.partner])
    if cls.pairs:
        diag = float(max(abs(vnorm[i, i]) for pair in cls.pairs for i in pair))
        flags = {"v_gram_pair_swap": Flag(res <= bound, res, bound),
                 "v_gram_zero_diagonal_on_pairs": Flag(diag <= bound, diag, bound)}
    else:
        flags = {"v_gram_identity": Flag(res <= bound, res, bound)}
    if p_intertwines and cls.kind is SpectrumKind.ALL_REAL:  # a real-spectrum theorem
        above = np.abs(pnorm) > tol
        res = float(np.abs(pnorm.imag[above]).max()) if above.any() else 0.0
        threshold = residual_bound(tol, mat_norm(pnorm))
        flags["p_gram_real"] = Flag(res <= threshold, res, threshold)
    if p_intertwines and ptnorm is not None:
        res = mat_norm(ptnorm - vnorm)
        flags["pt_gram_equals_v_gram"] = Flag(res <= bound, res, bound)
    return NormReport(dirac, vnorm, pnorm, ptnorm, flags)


@dataclass(frozen=True)
class TimeIndependence:
    """Drift of ``<R_n(t)|V|R_m(t)>`` over sampled times, entry-by-entry.

    ``present`` marks entries whose initial magnitude is above the numerical
    floor; only those enter the drift bound. Entries at the floor are
    analytically zero by the selection rule; their floating-point shadows grow
    with the mode amplification ``e^{(|Im E_n| + |Im E_m|) t}`` and are
    reported as ``max_shadow`` rather than counted as drift.
    """

    times: tuple
    drift: np.ndarray
    present: np.ndarray
    passed: np.ndarray
    max_drift: float
    max_shadow: float
    selection_violations: tuple
    ok: bool


def verify_time_independence(values, gram0, times, tol=check_tier(DEFAULT_TOL)) -> TimeIndependence:
    """Evolve the V Gram ``gram0 = R^dagger V R`` of the eigenstates ``R``
    with energies ``values`` under ``exp(-iHt)``, and bound its drift, entry
    by entry.

    Also checks the selection rule: an entry ``(n, m)`` of the initial Gram may
    be nonzero only when ``E_m = conj(E_n)`` — for a real spectrum the
    diagonal, for conjugate pairs the cross-pair transitions.
    """
    values = np.asarray(values, dtype=complex)
    gram0 = as_matrix(gram0, "Gram")
    threshold = residual_bound(tol, mat_norm(gram0))  # also the floor of a present entry
    magnitude = np.abs(gram0)
    present = magnitude > threshold
    drift = np.zeros(gram0.shape, dtype=float)
    # exp(-iHt) acts on its own eigenvectors by pure phases, so entry (n, m) of
    # the evolved Gram is gram0[n, m] exp(i (conj(E_n) - E_m) t): bounded on a
    # present entry, where E_m = conj(E_n), however fast each mode grows. Each
    # mode's own phase, or the dense propagator, would overflow or cancel. One
    # time at a time keeps memory at n^2; an exactly zero entry stays zero
    times = tuple(float(t) for t in times)
    rates = 1j * (np.conj(values)[:, np.newaxis] - values[np.newaxis, :])
    with np.errstate(over="ignore", invalid="ignore"):
        for t in times:
            np.maximum(drift, magnitude * np.abs(np.exp(rates * t) - 1.0), out=drift)
    drift[magnitude == 0.0] = 0.0
    passed = (drift <= threshold) | ~present

    # entry (n, m) may be present only when E_m = conj(E_n), where its rate is
    # |conj(E_n) - E_m| = 0; row-major order
    mismatch = np.abs(rates) > tol * spectral_scale(values)
    violations = [tuple(nm) for nm in np.argwhere(present & mismatch).tolist()]
    max_drift = float(drift[present].max()) if present.any() else 0.0
    max_shadow = float(drift[~present].max()) if not present.all() else 0.0
    return TimeIndependence(
        times,
        drift,
        present,
        passed,
        max_drift,
        max_shadow,
        tuple(violations),
        bool(passed.all()) and not violations,
    )
