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

from .antilinear import PTFrame, PTPhases, pt_gram
from .linalg import DEFAULT_TOL, EigenSystem, as_matrix, eigendecompose, mat_norm
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


def build_metric(es: EigenSystem, cls: SpectrumClass, tol: float = DEFAULT_TOL) -> Intertwiner:
    """Construct the metric for the given spectrum class.

    All-real: ``V = L^dagger L`` (equivalently ``S^dagger S`` with ``S = L``),
    Hermitian and positive definite, with ``<R_n|V|R_m>`` the identity by
    construction. Conjugate pairs: the Hermitian pair-swap combination of
    left-vector projectors, which intertwines but is indefinite and has zero
    diagonal on the paired eigenstates.
    """
    h = es.reconstruct()
    if cls.kind is SpectrumKind.ALL_REAL:
        v = es.left.conj().T @ es.left
        v = 0.5 * (v + v.conj().T)
        positive = bool((np.linalg.eigvalsh(v) > 0.0).all())
    else:
        # sum over n of conj(L[partner(n)]) (x) L[n], partner swapping each pair
        partner = np.arange(es.dim)
        for n_plus, n_minus in cls.pairs:
            partner[n_plus], partner[n_minus] = n_minus, n_plus
        v = es.left[partner].conj().T @ es.left
        v = 0.5 * (v + v.conj().T)
        positive = False
    hermitian = mat_norm(v - v.conj().T) <= tol * max(1.0, mat_norm(v))
    denom = mat_norm(v) * mat_norm(h)
    residual = mat_norm(v @ h - h.conj().T @ v) / denom if denom > 0.0 else 0.0
    return Intertwiner(v, positive, hermitian, float(residual))


def v_gram(
    es: EigenSystem,
    itw: Intertwiner,
    cls: SpectrumClass | None = None,
    p=None,
    frame: PTFrame | None = None,
    phases: PTPhases | None = None,
    tol: float = DEFAULT_TOL,
) -> NormReport:
    """Gram matrices of the Dirac, V, parity and PT-conjugate inner products.

    The Dirac, V and parity Grams are evaluated on the given eigensystem; the
    PT-conjugate Gram uses the phase-fixed states carried by ``phases`` (its
    diagonal is rephasing-invariant, so the two bases give the same identities).
    Pass ``cls`` for structure-aware flags; without it the real-spectrum
    identity check is assumed.
    """
    r = es.right
    dirac = r.conj().T @ r
    vnorm = r.conj().T @ itw.v @ r
    pnorm = r.conj().T @ as_matrix(p, "P") @ r if p is not None else None
    ptnorm = pt_gram(frame, phases) if (frame is not None and phases is not None) else None

    flags = {}
    eye = np.eye(es.dim)
    if cls is None or cls.kind is SpectrumKind.ALL_REAL:
        res = mat_norm(vnorm - eye)
        flags["v_gram_identity"] = Flag(res <= tol * es.dim, float(res), tol * es.dim)
    elif cls.kind is SpectrumKind.CONJUGATE_PAIRS:
        expected = np.zeros((es.dim, es.dim), dtype=complex)
        for n in cls.real_indices:
            expected[n, n] = 1.0
        for n_plus, n_minus in cls.pairs:
            expected[n_plus, n_minus] = 1.0
            expected[n_minus, n_plus] = 1.0
        res = mat_norm(vnorm - expected)
        flags["v_gram_pair_swap"] = Flag(res <= tol * es.dim, float(res), tol * es.dim)
        diag = max(abs(vnorm[i, i]) for pair in cls.pairs for i in pair) if cls.pairs else 0.0
        flags["v_gram_zero_diagonal_on_pairs"] = Flag(diag <= tol * es.dim, float(diag), tol * es.dim)
    if pnorm is not None and (cls is None or cls.kind is SpectrumKind.ALL_REAL):
        # reality of the parity overlaps is a real-spectrum theorem only
        above = np.abs(pnorm) > tol
        res = float(np.abs(pnorm.imag[above]).max()) if above.any() else 0.0
        threshold = tol * max(1.0, mat_norm(pnorm))
        flags["p_gram_real"] = Flag(res <= threshold, res, threshold)
    if ptnorm is not None:
        res = mat_norm(ptnorm - vnorm)
        flags["pt_gram_equals_v_gram"] = Flag(res <= tol * es.dim, float(res), tol * es.dim)
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
    gram0: np.ndarray
    drift: np.ndarray
    present: np.ndarray
    passed: np.ndarray
    max_drift: float
    max_shadow: float
    selection_violations: tuple
    ok: bool


def verify_time_independence(
    h,
    v,
    times,
    tol: float = 1e-8,
    es: EigenSystem | None = None,
) -> TimeIndependence:
    """Evolve every eigenstate with ``exp(-iHt)`` and bound the drift of the
    V inner products, entry by entry.

    Also checks the selection rule: an entry ``(n, m)`` of the initial Gram may
    be nonzero only when ``E_m = conj(E_n)`` — for a real spectrum the
    diagonal, for conjugate pairs the cross-pair transitions.
    """
    h = as_matrix(h, "H")
    v = as_matrix(v, "V")
    if es is None:
        es = eigendecompose(h)
    r = es.right
    gram0 = r.conj().T @ v @ r
    threshold = tol * max(1.0, mat_norm(gram0))  # also the floor of a present entry
    present = np.abs(gram0) > threshold
    drift = np.zeros(gram0.shape, dtype=float)
    # exp(-iHt) acts on its own eigenvectors by pure phases D, so the evolved
    # Gram (R D)^dagger V (R D) is the initial one rescaled; forming the dense
    # propagator would erase decaying modes by cancellation. One row of phases
    # per time; the n x n update stays one time at a time to keep memory at n^2
    times = tuple(float(t) for t in times)
    phases = np.exp((-1j * es.values)[np.newaxis, :] * np.array(times)[:, np.newaxis])
    for phase in phases:
        gram_t = np.conj(phase)[:, np.newaxis] * gram0 * phase[np.newaxis, :]
        np.maximum(drift, np.abs(gram_t - gram0), out=drift)
    passed = (drift <= threshold) | ~present

    # entry (n, m) may be present only when E_m = conj(E_n); row-major order
    mismatch = np.abs(es.values[np.newaxis, :] - np.conj(es.values)[:, np.newaxis])
    scale = spectral_scale(es.values)
    violations = [tuple(nm) for nm in np.argwhere(present & (mismatch > tol * scale)).tolist()]
    max_drift = float(drift[present].max()) if present.any() else 0.0
    max_shadow = float(drift[~present].max()) if not present.all() else 0.0
    return TimeIndependence(
        times,
        gram0,
        drift,
        present,
        passed,
        max_drift,
        max_shadow,
        tuple(violations),
        bool(passed.all()) and not violations,
    )
