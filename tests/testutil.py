"""Shared helpers for the test suite."""

import functools
import itertools
import os
from fractions import Fraction

import mpmath
import numpy as np
import scipy.linalg

import pthamil
from pthamil.antilinear import make_frame
from pthamil.linalg import SIGMA1, quarter_turn
from pthamil.twolevel import closed_forms, hamiltonian


def env_with_src() -> dict:
    """The environment with this pthamil's source directory first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(pthamil.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def rng(seed=0):
    return np.random.default_rng(seed)


def random_real(generator, n, unit_radius=False):
    h = generator.normal(size=(n, n))
    if unit_radius:
        h = h / max(np.abs(np.linalg.eigvals(h)))
    return h


def random_complex(generator, n):
    return generator.normal(size=(n, n)) + 1j * generator.normal(size=(n, n))


def random_unitary(generator, n):
    q, r = np.linalg.qr(random_complex(generator, n))
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()[np.newaxis, :]


def random_invertible(generator, n, max_cond=50.0):
    while True:
        s = random_complex(generator, n)
        if np.linalg.cond(s) <= max_cond:
            return s


def pa_matrix(rng, n, definite):
    """``H = P A`` with P the alternating parity and A Hermitian with
    ``conj(A) = P A P``; a positive definite A gives a real spectrum, an
    indefinite one conjugate pairs. ``A = D S D^dagger`` with ``D = diag(1j **
    k)`` places its phases as exact quarter turns: ``1j ** k`` itself carries
    rounding dust from k = 100 on, which would break the exact PT symmetry."""
    s = rng.normal(size=(n, n))
    s = (s + s.T) / 2
    if definite:
        s += (0.5 - np.linalg.eigvalsh(s)[0]) * np.eye(n)
    k = np.arange(n)
    return (-1.0) ** k[:, None] * quarter_turn(s, k[:, None] - k)


def v_gram_drift(h, right, v, times, digits=None):
    """Largest entry of ``|G(t) - G(0)|`` over ``times``, where ``G(t)`` is
    the V Gram ``<R_n(t)|V|R_m(t)>`` of the eigenvectors ``right`` evolved by
    the dense propagator ``exp(-iHt)``: ``scipy.linalg.expm`` in float64, or
    ``mpmath.expm`` at ``digits`` significant digits. A mode that grows as
    ``e^{|Im E| t}`` amplifies the rounding of the decaying ones with it; the
    two-level pair ``alpha = 3, beta = 5`` grows by ``e^{34}`` at ``t = 4.3``,
    beyond what float64 resolves, but not beyond 40 digits."""
    gram0 = right.conj().T @ v @ right
    drift = 0.0
    if digits is None:
        for t in times:
            evolved = scipy.linalg.expm(-1j * h * t) @ right
            drift = max(drift, float(np.abs(evolved.conj().T @ v @ evolved - gram0).max()))
        return drift
    with mpmath.workdps(digits):
        h_mp, r_mp, v_mp = (mpmath.matrix(m.tolist()) for m in (h, right, v))
        for t in times:
            evolved = mpmath.expm(-1j * t * h_mp) * r_mp
            gram = np.array((evolved.H * v_mp * evolved).tolist(), dtype=complex)
            drift = max(drift, float(np.abs(gram - gram0).max()))
    return drift


def selection_rule_violations(values, gram, tol):
    """The entries ``(n, m)``, in row-major order, of a V Gram above the floor
    ``tol * max(1, ||gram||)`` whose energies break ``E_m = conj(E_n)`` by
    more than ``tol`` times the spectral radius: under ``exp(-iHt)`` entry
    ``(n, m)`` moves by ``exp(i (conj(E_n) - E_m) t)``, so only the entries
    that keep the rule may be nonzero."""
    floor = tol * max(1.0, np.linalg.norm(gram))
    scale = max(np.abs(values))
    n = len(values)
    return [(i, j) for i in range(n) for j in range(n)
            if abs(gram[i, j]) > floor and abs(values[j] - np.conj(values[i])) > tol * scale]


def canonical_two_level_frame():
    """P = sigma_1, T = K i sigma_1 (as u = -i sigma_1), PT = K i (u = -i I)."""
    return make_frame(SIGMA1, -1j * SIGMA1)


def conjugated_two_level_frame(q):
    """The canonical frame transported by a unitary q."""
    p = q @ SIGMA1 @ q.conj().T
    u_t = q @ (-1j * SIGMA1) @ q.T
    return make_frame(p, u_t, 1e-8)


def _kron(factors):
    return functools.reduce(np.kron, factors)


def kronecker_sum(models):
    """``(H, P, u_T)`` of the Kronecker sum ``H = sum_k I x ... x H_k x ... x I``
    of two-level models ``H_k``, with the product frame ``P = (x) sigma_1``,
    ``u_T = (x) (-i sigma_1)``: each factor's canonical frame, so PT is
    ``(-i)^k K`` and P intertwines H, since it intertwines every ``H_k``."""
    hs = [hamiltonian(m) for m in models]
    eye = np.eye(2)
    h = sum(_kron([hk if j == k else eye for j in range(len(hs))]) for k, hk in enumerate(hs))
    return h, _kron([SIGMA1] * len(hs)), _kron([-1j * SIGMA1] * len(hs))


def kronecker_sum_closed_forms(models):
    """``(V, PV, levels)`` of :func:`kronecker_sum` over real-phase models, from
    the factors' closed forms: ``V = (x) V_k`` and ``PV = (x) sigma_1 V_k``,
    and ``levels``, the ``(energy, eta)`` of the product state of every sign
    choice, energy descending: ``sum_k s_k g_k`` with ``g_k`` the gap of
    factor k and ``eta = prod_k s_k``, the product of the factors' intrinsic
    PT phases, each the sign of its state's parity overlap. States of one
    energy share one eta while the gaps have no rational relation other than
    equality, so the order within a degenerate group does not matter."""
    forms = [closed_forms(m) for m in models]
    levels = sorted(
        ((sum(s * cf.energies[0] for s, cf in zip(signs, forms)), float(np.prod(signs)))
         for signs in itertools.product((1, -1), repeat=len(forms))),
        key=lambda level: -level[0])
    return (_kron([cf.v for cf in forms]), _kron([SIGMA1 @ cf.v for cf in forms]), levels)


# exact-rational oracles for the Fock expansion of pthamil.fockdemo

def _monic_hermite(x: Fraction, nmax: int):
    """Yield ``p_0(x), ..., p_nmax(x)`` of the monic-Hermite recursion
    ``p_n = x p_{n-1} - (n-1) p_{n-2}`` with ``p_0 = 1`` and ``p_1 = x``."""
    p_before, p = Fraction(0), Fraction(1)
    for n in range(nmax + 1):
        yield p
        p_before, p = p, x * p - n * p_before


def scaled_coefficient_exact(n: int, x: Fraction) -> Fraction:
    """``c_n * sqrt(n!) / c0`` in exact rational arithmetic.

    Substituting ``c_n = p_n / sqrt(n!)`` into the recurrence of
    :func:`pthamil.fockdemo.expand_position_state` gives the
    monic-Hermite recursion ``p_n = x p_{n-1} - (n-1) p_{n-2}``, so the scaled
    coefficient is an integer-coefficient polynomial evaluated exactly.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    for p in _monic_hermite(Fraction(x), n):
        pass
    return p


def squared_terms_exact(nmax: int, x: Fraction = Fraction(0)) -> list:
    """Exact ``c_n^2`` for ``c0 = 1``: ``p_n(x)^2 / n!`` as Fractions."""
    terms = []
    factorial = 1
    for n, p in enumerate(_monic_hermite(Fraction(x), nmax)):
        if n > 0:
            factorial *= n
        terms.append(p * p / factorial)
    return terms
