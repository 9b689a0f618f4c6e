"""Shared helpers for the test suite."""

import os
from fractions import Fraction

import numpy as np

import pthamil
from pthamil.antilinear import make_frame
from pthamil.linalg import SIGMA1, quarter_turn


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


def canonical_two_level_frame():
    """P = sigma_1, T = K i sigma_1 (as u = -i sigma_1), PT = K i (u = -i I)."""
    return make_frame(SIGMA1, -1j * SIGMA1)


def conjugated_two_level_frame(q):
    """The canonical frame transported by a unitary q."""
    p = q @ SIGMA1 @ q.conj().T
    u_t = q @ (-1j * SIGMA1) @ q.T
    return make_frame(p, u_t, 1e-8)


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
