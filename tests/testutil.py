"""Shared helpers for the test suite."""

import numpy as np

from pthamil.antilinear import make_frame
from pthamil.linalg import SIGMA1


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


def canonical_two_level_frame():
    """P = sigma_1, T = K i sigma_1 (as u = -i sigma_1), PT = K i (u = -i I)."""
    return make_frame(SIGMA1, -1j * SIGMA1)


def conjugated_two_level_frame(q):
    """The canonical frame transported by a unitary q."""
    p = q @ SIGMA1 @ q.conj().T
    u_t = q @ (-1j * SIGMA1) @ q.T
    return make_frame(p, u_t, 1e-8)
