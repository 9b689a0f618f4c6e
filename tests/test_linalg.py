"""Tests for the matrix primitives and the eigendecomposition."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pthamil.antilinear import calibrate
from pthamil.cpt import build_c, build_pv
from pthamil.errors import NonDiagonalizable
from pthamil.fockdemo import divergence_witness, expand_position_state
from pthamil.intertwiner import Flag, build_metric, v_gram
from pthamil.linalg import (
    DEFAULT_TOL,
    _canonical_phases,
    _real_turns,
    as_matrix,
    canonical_order,
    degenerate_groups,
    eigendecompose,
    identity,
    mat_norm,
    quarter_turn,
)
from pthamil.spectra import classify
from pthamil.twolevel import TwoLevelModel, closed_forms, hamiltonian as two_level_hamiltonian
from testutil import canonical_two_level_frame, random_real, rng


class TestEigendecompose:
    def test_identity(self):
        es = eigendecompose(identity(3))
        assert np.allclose(es.values, [1.0, 1.0, 1.0], atol=1e-14)
        assert np.allclose(es.right, identity(3), atol=1e-14)
        assert np.allclose(es.left, identity(3), atol=1e-14)

    def test_two_level_real_eigenvalues(self):
        # eigenvalues +-sqrt(alpha^2 - beta^2) with alpha=5, beta=3
        es = eigendecompose(np.array([[0.0, 8.0], [2.0, 0.0]]))
        assert np.allclose(es.values, [4.0, -4.0], atol=1e-12)

    def test_two_level_imaginary_eigenvalues(self):
        # alpha=1, beta=2: conjugate pair +-i sqrt(3)
        es = eigendecompose(np.array([[0.0, 3.0], [-1.0, 0.0]]))
        got = sorted(es.values, key=lambda z: z.imag)
        root = math.sqrt(3.0)
        assert np.allclose(got, [-1j * root, 1j * root], atol=1e-12)

    def test_canonical_order(self):
        es = eigendecompose(np.diag([1.0, 3.0, 2.0]))
        assert np.allclose(es.values, [3.0, 2.0, 1.0], atol=1e-14)
        m = np.diag([1.0 + 1.0j, 1.0 - 1.0j, 1.0 + 2.0j])
        es = eigendecompose(m)
        assert np.allclose(es.values, [1.0 + 2.0j, 1.0 + 1.0j, 1.0 - 1.0j], atol=1e-14)

    @pytest.mark.parametrize("ulps", [-3, -1, 1, 3])
    def test_conjugate_pair_order_ignores_rounding(self, ulps):
        # real parts a few ulps apart, in either direction, still list Im > 0 first
        low = 1.0 + 0.5j
        high = np.nextafter(1.0, math.copysign(np.inf, ulps))
        for _ in range(abs(ulps) - 1):
            high = np.nextafter(high, math.copysign(np.inf, ulps))
        es = eigendecompose(np.diag([complex(high, -0.5), low, -2.0]))
        assert [z.imag for z in es.values] == [0.5, -0.5, 0.0]

    def test_real_parts_beyond_tolerance_keep_real_order(self):
        es = eigendecompose(np.diag([1.0 + 0.5j, 1.0 + 1e-6 - 0.5j]))
        assert es.values[0].imag == -0.5

    @pytest.mark.parametrize("diag, tol", [
        ([1.0, 1.0 + 1e-12], DEFAULT_TOL),
        ([1.0, 1.0005], 1e-3),
    ])
    def test_equal_imaginary_parts_keep_real_order(self, diag, tol):
        # real parts merged by the tolerance still sort larger first
        es = eigendecompose(np.diag(diag), tol=tol)
        assert list(es.values.real) == sorted(diag, reverse=True)

    def test_two_level_grid_lists_positive_imaginary_first(self):
        grid = np.linspace(0.1, 3.0, 40)
        for alpha in grid:
            for beta in grid[grid > alpha]:
                es = eigendecompose(two_level_hamiltonian(TwoLevelModel(alpha, beta)))
                assert es.values[0].imag > 0.0 > es.values[1].imag, (alpha, beta)

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 3.0])
    def test_two_level_near_exceptional_point(self, alpha):
        # beta = alpha (1 + 1e-12): eigenvector condition ~1e6, pair still Im > 0 first
        es = eigendecompose(two_level_hamiltonian(TwoLevelModel(alpha, alpha * (1 + 1e-12))))
        assert es.values[0].imag > 0.0 > es.values[1].imag

    def test_phase_convention(self):
        es = eigendecompose(random_real(rng(3), 5))
        for j in range(5):
            col = es.right[:, j]
            assert abs(np.linalg.norm(col) - 1.0) <= 1e-12
            pivot = col[int(np.argmax(np.abs(col)))]
            assert pivot.real > 0.0
            assert abs(pivot.imag) <= 1e-12 * abs(pivot)

    def test_phases_match_column_loop(self):
        # reference: the column-by-column loop, on eigenvectors and a zero column
        generator = rng(5)
        r = np.column_stack([random_real(generator, 6) + 1j * random_real(generator, 6),
                             np.zeros(6)])
        ref = r.copy()
        for j in range(r.shape[1]):
            col = ref[:, j]
            nrm = np.linalg.norm(col)
            col = col / nrm if nrm > 0.0 else col
            pivot = col[int(np.argmax(np.abs(col)))]
            ref[:, j] = col * (pivot.conjugate() / abs(pivot)) if abs(pivot) > 0.0 else col
        assert np.allclose(_canonical_phases(r), ref, rtol=0, atol=1e-15)

    def test_jordan_block_raises(self):
        with pytest.raises(NonDiagonalizable):
            eigendecompose(np.array([[0.0, 4.0], [0.0, 0.0]]))

    def test_immutable(self):
        es = eigendecompose(identity(2))
        with pytest.raises(ValueError):
            es.right[0, 0] = 5.0


class TestEigenSystemInvariants:
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_reconstruction_and_biorthogonality(self, dim):
        generator = rng(dim)
        for _ in range(25):
            a = random_real(generator, dim) + 1j * random_real(generator, dim)
            try:
                es = eigendecompose(a)
            except NonDiagonalizable:
                continue
            scale = np.linalg.norm(a)
            assert np.linalg.norm((es.right * es.values) @ es.left - a) <= 1e-9 * scale
            assert np.linalg.norm(es.left @ es.right - identity(dim)) <= 1e-9 * es.condition

    @pytest.mark.parametrize("unit_modulus", [False, True])
    def test_rescaled_keeps_biorthogonality(self, unit_modulus):
        generator = rng(41)
        es = eigendecompose(random_real(generator, 6) + 1j * random_real(generator, 6))
        factors = np.exp(1j * generator.uniform(-np.pi, np.pi, size=6))
        if not unit_modulus:
            factors = factors * generator.uniform(0.1, 10.0, size=6)
        scaled = es.rescaled(factors)
        assert np.array_equal(scaled.values, es.values)
        assert np.allclose(scaled.right, es.right * factors, rtol=1e-15, atol=0)
        assert np.linalg.norm(scaled.left @ scaled.right - identity(6)) <= 1e-12 * es.condition
        # the condition eigendecompose tested is carried, whatever the factors
        assert scaled.condition == es.condition
        if unit_modulus:  # a unitary D keeps cond(R D) = cond(R)
            cond = np.linalg.cond(scaled.right)
            assert abs(scaled.condition - cond) <= 1e-12 * cond

    def test_hermitian_eigenvalues_real(self):
        generator = rng(7)
        a = random_real(generator, 6) + 1j * random_real(generator, 6)
        h = a + a.conj().T
        es = eigendecompose(h)
        assert float(np.max(np.abs(es.values.imag))) <= DEFAULT_TOL * np.linalg.norm(h)


@st.composite
def _planted_clusters(draw):
    """Eigenvalues around a few centres on a small lattice (zero included),
    each repeated with offsets of 0 to 4 tolerances, then scaled by
    ``factor``: spacings fall on both sides of ``tol`` times the spectral
    radius."""
    tol = draw(st.sampled_from([DEFAULT_TOL, 1e-6, 1e-3]))
    factor = draw(st.sampled_from([1e-150, 1.0, 1e150]))
    lattice = st.integers(-3, 3)
    values = []
    for _ in range(draw(st.integers(1, 5))):
        centre = complex(draw(lattice), draw(lattice))
        for _ in range(draw(st.integers(1, 3))):
            step = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 4.0]))
            values.append(centre + step * tol * draw(st.sampled_from([1, 1j, -1, -1j])))
    return factor * np.array(values), tol


def _runs(values, tol, key=lambda z: z):
    """Runs of consecutive ``key(values)`` each within ``tol`` times the
    largest ``|value|`` (1 for the zero spectrum) of the one before it."""
    scale = max(abs(z) for z in values) or 1.0
    runs = [[0]]
    for k in range(1, len(values)):
        if abs(key(values[k]) - key(values[k - 1])) <= tol * scale:
            runs[-1].append(k)
        else:
            runs.append([k])
    return runs


@settings(max_examples=200, deadline=None)
@given(_planted_clusters())
@example((np.zeros(4, dtype=complex), DEFAULT_TOL))
@example((np.array([1.0, 1.0 - 2.0**-20, 0.5], dtype=complex), 2.0**-20))  # on the boundary
def test_degenerate_groups_are_equal_eigenvalue_runs(drawn):
    values, tol = drawn
    ordered = values[canonical_order(values, tol)]
    groups = degenerate_groups(ordered, tol)
    assert all(type(k) is int for group in groups for k in group)
    assert groups == [run for run in _runs(ordered, tol) if len(run) > 1]
    # canonical_order's tie runs: real parts chained in descending real order
    by_real = sorted(range(len(ordered)), key=lambda k: -ordered[k].real)
    tie = {}
    for label, run in enumerate(_runs(ordered[by_real], tol, key=lambda z: z.real)):
        tie.update((by_real[k], label) for k in run)
    assert all(len({tie[k] for k in group}) == 1 for group in groups)


def test_as_matrix_rejects_nonfinite():
    for entry in (np.nan, np.inf, complex(0.0, np.nan), complex(1.0, -np.inf)):
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            as_matrix([[entry, 0.0], [0.0, 1.0]])


def test_as_matrix_copies():
    a = np.eye(2, dtype=complex)
    m = as_matrix(a)
    m[0, 0] = 5.0
    assert a[0, 0] == 1.0


_GEN = rng(11)
_COMPLEX = random_real(_GEN, 7) + 1j * random_real(_GEN, 7)


@pytest.mark.parametrize("a", [
    _COMPLEX,
    _COMPLEX.real,
    np.arange(-12, 13).reshape(5, 5),
    _COMPLEX.T,
    _COMPLEX[::2, 1:].T,
    _COMPLEX.real.T,
], ids=["complex", "real", "integer", "transposed", "strided", "real-transposed"])
def test_mat_norm_matches_numpy_bit_for_bit(a):
    assert mat_norm(a) == float(np.linalg.norm(a))
    assert type(mat_norm(a)) is float


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_mat_norm_overflows_to_inf():
    assert mat_norm(np.array([[0.0, 8e300], [2e300, 0.0]])) == np.inf
    assert mat_norm(np.array([[0.0, 8e300j], [2e300, 0.0]])) == np.inf


def test_quarter_turn_places_parts_exactly():
    m = _COMPLEX
    turns = np.arange(7) % 4
    got = quarter_turn(m, turns[np.newaxis, :])
    expected = [(m.real, m.imag), (-m.imag, m.real), (-m.real, -m.imag), (m.imag, -m.real)]
    for k in range(7):
        re, im = expected[turns[k]]
        assert np.array_equal(got[:, k].real, re[:, k]) and np.array_equal(got[:, k].imag, im[:, k])
    assert np.array_equal(quarter_turn(m, -1), quarter_turn(m, 3))
    units = quarter_turn(1.0, np.arange(4))
    assert units.tolist() == [1.0, 1j, -1.0, -1j]
    zeros = np.concatenate([units.real[units.real == 0.0], units.imag[units.imag == 0.0]])
    assert zeros.size == 4 and not np.signbit(zeros).any()


def _pt_symmetric(generator, n, definite):
    """``H = W (P A) W^dagger`` with ``W = diag(1j ** turns)``, P the alternating
    parity and A real symmetric, so ``W^dagger H W = P A`` exactly; a positive
    definite A gives a real spectrum, an indefinite one conjugate pairs."""
    s = random_real(generator, n)
    a = s @ s.T + np.eye(n) if definite else s + s.T
    turns = np.arange(n) % 2
    return quarter_turn((1.0 - 2.0 * turns)[:, np.newaxis] * a, turns[:, np.newaxis] - turns), turns


def _complex_path(h, tol=DEFAULT_TOL):
    """Eigenvalues and right eigenvectors from the complex ``eig`` of H, in
    ``eigendecompose``'s order and phase convention."""
    values, r = np.linalg.eig(h)
    order = canonical_order(values, tol)
    return values[order], _canonical_phases(r[:, order])


def test_eigendecompose_in_a_real_basis():
    """``eig`` runs on the real ``W^dagger H W``, with the turns read from H,
    and the phase convention holds for ``W`` times its eigenvectors, the
    eigenvectors of H; every rotation is exact, so each eigenvector of a real
    eigenvalue is a real vector times one of +-1, +-i."""
    h, turns = _pt_symmetric(rng(5), 8, definite=True)
    assert np.array_equal(_real_turns(h), turns)
    es = eigendecompose(h)
    values, right = _complex_path(h)
    assert np.allclose(es.values, values, rtol=0, atol=1e-12 * np.abs(h).max())
    pivots = es.right[np.argmax(np.abs(es.right), axis=0), np.arange(8)]
    assert np.all(pivots.imag == 0.0) and np.all(pivots.real > 0.0)
    assert np.allclose(es.right, right, atol=1e-12)
    assert np.all((es.right.real == 0.0) | (es.right.imag == 0.0))


@pytest.mark.parametrize("definite", [True, False], ids=["real", "pairs"])
def test_eigendecompose_real_path_decomposes_h(definite):
    h, _ = _pt_symmetric(rng(10), 10, definite)
    es = eigendecompose(h)
    # the real path ran: a real eig gives exactly conjugate complex eigenvalues
    values = set(es.values.tolist())
    assert all(z.conjugate() in values for z in values)
    assert (not definite) == bool(np.any(es.values.imag != 0.0))
    assert mat_norm(es.right @ np.diag(es.values) @ es.left - h) <= 1e-12 * mat_norm(h)
    assert mat_norm(es.left @ es.right - identity(10)) <= 1e-12


@pytest.mark.parametrize("entry,spoil", [
    ((0, 0), lambda z: z + 1e-14j),
    ((0, 1), lambda z: z + 1e-14),
    ((0, 0), lambda z: 1j * z),
    ((0, 1), lambda z: -1j * z),
], ids=["diagonal", "off-diagonal", "imaginary-diagonal", "real-against-imaginary"])
def test_eigendecompose_turns_ignored_unless_exactly_real(entry, spoil):
    """An entry whose real and imaginary parts are both non-zero, or a zero
    pattern that admits no consistent turns, leaves no real basis: the result
    is that of the complex ``eig``, bit for bit, and still decomposes H."""
    h, _ = _pt_symmetric(rng(10), 10, definite=True)
    h[entry] = spoil(h[entry])
    q = _real_turns(h)
    assert q is None or quarter_turn(h, q - q[:, np.newaxis]).imag.any()
    for tol in (DEFAULT_TOL, 1e-6):
        es = eigendecompose(h, tol)
        values, right = _complex_path(h, tol)
        assert np.array_equal(es.values, values) and np.array_equal(es.right, right)
        assert np.array_equal(es.left, np.linalg.inv(right))
        assert es.condition == float(np.linalg.cond(right))
        assert not np.all((es.right.real == 0.0) | (es.right.imag == 0.0))
        assert mat_norm(es.right @ np.diag(es.values) @ es.left - h) <= 1e-12 * mat_norm(h)


#: the arrays each kernel's result holds, with their dtypes; None is the result itself
RESULT_ARRAYS = {
    "eigendecompose": {"values": complex, "right": complex, "left": complex, "h": complex},
    "make_frame": {"p": complex, "pt": complex},
    "calibrate": {"eta": complex, "phase_fix": complex},
    "build_metric": {"v": complex},
    "build_pv": {"matrix": complex, "alphas": complex},
    "build_c": {None: complex},
    "v_gram": {"dirac": complex, "vnorm": complex, "pnorm": complex, "ptnorm": complex},
    "closed_forms": {"s": complex, "v": complex, "u_plus": complex, "u_minus": complex},
    "expand_position_state": {"coeffs": float, "partial_norms": float},
    "divergence_witness": {"partial_norms": float},
}


@pytest.fixture(scope="module")
def results():
    """Each kernel's result on the two-level model at alpha=5, beta=3 (the
    Fock expansion at x=0.5, nmax=60)."""
    es = eigendecompose(two_level_hamiltonian(TwoLevelModel(5, 3)))
    cls = classify(es)
    frame = canonical_two_level_frame()
    calibrated, phases, _, _ = calibrate(es, cls, frame, True)
    itw = build_metric(calibrated, cls)
    return {
        "eigendecompose": es,
        "make_frame": frame,
        "calibrate": phases,
        "build_metric": itw,
        "build_pv": build_pv(frame, itw, calibrated),
        "build_c": build_c(calibrated, cls, [1, -1]),
        "v_gram": v_gram(calibrated, itw, cls, frame, phases, p_intertwines=True),
        "closed_forms": closed_forms(TwoLevelModel(5, 3)),
        "expand_position_state": expand_position_state(0.5, 1.0, 60),
        "divergence_witness": divergence_witness(0.5, 60),
    }


@pytest.mark.parametrize("kernel", list(RESULT_ARRAYS))
def test_result_arrays_are_read_only(results, kernel):
    result, arrays = results[kernel], RESULT_ARRAYS[kernel]
    if None in arrays:  # C is its matrix
        assert type(result) is np.ndarray
    else:  # every array the result holds is listed
        held = {f.name for f in fields(result) if isinstance(getattr(result, f.name), np.ndarray)}
        assert held == set(arrays)
    for name, dtype in arrays.items():
        a = result if name is None else getattr(result, name)
        assert a.dtype == dtype and not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 7.0


@pytest.mark.parametrize("residual,passed", [
    (float("nan"), False), (1.0, True), (0.5, True), (math.nextafter(1.0, 2.0), False),
])
def test_flag_passes_when_residual_is_at_most_threshold(residual, passed):
    assert Flag(residual, 1.0).passed is passed
