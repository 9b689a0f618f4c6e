"""Tests for similarity construction, the metric, Gram reports, and evolution."""


import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pthamil.antilinear import calibrate
from pthamil.errors import NonDiagonalizable, UnpairedComplexEigenvalue
from pthamil.intertwiner import Flag, Intertwiner, build_metric, v_gram
from pthamil.linalg import SIGMA1, eigendecompose, identity, quarter_turn
from pthamil.spectra import SpectrumKind, classify
from pthamil.twolevel import TwoLevelModel, closed_forms, hamiltonian
from testutil import canonical_two_level_frame, pa_matrix, random_real, rng, selection_rule_violations, v_gram_drift


def _system(alpha, beta):
    h = hamiltonian(TwoLevelModel(alpha, beta))
    es = eigendecompose(h)
    cls = classify(es)
    es = calibrate(es, cls, canonical_two_level_frame(), True)[0]  # a pair spectrum comes back as is
    return h, es, cls


def _pa(generator, n, shift):
    """``P A`` with P the alternating parity and A Hermitian with
    ``conj(A) = P A P``; real spectrum when A is positive definite."""
    s = generator.normal(size=(n, n))
    s = (s + s.T) / 2 + shift * np.eye(n)
    k = np.arange(n)
    return (-1.0) ** k[:, None] * quarter_turn(s, k[:, None] - k)  # D S D^dagger, D = diag(1j ** k)


def _pa_real(generator, n):
    return _pa(generator, n, 10.0)


def _pa_pairs(generator, n):
    return _pa(generator, n, 0.0)


class TestBuildSimilarity:
    # the similarity to Hermitian form is the left-eigenvector matrix es.left:
    # L H L^-1 = diag(E), Hermitian exactly when the spectrum is real

    def test_two_level_hermitian_conjugation(self):
        h, es, cls = _system(5, 3)
        s = es.left
        conj = s @ h @ np.linalg.inv(s)
        assert np.allclose(conj, np.diag(es.values), atol=1e-12)
        assert np.allclose(conj, conj.conj().T, atol=1e-12)

    def test_closed_form_similarity(self):
        # the closed-form S(theta) sends H to sqrt(alpha^2-beta^2) sigma_1
        m = TwoLevelModel(5, 3)
        cf = closed_forms(m)
        conj = cf.s @ hamiltonian(m) @ np.linalg.inv(cf.s)
        assert np.allclose(conj, 4.0 * SIGMA1, atol=1e-12)

    def test_hermitian_input(self):
        h = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
        es = eigendecompose(h)
        s = es.left
        conj = s @ h @ np.linalg.inv(s)
        assert np.allclose(conj, np.diag(es.values), atol=1e-12)
        assert np.allclose(conj, conj.conj().T, atol=1e-12)

    def test_complex_phase_diagonal_not_hermitian(self):
        h, es, cls = _system(3, 5)
        assert cls.kind is SpectrumKind.CONJUGATE_PAIRS
        conj = es.left @ h @ np.linalg.inv(es.left)
        assert np.allclose(conj, np.diag(es.values), atol=1e-12)
        assert not np.allclose(conj, conj.conj().T, atol=1e-3)


class TestBuildMetric:
    def test_two_level_closed_form(self):
        h, es, cls = _system(5, 3)
        itw = build_metric(es, cls)
        assert np.allclose(itw.v, np.diag([0.5, 2.0]), atol=1e-12)
        assert itw.positive and np.array_equal(itw.v, itw.v.conj().T)
        assert itw.residual <= 1e-12
        # V = S^dagger S for the similarity S = L of this eigensystem
        s = es.left
        assert np.allclose(itw.v, s.conj().T @ s, atol=1e-12)

    def test_hermitian_input_gives_identity(self):
        h = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
        es = eigendecompose(h)
        itw = build_metric(es, classify(es))
        assert np.allclose(itw.v, identity(2), atol=1e-10)

    def test_zero_hamiltonian_intertwines_with_zero_residual(self):
        es = eigendecompose(np.zeros((2, 2)))
        itw = build_metric(es, classify(es))
        assert itw.residual == 0.0 and itw.positive

    @pytest.mark.parametrize("pa", [True, False], ids=["pa", "random"])
    def test_pair_metric_matches_outer_products(self, pa):
        # reference: one outer product of left vectors per state and pair member
        h = _pa_pairs(rng(44), 8) if pa else random_real(rng(43), 7)
        es = eigendecompose(h)
        cls = classify(es)
        assert len(cls.pairs) >= 2 and cls.real_indices
        ref = np.zeros((es.dim, es.dim), dtype=complex)
        for n in cls.real_indices:
            ref += np.outer(np.conj(es.left[n]), es.left[n])
        for n_plus, n_minus in cls.pairs:
            ref += np.outer(np.conj(es.left[n_minus]), es.left[n_plus])
            ref += np.outer(np.conj(es.left[n_plus]), es.left[n_minus])
        ref = 0.5 * (ref + ref.conj().T)
        assert np.linalg.norm(build_metric(es, cls).v - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_complex_pair_metric(self):
        h, es, cls = _system(3, 5)
        itw = build_metric(es, cls)
        assert np.array_equal(itw.v, itw.v.conj().T) and not itw.positive
        assert itw.residual <= 1e-12
        h_dag = h.conj().T
        assert np.allclose(itw.v @ h @ np.linalg.inv(itw.v), h_dag, atol=1e-10)
        gram = es.right.conj().T @ itw.v @ es.right
        for n_plus, n_minus in cls.pairs:
            assert abs(gram[n_plus, n_plus]) <= 1e-12
            assert abs(gram[n_minus, n_minus]) <= 1e-12


def _two_branch_metric(es, cls):
    """V as formed with one branch per spectrum kind: ``L^dagger L`` on an
    all-real spectrum, the pair swap of left vectors otherwise."""
    if cls.kind is SpectrumKind.ALL_REAL:
        v = es.left.conj().T @ es.left
    else:
        partner = np.arange(es.dim)
        for n_plus, n_minus in cls.pairs:
            partner[n_plus], partner[n_minus] = n_minus, n_plus
        v = es.left[partner].conj().T @ es.left
    return 0.5 * (v + v.conj().T)


@settings(max_examples=80, deadline=None)
@given(blocks=st.lists(st.tuples(st.integers(1, 7), st.booleans(), st.integers(0, 2**32 - 1)),
                       min_size=1, max_size=3),
       repeat=st.booleans())
def test_partner_and_one_metric_formula_on_direct_sums(blocks, repeat):
    """On direct sums of P·A blocks (real, pair, mixed, and, with a block
    repeated, degenerate spectra), ``partner`` is the involution that fixes
    exactly the real indices and swaps each pair, and ``V = L[partner]^dagger
    L`` is the two-branch metric bit for bit."""
    parts = [pa_matrix(np.random.default_rng(seed), n, definite) for n, definite, seed in blocks]
    h = scipy.linalg.block_diag(*parts, *parts[:1] * repeat)
    try:
        es = eigendecompose(h)
        cls = classify(es)
    except (NonDiagonalizable, UnpairedComplexEigenvalue):
        assume(False)
    partner, index = cls.partner, np.arange(es.dim)
    assert np.array_equal(partner[partner], index)
    assert np.flatnonzero(partner == index).tolist() == list(cls.real_indices)
    for n_plus, n_minus in cls.pairs:
        assert (partner[n_plus], partner[n_minus]) == (n_minus, n_plus)
    itw = build_metric(es, cls)
    assert np.array_equal(itw.v, _two_branch_metric(es, cls))
    assert itw.positive == (cls.kind is SpectrumKind.ALL_REAL)


class TestVGram:
    def test_two_level_dirac_overlap(self):
        # closed form: u-^dagger u+ = beta / sqrt(alpha^2 - beta^2) = 3/4
        h, es, cls = _system(5, 3)
        itw = build_metric(es, cls)
        report = v_gram(es, itw, cls, canonical_two_level_frame())
        assert abs(report.dirac[1, 0] - 0.75) <= 1e-12
        assert np.allclose(report.vnorm, identity(2), atol=1e-12)
        assert np.allclose(report.pnorm, np.diag([1.0, -1.0]), atol=1e-12)
        assert report.flags["v_gram_identity"].passed

    @pytest.mark.parametrize("p_intertwines", [False, True])
    def test_parity_flags_only_where_p_intertwines(self, p_intertwines):
        h, es, cls = _system(5, 3)
        itw = build_metric(es, cls)
        report = v_gram(es, itw, cls, canonical_two_level_frame(), tol=1e-9,
                        p_intertwines=p_intertwines)
        assert ("p_gram_real" in report.flags) is p_intertwines
        assert report.flags["metric_intertwines"] == Flag(itw.residual, 1e-9)
        assert all(flag.passed for flag in report.flags.values())

    def test_one_entry_between_the_bounds_fails_v_gram_entries(self):
        # above n = 100 the Frobenius bound tol * n of v_gram_identity admits
        # one off-partner entry above the check-tier floor 1e-8 * ||G||
        n = 200
        h = pa_matrix(rng(48), n, definite=True)
        es = eigendecompose(h)
        cls = classify(es)
        itw = build_metric(es, cls)
        flags = v_gram(es, itw, cls, tol=1e-9).flags
        floor, bound = flags["v_gram_entries"].threshold, flags["v_gram_identity"].threshold
        assert all(flag.passed for flag in flags.values()) and floor < bound
        entry = 0.5 * (floor + bound)
        bump = np.zeros((n, n))
        bump[0, 1] = entry  # R^dagger L^dagger bump L R = bump, as L R = I
        v = itw.v + es.left.conj().T @ bump @ es.left
        flags = v_gram(es, Intertwiner(v, False, itw.residual), cls, tol=1e-9).flags
        assert flags["v_gram_identity"].passed
        assert not flags["v_gram_entries"].passed
        assert abs(flags["v_gram_entries"].residual - entry) <= 1e-6 * entry

    def test_hermitian_all_identities(self):
        h = np.array([[0.0, 2.0], [2.0, 0.0]], dtype=complex)
        es = eigendecompose(h)
        cls = classify(es)
        itw = build_metric(es, cls)
        report = v_gram(es, itw, cls)
        assert np.allclose(report.dirac, identity(2), atol=1e-12)
        assert np.allclose(report.vnorm, identity(2), atol=1e-12)

    def test_complex_pair_structure_flag(self):
        h, es, cls = _system(3, 5)
        itw = build_metric(es, cls)
        report = v_gram(es, itw, cls)
        assert set(report.flags) == {"v_gram_pair_swap", "v_gram_entries", "metric_intertwines"}
        swap = report.flags["v_gram_pair_swap"]
        assert swap.passed
        # the paired diagonal is part of the pair-swap residual, held to its threshold
        assert max(abs(report.vnorm[i, i]) for pair in cls.pairs for i in pair) <= swap.threshold


class TestTimeIndependence:
    # oracle: the V Gram of the eigenvectors evolved by the dense propagator
    # exp(-iHt) (testutil.v_gram_drift), and the selection rule read from the
    # V Gram and the eigenvalues (testutil.selection_rule_violations)

    def test_two_level_real_phase_constant(self):
        h, es, cls = _system(5, 3)
        itw = build_metric(es, cls)
        assert v_gram_drift(h, es.right, itw.v, (0.0, 0.7, 3.1)) <= 1e-10

    def test_complex_phase_selection_rule(self):
        h, es, cls = _system(3, 5)
        itw = build_metric(es, cls)
        gram0 = v_gram(es, itw, cls).vnorm
        assert selection_rule_violations(es.values, gram0, 1e-8) == []
        present = np.abs(gram0) > 1e-8 * max(1.0, np.linalg.norm(gram0))
        n_plus, n_minus = cls.pairs[0]
        assert not present[n_plus, n_plus]
        assert not present[n_minus, n_minus]
        assert present[n_plus, n_minus] and present[n_minus, n_plus]
        assert v_gram_drift(h, es.right, itw.v, (0.0, 0.5, 1.7, 4.3), digits=40) <= 1e-8
        # float64 resolves the pair at moderate times
        assert v_gram_drift(h, es.right, itw.v, (0.3,)) <= 1e-9

    @pytest.mark.parametrize("seed,n", [(1, 2), (2, 5), (3, 8)])
    def test_selection_violations_match_entry_loop(self, seed, n):
        # the Dirac product (V = I) breaks the selection rule off the diagonal;
        # each violation the entry loop finds is off its partner, so
        # v_gram_entries FAILs with at least its magnitude
        h = random_real(rng(seed), n)
        es = eigendecompose(h)
        cls = classify(es)
        report = v_gram(es, Intertwiner(identity(n), False, 0.0), cls, tol=1e-9)
        violations = selection_rule_violations(es.values, report.vnorm, 1e-8)
        flag = report.flags["v_gram_entries"]
        assert violations and not flag.passed
        assert flag.residual >= max(abs(report.vnorm[nm]) for nm in violations)

    @pytest.mark.parametrize("definite", [True, False], ids=["real", "pairs"])
    def test_phase_form_matches_matmul_reference(self, definite):
        # a V that does not intertwine H, so every Gram entry moves, each by
        # its own factor exp(i (conj(E_n) - E_m) t) under the dense
        # propagator; the V-Gram flags see that V
        generator = rng(45)
        h = _pa_real(generator, 8) if definite else _pa_pairs(generator, 8)
        es = eigendecompose(h)
        a = random_real(generator, 8) + 1j * random_real(generator, 8)
        v = a @ a.conj().T
        gram0 = es.right.conj().T @ v @ es.right
        rates = 1j * (np.conj(es.values)[:, np.newaxis] - es.values[np.newaxis, :])
        for t in (0.3, 1.1):
            evolved = scipy.linalg.expm(-1j * h * t) @ es.right
            gram = evolved.conj().T @ v @ evolved
            assert np.linalg.norm(gram - gram0 * np.exp(rates * t)) <= 1e-10 * np.linalg.norm(gram)
        assert v_gram_drift(h, es.right, v, (0.0, 0.3, 1.1)) > 0.1
        residual = np.linalg.norm(v @ h - h.conj().T @ v) / (np.linalg.norm(v) * np.linalg.norm(h))
        report = v_gram(es, Intertwiner(v, False, residual), classify(es), tol=1e-9)
        assert "metric_intertwines" in report.flags
        assert not any(flag.passed for flag in report.flags.values())

    def test_time_zero_trivially_constant(self):
        # the oracle's own baseline: exp(0) is the identity, with no rounding
        h, es, cls = _system(2, 1)
        assert v_gram_drift(h, es.right, build_metric(es, cls).v, (0.0,)) == 0.0

    def test_evolution_operator_matches_expm(self):
        # exp(-iHt) acts on its own eigenvectors by pure phases
        h = random_real(rng(31), 5, unit_radius=True)
        es = eigendecompose(h)
        for t in (0.4, 1.3):
            assert np.allclose(
                es.right * np.exp(-1j * es.values * t),
                scipy.linalg.expm(-1j * h * t) @ es.right,
                atol=1e-9,
            )

    def test_converse_theorem(self):
        # constancy of every Gram entry forces the intertwining relation:
        # rebuild V H - H^dagger V from Gram data and energies
        h, es, cls = _system(5, 3)
        itw = build_metric(es, cls)
        gram = v_gram(es, itw, cls).vnorm
        assert v_gram_drift(h, es.right, itw.v, (0.0, 0.5, 1.7, 4.3)) <= 1e-8
        commutator_eigenbasis = gram * (
            es.values[np.newaxis, :] - np.conj(es.values)[:, np.newaxis]
        )
        rebuilt = es.left.conj().T @ commutator_eigenbasis @ es.left
        direct = itw.v @ h - h.conj().T @ itw.v
        assert np.allclose(rebuilt, direct, atol=1e-10)
        assert np.linalg.norm(direct) <= 1e-10


class TestMetricProperties:
    def test_random_real_matrices(self):
        generator = rng(37)
        seen_real = seen_pairs = 0
        for _ in range(120):
            h = random_real(generator, 6, unit_radius=True)
            es = eigendecompose(h)
            cls = classify(es)
            itw = build_metric(es, cls)
            assert itw.residual <= 1e-9
            assert np.array_equal(itw.v, itw.v.conj().T)
            if cls.kind is SpectrumKind.ALL_REAL:
                seen_real += 1
                assert itw.positive
                assert float(np.min(np.linalg.eigvalsh(itw.v))) > 0.0
            else:
                seen_pairs += 1
        assert seen_pairs > 0

    def test_forced_real_spectrum_positive_definite(self):
        # random real matrices with an all-real spectrum by construction
        generator = rng(38)
        for _ in range(40):
            basis = random_real(generator, 6)
            while np.linalg.cond(basis) > 50.0:
                basis = random_real(generator, 6)
            h = basis @ np.diag(generator.uniform(-2.0, 2.0, size=6)) @ np.linalg.inv(basis)
            es = eigendecompose(h)
            cls = classify(es)
            assert cls.kind is SpectrumKind.ALL_REAL
            itw = build_metric(es, cls)
            assert itw.positive
            assert itw.residual <= 1e-9

    def test_commutant_freedom(self):
        # V q(H) intertwines whenever q is a real-coefficient polynomial in H
        h, es, cls = _system(5, 3)
        itw = build_metric(es, cls)
        q = identity(2) + 0.3 * h + 0.05 * (h @ h)
        assert np.allclose(q @ h, h @ q, atol=1e-12)
        assert np.allclose(q.conj().T @ itw.v, itw.v @ q, atol=1e-12)
        vq = itw.v @ q
        assert np.linalg.norm(vq @ h - h.conj().T @ vq) <= 1e-10
