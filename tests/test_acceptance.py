"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one ``[acceptance] <name>: PASS/FAIL`` line (run with ``pytest -v -s``
to see the lines as they appear).
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from pthamil.antilinear import calibrate, pt_eigenstates, pt_gram
from pthamil.cpt import build_c, build_pv, c_commutes_with_pt
from pthamil.errors import NonDiagonalizable, UnpairedComplexEigenvalue
from pthamil.fockdemo import divergence_witness
from pthamil.intertwiner import build_metric, v_gram
from pthamil.linalg import eigendecompose
from pthamil.pipeline import AnalysisConfig, run_analyze
from pthamil.spectra import SpectrumKind, classify
from pthamil.twolevel import TwoLevelModel, hamiltonian
from testutil import (
    canonical_two_level_frame,
    conjugated_two_level_frame,
    random_real,
    random_unitary,
    rng,
    scaled_coefficient_exact,
    selection_rule_violations,
    squared_terms_exact,
    v_gram_drift,
)


@contextmanager
def criterion(name, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None and elapsed > budget_seconds:
        print(f"[acceptance] {name}: FAIL (runtime {elapsed:.2f}s > {budget_seconds}s)")
        raise AssertionError(f"runtime budget exceeded: {elapsed:.2f}s > {budget_seconds}s")
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_two_level_oracle_equivalence():
    with criterion("1 two-level oracle equivalence", budget_seconds=1.0):
        tol = 1e-10
        frame = canonical_two_level_frame()
        h = hamiltonian(TwoLevelModel(5.0, 3.0))
        es = eigendecompose(h)
        cls = classify(es)
        es, phases, _, _ = calibrate(es, cls, frame, True)
        itw = build_metric(es, cls)
        report = v_gram(es, itw, cls, frame, phases)
        pv = build_pv(frame, itw, es)

        assert np.max(np.abs(es.values - np.array([4.0, -4.0]))) <= tol
        assert np.max(np.abs(itw.v - np.diag([0.5, 2.0]))) <= tol
        assert abs(report.dirac[1, 0] - 0.75) <= tol
        assert np.max(np.abs(report.vnorm - np.eye(2))) <= tol
        assert np.max(np.abs(report.pnorm - np.diag([1.0, -1.0]))) <= tol
        assert np.max(np.abs(pv.matrix @ pv.matrix - np.eye(2))) <= tol


def test_criterion_2_randomized_metric_existence():
    with criterion("2 randomized metric existence", budget_seconds=30.0):
        generator = rng(1002)
        count_real = count_pairs = 0
        for k in range(1000):
            if k % 2 == 0:
                h = random_real(generator, 6)
            else:
                # random real matrix with an all-real spectrum by construction
                basis = random_real(generator, 6)
                while np.linalg.cond(basis) > 100.0:
                    basis = random_real(generator, 6)
                h = basis @ np.diag(generator.uniform(-3.0, 3.0, size=6)) @ np.linalg.inv(basis)
            es = eigendecompose(h)
            cls = classify(es)
            itw = build_metric(es, cls)
            assert itw.residual <= 1e-9
            if cls.kind is SpectrumKind.ALL_REAL:
                count_real += 1
                assert itw.positive
                assert float(np.min(np.linalg.eigvalsh(itw.v))) > 0.0
            else:
                count_pairs += 1
                assert np.array_equal(itw.v, itw.v.conj().T)
                gram = es.right.conj().T @ itw.v @ es.right
                for pair in cls.pairs:
                    for index in pair:
                        assert abs(gram[index, index]) <= 1e-9
        assert count_real > 0 and count_pairs > 0


def test_criterion_3_time_independence_and_selection_rule():
    with criterion("3 time independence and selection rule"):
        # oracle: the V Gram of the eigenvectors evolved by the dense
        # propagator exp(-iHt); the selection rule read from that Gram and
        # the eigenvalues
        times = (0.0, 0.5, 1.7, 4.3)
        for alpha, beta in ((5.0, 3.0), (3.0, 5.0)):
            h = hamiltonian(TwoLevelModel(alpha, beta))
            es = eigendecompose(h)
            cls = classify(es)
            itw = build_metric(es, cls)
            gram = v_gram(es, itw, cls).vnorm
            assert v_gram_drift(h, es.right, itw.v, times, digits=40) <= 1e-8
            assert selection_rule_violations(es.values, gram, 1e-8) == []
        generator = rng(1003)
        for _ in range(100):
            h = random_real(generator, 6, unit_radius=True)
            es = eigendecompose(h)
            cls = classify(es)
            itw = build_metric(es, cls)
            gram = v_gram(es, itw, cls).vnorm
            assert v_gram_drift(h, es.right, itw.v, times) <= 1e-8
            assert selection_rule_violations(es.values, gram, 1e-8) == []
            if cls.kind is SpectrumKind.CONJUGATE_PAIRS:
                floor = 1e-8 * max(1.0, np.linalg.norm(gram))
                for n in range(6):
                    for m in range(6):
                        if abs(gram[n, m]) > floor:
                            assert abs(es.values[m] - np.conj(es.values[n])) <= 1e-8


def test_criterion_4_diagnostic_correctness():
    with criterion("4 diagnostic correctness"):
        generator = rng(1004)
        frame = canonical_two_level_frame()
        checked = 0
        while checked < 200:
            alpha = generator.uniform(0.2, 3.0)
            beta = generator.uniform(0.2, 3.0)
            if abs(alpha - beta) < 0.02 * (alpha + beta):
                continue
            h = hamiltonian(TwoLevelModel(alpha, beta))
            es = eigendecompose(h)
            cls = classify(es)
            # PT itself tells the two apart: on pairs no state is a PT eigenstate
            not_eigenstates = pt_eigenstates(frame, es)[2]
            assert not_eigenstates.all() if alpha < beta else not not_eigenstates.any()
            if alpha > beta:
                es = calibrate(es, cls, frame, True)[0]
                itw = build_metric(es, cls)
                op = build_pv(frame, itw, es).matrix
                assert c_commutes_with_pt(op, frame) is True
            else:
                op = build_c(es, cls, [1])
                assert c_commutes_with_pt(op, frame) is False
            checked += 1


def test_criterion_5_pt_phase_norm_equality():
    with criterion("5 PT-phase norm equality"):
        generator = rng(1005)

        def pt_equals_v(h, frame):
            es = eigendecompose(h)
            cls = classify(es)
            es, phases, _, _ = calibrate(es, cls, frame, True)
            itw = build_metric(es, cls)
            v_gram_matrix = es.right.conj().T @ itw.v @ es.right
            return float(np.max(np.abs(pt_gram(frame, phases) - v_gram_matrix)))

        frame = canonical_two_level_frame()
        for _ in range(50):
            alpha = generator.uniform(0.3, 3.0)
            beta = alpha * generator.uniform(0.0, 0.9)
            assert pt_equals_v(hamiltonian(TwoLevelModel(alpha, beta)), frame) <= 1e-9
        for _ in range(50):
            alpha = generator.uniform(0.3, 3.0)
            beta = alpha * generator.uniform(0.05, 0.9)
            q = random_unitary(generator, 2)
            h = q @ hamiltonian(TwoLevelModel(alpha, beta)) @ q.conj().T
            assert pt_equals_v(h, conjugated_two_level_frame(q)) <= 1e-9


def test_criterion_6_fock_demo():
    with criterion("6 fock demo", budget_seconds=5.0):
        polynomials = {
            1: [0, 1],
            2: [-1, 0, 1],
            3: [0, -3, 0, 1],
            4: [3, 0, -6, 0, 1],
            5: [0, 15, 0, -10, 0, 1],
            6: [-15, 0, 45, 0, -15, 0, 1],
        }
        for x in (Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(3)):
            for n, coeffs in polynomials.items():
                expected = sum(Fraction(c) * x**k for k, c in enumerate(coeffs))
                assert scaled_coefficient_exact(n, x) == expected
        terms = squared_terms_exact(8)
        assert [terms[n] for n in (0, 2, 4, 6, 8)] == [
            Fraction(1), Fraction(1, 2), Fraction(3, 8),
            Fraction(5, 16), Fraction(35, 128),
        ]
        witness = divergence_witness(0.0, 2000)
        assert witness.fitted_tail_exponent > -1.0


def test_criterion_7_negative_controls(tmp_path):
    with criterion("7 converse and negative controls"):
        with pytest.raises(UnpairedComplexEigenvalue):
            classify(eigendecompose(np.diag([1.0, 2.0 + 1.0j])))
        from pthamil.matio import save_matrix

        unpaired = tmp_path / "unpaired.json"
        save_matrix(str(unpaired), np.diag([1.0, 2.0 + 1.0j]))
        with pytest.raises(UnpairedComplexEigenvalue):
            run_analyze(AnalysisConfig(source_path=str(unpaired)))

        jordan = hamiltonian(TwoLevelModel(2.0, 2.0))
        with pytest.raises(NonDiagonalizable) as info:
            eigendecompose(jordan)
        assert info.value.condition > info.value.threshold
        jordan_path = tmp_path / "jordan.json"
        save_matrix(str(jordan_path), jordan)
        with pytest.raises(NonDiagonalizable):
            run_analyze(AnalysisConfig(source_path=str(jordan_path)))
