"""Tests for the closed-form two-level oracle and the pipeline comparison."""

import math

import numpy as np
import pytest

from pthamil.errors import NotRealPhase
from pthamil.linalg import SIGMA1, eigendecompose, identity
from pthamil.twolevel import (
    TwoLevelModel,
    closed_forms,
    compare_with_pipeline,
    hamiltonian,
)
from testutil import rng


class TestModel:
    def test_hamiltonian_entries(self):
        assert np.allclose(hamiltonian(TwoLevelModel(5, 3)), [[0, 8], [2, 0]])

    def test_jordan_limit(self):
        m = TwoLevelModel(1, 1)
        assert m.phase() == "exceptional"
        assert np.allclose(hamiltonian(m), [[0, 2], [0, 0]])

    def test_hermitian_limit(self):
        m = TwoLevelModel(1, 0)
        assert np.allclose(hamiltonian(m), SIGMA1)

    def test_phase_tags(self):
        assert TwoLevelModel(5, 3).phase() == "real"
        assert TwoLevelModel(3, 5).phase() == "complex"
        assert TwoLevelModel(1, 1 + 1e-12).phase() == "exceptional"

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TwoLevelModel(-1, 1)
        with pytest.raises(ValueError):
            TwoLevelModel(1, -0.5)


class TestClosedForms:
    def test_reference_point(self):
        cf = closed_forms(TwoLevelModel(5, 3))
        assert cf.energies == (4.0, -4.0)
        assert abs(math.cosh(2 * cf.theta) - 1.25) <= 1e-14
        assert abs(math.sinh(2 * cf.theta) - 0.75) <= 1e-14
        assert np.allclose(cf.v, np.diag([0.5, 2.0]), atol=1e-14)
        assert np.allclose(cf.u_plus, [1.0, 0.5], atol=1e-14)
        assert np.allclose(cf.u_minus, [1.0, -0.5], atol=1e-14)
        assert abs(cf.dirac_overlap - 0.75) <= 1e-14

    def test_hermitian_limit_trivial(self):
        cf = closed_forms(TwoLevelModel(2, 0))
        assert cf.theta == 0.0
        assert np.allclose(cf.s, identity(2))
        assert np.allclose(cf.v, identity(2))

    def test_complex_phase_rejected(self):
        with pytest.raises(NotRealPhase):
            closed_forms(TwoLevelModel(3, 5))

    @pytest.mark.parametrize("alpha,beta", [(1e-200, 5e-201), (1e200, 5e199), (1e200, 1e100)])
    def test_squares_out_of_float_range_rejected(self, alpha, beta):
        # alpha^2 - beta^2 underflows to 0 or overflows to inf or nan
        with pytest.raises(NotRealPhase, match="float range"):
            closed_forms(TwoLevelModel(alpha, beta))

    def test_metric_from_own_similarity(self):
        m = TwoLevelModel(2.5, 1.5)
        cf = closed_forms(m)
        assert np.allclose(cf.s.conj().T @ cf.s, cf.v, atol=1e-12)
        h = hamiltonian(m)
        assert np.allclose(cf.v @ h @ np.linalg.inv(cf.v), h.conj().T, atol=1e-12)

    def test_metric_normalization(self):
        m = TwoLevelModel(1.8, 0.6)
        cf = closed_forms(m)
        for u in (cf.u_plus, cf.u_minus):
            assert abs(np.vdot(u, cf.v @ u) - 1.0) <= 1e-12


class TestPipelineComparison:
    def test_reference_point(self):
        comparison = compare_with_pipeline(TwoLevelModel(5, 3))
        assert comparison.max_residual <= 1e-10

    def test_family_sweep(self):
        generator = rng(54)
        worst = 0.0
        for _ in range(1000):
            alpha = generator.uniform(0.2, 4.0)
            beta = alpha * generator.uniform(0.0, 0.95)
            comparison = compare_with_pipeline(TwoLevelModel(alpha, beta))
            worst = max(worst, comparison.max_residual)
        assert worst <= 1e-9

    def test_sees_pipeline_defects(self, monkeypatch):
        # the comparison reads run_analyze's report: a pipeline that skips the
        # parity calibration must show up in its residuals
        import pthamil.pipeline

        monkeypatch.setattr(pthamil.pipeline, "p_normalize", lambda es, p, tol: (es, []))
        residuals = compare_with_pipeline(TwoLevelModel(5, 3)).residuals
        assert residuals["metric"] > 1e-3
        assert residuals["pv_squares_to_identity"] > 1e-3

    def test_dirac_non_orthogonality(self):
        generator = rng(55)
        for _ in range(50):
            alpha = generator.uniform(0.5, 3.0)
            beta = alpha * generator.uniform(0.05, 0.9)
            cf = closed_forms(TwoLevelModel(alpha, beta))
            overlap = np.vdot(cf.u_minus, cf.u_plus)
            assert abs(overlap - beta / math.sqrt(alpha**2 - beta**2)) <= 1e-10

    def test_exceptional_limit_condition_number_diverges(self):
        alpha = 1.0
        conditions = []
        for k in range(1, 7):
            beta = alpha * (1.0 - 10.0**-k)
            es = eigendecompose(hamiltonian(TwoLevelModel(alpha, beta)), tol=1e-16)
            conditions.append(es.condition)
        assert all(b > a for a, b in zip(conditions, conditions[1:]))
        assert conditions[-1] > 1e2 * conditions[0]
