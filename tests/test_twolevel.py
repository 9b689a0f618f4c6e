"""Tests for the closed-form two-level oracle and the pipeline comparison."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pthamil.twolevel
from pthamil.errors import NotRealPhase, PTHamilError
from pthamil.linalg import SIGMA1, eigendecompose, identity
from pthamil.matio import save_matrix
from pthamil.pipeline import AnalysisConfig, run_analyze
from pthamil.twolevel import (
    TwoLevelModel,
    closed_forms,
    compare_with_pipeline,
    hamiltonian,
)
from testutil import kronecker_sum, kronecker_sum_closed_forms, rng


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
        residuals = compare_with_pipeline(TwoLevelModel(5, 3))
        assert max(residuals.values()) <= 1e-10

    def test_family_sweep(self):
        generator = rng(54)
        worst = 0.0
        for _ in range(1000):
            alpha = generator.uniform(0.2, 4.0)
            beta = alpha * generator.uniform(0.0, 0.95)
            residuals = compare_with_pipeline(TwoLevelModel(alpha, beta))
            worst = max(worst, *residuals.values())
        assert worst <= 1e-9

    @pytest.mark.parametrize("scale", [1e150, 1.0, 1e-150])
    def test_residuals_are_relative(self, scale, monkeypatch):
        m = TwoLevelModel(scale, 0.5 * scale)
        residuals = compare_with_pipeline(m)
        assert len(residuals) == 9
        assert max(residuals.values()) <= 1e-12
        # a relative error in the closed-form energies reads the same at every scale
        cf = closed_forms(m)
        shifted = replace(cf, energies=tuple(e * (1.0 + 1e-6) for e in cf.energies))
        monkeypatch.setattr(pthamil.twolevel, "closed_forms", lambda _: shifted)
        assert compare_with_pipeline(m)["energies"] == pytest.approx(1e-6, rel=1e-3)

    def test_sees_pipeline_defects(self, monkeypatch):
        # the comparison reads run_analyze's report: a pipeline that skips the
        # calibration must show up in its residuals
        import pthamil.pipeline

        def uncalibrated(es, cls, frame, p_intertwines, tol):
            return es, None, "calibration skipped", []

        monkeypatch.setattr(pthamil.pipeline, "calibrate", uncalibrated)
        residuals = compare_with_pipeline(TwoLevelModel(5, 3))
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


def _factor(root, r):
    """The real-phase model with gap ``sqrt(root)`` and ``beta = r alpha``."""
    alpha = math.sqrt(root) / math.sqrt(1.0 - r * r)
    return TwoLevelModel(alpha, r * alpha)


def _distinct_gap_factors():
    """1 to 6 factors whose gaps are square roots of distinct square-free
    integers: no sum of them with signs +-1 vanishes, so every level of the
    Kronecker sum is simple."""
    roots = st.lists(st.sampled_from((1, 2, 3, 5, 7, 11)), min_size=1, max_size=6, unique=True)
    return roots.flatmap(lambda rs: st.tuples(
        *(st.floats(0.0, 0.8).map(functools.partial(_factor, root)) for root in rs)))


class TestKroneckerSums:
    """The report on a Kronecker sum of real-phase two-level models
    (``testutil.kronecker_sum``, n = 2^k up to 64, frame given as files)
    against the factors' closed forms. With ``unit = eps n cond`` (``cond``
    that of the report's ``eigen.right``), V and PV agree within 16 units
    relative to their norms and the energies within 8 units of the spectral
    radius; 1,500 seeded draws reached 3.2 and 2.1 units. Every flag passes
    and each eta is the product of the factors' etas."""

    @staticmethod
    def _check(models, directory):
        h, p, u_t = kronecker_sum(models)
        v, pv, levels = kronecker_sum_closed_forms(models)
        paths = [str(directory / f"kron_{name}.json") for name in ("h", "p", "t")]
        for path, m in zip(paths, (h, p, u_t)):
            save_matrix(path, m)
        report = run_analyze(AnalysisConfig(source_path=paths[0], p_spec=paths[1],
                                            t_spec=paths[2]))

        def matrix(d):
            return np.asarray(d["re"]) + 1j * np.asarray(d["im"])

        # the recombined basis the report uses, not the eig basis of spectrum.condition
        unit = np.finfo(float).eps * len(h) * np.linalg.cond(matrix(report.eigen["right"]))
        energies = np.array([level[0] for level in levels])
        values = np.array([complex(re, im) for re, im in report.eigen["values"]])
        assert np.abs(values - energies).max() <= 8 * unit * np.abs(energies).max()
        assert np.linalg.norm(matrix(report.v) - v) <= 16 * unit * np.linalg.norm(v)
        assert np.linalg.norm(matrix(report.pv["matrix"]) - pv) <= 16 * unit * np.linalg.norm(pv)
        assert [eta[0] for eta in report.pt["eta"]] == [level[1] for level in levels]
        assert all(flag["passed"] for flag in report.flags.values()), report.flags

    @settings(max_examples=40, deadline=None)
    @given(models=_distinct_gap_factors())
    @example(models=tuple(_factor(root, 0.8) for root in (1, 2, 3, 5, 7, 11)))
    def test_simple_levels_match_closed_forms(self, tmp_path_factory, models):
        self._check(models, tmp_path_factory.getbasetemp())

    @pytest.mark.parametrize("models", [
        [_factor(1, 0.3)] * 2,
        [_factor(1, 0.6)] * 3,
        [_factor(2, 0.3)] * 4,
        [_factor(1, 0.6), _factor(3, 0.3), _factor(1, 0.6)],
    ], ids=["2x-r0.3", "3x-r0.6", "4x-r0.3", "AxBxA"])
    def test_degenerate_levels_match_closed_forms(self, tmp_path, models):
        # equal gaps give degenerate levels of one parity each, which
        # calibrate recombines into a P-orthonormal PT eigenbasis
        self._check(models, tmp_path)

    @pytest.mark.xfail(raises=(PTHamilError, AssertionError), strict=False, reason=(
        "eig returns nearly parallel vectors for some degenerate levels: "
        "sigma_1 x I + I x sigma_1 exits as NonDiagonalizable (cond ~1e17), and "
        "two factors of one gap fail C^2 = I (cond 3e8)"))
    @pytest.mark.parametrize("models", [
        [_factor(1, 0.0)] * 2,
        [TwoLevelModel(1.9896950189975284, 0.9792273835139492),
         TwoLevelModel(1.766337279911713, 0.34633421200613357)],
    ], ids=["hermitian-2x", "same-gap-pair"])
    def test_degenerate_levels_lost_by_eig(self, tmp_path, models):
        self._check(models, tmp_path)
