"""Tests for the analysis pipeline, batch mode, and report round-trips."""

import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pthamil.antilinear import make_frame
from pthamil.cpt import check_p_intertwines
from pthamil.errors import InvalidFrame, NonDiagonalizable, ParseError, UnpairedComplexEigenvalue
from pthamil import pipeline
from pthamil.linalg import (SIGMA1, _real_turns, check_tier, eigendecompose, identity, mat_norm,
                            quarter_turn, residual_bound)
from pthamil.matio import save_matrix
from pthamil.pipeline import (
    AnalysisConfig,
    AnalysisReport,
    emit_report,
    parse_report,
    resolve_tol,
    run_analyze,
    run_batch,
)
from pthamil.spectra import antilinear_symmetry_check
from pthamil.twolevel import TwoLevelModel, hamiltonian
from testutil import (BLAS_VARS, env_with_src, ix3_hamiltonian, pa_matrix, random_unitary,
                      selection_rule_violations)


def _matrix_from(d):
    return np.asarray(d["re"]) + 1j * np.asarray(d["im"])


class TestConfig:
    def test_exactly_one_source(self):
        with pytest.raises(ValueError):
            AnalysisConfig()
        with pytest.raises(ValueError):
            AnalysisConfig(source_path="h.json", model="two-level")

    def test_positive_tolerance(self):
        with pytest.raises(ValueError):
            AnalysisConfig(model="two-level", alpha=1, beta=0, tol=-1e-9)

    @pytest.mark.parametrize("kwargs,message", [
        ({"tol": float("inf")}, "tolerance must be finite"),
        ({"tol": float("nan")}, "tolerance must be positive"),
    ], ids=["tol-inf", "tol-nan"])
    def test_non_finite_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AnalysisConfig(model="two-level", alpha=5, beta=3, **kwargs)

    def test_env_override(self, monkeypatch):
        cfg = AnalysisConfig(model="two-level", alpha=1, beta=0)
        monkeypatch.setenv("PTHAMIL_TOL", "1e-8")
        assert resolve_tol(cfg) == 1e-8
        monkeypatch.setenv("PTHAMIL_TOL", "bogus")
        with pytest.raises(ParseError):
            resolve_tol(cfg)
        monkeypatch.setenv("PTHAMIL_TOL", "inf")
        with pytest.raises(ParseError, match="must be finite"):
            resolve_tol(cfg)
        monkeypatch.delenv("PTHAMIL_TOL")
        assert resolve_tol(cfg) == 1e-10

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("PTHAMIL_TOL", "1e-6")
        cfg = AnalysisConfig(model="two-level", alpha=1, beta=0, tol=1e-12)
        assert resolve_tol(cfg) == 1e-12


@pytest.fixture(scope="module")
def real_report():
    return run_analyze(
        AnalysisConfig(model="two-level", alpha=5.0, beta=3.0, p_spec="sigma1")
    )


@pytest.fixture(scope="module")
def complex_report():
    return run_analyze(AnalysisConfig(model="two-level", alpha=3.0, beta=5.0))


class TestAnalyzeRealPhase:
    @pytest.fixture()
    def report(self, real_report):
        return real_report

    def test_spectrum_section(self, report):
        assert report.spectrum["kind"] == "all_real"
        assert report.spectrum["real_indices"] == [0, 1]

    def test_metric_section(self, report):
        assert np.allclose(_matrix_from(report.v), np.diag([0.5, 2.0]), atol=1e-10)
        v = _matrix_from(report.v)
        assert report.v["positive"] and np.array_equal(v, v.conj().T)

    def test_gram_section(self, report):
        assert np.allclose(_matrix_from(report.gram["v"]), np.eye(2), atol=1e-10)
        assert abs(_matrix_from(report.gram["dirac"])[1, 0] - 0.75) <= 1e-10
        assert np.allclose(_matrix_from(report.gram["p"]), np.diag([1, -1]), atol=1e-10)
        assert np.allclose(_matrix_from(report.gram["pt"]), np.eye(2), atol=1e-10)

    def test_pv_equals_c(self, report):
        # C is built only from given signs; those of the PV eigenvalues give PV
        assert report.pv["squares_to_identity"]
        assert "matrix" not in report.c and "skipped" in report.c
        with_c = run_analyze(AnalysisConfig(model="two-level", alpha=5.0, beta=3.0,
                                            p_spec="sigma1", c_signs=(1, -1)))
        assert [a[0] > 0.0 for a in report.pv["alphas"]] == [True, False]
        assert np.allclose(
            _matrix_from(report.pv["matrix"]), _matrix_from(with_c.c["matrix"]),
            atol=1e-10,
        )
        assert report.diagnostic == with_c.diagnostic == "real_spectrum"
        assert with_c.c["commutes_with_pt"]

    def test_pt_section(self, report):
        assert [e[0] for e in report.pt["eta"]] == [1.0, -1.0]
        assert report.pt["symmetry_check"]

    def test_flags_all_pass(self, report):
        assert all(flag["passed"] for flag in report.flags.values())

    def test_every_flag_carries_residual_and_threshold(self, report):
        for flag in report.flags.values():
            assert set(flag) == {"passed", "residual", "threshold"}


class TestAnalyzeComplexPhase:
    @pytest.fixture()
    def report(self, complex_report):
        return complex_report

    def test_pair_structure(self, report):
        assert report.spectrum["kind"] == "conjugate_pairs"
        assert len(report.spectrum["pairs"]) == 1

    def test_metric_indefinite(self, report):
        v = _matrix_from(report.v)
        assert np.array_equal(v, v.conj().T) and not report.v["positive"]

    def test_pv_skipped_with_reason(self, report):
        assert "skipped" in report.pv
        assert "PV plays no role" in report.pv["skipped"]

    def test_diagnostic(self, report):
        assert report.diagnostic == "complex_pairs"
        with_c = run_analyze(AnalysisConfig(model="two-level", alpha=3.0, beta=5.0, c_signs=(1,)))
        assert with_c.diagnostic == "complex_pairs"
        assert with_c.c["commutes_with_pt"] is False

    def test_pt_section_skipped(self, report):
        assert "skipped" in report.pt
        assert report.pt["symmetry_check"]

    def test_no_selection_violations(self, report):
        # the selection rule, read from the report's V Gram and eigenvalues;
        # v_gram_entries bounds every entry off the pair swap
        values = np.array([complex(re, im) for re, im in report.eigen["values"]])
        assert selection_rule_violations(values, _matrix_from(report.gram["v"]), 1e-8) == []
        assert report.flags["v_gram_entries"]["passed"]

    def test_all_flags_pass(self, report):
        # no real-spectrum-only identity may be asserted against the pair phase
        assert all(flag["passed"] for flag in report.flags.values())


class TestAnalyzeErrors:
    def test_unpaired_spectrum(self, tmp_path):
        path = tmp_path / "h.json"
        save_matrix(str(path), np.diag([1.0, 2.0 + 1.0j]))
        with pytest.raises(UnpairedComplexEigenvalue):
            run_analyze(AnalysisConfig(source_path=str(path)))

    def test_exceptional_point(self, tmp_path):
        path = tmp_path / "jordan.json"
        save_matrix(str(path), hamiltonian(TwoLevelModel(2, 2)))
        with pytest.raises(NonDiagonalizable):
            run_analyze(AnalysisConfig(source_path=str(path)))

    def test_unreadable_file(self):
        with pytest.raises(ParseError):
            run_analyze(AnalysisConfig(source_path="/no/such.json"))

    @pytest.mark.parametrize("h,error", [
        (np.eye(3) + np.eye(3, k=1), NonDiagonalizable),
        (np.diag([1.0, 2.0, 3.0 + 1.0j]), UnpairedComplexEigenvalue),
    ], ids=["exceptional", "unpaired"])
    def test_frame_error_comes_first(self, tmp_path, h, error):
        # the frame is resolved before eig, so a bad frame is what an input
        # with both faults reports: exit code 2, not 3 or 4
        path, p_path = tmp_path / "h.json", tmp_path / "p.json"
        save_matrix(str(path), h)
        save_matrix(str(p_path), 2.0 * np.eye(3))  # not an involution
        with pytest.raises(error):
            run_analyze(AnalysisConfig(source_path=str(path)))
        with pytest.raises(ParseError, match="builtin 'sigma1' is 2x2, need dim 3") as exc:
            run_analyze(AnalysisConfig(source_path=str(path), p_spec="sigma1"))
        assert pipeline.exit_code_for(exc.value) == pipeline.EXIT_PARSE
        with pytest.raises(InvalidFrame, match="P\\^2 = I"):
            run_analyze(AnalysisConfig(source_path=str(path), p_spec=str(p_path)))


class TestFrameCache:
    """Built-in frames are built once per (names, dim, tol) and shared
    read-only; a frame given as a file is read on every call."""

    @pytest.mark.parametrize("cfg", [
        AnalysisConfig(model="two-level", alpha=5.0, beta=3.0),
        AnalysisConfig(model="two-level", alpha=3.0, beta=5.0),
        AnalysisConfig(model="fock-x", nmax=6),
    ], ids=["real", "pair", "fock"])
    def test_repeated_builtin_frame_same_report(self, cfg):
        first, second = run_analyze(cfg), run_analyze(cfg)
        assert first == second and emit_report(first) == emit_report(second)

    def test_cached_frame_is_shared_and_read_only(self):
        frame = pipeline._resolve_frame("alternating", "k", 4, 1e-8)
        assert pipeline._resolve_frame("alternating", "k", 4, 1e-8) is frame
        for array in (frame.p, frame.pt):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 7.0
        assert np.array_equal(frame.p, np.diag([1.0, -1.0, 1.0, -1.0]))
        assert np.array_equal(frame.pt, np.diag([1.0, -1.0, 1.0, -1.0]))

    def test_wrong_size_builtin_raises_every_call(self, tmp_path):
        path = tmp_path / "h3.json"
        save_matrix(str(path), np.diag([1.0, 2.0, 3.0]))
        cfg = AnalysisConfig(source_path=str(path), p_spec="sigma1")
        for _ in range(2):
            with pytest.raises(ParseError, match="builtin 'sigma1' is 2x2, need dim 3"):
                run_analyze(cfg)

    def test_parity_file_reread(self, tmp_path):
        h_path, p_path = str(tmp_path / "h.json"), str(tmp_path / "p.json")
        save_matrix(h_path, hamiltonian(TwoLevelModel(5, 3)))
        cfg = AnalysisConfig(source_path=h_path, p_spec=p_path, t_spec="k")
        save_matrix(p_path, np.eye(2))
        first = run_analyze(cfg)
        save_matrix(p_path, SIGMA1)
        second = run_analyze(cfg)
        skipped = "P does not intertwine H with its adjoint; the V norm remains available"
        assert first.pv.get("skipped") == skipped and "matrix" not in first.pv
        assert "skipped" not in second.pv and "matrix" in second.pv
        r = _matrix_from(second.eigen["right"])
        assert np.allclose(_matrix_from(second.gram["p"]), r.conj().T @ SIGMA1 @ r, atol=1e-12)


class TestDirectCallsAgree:
    """A kernel called on its own at the default ``tol`` decides as the
    pipeline does, since every ``tol`` is the analysis tolerance: here on a
    residual between the default ``tol`` and the check tier."""

    @staticmethod
    def _report(tmp_path, h):
        path = tmp_path / "h.json"
        save_matrix(str(path), h)
        return run_analyze(AnalysisConfig(source_path=str(path), p_spec="sigma1", t_spec="k"))

    def test_check_p_intertwines(self, tmp_path):
        h = np.array([[3e-9, 8.0], [2.0, 0.0]])  # P H P - H^dagger is 5.1e-10 ||H||
        report = self._report(tmp_path, h)
        assert "matrix" in report.pv  # PV is built: P intertwines H
        assert check_p_intertwines(h, SIGMA1)

    def test_antilinear_symmetry_check(self, tmp_path):
        h = np.array([[1j, 8.0], [8.0, 3e-9 - 1j]])  # PT H - H PT is 3.7e-10 ||H||
        report = self._report(tmp_path, h)
        assert report.pt["symmetry_check"] is True
        assert antilinear_symmetry_check(h, make_frame(SIGMA1, identity(2)).pt)


class TestFockModel:
    def test_hermitian_position_operator(self):
        report = run_analyze(AnalysisConfig(model="fock-x", nmax=8))
        assert report.spectrum["kind"] == "all_real"
        assert "does not intertwine" in report.pv["skipped"]
        assert np.allclose(_matrix_from(report.v), np.eye(8), atol=1e-9)

    def test_identity_parity_degenerate_diagnostic(self):
        # P = I intertwines the Hermitian position operator, and PV = I; C of
        # the signs of PV is the identity, which commutes with everything, so
        # the diagnostic reads PT itself: every state is a PT eigenstate
        report = run_analyze(
            AnalysisConfig(model="fock-x", nmax=6, p_spec="identity", t_spec="k")
        )
        assert report.diagnostic == "real_spectrum"
        assert np.allclose(_matrix_from(report.pv["matrix"]), np.eye(6), atol=1e-9)
        assert "matrix" not in report.c
        with_c = run_analyze(AnalysisConfig(model="fock-x", nmax=6, p_spec="identity",
                                            t_spec="k", c_signs=(1,) * 6))
        assert np.allclose(_matrix_from(with_c.c["matrix"]), np.eye(6), atol=1e-9)
        assert with_c.c["commutes_with_pt"] and with_c.pt == report.pt
        assert report.pt["symmetry_check"] and report.pt["degenerate_groups"] == []
        assert not {"skipped", "uncalibrated"} & (report.pv.keys() | with_c.pv.keys())

    @pytest.mark.parametrize("nmax,pairs", [(40, 14), (80, 29)])
    def test_ix3_diagnostic_follows_the_kind(self, tmp_path, nmax, pairs):
        # i x^3 truncated at nmax = 80 has cond 1.3e8; the [C, PT] bound
        # tol ||C||^2 could not tell its pairs from a real spectrum, PT can
        path = tmp_path / "ix3.json"
        save_matrix(str(path), ix3_hamiltonian(nmax))
        report = run_analyze(AnalysisConfig(source_path=str(path), p_spec="alternating",
                                            t_spec="k"))
        assert report.spectrum["kind"] == "conjugate_pairs"
        assert len(report.spectrum["pairs"]) == pairs
        assert report.diagnostic == "complex_pairs"


def _pa_block(a, d, c):
    """``P A`` for ``P = diag(1, -1)`` and the positive definite
    ``A = [[a, ic], [-ic, d]]``: a real spectrum under the alternating parity."""
    return np.array([[a, 1j * c], [1j * c, -d]])


@st.composite
def degenerate_direct_sums(draw):
    """Direct sums of 2 x 2 P·A blocks, each block repeated, so every eigenvalue
    is at least doubly degenerate; then conjugated by a real orthogonal Q that
    commutes with the alternating parity, which keeps H PT-symmetric and
    P-pseudo-Hermitian but mixes the copies inside each eigenspace."""
    params = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(0, 4)).filter(
        lambda t: t[0] * t[1] > t[2] ** 2)
    blocks = draw(st.lists(params, min_size=1, max_size=3))
    copies = draw(st.integers(2, 3))
    n = 2 * copies * len(blocks)
    h = np.zeros((n, n), dtype=complex)
    for k, block in enumerate(blocks * copies):
        h[2 * k:2 * k + 2, 2 * k:2 * k + 2] = _pa_block(*block)
    generator = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _mixed_within_parity(generator, h)


def _mixed_within_parity(generator, h):
    """``Q H Q^T`` for a random real orthogonal Q, one rotation on each
    eigenspace of the alternating parity (``len(h)`` even), so Q commutes with it."""
    n = len(h)
    q = np.zeros((n, n))
    for start in (0, 1):
        rotation, _ = np.linalg.qr(generator.standard_normal((n // 2, n // 2)))
        q[start::2, start::2] = rotation
    return q @ h @ q.T


class TestDegenerateSpectrum:
    """Inside a degenerate eigenspace metric orthogonality is a choice: the
    group is recombined into a P-orthonormal PT eigenbasis, so the PT norm
    equals the V norm there too."""

    @settings(max_examples=40, deadline=None)
    @given(degenerate_direct_sums())
    def test_every_flag_passes(self, tmp_path_factory, h):
        path = tmp_path_factory.getbasetemp() / "direct_sum.json"
        save_matrix(str(path), h)
        report = run_analyze(AnalysisConfig(source_path=str(path), p_spec="alternating",
                                            t_spec="k"))
        assert report.pt["degenerate_groups"]
        assert "pt_gram_equals_v_gram" in report.flags
        assert all(flag["passed"] for flag in report.flags.values()), report.flags


class TestOneCondition:
    """``spectrum.condition`` is the cond(R) that ``eigendecompose`` tested
    against ``1 / provenance.tol``, whatever the frame: calibration
    rescales and recombines the basis without measuring it again."""

    @pytest.mark.parametrize("source", ["two-level", "pa"])
    def test_one_condition_per_hamiltonian(self, tmp_path, source):
        if source == "two-level":
            h, cfg = hamiltonian(TwoLevelModel(5, 3)), dict(model="two-level", alpha=5.0, beta=3.0)
        else:  # P intertwines P A under alternating/k, so parity calibration rescales
            h, path = pa_matrix(np.random.default_rng(711), 12, True), tmp_path / "pa.json"
            save_matrix(str(path), h)
            cfg = dict(source_path=str(path))
        frames = {"none": dict(p_spec="none"), "default": {},
                  "alternating/k": dict(p_spec="alternating", t_spec="k"),
                  "identity/k": dict(p_spec="identity", t_spec="k")}
        got = {name: run_analyze(AnalysisConfig(**cfg, **frame)).spectrum["condition"]
               for name, frame in frames.items()}
        assert got == dict.fromkeys(frames, eigendecompose(h).condition)


def _assert_phase_contract(report):
    """``eigen.right[:, n] pt.phase_fix[n]`` is the PT eigenstate of eigenvalue
    ``pt.eta[n]``, and ``gram.pt`` is the parity Gram of those states, row
    ``n`` over ``eta[n]``; both within the check tier."""
    tol = check_tier(report.provenance["tol"])
    right = _matrix_from(report.eigen["right"])
    frame = pipeline._resolve_frame(report.provenance["p"], report.provenance["t"], len(right),
                                    report.provenance["tol"])
    fix, eta = (np.array([complex(*z) for z in report.pt[key]]) for key in ("phase_fix", "eta"))
    states = right * fix
    residual = np.linalg.norm(frame.pt @ np.conj(states) - eta * states, axis=0)
    assert (residual <= residual_bound(tol, np.linalg.norm(states, axis=0))).all(), residual
    gram_p = _matrix_from(report.gram["p"])
    rephased = np.conj(fix)[:, np.newaxis] * gram_p * fix / eta[:, np.newaxis]
    assert mat_norm(_matrix_from(report.gram["pt"]) - rephased) <= residual_bound(
        tol, mat_norm(gram_p))


class TestPhaseContract:
    """One basis: the report's eigenvectors with their phases still to apply,
    on every framed real spectrum, degenerate or not."""

    @pytest.mark.parametrize("cfg", [
        dict(model="two-level", alpha=5.0, beta=3.0),
        dict(model="two-level", alpha=2.7, beta=1.1),
        dict(n=4, seed=0), dict(n=9, seed=1), dict(n=16, seed=2),
    ])
    def test_real_spectra(self, tmp_path, cfg):
        if "n" in cfg:
            path = tmp_path / "pa.json"
            save_matrix(str(path), pa_matrix(np.random.default_rng(cfg["seed"]), cfg["n"], True))
            cfg = dict(source_path=str(path), p_spec="alternating", t_spec="k")
        _assert_phase_contract(run_analyze(AnalysisConfig(**cfg)))

    @settings(max_examples=40, deadline=None)
    @given(degenerate_direct_sums())
    def test_degenerate_direct_sums(self, tmp_path_factory, h):
        path = tmp_path_factory.getbasetemp() / "contract.json"
        save_matrix(str(path), h)
        _assert_phase_contract(run_analyze(AnalysisConfig(source_path=str(path),
                                                          p_spec="alternating", t_spec="k")))


class TestParityFlagGating:
    """``p_gram_real`` and ``pt_gram_equals_v_gram`` test identities that hold
    only where P intertwines H: they appear only then, and then pass; and
    they do appear then, the first on a real spectrum, the second wherever
    the PT phases were fixed."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 12), st.booleans(), st.booleans(),
           st.sampled_from(["alternating", "identity"]), st.integers(0, 2**32 - 1))
    def test_present_only_where_p_intertwines(self, tmp_path_factory, n, definite, doubled,
                                              p_spec, seed):
        generator = np.random.default_rng(seed)
        h = pa_matrix(generator, n, definite)
        if doubled:
            # diag(H, H) is P A under the alternating parity of 2n too, with A
            # -> diag(A, -A) for odd n; every eigenvalue is then degenerate
            h = _mixed_within_parity(generator, np.kron(np.eye(2), h))
        p = pipeline._P_BUILTINS[p_spec](len(h))
        intertwines = np.linalg.norm(p @ h @ p - h.conj().T) <= 1e-8 * np.linalg.norm(h)
        path = tmp_path_factory.getbasetemp() / "gating.json"
        save_matrix(str(path), h)
        try:
            report = run_analyze(AnalysisConfig(source_path=str(path), p_spec=p_spec, t_spec="k"))
        except (NonDiagonalizable, UnpairedComplexEigenvalue):
            assume(False)
        present = {name: flag for name, flag in report.flags.items()
                   if name in ("p_gram_real", "pt_gram_equals_v_gram")}
        assert intertwines or not present, present
        assert all(flag["passed"] for flag in present.values()), present
        if intertwines and report.spectrum["kind"] == "all_real":
            assert "p_gram_real" in present, report.flags
        if intertwines and "skipped" not in report.pt:
            assert "pt_gram_equals_v_gram" in present, report.flags


_NO_PARITY = "no parity supplied"
_NOT_INTERTWINED = "P does not intertwine H with its adjoint"
_NO_FRAME = "no parity/time-reversal frame supplied"
_PAIRS_PV = "complex-pair spectrum: PV plays no role"
_PAIRS_PT = ("complex-pair spectrum: PT maps each state onto its partner, "
             "so per-state PT phases do not exist")
_NO_C = "C is built only from given signs (c_signs); the diagnostic reads PT itself"
_NO_FRAME_DIAGNOSTIC = {"skipped": _NO_FRAME}


def _noted(report) -> dict:
    """The fields that state what schema 4 also wrote as notes, by
    ``section.key``, each where the report holds it."""
    return {f"{section}.{key}": getattr(report, section)[key]
            for section, key in (("pt", "symmetry_check"), ("pt", "degenerate_groups"),
                                 ("pv", "uncalibrated"))
            if key in getattr(report, section)}


class TestSkipReasons:
    """Every skip reason ``run_analyze`` can give, one case per branch.

    ``notes`` holds what schema 4 also wrote as free-text notes, read from
    the section field that states it; a field the report does not hold is
    left out."""

    @pytest.mark.parametrize(
        "cfg,notes,pt,pv,c,diagnostic",
        [
            (
                dict(model="two-level", alpha=3.0, beta=1.0, p_spec="none"),
                {},
                _NO_FRAME,
                f"{_NO_PARITY}; the V norm remains available",
                _NO_C,
                _NO_FRAME_DIAGNOSTIC,
            ),
            (
                dict(model="two-level", alpha=1.0, beta=3.0, p_spec="none", c_signs=(1,)),
                {},
                _NO_FRAME,
                f"{_NO_PARITY}; the V norm remains available",
                None,
                _NO_FRAME_DIAGNOSTIC,
            ),
            (
                dict(model="two-level", alpha=1.0, beta=3.0),
                {"pt.symmetry_check": True},
                _PAIRS_PT,
                _PAIRS_PV,
                _NO_C,
                "complex_pairs",
            ),
            (
                dict(model="fock-x", nmax=40),
                {"pt.symmetry_check": False},
                "PT phases unavailable: state 0 is not a PT eigenstate (residual 1.000e+00)",
                f"{_NOT_INTERTWINED}; the V norm remains available",
                _NO_C,
                {"skipped": "H is not PT symmetric under the supplied frame"},
            ),
            (
                dict(source_path="identity", p_spec="sigma1", c_signs=(1, 1)),
                {"pt.symmetry_check": True, "pv.uncalibrated": [0, 1],
                 "pt.degenerate_groups": [[0, 1]]},
                None,
                None,
                None,
                "real_spectrum",
            ),
            (
                dict(model="two-level", alpha=3.0, beta=1.0, p_spec="none", c_signs=()),
                {},
                _NO_FRAME,
                f"{_NO_PARITY}; the V norm remains available",
                _NO_C,
                _NO_FRAME_DIAGNOSTIC,
            ),
            (
                # the parity reason comes before the spectrum's
                dict(model="two-level", alpha=1.0, beta=3.0, p_spec="identity", t_spec="k"),
                {"pt.symmetry_check": True},
                _PAIRS_PT,
                f"{_NOT_INTERTWINED}; the V norm remains available",
                _NO_C,
                "complex_pairs",
            ),
        ],
        ids=["no-frame", "no-frame-pairs-c-signs", "pairs", "not-pt-symmetric",
             "degenerate-uncalibrated", "no-frame-empty-c-signs", "pairs-p-not-intertwining"],
    )
    def test_notes_and_skipped_sections(self, tmp_path, cfg, notes, pt, pv, c, diagnostic):
        if cfg.get("source_path") == "identity":
            path = tmp_path / "identity.json"
            save_matrix(str(path), np.eye(2))
            cfg = dict(cfg, source_path=str(path))
        report = run_analyze(AnalysisConfig(**cfg))
        assert _noted(report) == notes
        assert report.pt.get("skipped") == pt
        assert report.pv.get("skipped") == pv
        assert report.c.get("skipped") == c
        assert report.diagnostic == diagnostic


class TestRoundTrip:
    @pytest.mark.parametrize(
        "cfg",
        [
            AnalysisConfig(model="two-level", alpha=5.0, beta=3.0, p_spec="sigma1"),
            AnalysisConfig(model="two-level", alpha=3.0, beta=5.0),
            AnalysisConfig(model="fock-x", nmax=6),
        ],
    )
    def test_parse_emit_identity(self, cfg):
        report = run_analyze(cfg)
        assert parse_report(emit_report(report)) == report

    @pytest.mark.parametrize("definite", [True, False], ids=["real", "pairs"])
    def test_parse_emit_identity_pa_matrix(self, tmp_path, definite):
        path = tmp_path / "h.json"
        save_matrix(str(path), pa_matrix(np.random.default_rng(12), 12, definite))
        report = run_analyze(AnalysisConfig(source_path=str(path), p_spec="alternating",
                                            t_spec="k"))
        assert isinstance(report.eigen["right"]["re"], np.ndarray)  # arrays until emitted
        text = emit_report(report)
        assert parse_report(text) == report
        assert emit_report(parse_report(text)) == text

    def test_emitted_json_is_plain(self):
        report = run_analyze(AnalysisConfig(model="two-level", alpha=2.0, beta=1.0))
        payload = json.loads(emit_report(report))
        assert isinstance(payload, dict)
        assert set(payload) == {"provenance", "spectrum", "eigen", "V", "gram", "pt",
                                "pv", "c", "diagnostic", "flags"}
        assert payload["provenance"]["schema"] == 7
        assert set(payload["V"]) == {"dim", "re", "im", "positive"}
        assert set(payload["eigen"]) == {"values", "right", "left"}
        assert "gram" not in payload["pt"]


class TestBatch:
    @pytest.fixture()
    def files(self, tmp_path):
        good1 = tmp_path / "a.json"
        save_matrix(str(good1), hamiltonian(TwoLevelModel(5, 3)))
        good2 = tmp_path / "b.csv"
        save_matrix(str(good2), hamiltonian(TwoLevelModel(3, 5)))
        good3 = tmp_path / "c.json"
        save_matrix(str(good3), np.diag([1.0, 2.0]))
        bad = tmp_path / "bad.json"
        save_matrix(str(bad), np.diag([1.0, 2.0 + 1.0j]))
        return [str(good1), str(good2), str(good3)], str(bad)

    def test_order_preserved(self, files):
        good, _ = files
        entries = run_batch(good, parallelism=3)
        assert [e["path"] for e in entries] == good
        assert all("report" in e for e in entries)

    def test_mixed_errors_collected(self, files):
        good, bad = files
        paths = [good[0], bad, good[1]]
        entries = run_batch(paths, parallelism=2)
        assert [e["path"] for e in entries] == paths
        assert "report" in entries[0] and "report" in entries[2]
        assert entries[1]["error"]["exit_code"] == 3
        assert "note" in entries[1]["error"]

    @pytest.mark.parametrize(
        "name,content",
        [
            ("latin1.csv", b"\xff\xfe1,2\n3,4\n"),
            ("dim.json", b'{"dim": "x", "re": [[1, 0], [0, 2]]}'),
            ("bools.json", b'{"re": [[true, false], [false, true]]}'),
        ],
    )
    def test_unreadable_file_between_good_ones(self, files, tmp_path, name, content):
        good, _ = files
        bad = tmp_path / name
        bad.write_bytes(content)
        paths = [good[0], str(bad), good[1]]
        entries = run_batch(paths, parallelism=2)
        assert [e["path"] for e in entries] == paths
        assert "report" in entries[0] and "report" in entries[2]
        assert entries[1]["error"]["type"] == "ParseError"
        assert entries[1]["error"]["exit_code"] == 2

    def test_empty_batch(self):
        assert run_batch([], parallelism=4) == []

    def test_parallel_matches_serial(self, files):
        good, _ = files
        serial = run_batch(good, parallelism=1)
        parallel = run_batch(good, parallelism=4)
        assert serial == parallel

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_statuses_only_match_full_entries(self, files, parallelism):
        good, bad = files
        paths = [good[0], bad, good[1], good[2]]
        full = run_batch(paths, parallelism=parallelism)
        statuses = run_batch(paths, parallelism=parallelism, reports=False)
        assert statuses == [{k: v for k, v in e.items() if k != "report"} for e in full]
        assert "error" in statuses[1]
        assert not any("report" in e for e in statuses)

    def test_any_exception_is_an_entry(self, files, monkeypatch):
        def fail(cfg):
            raise RuntimeError("not a PTHamilError")

        monkeypatch.setattr(pipeline, "run_analyze", fail)
        good, _ = files
        assert run_batch(good[:1], parallelism=1) == [{"path": good[0], "error": {
            "type": "RuntimeError", "message": "not a PTHamilError", "exit_code": 1}}]

    def test_statuses_convert_no_report(self, files, monkeypatch):
        def refuse(report):
            raise AssertionError("to_dict called")

        monkeypatch.setattr(AnalysisReport, "to_dict", refuse)
        good, _ = files
        assert run_batch(good, parallelism=1, reports=False) == [{"path": p} for p in good]

    def test_environment_unchanged(self, files, monkeypatch):
        good, _ = files
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        before = dict(os.environ)
        run_batch(good, parallelism=2)
        assert dict(os.environ) == before

    @pytest.fixture
    def pools(self, monkeypatch):
        """Replace the process pool by one that maps in this process; each
        pool records its start method and the BLAS variables its workers
        would start with, and every BLAS variable is unset."""
        import concurrent.futures.process

        seen = []

        class RecordingPool:
            def __init__(self, workers, mp_context):
                self.method = mp_context.get_start_method()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                seen.append((self.method, [os.environ.get(name) for name in BLAS_VARS]))
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", RecordingPool)
        for name in BLAS_VARS:
            monkeypatch.delenv(name, raising=False)
        return seen

    @pytest.mark.parametrize("user_env", [{}, {"OMP_NUM_THREADS": "3"}])
    def test_blas_caps_only_when_caller_set_none(self, files, monkeypatch, pools, user_env):
        # the environment the workers start in: every cap, or none if the
        # caller set any BLAS variable (OpenBLAS reads its own before OMP's)
        monkeypatch.setattr(pipeline, "_one_thread", lambda: False)  # the spawn path
        for name, value in user_env.items():
            monkeypatch.setenv(name, value)
        before = dict(os.environ)
        good, _ = files
        entries = run_batch(good, parallelism=2)
        expected = user_env or dict.fromkeys(BLAS_VARS, "1")
        assert pools == [("spawn", [expected.get(name) for name in BLAS_VARS])]
        assert all("report" in e for e in entries)
        assert dict(os.environ) == before

    @pytest.mark.parametrize("one_thread, user_env, method", [
        (True, {"OPENBLAS_NUM_THREADS": "1"}, "fork"),
        # an OpenMP BLAS starts no thread before its first parallel call, so
        # one thread with no variable set may still load all-core BLAS
        (True, {}, "spawn"),
        (False, {"OPENBLAS_NUM_THREADS": "1"}, "spawn"),
    ])
    def test_fork_only_from_one_thread_with_blas_set(self, files, monkeypatch, pools,
                                                      one_thread, user_env, method):
        monkeypatch.setattr(pipeline, "_one_thread", lambda: one_thread)
        for name, value in user_env.items():
            monkeypatch.setenv(name, value)
        good, _ = files
        assert all("report" in e for e in run_batch(good, parallelism=2))
        expected = user_env or dict.fromkeys(BLAS_VARS, "1")
        assert pools == [(method, [expected.get(name) for name in BLAS_VARS])]


#: a JSON table cell: numbers (NaN, infinities and an integer beyond the float
#: range among them), bools, strings and null
_JSON_CELLS = st.one_of(st.integers(-3, 3), st.floats(), st.just(10**400), st.booleans(),
                        st.text(max_size=2), st.none())
_JSON_TABLES = st.lists(st.lists(_JSON_CELLS, max_size=3), max_size=3)
_BAD_JSON = st.fixed_dictionaries(
    {"re": _JSON_TABLES},
    optional={"im": _JSON_TABLES, "dim": st.one_of(st.integers(-1, 4), st.floats(), st.text(max_size=2),
                                                   st.booleans(), st.none())},
).map(lambda d: json.dumps(d).encode())
_CSV_CELLS = st.sampled_from(["1", "-2i", "1+i", "0.5", "", "x", "nan", "inf", "1e400", "true"])
_BAD_CSV = st.lists(st.lists(_CSV_CELLS, min_size=1, max_size=3), max_size=3).map(
    lambda rows: "\n".join(",".join(r) for r in rows).encode())
_BAD_FILES = st.lists(st.one_of(
    st.tuples(st.just(".json"), _BAD_JSON),
    st.tuples(st.just(".csv"), _BAD_CSV),
    st.tuples(st.sampled_from([".json", ".csv", ".txt"]), st.binary(max_size=16)),
), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(_BAD_FILES)
def test_batch_never_raises_on_a_bad_file(files):
    """``run_batch`` turns every malformed file into its own entry: ragged
    ``re``/``im`` rows, bool and string cells, NaN and infinities, a wrong or
    non-integer ``dim``, empty files, random bytes and ragged CSV."""
    with tempfile.TemporaryDirectory() as root:
        paths = []
        for k, (ext, content) in enumerate(files):
            paths.append(os.path.join(root, f"f{k}{ext}"))
            with open(paths[-1], "wb") as fh:
                fh.write(content)
        entries = run_batch(paths, reports=False)
    assert [e["path"] for e in entries] == paths


@pytest.mark.parametrize("parallelism", [1, 2])
def test_batch_with_a_bad_frame_gives_one_error_per_file(tmp_path, parallelism):
    # P = diag(1, 2) is no involution: every file's frame is invalid, and each
    # file gets its own InvalidFrame entry rather than aborting the batch
    p_path = str(tmp_path / "p.json")
    save_matrix(p_path, np.diag([1.0, 2.0]))
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.csv")]
    save_matrix(paths[0], hamiltonian(TwoLevelModel(5, 3)))
    save_matrix(paths[1], hamiltonian(TwoLevelModel(3, 5)))
    base = AnalysisConfig(source_path="-", p_spec=p_path, t_spec="k")
    entries = run_batch(paths, parallelism=parallelism, base_cfg=base)
    assert [e["path"] for e in entries] == paths
    assert [(e["error"]["type"], e["error"]["exit_code"]) for e in entries] == [
        ("InvalidFrame", 2)] * 2


def _split_floats(obj):
    """The structure of ``obj`` with every float replaced by None, and the
    floats in order."""
    if isinstance(obj, float):
        return None, [obj]
    if isinstance(obj, dict):
        parts = {k: _split_floats(v) for k, v in obj.items()}
        return {k: p[0] for k, p in parts.items()}, [x for p in parts.values() for x in p[1]]
    if isinstance(obj, list):
        parts = [_split_floats(v) for v in obj]
        return [p[0] for p in parts], [x for p in parts for x in p[1]]
    return obj, []


class TestBatchWorkers:
    """Spawned workers run single-threaded BLAS, so their floats may round
    differently from an in-process run; nothing else may differ. Floats agree
    to 1e-8 relative; residuals and analytically-zero entries are rounding
    noise, so values below 1e-10 (the entries here are of order one) only
    need to stay below it."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        rng = np.random.default_rng(11)
        root = tmp_path_factory.mktemp("workers")
        real, pairs = str(root / "real.json"), str(root / "pairs.csv")
        save_matrix(real, pa_matrix(rng, 40, definite=True))
        save_matrix(pairs, pa_matrix(rng, 24, definite=False))
        return [real, pairs]

    @pytest.mark.parametrize("frame", [False, True])
    def test_parallel_matches_in_process(self, files, frame):
        base = AnalysisConfig(source_path="-", p_spec="alternating", t_spec="k") if frame else None
        serial = run_batch(files, parallelism=1, base_cfg=base)
        parallel = run_batch(files, parallelism=2, base_cfg=base)
        assert [e["report"].spectrum["kind"] for e in serial] == ["all_real", "conjugate_pairs"]
        for one, other in zip(serial, parallel):
            shape, floats = _split_floats(dict(one, report=one["report"].to_dict()))
            other_shape, other_floats = _split_floats(dict(other, report=other["report"].to_dict()))
            assert shape == other_shape
            assert np.allclose(other_floats, floats, rtol=1e-8, atol=1e-10)


    def test_forked_workers_match_spawned_ones(self, files, tmp_path):
        # in a process with capped BLAS, so it runs one thread and forks; both
        # kinds of worker then run single-threaded BLAS, so entries are equal
        bad, big = str(tmp_path / "unpaired.json"), str(tmp_path / "big.csv")
        save_matrix(bad, np.diag([1.0, 2.0 + 1.0j]))
        with open(big, "w") as fh:
            fh.write("0,8e300\n2e300,1e-20i\n")  # metric_intertwines FAILs
        # reports compared as their JSON text, where a NaN residual equals itself
        code = ("import sys; from pthamil import pipeline; files = sys.argv[1:]\n"
                "def run(): return [[dict(e, report=pipeline.emit_report(e['report'])) "
                "if 'report' in e else e for e in pipeline.run_batch(files, 2, reports=r)] "
                "for r in (True, False)]\n"
                "assert pipeline._one_thread(); forked = run()\n"
                "pipeline._one_thread = lambda: False; spawned = run()\n"
                "print(forked == spawned, [sorted(e) for e in forked[1]])")
        env = {k: v for k, v in env_with_src().items() if k not in BLAS_VARS}
        env.update(dict.fromkeys(BLAS_VARS, "1"))
        proc = subprocess.run([sys.executable, "-c", code, *files, bad, big], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("True [['path'], ['path'], ['error', 'path'], "
                               "['failed_flags', 'path']]\n")


def _odd_pivot_pa():
    """A 3 x 3 P·A whose positive-energy eigenvector (0.5, 0.6, 0.5) has its
    largest component on an odd row, so its raw PT phase is -1 against a
    parity overlap of +1, and its phase fix is a quarter turn. The columns of
    S are P-orthogonal, ``S^T P S = diag(sigma)``, so ``A = (P S) diag(E /
    sigma) (P S)^T`` gives ``P A S = S diag(E)``, and A is positive definite
    as each E has the sign of its sigma."""
    parity = np.array([1.0, -1.0, 1.0])
    s = np.array([[0.5, 1.0, 0.6], [0.6, 0.0, 1.0], [0.5, -1.0, 0.6]])
    sigma = np.einsum("ij,i,ij->j", s, parity, s)
    ps = parity[:, np.newaxis] * s
    a = ps @ np.diag(np.array([1.0, 2.0, -1.0]) / sigma) @ ps.T
    turns = np.arange(3) % 2
    return quarter_turn(parity[:, np.newaxis] * a, turns[:, np.newaxis] - turns)  # W H' W^dagger


def _assert_zero_parts(m, imaginary):
    """Entries of ``m`` where ``imaginary`` holds have an exactly zero real
    part; every other entry has an exactly zero imaginary part."""
    re_, im = np.asarray(m["re"]), np.asarray(m["im"])
    assert not re_[imaginary].any() and not im[~imaginary].any()


class TestRealBasis:
    """``eig`` of an H that is exactly real after a diagonal quarter-turn
    similarity runs in that basis, read from H itself with or without a
    frame; the structural zeros this gives are exact in the report, which is
    in H's own basis."""

    def test_pa_matrix_is_exactly_pt_symmetric(self):
        # n = 120 reaches the indices where 1j ** k is no longer exact
        h = pa_matrix(np.random.default_rng(5), 120, definite=True)
        frame = pipeline._resolve_frame("alternating", "k", 120, 1e-8)
        u, turns = frame.pt, _real_turns(h)
        assert np.array_equal(u @ np.conj(h), h @ u)
        # the turns read from H are those of the frame: W W^T = u
        assert np.array_equal(turns, np.arange(120) % 2)
        assert np.array_equal(np.diag(quarter_turn(1.0, 2 * turns)), u)
        assert not quarter_turn(h, turns - turns[:, np.newaxis]).imag.any()

    @pytest.mark.parametrize("definite", [True, False], ids=["real", "pairs"])
    def test_frame_spelling_does_not_change_the_analysis(self, tmp_path, definite):
        """The alternating parity given as a file is the built-in one."""
        h = pa_matrix(np.random.default_rng(21), 14, definite)
        h_path, p_path = str(tmp_path / "h.json"), str(tmp_path / "p.csv")
        save_matrix(h_path, h)
        save_matrix(p_path, pipeline._P_BUILTINS["alternating"](14))
        named = run_analyze(AnalysisConfig(source_path=h_path, p_spec="alternating", t_spec="k"))
        given = run_analyze(AnalysisConfig(source_path=h_path, p_spec=p_path, t_spec="k"))
        assert named.spectrum["kind"] == ("all_real" if definite else "conjugate_pairs")
        named, given = named.to_dict(), given.to_dict()
        assert (named["provenance"].pop("p"), given["provenance"].pop("p")) == ("alternating", p_path)
        assert named == given

    @pytest.mark.parametrize("dim", [4, 101, 200])
    def test_alternating_parity_is_exact(self, dim):
        p = pipeline._P_BUILTINS["alternating"](dim)
        assert np.array_equal(p.real, np.diag(np.where(np.arange(dim) % 2, -1.0, 1.0)))
        assert not p.imag.any()
        assert np.array_equal(p, p.conj().T)

    @pytest.mark.parametrize("h,quarter_turned", [
        (pa_matrix(np.random.default_rng(12), 12, definite=True), False),
        (pa_matrix(np.random.default_rng(13), 13, definite=True), False),
        (_odd_pivot_pa(), True),
    ], ids=["n12", "n13", "odd-pivot"])
    def test_structural_zeros_are_exact(self, tmp_path, h, quarter_turned):
        n = len(h)
        path = tmp_path / "h.json"
        save_matrix(str(path), h)
        report = run_analyze(AnalysisConfig(source_path=str(path), p_spec="alternating",
                                            t_spec="k"))
        assert all(flag["passed"] for flag in report.flags.values())
        parity = np.arange(n) % 2 == 1
        r = _matrix_from(report.eigen["right"])
        rows = np.argmax(np.abs(r), axis=0)
        pivots = r[rows, np.arange(n)]
        assert np.all(pivots.imag == 0.0) and np.all(pivots.real > 0.0)
        # each eigenvector is real in the basis diag(1j ** parity) up to its
        # phase, which makes the component at its pivot real
        right = parity[:, np.newaxis] != parity[rows][np.newaxis, :]
        _assert_zero_parts(report.eigen["right"], right)
        _assert_zero_parts(report.eigen["left"], right.T)
        signs = tuple(1 if a[0] > 0.0 else -1 for a in report.pv["alphas"])
        c = run_analyze(AnalysisConfig(source_path=str(path), p_spec="alternating", t_spec="k",
                                       c_signs=signs)).c["matrix"]
        for m in (report.v, report.pv["matrix"], c):
            _assert_zero_parts(m, parity[:, np.newaxis] != parity[np.newaxis, :])
        gram = parity[rows][:, np.newaxis] != parity[rows][np.newaxis, :]
        # gram.pt is over the phase-fixed states: real or imaginary by their PT phase
        odd = np.array([z[0] for z in report.pt["eta"]]) < 0.0
        for name, m in report.gram.items():
            _assert_zero_parts(m, odd[:, np.newaxis] != odd if name == "pt" else gram)
        fixes = {complex(*z) for z in report.pt["phase_fix"]}
        assert fixes <= {1, -1, 1j, -1j} and bool(fixes & {1j, -1j}) == quarter_turned
        assert not re.search(r"-0\.0[,\n]", emit_report(report))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 12), st.booleans(), st.integers(0, 2**32 - 1))
    def test_same_answers_as_the_complex_path(self, tmp_path_factory, n, definite, seed):
        """H under alternating/k (real path) against ``Q H Q^T`` under the
        file-given parity ``Q P Q^T`` with T = K (so ``u_PT = Q P Q^T``, the
        complex path), for a random real orthogonal Q."""
        generator = np.random.default_rng(seed)
        h = pa_matrix(generator, n, definite)
        values = np.linalg.eigvals(h)
        radius = np.abs(values).max()
        gaps = np.abs(values[:, np.newaxis] - values[np.newaxis, :]) + np.eye(n) * radius
        imag = np.abs(values.imag)
        assume(gaps.min() > 1e-3 * radius and np.all((imag < 1e-12 * radius) | (imag > 1e-3 * radius)))
        q, _ = np.linalg.qr(generator.standard_normal((n, n)))
        parity = np.diag(np.where(np.arange(n) % 2, -1.0, 1.0))
        root = tmp_path_factory.getbasetemp()
        paths = [str(root / name) for name in ("h.json", "qhq.json", "qpq.json")]
        for path, m in zip(paths, (h, q @ h @ q.T, q @ parity @ q.T)):
            save_matrix(path, m)
        real = run_analyze(AnalysisConfig(source_path=paths[0], p_spec="alternating", t_spec="k"))
        other = run_analyze(AnalysisConfig(source_path=paths[1], p_spec=paths[2], t_spec="k"))
        # the real path ran: a real eig gives exact conjugate pairs, and real
        # eigenvectors with exact zero parts
        values = [complex(*z) for z in real.eigen["values"]]
        assert all(values[i] == values[j].conjugate() for i, j in real.spectrum["pairs"])
        right = _matrix_from(real.eigen["right"])[:, real.spectrum["real_indices"]]
        assert np.all((right.real == 0.0) | (right.imag == 0.0))
        assert real.spectrum["kind"] == other.spectrum["kind"]
        assert np.allclose(real.eigen["values"], other.eigen["values"], rtol=0, atol=1e-9 * radius)
        assert ({k: f["passed"] for k, f in real.flags.items()}
                == {k: f["passed"] for k, f in other.flags.items()})
        assert real.diagnostic == other.diagnostic and _noted(real) == _noted(other)
        assert real.pv.get("skipped") == other.pv.get("skipped")
        assert real.pt.get("eta") == other.pt.get("eta")
        for name, m in real.gram.items():
            if m is None:
                assert other.gram[name] is None
                continue
            mod, other_mod = np.abs(_matrix_from(m)), np.abs(_matrix_from(other.gram[name]))
            assert np.linalg.norm(mod - other_mod) <= 1e-8 * np.linalg.norm(mod), name

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 12), st.sampled_from(["dense", "sparse", "blocks"]),
           st.integers(0, 2**32 - 1))
    def test_turns_are_read_from_h(self, tmp_path_factory, n, shape, seed):
        """``H = W A W^dagger`` with A real (dense, with a random zero pattern,
        or block diagonal) and ``W = diag(1j ** t)`` for random turns t: the
        turns read from H make it exactly real, ``eig`` takes the real path
        with no frame given, and the answers are those of the complex path on
        ``U H U^dagger`` for a random unitary U, within the bounds above."""
        generator = np.random.default_rng(seed)
        a = generator.standard_normal((n, n))
        if shape == "sparse":
            a *= generator.random((n, n)) < generator.uniform(0.2, 1.0)
        elif shape == "blocks":
            block = np.cumsum(generator.random(n) < 0.3)
            a *= block[:, np.newaxis] == block
        t = generator.integers(0, 4, n)
        h = quarter_turn(a, t[:, np.newaxis] - t)
        q = _real_turns(h)
        assert q is not None and not quarter_turn(h, q - q[:, np.newaxis]).imag.any()
        values, vectors = np.linalg.eig(a)
        radius = np.abs(values).max()
        gaps = np.abs(values[:, np.newaxis] - values[np.newaxis, :]) + np.eye(n) * radius
        imag = np.abs(values.imag)
        assume(radius > 0.0 and gaps.min() > 1e-3 * radius and np.linalg.cond(vectors) < 1e3
               and np.all((imag < 1e-12 * radius) | (imag > 1e-3 * radius)))
        u = random_unitary(generator, n)
        root = tmp_path_factory.getbasetemp()
        paths = [str(root / name) for name in ("h.json", "uhu.json")]
        for path, m in zip(paths, (h, u @ h @ u.conj().T)):
            save_matrix(path, m)
        assert _real_turns(u @ h @ u.conj().T) is None
        real = run_analyze(AnalysisConfig(source_path=paths[0]))
        other = run_analyze(AnalysisConfig(source_path=paths[1]))
        values = [complex(*z) for z in real.eigen["values"]]
        assert all(values[i] == values[j].conjugate() for i, j in real.spectrum["pairs"])
        right = _matrix_from(real.eigen["right"])[:, real.spectrum["real_indices"]]
        assert np.all((right.real == 0.0) | (right.imag == 0.0))
        assert real.spectrum["kind"] == other.spectrum["kind"]
        assert np.allclose(real.eigen["values"], other.eigen["values"], rtol=0, atol=1e-9 * radius)
        assert ({k: f["passed"] for k, f in real.flags.items()}
                == {k: f["passed"] for k, f in other.flags.items()})
        assert real.diagnostic == other.diagnostic and _noted(real) == _noted(other)
        assert real.pv.get("skipped") == other.pv.get("skipped")
        assert real.pt.get("eta") == other.pt.get("eta")
        for name, m in real.gram.items():
            if m is None:
                assert other.gram[name] is None
                continue
            mod, other_mod = np.abs(_matrix_from(m)), np.abs(_matrix_from(other.gram[name]))
            assert np.linalg.norm(mod - other_mod) <= 1e-8 * np.linalg.norm(mod), name
