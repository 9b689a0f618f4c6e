"""The workload generators build what they claim, and the oracles catch errors.

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import workloads
from conftest import ROOT
from pthamil.antilinear import make_frame
from pthamil.cpt import check_p_intertwines
from pthamil.pipeline import AnalysisConfig, emit_report, exit_code_for, run_analyze
from pthamil.spectra import antilinear_symmetry_check


def analyze_file(path, frame=True):
    cfg = AnalysisConfig(source_path=path, p_spec="alternating" if frame else None,
                         t_spec="k" if frame else None, output="json")
    return json.loads(emit_report(run_analyze(cfg)))


def cli(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, "-m", "pthamil", *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("n", [4, 9, 16, 40])
def test_definite_pa_is_real_with_p_intertwining_and_pt_symmetry(tmp_path, n):
    rng = np.random.default_rng(n)
    h, values = workloads.pa_matrix(rng, n, definite=True)
    p = np.diag(workloads.alternating_parity(n))
    assert np.allclose(p @ h @ p, h.conj().T)
    assert np.allclose(p @ np.conj(h) @ p, h)
    assert np.max(np.abs(values.imag)) < 1e-12 * np.max(np.abs(values))
    assert check_p_intertwines(h, p)
    assert antilinear_symmetry_check(h, make_frame(p, np.eye(n)).pt)

    path = str(tmp_path / "h.json")
    workloads.write_json(path, h)
    report = analyze_file(path)
    assert workloads.check_report(report, workloads.Expected(kind="all_real", values=values)) == []


@pytest.mark.parametrize("n", [8, 40])
def test_indefinite_pa_gives_conjugate_pairs(tmp_path, n):
    h, values = workloads.pa_matrix(np.random.default_rng(n), n, definite=False)
    assert np.any(np.abs(values.imag) > 1e-6 * np.max(np.abs(values)))
    path = str(tmp_path / "h.csv")
    workloads.write_csv(path, h)
    report = analyze_file(path)
    assert report["spectrum"]["kind"] == "conjugate_pairs"
    assert workloads.check_report(report, workloads.Expected(kind="conjugate_pairs",
                                                             values=values)) == []


def test_csv_and_json_files_hold_the_same_matrix(tmp_path):
    from pthamil.matio import load_matrix

    h, _ = workloads.pa_matrix(np.random.default_rng(5), 12, definite=False)
    workloads.write_csv(str(tmp_path / "h.csv"), h)
    workloads.write_json(str(tmp_path / "h.json"), h)
    assert np.array_equal(load_matrix(str(tmp_path / "h.csv")), h)
    assert np.array_equal(load_matrix(str(tmp_path / "h.json")), h)


@pytest.fixture(scope="module")
def batch_files(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("batch"))
    return workloads.make_batch_mixed(root, seed=7)


def test_batch_mix_is_as_described(batch_files):
    good = [f for f in batch_files if f.expected.error is None]
    errors = [f for f in batch_files if f.expected.error is not None]
    assert len(good) == 28 and len(errors) == 4
    assert sum(f.expected.kind == "all_real" for f in good) == 14
    assert sum(f.path.endswith(".csv") for f in good) == 14
    assert all(100 <= f.dim <= 160 for f in batch_files)
    assert sorted(f.expected.error for f in errors) == [
        "NonDiagonalizable", "ParseError", "ParseError", "UnpairedComplexEigenvalue"]


def test_each_error_file_fails_with_its_type_and_exit_code(batch_files):
    for f in batch_files:
        if f.expected.error is None:
            continue
        proc = cli("analyze", "--file", f.path, "--format", "json")
        entry = json.loads(proc.stdout)["error"]
        assert proc.returncode == f.expected.exit_code, f.path
        assert entry["type"] == f.expected.error, f.path
        assert entry["exit_code"] == f.expected.exit_code, f.path
        assert f.expected.message in entry["message"], f.path


def test_batch_status_lines_match_expectations(batch_files):
    proc = cli("batch", *[f.path for f in batch_files], "--parallelism", "2", "--format", "text")
    assert proc.returncode == 1
    assert workloads.check_batch_output(proc.stdout, batch_files) == 0
    swapped = proc.stdout.replace(": ok", ": error: x", 1)
    assert workloads.check_batch_output(swapped, batch_files) == 1


def test_same_seed_gives_same_inputs(tmp_path):
    def make(name, seed):
        os.mkdir(tmp_path / name)
        files = workloads.make_batch_mixed(str(tmp_path / name), seed)
        return [(os.path.basename(f.path), open(f.path, "rb").read()) for f in files]

    a, b, c = make("a", 3), make("b", 3), make("c", 4)
    assert a == b
    assert sorted(content for _, content in a) != sorted(content for _, content in c)


def test_sweep_points_cover_both_phases_and_the_exceptional_diagonal(tmp_path):
    points = workloads.make_sweep_small(str(tmp_path), seed=1)
    grid = [p for p in points if p.path is None]
    assert len(grid) == 1600 and len(points) == 1600 + workloads.SWEEP_PA_POINTS
    assert sum(p.expected.error == "NonDiagonalizable" for p in grid) == 40
    assert sum(p.expected.kind == "conjugate_pairs" for p in grid) == 780
    for p in grid[:60]:
        try:
            report = run_analyze(AnalysisConfig(model="two-level", alpha=p.alpha, beta=p.beta))
        except Exception as exc:  # noqa: BLE001 - judged by the oracle
            assert workloads.check_error(exc, p.expected, exit_code_for(exc)) == []
        else:
            assert workloads.check_report(json.loads(emit_report(report)), p.expected) == []


def test_two_level_energies_follow_the_closed_form():
    e = workloads.two_level_expected(2.0, 1.0)
    assert e.kind == "all_real" and np.allclose(sorted(np.real(e.values)), [-3 ** 0.5, 3 ** 0.5])
    e = workloads.two_level_expected(1.0, 2.0)
    assert e.kind == "conjugate_pairs" and np.allclose(sorted(np.imag(e.values)), [-3 ** 0.5, 3 ** 0.5])
    assert workloads.two_level_expected(1.5, 1.5).error == "NonDiagonalizable"


def test_oracles_reject_wrong_output(tmp_path):
    h, values = workloads.pa_matrix(np.random.default_rng(2), 10, definite=True)
    path = str(tmp_path / "h.json")
    workloads.write_json(path, h)
    report = analyze_file(path)
    good = workloads.Expected(kind="all_real", values=values)
    assert workloads.check_report(report, good) == []
    assert workloads.check_report(report, workloads.Expected(kind="conjugate_pairs", values=values))
    assert workloads.check_report(report, workloads.Expected(kind="all_real", values=values * 1.001))
    report["flags"]["v_gram_identity"]["passed"] = False
    assert workloads.check_report(report, good)

    text = cli("analyze", "--file", path, "--p", "alternating", "--t", "k").stdout
    assert workloads.check_text_report(text, good) == []
    assert workloads.check_text_report(text.replace(": pass (", ": FAIL (", 1), good)
    assert workloads.check_text_report(text.replace("real_spectrum", "complex_pairs"), good)


def test_values_match_is_one_to_one():
    assert workloads.values_match([1, 2, 3], [3, 1, 2])
    assert not workloads.values_match([1, 1, 3], [1, 2, 3])
    assert not workloads.values_match([1, 2], [1, 2, 3])
