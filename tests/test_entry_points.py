"""End-to-end checks through ``python -m pthamil``, one fresh interpreter per
command, as a user runs it."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pthamil.matio import save_matrix
from pthamil.twolevel import TwoLevelModel, hamiltonian
from testutil import env_with_src, pa_matrix

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _pthamil(*argv) -> subprocess.CompletedProcess:
    """Run ``python -m pthamil`` on this pthamil's source."""
    return subprocess.run([sys.executable, "-m", "pthamil", *map(str, argv)], env=env_with_src(),
                          capture_output=True, text=True, timeout=300)


def _report(*argv) -> dict:
    """The JSON report of ``python -m pthamil analyze``, which must exit 0."""
    proc = _pthamil("analyze", *argv, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_command_runs_from_the_module_entry_point():
    report = _report("--model", "two-level", "--alpha", "3", "--beta", "1")
    assert report["provenance"]["schema"] == 2 and "S" not in report, sorted(report)
    for argv in (("two-level", "--alpha", "5", "--beta", "3"),
                 ("fock-demo", "--x", "0", "--nmax", "60"),
                 ("evolve", "--model", "two-level", "--alpha", "3", "--beta", "5",
                  "--times", "0", "1")):
        proc = _pthamil(*argv, "--format", "json")
        assert proc.returncode == 0, (argv, proc.stderr)


def test_parity_flags_are_gated(tmp_path):
    # two copies of a 3 x 3 P·A block: the alternating parity intertwines H,
    # the identity does not
    path = tmp_path / "pa6.csv"
    path.write_text("3,1i,0.5,0,0,0\n1i,-2,-0.5i,0,0,0\n0.5,-0.5i,4,0,0,0\n"
                    "0,0,0,3,1i,0.5\n0,0,0,1i,-2,-0.5i\n0,0,0,0.5,-0.5i,4\n")
    gated = {"p_gram_real", "pt_gram_equals_v_gram"}
    flags = _report("--file", path, "--p", "identity", "--t", "k")["flags"]
    assert not gated & flags.keys() and all(f["passed"] for f in flags.values()), flags
    flags = _report("--file", path, "--p", "alternating", "--t", "k")["flags"]
    assert gated <= flags.keys() and all(f["passed"] for f in flags.values()), flags


def test_calibration_from_the_entry_point():
    real = _report("--model", "two-level", "--alpha", "5", "--beta", "3")
    assert real["pt"]["eta"] == [[1, 0], [-1, 0]], real["pt"]
    alphas = [complex(*a) for a in real["pv"]["alphas"]]
    assert all(abs(abs(a) - 1) < 1e-12 and a.imag == 0 for a in alphas), alphas
    assert alphas[0].real * alphas[1].real < 0, alphas
    assert real["c"]["commutes_with_pt"] is True, real["c"]
    pt = _report("--model", "two-level", "--alpha", "3", "--beta", "5")["pt"]
    assert pt["skipped"].startswith("complex-pair spectrum: PT maps each state onto its partner"), pt


def test_json_report_is_in_json_dumps_layout(tmp_path):
    # n = 40: every report matrix is above the size below which dumps writes
    # an array row by row
    path = tmp_path / "pa40.json"
    save_matrix(str(path), pa_matrix(np.random.default_rng(40), 40, definite=True))
    proc = _pthamil("analyze", "--file", path, "--p", "alternating", "--t", "k",
                    "--format", "json")
    assert proc.returncode == 0, proc.stderr
    relaid = json.dumps(json.loads(proc.stdout), indent=2, sort_keys=True)
    assert proc.stdout == relaid + "\n"


def test_batch_workers_print_json_reports(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.csv"]
    save_matrix(str(paths[0]), hamiltonian(TwoLevelModel(5, 3)))
    save_matrix(str(paths[1]), hamiltonian(TwoLevelModel(3, 5)))
    proc = _pthamil("batch", *paths, "--parallelism", "2", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    entries = json.loads(proc.stdout)
    assert len(entries) == 2 and all("report" in e for e in entries), entries


def test_batch_status_line_names_a_failed_flag(tmp_path):
    # ||V H - H^dagger V|| and ||V|| ||H|| overflow at this scale, so the
    # metric_intertwines residual is NaN and FAILs; the imaginary diagonal
    # entry keeps H on the complex path (on the real path the residual would
    # be exactly zero)
    big = tmp_path / "big.csv"
    big.write_text("0,8e300\n2e300,1e-20i\n")
    proc = _pthamil("batch", big, "--format", "text")
    assert "flags failed: metric_intertwines" in proc.stdout, (proc.stdout, proc.stderr)


class TestRealBasisAt120:
    """An n=120 P·A matrix from the benchmark's generator: every flag passes
    and V has the parity zero pattern, however P is given and without any
    frame, in ``analyze`` and in ``batch``."""

    N = 120

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        sys.path.insert(0, os.path.join(REPO, "perfbench"))
        try:
            from workloads import alternating_parity, pa_matrix
        finally:
            sys.path.remove(os.path.join(REPO, "perfbench"))
        root = tmp_path_factory.mktemp("pa120")
        h_path, p_path = root / "pa120.json", root / "p120.json"
        save_matrix(str(h_path), pa_matrix(np.random.default_rng(12), self.N, definite=True)[0])
        save_matrix(str(p_path), np.diag(alternating_parity(self.N)))
        return h_path, p_path

    def _assert_parity_zero_pattern(self, report):
        re, im = np.array(report["V"]["re"]), np.array(report["V"]["im"])
        odd = np.add.outer(np.arange(self.N), np.arange(self.N)) % 2 == 1
        assert not re[odd].any() and not im[~odd].any(), "V misses the parity zero pattern"

    def test_named_and_file_given_parity(self, files):
        h_path, p_path = files
        named = _report("--file", h_path, "--p", "alternating", "--t", "k")
        flags = named["flags"]
        assert flags and all(f["passed"] for f in flags.values()), flags
        self._assert_parity_zero_pattern(named)
        given = _report("--file", h_path, "--p", p_path, "--t", "k")
        named.pop("provenance")
        given.pop("provenance")
        assert named == given, sorted(k for k in named if named[k] != given[k])

    def test_without_a_frame(self, files):
        h_path, _ = files
        report = _report("--file", h_path)
        flags = report["flags"]
        assert flags and all(f["passed"] for f in flags.values()), flags
        self._assert_parity_zero_pattern(report)
        proc = _pthamil("batch", h_path, "--format", "json")
        assert proc.returncode == 0, proc.stderr
        (entry,) = json.loads(proc.stdout)
        self._assert_parity_zero_pattern(entry["report"])

