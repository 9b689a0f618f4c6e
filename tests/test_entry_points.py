"""End-to-end checks through ``python -m pthamil``, one fresh interpreter per
command, as a user runs it."""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from pthamil.matio import save_matrix
from pthamil.twolevel import TwoLevelModel, hamiltonian
from testutil import BLAS_VARS, env_with_src, pa_matrix, perfbench_workloads, probed_pthamil


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
    assert report["provenance"]["schema"] == 6 and "S" not in report, sorted(report)
    for argv in (("two-level", "--alpha", "5", "--beta", "3"),
                 ("fock-demo", "--x", "0", "--nmax", "60")):
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
    real = _report("--model", "two-level", "--alpha", "5", "--beta", "3", "--c-signs", "1,-1")
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


#: ``pthamil.__all__``, and the names ``from pthamil import *`` binds
PUBLIC = [
    "AnalysisConfig", "AnalysisReport", "CoefficientOverflow", "CommutantOp", "ConvergenceFailure",
    "DEFAULT_TOL", "DivergenceWitness", "EigenSystem", "FockExpansion", "Intertwiner",
    "InvalidFrame", "NonDiagonalizable", "NormReport", "NotCommuting", "NotRealPhase", "PTFrame",
    "PTHamilError", "PTPhases", "ParseError", "SpectrumClass", "SpectrumKind", "TwoLevelModel",
    "UnpairedComplexEigenvalue", "antilinear", "antilinear_symmetry_check", "as_matrix",
    "build_c", "build_metric", "build_pv", "c_commutes_with_pt", "calibrate",
    "check_p_intertwines", "classify", "closed_forms", "compare_with_pipeline", "cpt",
    "divergence_witness", "eigendecompose", "emit_report", "errors", "expand_position_state",
    "fockdemo", "hamiltonian", "identity", "intertwiner", "jsontext", "linalg", "make_frame",
    "matio", "parse_report", "pipeline", "run_analyze",
    "run_batch", "spectra", "truncated_position_matrix", "twolevel", "v_gram",
]


@pytest.mark.parametrize("output", ["json", "text"])
def test_a_reader_that_closes_the_pipe_ends_the_command_quietly(output):
    # ``analyze ... | head -c 100``: the report of a 120x120 H is megabytes,
    # far more than a pipe buffers, so the command is still writing
    proc = subprocess.Popen([sys.executable, "-m", "pthamil", "analyze", "--model", "fock-x",
                             "--nmax", "120", "--format", output], env=env_with_src(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 1
    assert "Traceback" not in stderr and stderr == ""


def _python(code: str) -> str:
    """The stdout of a fresh interpreter running ``code`` on this pthamil."""
    proc = subprocess.run([sys.executable, "-c", code], env=env_with_src(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_and_parser_import_without_numpy():
    assert _python("import sys, pthamil, pthamil.entry; pthamil.entry.build_parser(); "
                   "print(pthamil.__version__, 'numpy' in sys.modules)") == "0.1.0 False\n"


def test_public_names_load_on_first_use():
    names = json.loads(_python(
        "import json, pthamil; names = [pthamil.__all__, [n for n in dir(pthamil) "
        "if not n.startswith('_')]]; star = {}; exec('from pthamil import *', star); "
        "print(json.dumps([*names, sorted(n for n in star if n != '__builtins__'), "
        "pthamil.run_batch.__module__]))"))
    assert names == [PUBLIC, PUBLIC, PUBLIC, "pthamil.pipeline"]


def test_batch_forks_its_workers_from_a_capped_parent(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.csv", tmp_path / "c.json"]
    save_matrix(str(paths[0]), hamiltonian(TwoLevelModel(5, 3)))
    save_matrix(str(paths[1]), hamiltonian(TwoLevelModel(3, 5)))
    save_matrix(str(paths[2]), np.diag([1.0, 2.0 + 1.0j]))
    proc, forks, spawned, caps = probed_pthamil(tmp_path, "batch", *paths, "--parallelism", "2",
                                                "--format", "text")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[:2] == [f"{paths[0]}: ok", f"{paths[1]}: ok"]
    assert proc.stdout.splitlines()[2].startswith(f"{paths[2]}: error: ")
    assert (forks, spawned, caps) == (2, 0, ["1", "1", "1"])


@pytest.mark.parametrize("argv", [
    ("analyze", "--model", "two-level", "--alpha", "5", "--beta", "3"),
], ids=["analyze"])
def test_other_commands_leave_blas_as_the_user_has_it(tmp_path, argv):
    path = tmp_path / "a.json"
    save_matrix(str(path), hamiltonian(TwoLevelModel(5, 3)))
    proc, forks, spawned, caps = probed_pthamil(tmp_path, *(a.format(a=path) for a in argv))
    assert proc.returncode == 0, proc.stderr
    assert (forks, spawned, caps) == (0, 0, [None, None, None])


@pytest.mark.parametrize("argv", [
    ("batch", "{a}", "--parallelism", "2"),
    ("batch", "{a}", "{a}", "--parallelism", "1"),
], ids=["one-file-batch", "serial-batch"])
def test_batch_without_workers_caps_blas(tmp_path, argv):
    path = tmp_path / "a.json"
    save_matrix(str(path), hamiltonian(TwoLevelModel(5, 3)))
    proc, forks, spawned, caps = probed_pthamil(tmp_path, *(a.format(a=path) for a in argv))
    assert proc.returncode == 0, proc.stderr
    assert (forks, spawned, caps) == (0, 0, ["1", "1", "1"])


def test_batch_bytes_do_not_depend_on_parallelism(tmp_path):
    # the number of BLAS threads changes the last bits of a float from n of
    # about 150 on; batch runs one BLAS thread however many workers it has
    generator = np.random.default_rng(7)
    paths = [tmp_path / "real158.json", tmp_path / "pairs153.json"]
    save_matrix(str(paths[0]), pa_matrix(generator, 158, definite=True))
    save_matrix(str(paths[1]), pa_matrix(generator, 153, definite=False))
    env = {k: v for k, v in env_with_src().items() if k not in BLAS_VARS}
    outputs = [subprocess.run([sys.executable, "-m", "pthamil", "batch", *map(str, paths),
                               "--parallelism", parallelism, "--format", "json"],
                              env=env, capture_output=True, text=True, timeout=300)
               for parallelism in ("1", "2")]
    assert [proc.returncode for proc in outputs] == [0, 0], outputs[0].stderr
    # compared by digest: a failing == on 10-MB texts would diff them
    digests = [hashlib.sha256(proc.stdout.encode()).hexdigest() for proc in outputs]
    assert digests[0] == digests[1]


class TestRealBasisAt120:
    """An n=120 P·A matrix from the benchmark's generator: every flag passes
    and V has the parity zero pattern, however P is given and without any
    frame, in ``analyze`` and in ``batch``."""

    N = 120

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        workloads = perfbench_workloads()
        root = tmp_path_factory.mktemp("pa120")
        h_path, p_path = root / "pa120.json", root / "p120.json"
        save_matrix(str(h_path),
                    workloads.pa_matrix(np.random.default_rng(12), self.N, definite=True)[0])
        save_matrix(str(p_path), np.diag(workloads.alternating_parity(self.N)))
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

