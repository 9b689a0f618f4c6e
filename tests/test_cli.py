"""Tests for the command-line interface: subcommands, formats, exit codes."""

import contextlib
import functools
import io
import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pthamil.cli import _fmt_matrix, _render_csv, main
from pthamil.matio import format_complex_cell, save_matrix
from pthamil.pipeline import AnalysisConfig, run_analyze
from pthamil.twolevel import TwoLevelModel, hamiltonian
from testutil import env_with_src


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_two_level_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--model", "two-level", "--alpha", "5", "--beta", "3",
            "--p", "sigma1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["spectrum"]["kind"] == "all_real"
        assert payload["diagnostic"] == "real_spectrum"
        v = np.asarray(payload["V"]["re"]) + 1j * np.asarray(payload["V"]["im"])
        assert np.allclose(v, np.diag([0.5, 2.0]), atol=1e-10)

    def test_two_level_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--model", "two-level", "--alpha", "3", "--beta", "5",
        )
        assert code == 0
        assert "conjugate_pairs" in out
        assert "complex_pairs" in out

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        save_matrix(str(path), hamiltonian(TwoLevelModel(5, 3)))
        code, out, _ = run_cli(capsys, "analyze", "--file", str(path), "--p", "sigma1",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["spectrum"]["kind"] == "all_real"

    def test_frame_from_files(self, capsys, tmp_path):
        h_path = tmp_path / "h.json"
        save_matrix(str(h_path), hamiltonian(TwoLevelModel(5, 3)))
        p_path = tmp_path / "p.json"
        save_matrix(str(p_path), np.array([[0.0, 1.0], [1.0, 0.0]]))
        t_path = tmp_path / "t.json"  # u of T v = u conj(v), here -i sigma_1
        save_matrix(str(t_path), -1j * np.array([[0.0, 1.0], [1.0, 0.0]]))
        code, out, _ = run_cli(
            capsys, "analyze", "--file", str(h_path), "--p", str(p_path),
            "--t", str(t_path), "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["diagnostic"] == "real_spectrum"
        assert [e[0] for e in payload["pt"]["eta"]] == [1.0, -1.0]

    def test_degenerate_spectrum_passes_every_flag(self, capsys, tmp_path):
        # two copies of a 2 x 2 P·A block: both eigenvalues doubly degenerate
        path = tmp_path / "deg4.csv"
        path.write_text("2,0.5i,0,0\n0.5i,-1,0,0\n0,0,2,0.5i\n0,0,0.5i,-1\n")
        code, out, _ = run_cli(capsys, "analyze", "--file", str(path), "--p", "alternating",
                               "--t", "k", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pt"]["degenerate_groups"] == [[0, 1], [2, 3]]
        assert sorted(e[0] for e in payload["pt"]["eta"]) == [-1.0, -1.0, 1.0, 1.0]
        assert all(flag["passed"] for flag in payload["flags"].values()), payload["flags"]
        code, out, _ = run_cli(capsys, "analyze", "--file", str(path), "--p", "alternating",
                               "--t", "k")
        assert code == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize("alpha, beta", [("5", "3"), ("2.7", "1.1")])
    def test_pt_phases_and_pv_alphas_print_as_cells(self, capsys, alpha, beta):
        # the [re, im] lists of the report print in the cell grammar, to 12 digits
        argv = ("analyze", "--model", "two-level", "--alpha", alpha, "--beta", beta)
        payload = json.loads(run_cli(capsys, *argv, "--format", "json")[1])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        lines = out.splitlines()
        for section, key in (("pt", "eta"), ("pt", "phase_fix"), ("pv", "alphas")):
            cells = ", ".join(format_complex_cell(complex(re, im))
                              for re, im in payload[section][key])
            assert f"  {key}: {cells}" in lines
        assert "  eta: 1, -1" in lines and "  alphas: 1, -1" in lines

    def test_frame_disabled(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--model", "two-level", "--alpha", "5", "--beta", "3",
            "--p", "none", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert "no parity/time-reversal frame" in payload["pt"]["skipped"]
        assert payload["gram"]["p"] is None

    def test_user_c_signs_without_intertwining_parity(self, capsys):
        # position operator: parity does not intertwine, C built on request
        code, out, _ = run_cli(
            capsys, "analyze", "--model", "fock-x", "--nmax", "4",
            "--c-signs", "1,-1,1,-1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert "skipped" in payload["pv"]
        assert payload["c"]["signs"] == [1, -1, 1, -1]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--model", "two-level", "--alpha", "5", "--beta", "3",
            "--format", "csv",
        )
        assert code == 0
        assert out.startswith("section,key,value")
        assert "spectrum,kind,all_real" in out

    def test_twelve_significant_digits(self, capsys):
        code, out, _ = run_cli(
            capsys, "two-level", "--alpha", "1.23456789012345", "--beta", "0.5",
        )
        assert code == 0
        assert "1.23456789012" in out


def reference_matrix_text(d: dict, indent: str) -> str:
    """The text layout cell by cell: ``format_complex_cell`` right-aligned to 22."""
    return "\n".join(
        indent + "  ".join(f"{format_complex_cell(complex(x, y)):>22}" for x, y in zip(xs, ys))
        for xs, ys in zip(d["re"], d["im"])
    )


entries = st.sampled_from([0.0, -0.0, 1.0, -3.0, 1e300, -1e300, 1e-300, -1e-300, 0.1]) | st.floats()


@st.composite
def matrix_dicts(draw):
    """n x n matrices up to n = 24 whose parts draw from one small pool, so
    that magnitudes repeat within and across the real and imaginary parts."""
    n = draw(st.integers(1, 24))
    pool = draw(st.lists(entries, min_size=1, max_size=8))

    def part():
        picks = draw(st.binary(min_size=n * n, max_size=n * n))
        return [[pool[b % len(pool)] for b in picks[i:i + n]] for i in range(0, n * n, n)]

    return {"dim": n, "re": part(), "im": part()}


def reference_csv_rows(d: dict) -> list:
    """The CSV rows of V cell by cell: ``format_complex_cell`` joined by commas."""
    return [
        f'V,row_{i},"' + ",".join(format_complex_cell(complex(x, y))
                                  for x, y in zip(xs, ys)) + '"'
        for i, (xs, ys) in enumerate(zip(d["re"], d["im"]))
    ]


@functools.lru_cache(maxsize=1)
def two_level_report():
    return run_analyze(AnalysisConfig(model="two-level", alpha=5.0, beta=3.0))


def csv_v_rows(d: dict) -> list:
    """The V rows ``_render_csv`` writes for a report whose metric V is ``d``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _render_csv(replace(two_level_report(), v=d))
    return [line for line in out.getvalue().splitlines() if line.startswith("V,")]


class TestOutputLayout:
    @settings(max_examples=200, deadline=None)
    @given(matrix_dicts(), st.sampled_from(["  ", "    "]))
    def test_matrix_text_matches_cell_reference(self, d, indent):
        assert _fmt_matrix(d, indent) == reference_matrix_text(d, indent)
        assert csv_v_rows(d) == reference_csv_rows(d)

    def test_nan_cells(self):
        # format_complex_cell's sign for a NaN imaginary part is "-" after a
        # real part and none alone; a NaN real part is never signed
        nan = float("nan")
        d = {"dim": 2, "re": [[1.5, 0.0], [nan, -nan]], "im": [[nan, -nan], [0.0, -2.0]]}
        assert _fmt_matrix(d, "").split() == ["1.5-nani", "nani", "nan", "nan-2i"]
        assert csv_v_rows(d) == ['V,row_0,"1.5-nani,nani"', 'V,row_1,"nan,nan-2i"']

    def test_matrix_text_special_cells(self):
        # zero, signed zero, pure imaginary, integral and extreme cells
        d = {"dim": 3,
             "re": [[0.0, -0.0, 0.0], [2.0, -0.0, 1e300], [1e-300, -7.0, 0.5]],
             "im": [[0.0, 0.0, -1.0], [-0.0, 2.0, -1e-300], [1e300, 0.0, -0.5]]}
        assert _fmt_matrix(d, "  ") == reference_matrix_text(d, "  ")
        assert _fmt_matrix(d, "  ").splitlines()[0] == "  " + "  ".join(
            f"{c:>22}" for c in ("0", "-0", "-1i"))
        # the CSV rows of the same matrix, as the metric V of a report
        rows = csv_v_rows(d)
        assert rows == reference_csv_rows(d)
        assert rows[0] == 'V,row_0,"0,-0,-1i"'

    @pytest.mark.parametrize(
        "argv,cfg",
        [
            (["--model", "two-level", "--alpha", "5", "--beta", "3"],
             AnalysisConfig(model="two-level", alpha=5.0, beta=3.0)),
            (["--model", "two-level", "--alpha", "3", "--beta", "5"],
             AnalysisConfig(model="two-level", alpha=3.0, beta=5.0)),
            (["--model", "fock-x", "--nmax", "12"], AnalysisConfig(model="fock-x", nmax=12)),
        ],
    )
    def test_json_report_matches_json_dumps(self, capsys, argv, cfg):
        code, out, _ = run_cli(capsys, "analyze", *argv, "--format", "json")
        assert code == 0
        expected = json.dumps(run_analyze(cfg).to_dict(), indent=2, sort_keys=True)
        assert out == expected + "\n"


class TestExitCodes:
    def test_no_antilinear_symmetry(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        save_matrix(str(path), np.diag([1.0, 2.0 + 1.0j]))
        code, _, err = run_cli(capsys, "analyze", "--file", str(path))
        assert code == 3
        assert "no antilinear symmetry" in err

    def test_exceptional_point(self, capsys, tmp_path):
        path = tmp_path / "jordan.json"
        save_matrix(str(path), hamiltonian(TwoLevelModel(2, 2)))
        code, _, err = run_cli(capsys, "analyze", "--file", str(path))
        assert code == 4
        assert "exceptional point" in err

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "analyze", "--file", str(path))
        assert code == 2

    def test_ragged_json_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "ragged.json"
        path.write_text('{"re": [[1, 2], [3, 4]], "im": [[0, 1], [2]]}')
        code, _, err = run_cli(capsys, "analyze", "--file", str(path))
        assert code == 2
        assert err == f"error: {path}: 'im' must match the shape of 're'\n"

    def test_missing_model_parameters(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--model", "two-level")
        assert code == 2

    def test_invalid_frame(self, capsys, tmp_path):
        # a time reversal whose antilinear square is not the identity
        t_path = tmp_path / "t.json"
        save_matrix(str(t_path), 2.0 * np.eye(2))
        code, _, err = run_cli(
            capsys, "analyze", "--model", "two-level", "--alpha", "5", "--beta", "3",
            "--p", "sigma1", "--t", str(t_path),
        )
        assert code == 2
        assert "frame" in err

    @pytest.mark.parametrize("frame", [
        ["--file", "h.csv", "--t", "k"],
        ["--file", "h.csv", "--p", "none", "--t", "k"],
        ["--model", "two-level", "--alpha", "5", "--beta", "3", "--p", "none", "--t", "kisigma1"],
    ], ids=["file", "file-p-none", "two-level-p-none"])
    @pytest.mark.parametrize("command", ["analyze"])
    def test_time_reversal_without_parity_rejected(self, capsys, tmp_path, monkeypatch,
                                                   command, frame):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "h.csv").write_text("1,2\n2,1\n")
        code, out, _ = run_cli(capsys, command, *frame, "--format", "json")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ParseError"
        assert "--t" in error["message"] and "--p" in error["message"]

    def test_time_reversal_with_the_model_parity(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--model", "two-level", "--alpha", "5",
                               "--beta", "3", "--t", "kisigma1", "--format", "json")
        assert code == 0 and json.loads(out)["provenance"]["p"] == "sigma1"

    def test_error_as_json(self, capsys, tmp_path):
        path = tmp_path / "jordan.json"
        save_matrix(str(path), hamiltonian(TwoLevelModel(2, 2)))
        code, out, _ = run_cli(capsys, "analyze", "--file", str(path),
                               "--format", "json")
        assert code == 4
        payload = json.loads(out)
        assert payload["error"]["type"] == "NonDiagonalizable"
        assert "exceptional" in payload["error"]["note"]

    def test_configuration_error_as_json(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--model", "two-level", "--alpha", "5",
                                 "--beta", "3", "--tol", "-1", "--format", "json")
        assert code == 2
        assert json.loads(out) == {"error": {"type": "ValueError", "exit_code": 2,
                                             "message": "tolerance must be positive"}}
        assert err == ""

    def test_configuration_error_as_text(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--model", "two-level", "--alpha", "5",
                                 "--beta", "3", "--tol", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: tolerance must be positive\n"


    def test_two_level_reads_tolerance_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("PTHAMIL_TOL", "bogus")
        code, _, err = run_cli(capsys, "two-level", "--alpha", "5", "--beta", "3")
        assert code == 2
        assert err == "error: PTHAMIL_TOL is not a number: 'bogus'\n"

    @pytest.mark.parametrize("output", ["text", "json"])
    @pytest.mark.parametrize("signs, token", [("1,x", "x"), ("1,,-1", ""), ("+1,1.0", "1.0")])
    def test_unparseable_c_signs_named(self, capsys, signs, token, output):
        code, out, err = run_cli(capsys, "analyze", "--model", "two-level", "--alpha", "5",
                                 "--beta", "3", "--c-signs", signs, "--format", output)
        message = f"--c-signs: {token!r} is not an integer"
        assert code == 2
        if output == "json":
            assert (json.loads(out), err) == ({"error": {"type": "ParseError", "exit_code": 2,
                                                         "message": message}}, "")
        else:
            assert (out, err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["analyze", "--model", "two-level", "--alpha", "5", "--beta", "3", "--tol", "inf"],
        ["two-level", "--alpha", "5", "--beta", "3", "--tol", "inf"],
        ["batch", "unused.json", "--tol", "inf", "--format", "text"],
    ])
    def test_infinite_tolerance_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert (out, err) == ("", "error: tolerance must be finite\n")

    @pytest.mark.parametrize("command", [["analyze", "--model", "two-level"], ["two-level"]])
    def test_infinite_tolerance_from_environment_rejected(self, capsys, monkeypatch, command):
        monkeypatch.setenv("PTHAMIL_TOL", "inf")
        code, out, err = run_cli(capsys, *command, "--alpha", "5", "--beta", "3")
        assert code == 2
        assert (out, err) == ("", "error: PTHAMIL_TOL must be finite, got 'inf'\n")

    @pytest.mark.parametrize("x", ["nan", "inf"])
    @pytest.mark.parametrize("nmax", ["10", "60"])
    def test_fock_demo_non_finite_x(self, capsys, tmp_path, x, nmax):
        out_path = tmp_path / "coeffs.csv"
        code, out, err = run_cli(capsys, "fock-demo", "--x", x, "--nmax", nmax,
                                 "--csv", str(out_path))
        assert code == 2
        assert "must be finite" in err
        assert not out_path.exists()
        code, out, _ = run_cli(capsys, "fock-demo", "--x", x, "--nmax", nmax,
                               "--format", "json")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ValueError"


class TestBatchCommand:
    def test_mixed_batch(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        save_matrix(str(good), hamiltonian(TwoLevelModel(5, 3)))
        bad = tmp_path / "bad.json"
        save_matrix(str(bad), np.diag([1.0, 2.0 + 1.0j]))
        code, out, _ = run_cli(capsys, "batch", str(good), str(bad))
        assert code == 1
        entries = json.loads(out)
        assert [e["path"] for e in entries] == [str(good), str(bad)]
        assert "report" in entries[0]
        assert entries[1]["error"]["exit_code"] == 3

    def test_all_good_batch(self, capsys, tmp_path):
        paths = []
        for k, (a, b) in enumerate(((5.0, 3.0), (3.0, 5.0))):
            path = tmp_path / f"m{k}.json"
            save_matrix(str(path), hamiltonian(TwoLevelModel(a, b)))
            paths.append(str(path))
        code, out, _ = run_cli(capsys, "batch", *paths, "--parallelism", "2")
        assert code == 0
        assert len(json.loads(out)) == 2

    def test_non_utf8_file_is_one_error_line(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        save_matrix(str(good), hamiltonian(TwoLevelModel(5, 3)))
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe1,2\n3,4\n")
        code, out, _ = run_cli(capsys, "batch", str(good), str(bad), str(good),
                               "--format", "text")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == f"{good}: ok" and lines[2] == f"{good}: ok"
        assert lines[1].startswith(f"{bad}: error: {bad}: not UTF-8 text")

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    def test_ragged_json_is_one_error_line(self, capsys, tmp_path, parallelism):
        good = tmp_path / "ok.csv"
        save_matrix(str(good), hamiltonian(TwoLevelModel(5, 3)))
        ragged = tmp_path / "ragged.json"
        ragged.write_text('{"re": [[1, 2], [3]]}')
        code, out, _ = run_cli(capsys, "batch", str(good), str(ragged),
                               "--parallelism", parallelism, "--format", "text")
        assert code == 1
        assert out.splitlines() == [
            f"{good}: ok",
            f"{ragged}: error: {ragged}: 're' must be a rectangular table of numbers"]

    def test_empty_batch(self, capsys):
        code, out, _ = run_cli(capsys, "batch")
        assert code == 0
        assert json.loads(out) == []

    def test_text_statuses_same_at_any_parallelism(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        save_matrix(str(good), hamiltonian(TwoLevelModel(5, 3)))
        jordan = tmp_path / "jordan.json"
        save_matrix(str(jordan), hamiltonian(TwoLevelModel(2, 2)))
        unpaired = tmp_path / "unpaired.json"
        save_matrix(str(unpaired), np.diag([1.0, 2.0 + 1.0j]))
        paths = [str(good), str(jordan), str(good), str(unpaired)]
        serial = run_cli(capsys, "batch", *paths, "--format", "text")
        parallel = run_cli(capsys, "batch", *paths, "--parallelism", "2", "--format", "text")
        assert serial == parallel
        code, out, _ = serial
        assert code == 1
        assert [line.endswith(": ok") for line in out.splitlines()] == [True, False, True, False]

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    def test_failed_flag_named_in_status_line(self, capsys, tmp_path, parallelism):
        # ||V H - H^dagger V|| and ||V|| ||H|| overflow at this scale, so the
        # metric_intertwines residual is NaN and FAILs; the imaginary diagonal
        # entry keeps H on the complex path (on the real path the residual
        # would be exactly zero)
        good = tmp_path / "good.json"
        save_matrix(str(good), hamiltonian(TwoLevelModel(5, 3)))
        big = tmp_path / "big.csv"
        big.write_text("0,8e300\n2e300,1e-20i\n")
        code, out, _ = run_cli(capsys, "batch", str(good), str(big),
                               "--parallelism", parallelism, "--format", "text")
        assert code == 0
        assert out.splitlines() == [f"{good}: ok",
                                    f"{big}: ok; flags failed: metric_intertwines"]

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_zero_tolerance_rejected(self, capsys, tmp_path, output):
        good = tmp_path / "good.json"
        save_matrix(str(good), hamiltonian(TwoLevelModel(5, 3)))
        code, out, err = run_cli(capsys, "batch", str(good), "--tol", "0",
                                 "--format", output)
        assert code == 2
        if output == "json":
            assert json.loads(out) == {"error": {"type": "ValueError", "exit_code": 2,
                                                 "message": "tolerance must be positive"}}
        else:
            assert (out, err) == ("", "error: tolerance must be positive\n")


    def test_module_entry_point_spawns_workers(self, tmp_path):
        # spawned workers import the parent's main module unless it is a
        # package's __main__; python -m pthamil must start them and not rerun itself
        paths = [str(tmp_path / "a.json"), str(tmp_path / "b.csv")]
        save_matrix(paths[0], hamiltonian(TwoLevelModel(5, 3)))
        save_matrix(paths[1], hamiltonian(TwoLevelModel(3, 5)))
        proc = subprocess.run(
            [sys.executable, "-m", "pthamil", "batch", *paths, "--parallelism", "2",
             "--format", "text"],
            env=env_with_src(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "".join(f"{p}: ok\n" for p in paths)

    def test_cli_import_leaves_process_pool_unloaded(self):
        probe = ("import sys, pthamil.cli; print(sorted(m for m in ('multiprocessing', "
                 "'concurrent.futures.process') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", probe], env=env_with_src(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestTwoLevelCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "two-level", "--alpha", "5", "--beta", "3",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["energies"] == [4.0, -4.0]
        assert payload["dirac_overlap"] == 0.75
        assert payload["pipeline_max_residual"] <= 1e-9

    def test_complex_phase_reports_error(self, capsys):
        code, _, err = run_cli(capsys, "two-level", "--alpha", "3", "--beta", "5")
        assert code == 2


class TestFockDemoCommand:
    def test_csv_output(self, capsys, tmp_path):
        out_path = tmp_path / "coeffs.csv"
        code, out, _ = run_cli(capsys, "fock-demo", "--x", "0", "--nmax", "200",
                               "--csv", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "n,c,c_squared,partial_norm"
        assert len(lines) == 202
        first = lines[1].split(",")
        assert float(first[1]) == 1.0

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "fock-demo", "--x", "0", "--nmax", "400",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["fitted_tail_exponent"] > -1.0
        assert payload["oscillator_contrast"] is True

