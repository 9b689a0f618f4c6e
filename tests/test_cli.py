"""Tests for the command-line interface: subcommands, formats, exit codes."""

import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pthamil
from pthamil.cli import _fmt_matrix, _render_csv, main
from pthamil.matio import format_complex_cell, save_matrix
from pthamil.pipeline import AnalysisConfig, run_analyze
from pthamil.twolevel import TwoLevelModel, hamiltonian


def _env_with_src() -> dict:
    """The environment with this pthamil's source directory first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(pthamil.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


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
    n = draw(st.integers(1, 5))
    rows = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    return {"dim": n, "re": draw(rows), "im": draw(rows)}


class TestOutputLayout:
    @settings(max_examples=200, deadline=None)
    @given(matrix_dicts(), st.sampled_from(["  ", "    "]))
    def test_matrix_text_matches_cell_reference(self, d, indent):
        assert _fmt_matrix(d, indent) == reference_matrix_text(d, indent)

    def test_matrix_text_special_cells(self, capsys):
        # zero, signed zero, pure imaginary, integral and extreme cells
        d = {"dim": 3,
             "re": [[0.0, -0.0, 0.0], [2.0, -0.0, 1e300], [1e-300, -7.0, 0.5]],
             "im": [[0.0, 0.0, -1.0], [-0.0, 2.0, -1e-300], [1e300, 0.0, -0.5]]}
        assert _fmt_matrix(d, "  ") == reference_matrix_text(d, "  ")
        assert _fmt_matrix(d, "  ").splitlines()[0] == "  " + "  ".join(
            f"{c:>22}" for c in ("0", "-0", "-1i"))
        # the CSV rows of the same matrix, as the metric V of a report
        report = replace(run_analyze(AnalysisConfig(model="two-level", alpha=5.0, beta=3.0)),
                         v=d)
        _render_csv(report)
        rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("V,")]
        assert rows == [
            f'V,row_{i},"' + ",".join(format_complex_cell(complex(x, y))
                                      for x, y in zip(xs, ys)) + '"'
            for i, (xs, ys) in enumerate(zip(d["re"], d["im"]))
        ]
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
    @pytest.mark.parametrize("times", [["nan"], ["inf", "1"]])
    @pytest.mark.parametrize("command", ["analyze", "evolve"])
    def test_non_finite_times_rejected(self, capsys, command, times, output):
        code, out, err = run_cli(capsys, command, "--model", "two-level", "--alpha", "5",
                                 "--beta", "3", "--times", *times, "--format", output)
        assert code == 2
        if output == "json":
            assert (json.loads(out), err) == ({"error": {"type": "ValueError", "exit_code": 2,
                                                         "message": "times must be finite"}}, "")
        else:
            assert (out, err) == ("", "error: times must be finite\n")

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

    @pytest.mark.parametrize("command", ["analyze", "evolve"])
    def test_empty_times_is_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", "two-level", "--alpha", "3", "--beta", "1", "--times"])
        assert exc.value.code == 2
        _, err = capsys.readouterr()
        assert "--times: expected at least one argument" in err


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
            env=_env_with_src(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "".join(f"{p}: ok\n" for p in paths)

    def test_cli_import_leaves_process_pool_unloaded(self):
        probe = ("import sys, pthamil.cli; print(sorted(m for m in ('multiprocessing', "
                 "'concurrent.futures.process') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", probe], env=_env_with_src(),
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


class TestEvolveCommand:
    def test_real_phase(self, capsys):
        code, out, _ = run_cli(
            capsys, "evolve", "--model", "two-level", "--alpha", "5", "--beta", "3",
            "--times", "0", "0.7", "3.1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["max_drift"] <= 1e-8
        assert payload["selection_rule_violations"] == []

    def test_complex_phase(self, capsys):
        code, out, _ = run_cli(
            capsys, "evolve", "--model", "two-level", "--alpha", "3", "--beta", "5",
            "--times", "0", "0.5", "1.7", "4.3", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["max_drift"] <= 1e-8
