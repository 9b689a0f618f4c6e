"""The digest tool hashes what ``analyze`` prints, one line per output."""

import hashlib

import numpy as np

import digests
from pthamil.matio import save_matrix
from pthamil.pipeline import AnalysisConfig, emit_report, run_analyze
from testutil import pa_matrix


def test_digests_of_a_two_level_point_and_a_pa_file(tmp_path):
    path = str(tmp_path / "h.json")
    save_matrix(path, pa_matrix(np.random.default_rng(2), 5, definite=True))
    cases = {
        "two-level-5-3@default": dict(model="two-level", alpha=5.0, beta=3.0),
        "pa@alternating-k": dict(source_path=path, **digests.FRAMES["alternating-k"]),
        "two-level-2-2@default": dict(model="two-level", alpha=2.0, beta=2.0),  # exceptional
    }
    got = list(digests.lines(cases))
    assert [line.split("  ", 1)[1] for line in got] == [
        f"{name} {fmt}" for name in list(cases)[:2] for fmt in digests.FORMATS
    ] + ["two-level-2-2@default error"]
    shas = [line.split("  ", 1)[0] for line in got]
    assert len(set(shas)) == len(shas) and all(len(sha) == 64 for sha in shas)
    report = emit_report(run_analyze(AnalysisConfig(**cases["pa@alternating-k"])))
    assert shas[3] == hashlib.sha256((report + "\n").encode()).hexdigest()  # as printed
    assert list(digests.lines(cases)) == got
