"""Span tracing: wrappers are installed and removed cleanly, self times add up.

    python3 -m pytest perfbench/tests
"""

import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

import tracer
import workloads
from conftest import BENCH, ROOT
from pthamil import pipeline
from pthamil.linalg import eigendecompose


def span(sid, parent, name, start, end, thread=1, dense=0):
    return (sid, parent, name, 0, thread, start, end, dense, None, -1, -1, -1)


def test_self_time_is_duration_minus_children_in_one_thread():
    spans = [span(0, -1, "pipeline.run_analyze", 0.0, 10.0),
             span(1, 0, "linalg.eigendecompose", 1.0, 4.0),
             span(2, 1, "linalg.as_matrix", 1.0, 2.0),
             span(3, 0, "pipeline.emit_report", 5.0, 9.0)]
    st = tracer.self_times(spans)
    assert st[0] == pytest.approx(3.0)
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(4.0)


def test_concurrent_children_share_wall_time():
    # run_batch on the main thread; two workers overlap during [2, 6]
    spans = [span(0, -1, "pipeline.run_batch", 0.0, 10.0),
             span(1, 0, "pipeline.run_analyze", 1.0, 6.0, thread=2),
             span(2, 0, "pipeline.run_analyze", 2.0, 9.0, thread=3)]
    st = tracer.self_times(spans)
    assert st[0] == pytest.approx(2.0)
    assert st[1] == pytest.approx(1.0 + 4.0 / 2)
    assert st[2] == pytest.approx(4.0 / 2 + 3.0)
    assert sum(st.values()) == pytest.approx(10.0)


@pytest.fixture
def installed():
    t = tracer.Tracer()
    original = pipeline.run_analyze
    t.install()
    try:
        yield t
    finally:
        t.uninstall()
        assert pipeline.run_analyze is original
        assert np.linalg.eig.__module__.startswith("numpy")


def test_install_wraps_every_reference_and_counts_factorizations(installed, tmp_path):
    assert pipeline.run_analyze.__wrapped__ is not None
    assert pipeline.eigendecompose.__wrapped__ is eigendecompose
    h, _ = workloads.pa_matrix(np.random.default_rng(0), 6, definite=True)
    path = str(tmp_path / "h.json")
    workloads.write_json(path, h)
    installed.begin_op(0)
    report = pipeline.run_analyze(pipeline.AnalysisConfig(source_path=path, p_spec="alternating",
                                                          t_spec="k"))
    pipeline.emit_report(report)
    spans = tracer.table_spans(installed.table())
    names = {s[2] for s in spans}
    assert {"pipeline.run_analyze", "linalg.eigendecompose", "matio.load_matrix",
            "cpt.build_pv", "pipeline.emit_report"} <= names
    assert not names & tracer.UNTRACED
    eig = [s for s in spans if s[2] == "linalg.eigendecompose"]
    assert len(eig) == 1 and eig[0][7] >= 3  # eig, cond, inv
    emit = [s for s in spans if s[2] == "pipeline.emit_report"][0]
    assert emit[9] > 0 and emit[10:] == (2, 11)

    stats = tracer.LayerStats()
    wall = max(s[6] for s in spans) - min(s[5] for s in spans) + 0.5
    stats.add_op(wall, spans)
    m = stats.metrics()
    total = sum(m[f"{mod}.self_s"] for mod in tracer.MODULES) + m["untraced.self_s"]
    assert total == pytest.approx(wall)
    assert m["untraced.self_s"] == pytest.approx(0.5, abs=1e-3)
    assert m["pipeline.emit_report.redundant_matrix_frac"] == pytest.approx(2 / 11)
    assert m["linalg.dense_factorizations"] >= 3


def test_worker_thread_spans_hang_under_the_submitting_span(installed):
    installed.begin_op(0)
    h = np.diag([1.0, 2.0, 3.0]).astype(complex)

    def submit():
        worker = threading.Thread(target=lambda: pipeline.eigendecompose(h))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()

    installed._wrap("pipeline.run_batch", submit)()
    spans = tracer.table_spans(installed.table())
    batch = [s for s in spans if s[2] == "pipeline.run_batch"][0]
    eig = [s for s in spans if s[2] == "linalg.eigendecompose"][0]
    assert eig[1] == batch[0] and eig[4] != batch[4]


def test_saved_tables_concatenate_with_unique_ids(tmp_path):
    a = {c: np.array([0, 1]) for c in tracer.COLUMNS}
    a.update(parent=np.array([-1, 0]), name=np.array([0, 1]), error=np.array([-1, 2]),
             start=np.array([0.0, 0.1]), end=np.array([1.0, 0.5]), names=["x", "y", "Boom"])
    tracer.save_table(str(tmp_path / "a.npz"), a)
    b = tracer.load_table(str(tmp_path / "a.npz"))
    b["names"] = ["y", "x", "Boom"]
    rows = tracer.table_spans(tracer.concat_tables([a, b]))
    assert [r[0] for r in rows] == [0, 1, 2, 3]
    assert [r[1] for r in rows] == [-1, 0, -1, 2]
    assert [r[2] for r in rows] == ["x", "y", "y", "x"]
    assert [r[8] for r in rows] == [None, "Boom", None, "Boom"]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
