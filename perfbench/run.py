"""The pthamil benchmark: one workload per run, measured for a fixed time.

    python3 perfbench/run.py --workload analyze-large --seed 1 --seconds 30 --trace 0

Run it from the root of a source tree: it imports pthamil from ``./src`` and
runs the CLI as ``python -m pthamil`` with ``PYTHONPATH=src``. Without
``src/pthamil`` it exits with code 2 and prints no result.

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished. Inputs are generated from ``--seed``
(see ``workloads.py``) and every output is checked outside the timed region.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A traced run
executes every operation untraced and then traced, so the tracing overhead is
measured on the same inputs. Lines before it start with ``#``. Every run also
writes its full record (all samples, outliers included, and the environment)
to ``.perfbench_work/results/``, and a traced run its spans to
``.perfbench_work/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracer
import workloads

SETUP_REPEATS = 9
CALL_TIMEOUT_S = 90
BATCH_PARALLELISM = 2
#: tail percentiles tried from the top; one needs ten samples beyond it
TAIL_LADDER = (99, 90)
E2E_UNITS = {"setup_s": "s", "latency_ms.p50": "ms", "latency_ms.tail": "ms",
             "items_per_s": "1/s", "peak_rss_mb": "MB"}


def tail(values) -> tuple:
    """``(label, value)`` of the highest ladder percentile with at least ten
    samples beyond it; the median when no percentile qualifies."""
    for q in TAIL_LADDER:
        if len(values) * (100 - q) / 100 >= 10:
            return f"p{q}", statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return "p50", statistics.median(values)


def run_child(cmd: list, **kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run`` without its timeout: ``Popen.wait(timeout)`` polls
    with sleeps of up to 50 ms, which would quantize the measured times. A
    watchdog timer kills a child that hangs instead."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out, err = proc.communicate()
        finally:
            watchdog.cancel()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


# --- workloads ----------------------------------------------------------------------
#
# ``run_op(op, traced)`` returns ``(wall_s, attempted, failed, spans)``: the
# operation's timed wall time, the items it attempted and how many of them
# failed the oracle, and its spans (rows of ``tracer.table_spans``) when traced.
# ``trace_table()`` gives every span of the run.

class CliWorkload:
    """Operations that each start fresh ``python -m pthamil`` processes."""

    parallelism = 1

    def __init__(self, root: str, work: str, env: dict):
        self.root, self.work, self.env = root, work, env
        self.tables = []

    def _call(self, args: list, traced: bool):
        spans_path = os.path.join(self.work, "spans.npz")
        if os.path.exists(spans_path):
            os.remove(spans_path)
        if traced:
            here = os.path.dirname(os.path.abspath(__file__))
            cmd = [sys.executable, os.path.join(here, "traced_cli.py"), spans_path, *args]
        else:
            cmd = [sys.executable, "-m", "pthamil", *args]
        start = time.perf_counter()
        proc = run_child(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE)
        wall = time.perf_counter() - start
        return wall, proc, tracer.load_table(spans_path) if traced else None

    def _spans(self, op: int, tables: list) -> list:
        table = tracer.concat_tables(tables)
        table["op"][:] = op
        self.tables.append(table)
        return tracer.table_spans(table)

    def trace_table(self) -> dict:
        return tracer.concat_tables(self.tables)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class AnalyzeLarge(CliWorkload):
    """One operation is ``analyze --format json`` then ``--format text`` on one
    n=160 real-spectrum P·A matrix."""

    def prepare(self, seed: int) -> None:
        self.file = workloads.make_analyze_large(self.work, seed)
        self.call_walls = {"json": [], "text": []}  # untraced calls, per format

    def run_op(self, op: int, traced: bool):
        wall, failed, tables = 0.0, 0, []
        for fmt in ("json", "text"):
            dt, proc, table = self._call(["analyze", "--file", self.file.path, "--p",
                                          "alternating", "--t", "k", "--format", fmt], traced)
            wall += dt
            failed += bool(self._problems(fmt, proc))
            if traced:
                tables.append(table)
            else:
                self.call_walls[fmt].append(dt)
        return wall, 2, failed, self._spans(op, tables) if traced else None

    def _problems(self, fmt: str, proc) -> list:
        if proc.returncode != 0:
            return [f"exit code {proc.returncode}"]
        text = proc.stdout.decode()
        if fmt == "json":
            return workloads.check_report(json.loads(text), self.file.expected)
        return workloads.check_text_report(text, self.file.expected)


class BatchMixed(CliWorkload):
    """One operation is ``batch --parallelism 2 --format text`` over 28 good
    files and 4 that must fail."""

    parallelism = BATCH_PARALLELISM

    def prepare(self, seed: int) -> None:
        self.files = workloads.make_batch_mixed(self.work, seed)

    def run_op(self, op: int, traced: bool):
        args = ["batch", *[f.path for f in self.files],
                "--parallelism", str(BATCH_PARALLELISM), "--format", "text"]
        wall, proc, table = self._call(args, traced)
        n = len(self.files)
        expected_exit = 1 if any(f.expected.error for f in self.files) else 0
        failed = workloads.check_batch_output(proc.stdout.decode(), self.files)
        if proc.returncode != expected_exit:
            failed = n
        return wall, n, failed, self._spans(op, [table]) if traced else None


class SweepSmall:
    """One operation is one point, in process: ``run_analyze`` then ``emit_report``."""

    parallelism = 1

    def __init__(self, root: str, work: str, env: dict):
        from pthamil import pipeline

        self.work = work
        self.pipeline = pipeline
        # captured before tracing is installed, so the checks add no spans
        self.exit_code_for = pipeline.exit_code_for
        self.tracer = tracer.Tracer()

    def prepare(self, seed: int) -> None:
        self.points = workloads.make_sweep_small(self.work, seed)

    def run_op(self, op: int, traced: bool):
        point = self.points[op % len(self.points)]
        pipeline = self.pipeline
        if traced:
            self.tracer.install()
            self.tracer.begin_op(op)
            mark = len(self.tracer)
        text = error = None
        start = time.perf_counter()
        try:
            if point.path is None:
                cfg = pipeline.AnalysisConfig(model="two-level", alpha=point.alpha,
                                              beta=point.beta, output="json")
            else:
                cfg = pipeline.AnalysisConfig(source_path=point.path, p_spec="alternating",
                                              t_spec="k", output="json")
            text = pipeline.emit_report(pipeline.run_analyze(cfg))
        except Exception as exc:  # every error is judged by the oracle below
            error = exc
        wall = time.perf_counter() - start
        spans = None
        if traced:
            self.tracer.uninstall()
            spans = tracer.table_spans(self.tracer.table(mark))
        if error is not None:
            problems = workloads.check_error(error, point.expected, self.exit_code_for(error))
        elif point.expected.error is not None:
            problems = [f"expected {point.expected.error}, got a report"]
        else:
            problems = workloads.check_report(json.loads(text), point.expected)
        return wall, 1, int(bool(problems)), spans

    def trace_table(self) -> dict:
        return self.tracer.table()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


WORKLOADS = {"analyze-large": AnalyzeLarge, "batch-mixed": BatchMixed, "sweep-small": SweepSmall}


# --- environment and set-up ---------------------------------------------------------

def source_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(root: str, src: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if os.path.exists(os.path.join(root, ".git")):  # a checkout without it has no commit
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "commit": commit,
        "source_sha256": source_digest(src),
        "machine": platform.machine(),
    }


def setup_once(root: str, env: dict) -> float:
    """Wall time of one fresh interpreter running ``import pthamil.cli``."""
    start = time.perf_counter()
    proc = run_child([sys.executable, "-c", "import pthamil.cli"], cwd=root, env=env)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"import pthamil.cli exited with code {proc.returncode}")
    return wall


# --- the measured loop ------------------------------------------------------------

def measure(load, seconds: float, trace: bool, setup_probe=None) -> dict:
    """Run operations until less than half the mean operation time is left
    of ``seconds``, so that a run of long operations ends as near ``seconds``
    as whole operations allow.

    With ``trace`` each operation runs untraced and then traced; both count
    toward the time budget. ``setup_probe`` is called :data:`SETUP_REPEATS`
    times, spread evenly over the timed work, so that set-up is sampled under
    the same machine conditions as the operations.
    """
    untraced, traced, setup = [], [], []
    attempted = failed = items = 0
    stats = tracer.LayerStats(load.parallelism)
    op = 0
    timed = 0.0
    while op == 0 or seconds - timed >= timed / op / 2:
        if setup_probe is not None and len(setup) < SETUP_REPEATS * timed / seconds:
            setup.append(setup_probe())
        wall, n, bad, _ = load.run_op(op, traced=False)
        untraced.append(wall)
        timed += wall
        attempted, failed, items = attempted + n, failed + bad, items + n
        if trace:
            wall, n, bad, spans = load.run_op(op, traced=True)
            traced.append(wall)
            timed += wall
            attempted, failed = attempted + n, failed + bad
            stats.add_op(wall, spans)
        op += 1
    while setup_probe is not None and len(setup) < SETUP_REPEATS:
        setup.append(setup_probe())
    return {"untraced": untraced, "traced": traced, "setup": setup, "attempted": attempted,
            "failed": failed, "items": items, "stats": stats}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pthamil", "__init__.py")):
        print(f"perfbench: no pthamil sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import pthamil

    if not os.path.abspath(pthamil.__file__).startswith(src + os.sep):
        print(f"perfbench: pthamil imported from {pthamil.__file__}, not {src}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    base = os.path.join(root, ".perfbench_work")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(base, "inputs", f"{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        load = WORKLOADS[args.workload](root, work, env)
        load.prepare(args.seed)
        probe = None if args.trace else (lambda: setup_once(root, env))
        result = measure(load, args.seconds, bool(args.trace), probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = result["untraced"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(root, src),
              "setup_s_samples": result["setup"], "op_s_untraced": untraced,
              "op_s_traced": result["traced"], "attempted": result["attempted"],
              "failed": result["failed"]}
    if args.trace:
        overhead = statistics.median(result["traced"]) - statistics.median(untraced)
        metrics = result["stats"].metrics()
        metrics["trace.overhead_ms"] = 1e3 * overhead
        metrics["trace.overhead_frac"] = overhead / statistics.median(untraced)
        units = {k: tracer.unit_of(k) for k in metrics}
        traces = os.path.join(base, "traces")
        os.makedirs(traces, exist_ok=True)
        tracer.save_table(os.path.join(traces, f"{args.workload}-seed{args.seed}.npz"),
                          load.trace_table())
    else:
        label, tail_s = tail(untraced)
        metrics = {
            "setup_s": statistics.median(result["setup"]),
            "latency_ms.p50": 1e3 * statistics.median(untraced),
            "latency_ms.tail": 1e3 * tail_s,
            "items_per_s": result["items"] / sum(untraced),
            "peak_rss_mb": load.peak_rss_mb(),
        }
        units = E2E_UNITS
        record["tail_percentile"] = label
        for fmt, walls in getattr(load, "call_walls", {}).items():
            record[f"analyze_{fmt}_s"] = walls
            print(f"# analyze --format {fmt}: median {statistics.median(walls):.3f} s "
                  f"(n={len(walls)})")
        print(f"# {args.workload}: {len(untraced)} operations, {result['items']} items; "
              f"latency p50 {metrics['latency_ms.p50']:.3f} ms, tail {label} "
              f"{metrics['latency_ms.tail']:.3f} ms (n={len(untraced)}); "
              f"setup median of {len(result['setup'])}")
    record["metrics"] = metrics
    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
    results = os.path.join(base, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
