"""Byte digests of pthamil's outputs on a fixed input set, to show that a
change leaves the outputs of two trees identical.

Run by hand from the repository root; pytest does not collect this file:

    PYTHONPATH=src python tests/digests.py > digests.txt

It prints one line per input and output format, ``<sha256>  <input> <format>``:
the JSON report, the text rendering and the CSV rendering of each analysis,
as ``analyze --format`` prints them, or the JSON error entry of an analysis
that raises. Run it on both trees and ``diff`` the two files.

The inputs are perfbench's (``sweep-small`` seed 203, ``analyze-large`` seeds
0-39, ``batch-mixed`` seeds 7 and 711), each frameless and under
``alternating/k``, plus the two-level model at (alpha, beta) = (5, 3) and
(3, 5) in its default frame. The files are written under ``WORKDIR``, the same
directory on every run, since a JSON report and an error message name their
input file. BLAS runs on one thread, since a report's bytes depend on the
BLAS thread count.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

if __name__ == "__main__":  # before numpy loads; an importing test keeps its BLAS
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from pthamil.cli import _emit
from pthamil.jsontext import dumps
from pthamil.pipeline import TOL_ENV_VAR, AnalysisConfig, error_entry, run_analyze
from testutil import perfbench_workloads

WORKDIR = os.path.join(tempfile.gettempdir(), "pthamil-digests")
FORMATS = ("json", "text", "csv")
#: the frames every workload input is analyzed under
FRAMES = {"none": dict(p_spec="none"), "alternating-k": dict(p_spec="alternating", t_spec="k")}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(cfg: AnalysisConfig) -> dict:
    """``{format: sha256}`` of one analysis's outputs, or ``{"error": sha256}``
    of its error entry."""
    try:
        report = run_analyze(cfg)
    except Exception as exc:  # an error entry is an output too
        return {"error": _sha(dumps(error_entry(exc)))}
    out = {}
    for fmt in FORMATS:
        with contextlib.redirect_stdout(io.StringIO()) as text:
            _emit(report, fmt)
        out[fmt] = _sha(text.getvalue())
    return out


def inputs(directory: str) -> dict:
    """``{name: AnalysisConfig fields}`` of every input, its files written
    under ``directory``."""
    workloads = perfbench_workloads()
    sources = {}

    def subdir(name):
        path = os.path.join(directory, name)
        os.makedirs(path, exist_ok=True)
        return path

    for i, point in enumerate(workloads.make_sweep_small(subdir("sweep-small-203"), 203)):
        sources[f"sweep-small-203/{i:04d}"] = (
            dict(source_path=point.path) if point.path is not None
            else dict(model="two-level", alpha=point.alpha, beta=point.beta))
    for seed in range(40):
        f = workloads.make_analyze_large(subdir(f"analyze-large-{seed}"), seed)
        sources[f"analyze-large-{seed}"] = dict(source_path=f.path)
    for seed in (7, 711):
        for f in workloads.make_batch_mixed(subdir(f"batch-mixed-{seed}"), seed):
            sources[f"batch-mixed-{seed}/{os.path.basename(f.path)}"] = dict(source_path=f.path)
    out = {f"{name}@{frame}": dict(fields, **spec)
           for name, fields in sources.items() for frame, spec in FRAMES.items()}
    for alpha, beta in ((5.0, 3.0), (3.0, 5.0)):
        out[f"two-level-{alpha:g}-{beta:g}@default"] = dict(model="two-level", alpha=alpha,
                                                            beta=beta)
    return out


def lines(cases: dict):
    """``<sha256>  <input> <format>`` for each output of each case of ``cases``
    (``{name: AnalysisConfig fields}``)."""
    for name, fields in cases.items():
        for fmt, sha in digest(AnalysisConfig(**fields)).items():
            yield f"{sha}  {name} {fmt}"


def main() -> int:
    os.environ.pop(TOL_ENV_VAR, None)
    for line in lines(inputs(WORKDIR)):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
