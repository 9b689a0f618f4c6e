"""Process entry of the ``pthamil`` command and ``python -m pthamil``.

The command line is parsed here, before numpy is imported: a ``batch`` with
more than one worker caps BLAS at one thread first, so the process loads
numpy without a BLAS thread pool and ``run_batch`` can fork its workers.
This module imports no numpy.
"""

import argparse
import os
import re
import sys

#: thread-count variables of the BLAS libraries numpy may be built on
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_caps(environ) -> tuple:
    """The BLAS variables to set to ``1``: all of them, or none if ``environ``
    sets any, since the one the caller set may be the one their BLAS reads
    first (OpenBLAS reads its own before OMP's)."""
    return () if any(name in environ for name in BLAS_THREAD_VARS) else BLAS_THREAD_VARS


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads ``-1e200``, ``-.5E-3`` and ``-inf`` as
    negative numbers, where argparse's own test admits only ``-1`` and
    ``-1.5``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf|infinity|nan))$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pthamil",
        description="Inner products and metric operators for Hamiltonians "
                    "with antilinear (PT-type) symmetry.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    analyze = subs.add_parser("analyze", help="full analysis of one Hamiltonian")
    source = analyze.add_mutually_exclusive_group(required=True)
    source.add_argument("--file", help="Hamiltonian matrix file (JSON or CSV)")
    source.add_argument("--model", choices=("two-level", "fock-x"),
                        help="builtin model instead of a file")
    analyze.add_argument("--alpha", type=float, help="two-level parameter alpha")
    analyze.add_argument("--beta", type=float, help="two-level parameter beta")
    analyze.add_argument("--nmax", type=int, help="fock-x truncation size")
    analyze.add_argument("--p", dest="p_spec",
                         help="parity matrix: file, builtin (sigma1|sigma2|sigma3|identity|alternating), or 'none'")
    analyze.add_argument("--t", dest="t_spec",
                         help="time reversal: file holding u of v->u*conj(v), or builtin (k|ki|kisigma1)")
    analyze.add_argument("--c-signs", help="comma-separated +-1 weights for the C operator")
    analyze.add_argument("--tol", type=float, help="tolerance override (default 1e-10 or PTHAMIL_TOL)")
    analyze.add_argument("--format", dest="output", choices=("text", "json", "csv"), default="text")

    batch = subs.add_parser("batch", help="analyze many matrix files")
    batch.add_argument("paths", nargs="*", help="matrix files")
    batch.add_argument("--parallelism", type=int, default=1)
    batch.add_argument("--tol", type=float)
    batch.add_argument("--format", dest="output", choices=("text", "json"), default="json")

    two = subs.add_parser("two-level", help="closed forms and pipeline comparison")
    two.add_argument("--alpha", type=float, required=True)
    two.add_argument("--beta", type=float, required=True)
    two.add_argument("--tol", type=float)
    two.add_argument("--format", dest="output", choices=("text", "json"), default="text")

    fock = subs.add_parser("fock-demo", help="position-eigenstate coefficient table")
    fock.add_argument("--x", type=float, required=True)
    fock.add_argument("--nmax", type=int, default=2000)
    fock.add_argument("--csv", help="write the coefficient table to this CSV file")
    fock.add_argument("--format", dest="output", choices=("text", "json"), default="text")
    return parser


def console_main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    if args.command == "batch" and min(args.parallelism, len(args.paths)) > 1:
        # before numpy loads BLAS, so no BLAS thread starts in this process
        os.environ.update(dict.fromkeys(blas_caps(os.environ), "1"))
    from .cli import run

    try:
        code = run(args)
        sys.stdout.flush()  # a closed pipe raises here, inside the try, not at exit
    except BrokenPipeError:  # ``... | head``: the recipe of the Python docs' note on SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
