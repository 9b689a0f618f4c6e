"""Single-operator mutants of the numerical kernels, each run against tier-1.

Run by hand from the repository root; pytest does not collect this file:

    python tests/mutants.py --list              # every mutant, one a line
    python tests/mutants.py [--workdir DIR] [NAME ...]

A mutant changes one operator of one of ``MODULES``: a comparison flips
between strict and non-strict (``<``/``<=``, ``>``/``>=``), or an arithmetic
operator swaps (``+``/``-``, ``*``/``/``). Only the operator's characters
change, so every other line of the source stays as it is. A mutant is named
``module.function#k``: the k-th such operator, in source order, of that
function (``module.<module>#k`` outside any function), so an edit to one
function leaves the names of every other function's mutants alone.

Each of ``WORKERS`` workers runs the tier-1 suite with ``-x`` in its own
copy of the repository, with one module mutated; a mutant is killed when the
suite fails or runs longer than ``TIMEOUT`` seconds. The run prints one line
per mutant and a summary, and exits 1 when a mutant that ``EQUIVALENT`` does
not list survives.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "pthamil")
MODULES = ("linalg", "intertwiner", "antilinear", "cpt", "spectra")
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
WORKERS = 2  # copies of the tree, each running one tier-1 suite at a time
TIMEOUT = 600.0  # seconds of one mutant's tier-1 run before it counts as killed

#: mutants that no input can tell from the original, each with the reason
EQUIVALENT = {
    "intertwiner.v_gram#0": "conj(phase_fix) / eta against * eta: each eta is +1 or -1",
    "cpt.build_c#0": "R / weights against R * weights: each weight is +1 or -1",
    "antilinear.calibrate#2": "coeff * |coeff| has the phase of coeff / |coeff|, and |coeff| "
                              "is 1 to rounding for a PT eigenstate",
}


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str
    start: int  # byte offsets of the operator in the module's UTF-8 source
    end: int
    old: str
    new: str

    def apply(self, source: bytes) -> bytes:
        assert source[self.start:self.end] == self.old.encode(), self.name
        return source[:self.start] + self.new.encode() + source[self.end:]


def _operators(node):
    """``(op, left operand, right operand)`` for each mutable operator of ``node``."""
    if isinstance(node, ast.BinOp):
        yield node.op, node.left, node.right
    elif isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        yield from zip(node.ops, operands, operands[1:])


def _scopes(tree: ast.Module, module: str):
    """``(qualified name, nodes)`` of the module and of every function in it;
    a scope's nodes exclude those of the functions nested in it."""
    stack = [(f"<{module}>", tree)]
    while stack:
        name, node = stack.pop()
        own, todo = [], list(ast.iter_child_nodes(node))
        while todo:
            child = todo.pop()
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append((child.name if name[0] == "<" else f"{name}.{child.name}", child))
            elif isinstance(child, ast.ClassDef):
                stack.append((child.name, child))
            else:
                own.append(child)
                todo.extend(ast.iter_child_nodes(child))
        yield name, own


def _operator_at(source: bytes, start: int, stop: int) -> tuple:
    """Byte span of the one operator between two operands: all else there is
    whitespace, parentheses, line continuations and comments."""
    i = start
    while i < stop:
        c = source[i:i + 1]
        if c == b"#":
            i = source.index(b"\n", i)
        elif c in b" \t\r\n()\\":
            i += 1
        else:
            j = i
            while j < stop and source[j:j + 1] in b"<>=+-*/":
                j += 1
            return i, j
    raise ValueError("no operator between operands")


def module_mutants(module: str, source: bytes) -> list:
    """Every mutant of ``module``, whose UTF-8 text is ``source``."""
    offsets = [0]
    for line in source.splitlines(keepends=True):
        offsets.append(offsets[-1] + len(line))
    mutants = []
    for scope, nodes in _scopes(ast.parse(source), module):
        found = []
        for node in nodes:
            for op, left, right in _operators(node):
                if type(op) in SWAPS:
                    start, end = _operator_at(source, offsets[left.end_lineno - 1] + left.end_col_offset,
                                              offsets[right.lineno - 1] + right.col_offset)
                    found.append((start, end, SYMBOLS[type(op)], SYMBOLS[SWAPS[type(op)]]))
        for k, (start, end, old, new) in enumerate(sorted(found)):
            mutants.append(Mutant(f"{module}.{scope}#{k}", module, start, end, old, new))
    return sorted(mutants, key=lambda m: m.start)


def all_mutants(root: str = ROOT) -> list:
    mutants = []
    for module in MODULES:
        with open(os.path.join(root, PACKAGE, f"{module}.py"), "rb") as fh:
            mutants += module_mutants(module, fh.read())
    return mutants


def _run(mutant: Mutant, copy: str) -> tuple:
    """Run tier-1 in ``copy`` with ``mutant`` applied; ``(killed, detail)``."""
    path = os.path.join(copy, PACKAGE, f"{mutant.module}.py")
    with open(path, "rb") as fh:
        original = fh.read()
    shutil.rmtree(os.path.join(copy, ".hypothesis"), ignore_errors=True)  # no shared examples
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        with open(path, "wb") as fh:
            fh.write(mutant.apply(original))
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                              cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return True, "timeout"
    finally:
        with open(path, "wb") as fh:
            fh.write(original)
    if proc.returncode == 0:
        return False, ""
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return True, failed[0] if failed else f"exit {proc.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    parser.add_argument("--list", action="store_true", help="print every mutant and exit")
    parser.add_argument("--workdir", help="where the copies go (default: a temporary directory)")
    args = parser.parse_args(argv)

    mutants = all_mutants()
    if args.list:
        for m in mutants:
            print(f"{m.name}  {m.old} -> {m.new}")
        return 0
    if args.names:
        unknown = set(args.names) - {m.name for m in mutants}
        if unknown:
            parser.error(f"no such mutant: {', '.join(sorted(unknown))}")
        mutants = [m for m in mutants if m.name in args.names]

    base = tempfile.mkdtemp(prefix="pthamil-mutants-", dir=args.workdir)
    copies = [os.path.join(base, f"w{i}") for i in range(WORKERS)]
    free = queue.SimpleQueue()  # one copy of the tree per worker thread
    for copy in copies:
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info", ".perfbench_work"))
        free.put(copy)
    survivors, killed = [], 0
    begun = time.monotonic()

    def job(mutant):
        copy = free.get()
        try:
            return mutant, *_run(mutant, copy)
        finally:
            free.put(copy)

    try:
        with ThreadPoolExecutor(len(copies)) as pool:
            for mutant, dead, detail in pool.map(job, mutants):
                status = "killed" if dead else (
                    "equivalent" if mutant.name in EQUIVALENT else "SURVIVED")
                killed += dead
                if status == "SURVIVED":
                    survivors.append(mutant.name)
                print(f"{status:10} {mutant.name}  {mutant.old} -> {mutant.new}  {detail}",
                      flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{killed} of {len(mutants)} killed, {len(survivors)} survived outside EQUIVALENT, "
          f"in {time.monotonic() - begun:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
