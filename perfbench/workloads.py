"""Seeded inputs and output oracles for the three benchmark workloads.

Every input is drawn from ``numpy.random.default_rng(seed)``, so one seed
always gives the same matrices, files and point order. Expected outcomes come
from how an input was built plus an independent ``numpy.linalg.eigvals`` of
it, never from pthamil itself.

The P·A construction: ``P = diag((-1)^k)`` is the alternating parity and ``A``
is Hermitian with ``conj(A) = P A P`` (real entries where ``j + k`` is even,
imaginary ones where it is odd). Then ``H = P A`` satisfies
``P^-1 H P = H^dagger`` (P intertwines) and ``P conj(H) P = H`` (PT symmetry
with ``T = K``). ``A`` positive definite makes ``H`` similar to the Hermitian
``A^1/2 P A^1/2``, so its spectrum is real; an indefinite ``A`` gives
conjugate pairs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

ALL_REAL = "all_real"
CONJUGATE_PAIRS = "conjugate_pairs"

#: verdict of the [C, PT] diagnostic that each spectrum kind must produce
DIAGNOSTIC_FOR_KIND = {ALL_REAL: "real_spectrum", CONJUGATE_PAIRS: "complex_pairs"}

#: relative tolerance of the eigenvalue comparison (text output carries 12 digits)
EIGEN_RTOL = 1e-8


@dataclass(frozen=True)
class Expected:
    """What one input must produce: a report of ``kind`` with eigenvalues
    ``values``, or the error ``error`` with CLI exit code ``exit_code`` and a
    message containing ``message``."""

    kind: str | None = None
    values: tuple = ()
    error: str | None = None
    exit_code: int = 0
    message: str = ""


@dataclass(frozen=True)
class MatrixFile:
    path: str
    dim: int
    expected: Expected


@dataclass(frozen=True)
class SweepPoint:
    """One ``sweep-small`` point: a two-level ``(alpha, beta)`` or a P·A file."""

    expected: Expected
    alpha: float | None = None
    beta: float | None = None
    path: str | None = None


# --- matrix construction -----------------------------------------------------

def alternating_parity(n: int) -> np.ndarray:
    return np.array([(-1.0) ** k for k in range(n)])


def structured_hermitian(rng, n: int) -> np.ndarray:
    """Random Hermitian G with ``conj(G) = P G P`` for the alternating P."""
    x = rng.standard_normal((n, n))
    y = rng.standard_normal((n, n))
    odd = (np.add.outer(np.arange(n), np.arange(n)) % 2).astype(bool)
    return np.where(odd, 1j * (y - y.T) / 2, (x + x.T) / 2) / np.sqrt(n)


def _unambiguous(values: np.ndarray, want_real: bool) -> bool:
    """Reject draws whose classification could hinge on rounding: every
    eigenvalue is clearly real or clearly complex, and no two are close."""
    scale = float(np.max(np.abs(values)))
    imag = np.abs(values.imag) / scale
    is_complex = imag > 1e-6
    if np.any(imag[~is_complex] > 1e-12) or bool(np.any(is_complex)) == want_real:
        return False
    gaps = np.abs(values[:, None] - values[None, :]) / scale
    np.fill_diagonal(gaps, np.inf)
    return bool(np.min(gaps) > 1e-6)


def pa_matrix(rng, n: int, definite: bool):
    """``H = P A`` and its eigenvalues; ``definite`` selects a positive
    definite A (real spectrum) or an indefinite one (conjugate pairs)."""
    p = alternating_parity(n)
    for _ in range(100):
        g = structured_hermitian(rng, n)
        lam = np.linalg.eigvalsh(g)
        a = g + (0.5 - lam[0]) * np.eye(n) if definite else g
        h = p[:, None] * a
        values = np.linalg.eigvals(h)
        if _unambiguous(values, want_real=definite):
            return h, values
    raise RuntimeError(f"no unambiguous P·A draw at n={n}")


def jordan_block(rng, n: int) -> np.ndarray:
    """``lambda I + N``: one eigenvalue, one eigenvector, so not diagonalizable."""
    return float(rng.uniform(0.5, 2.0)) * np.eye(n) + np.eye(n, k=1)


def unpaired_matrix(rng, n: int) -> np.ndarray:
    """Normal matrix with real eigenvalues except one complex one, which has no
    conjugate partner."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(z)
    d = rng.uniform(-2.0, 2.0, n).astype(complex)
    d[0] = complex(rng.uniform(-1.0, 1.0), 1.0)
    return (u * d) @ u.conj().T


# --- file formats --------------------------------------------------------------

def write_json(path: str, h: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": int(h.shape[0]), "re": h.real.tolist(), "im": h.imag.tolist()}, fh)


def csv_text(h: np.ndarray) -> str:
    """Cells ``a+bi`` with shortest round-trip floats, so the file is exact."""
    return "".join(",".join(f"{z.real!r}{z.imag:+}i" for z in row) + "\n" for row in h.tolist())


def write_csv(path: str, h: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(csv_text(h))


# --- workloads -----------------------------------------------------------------

#: size of the ``analyze-large`` matrix: large enough that report serialization
#: dominates each call, small enough that a run holds a dozen operations
ANALYZE_DIM = 160


def make_analyze_large(root: str, seed: int) -> MatrixFile:
    """One n=160 real-spectrum P·A matrix as JSON."""
    rng = np.random.default_rng([seed, 1])
    h, values = pa_matrix(rng, ANALYZE_DIM, definite=True)
    path = os.path.join(root, "H.json")
    write_json(path, h)
    return MatrixFile(path, ANALYZE_DIM, Expected(kind=ALL_REAL, values=tuple(values)))


#: size of the four expected-error files of ``batch-mixed``, mid-range
ERROR_DIM = 130


def size_ladder(count: int, lo: int, hi: int) -> list:
    """``count`` sizes spread evenly over ``[lo, hi]``. Sizes do not depend on
    the seed, so every seed asks for the same amount of work."""
    return [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]


def make_batch_mixed(root: str, seed: int) -> list:
    """28 P·A files with n in [100, 160] (half real, half conjugate pairs, each
    half split between JSON and CSV) and 4 expected-error files."""
    rng = np.random.default_rng([seed, 2])
    files = []
    for i, n in enumerate(size_ladder(28, 100, 160)):
        definite = i % 2 == 0
        ext = "json" if (i // 2) % 2 == 0 else "csv"
        h, values = pa_matrix(rng, n, definite)
        kind = ALL_REAL if definite else CONJUGATE_PAIRS
        path = os.path.join(root, f"m{i:02d}_{kind}_n{n}.{ext}")
        (write_json if ext == "json" else write_csv)(path, h)
        files.append(MatrixFile(path, n, Expected(kind=kind, values=tuple(values))))

    n = ERROR_DIM
    path = os.path.join(root, f"e0_jordan_n{n}.json")
    write_json(path, jordan_block(rng, n))
    files.append(MatrixFile(path, n, Expected(error="NonDiagonalizable", exit_code=4,
                                              message="exceptional point")))

    path = os.path.join(root, f"e1_unpaired_n{n}.csv")
    write_csv(path, unpaired_matrix(rng, n))
    files.append(MatrixFile(path, n, Expected(error="UnpairedComplexEigenvalue", exit_code=3,
                                              message="lack conjugate partners")))

    rows = csv_text(pa_matrix(rng, n, definite=True)[0]).splitlines()
    k = int(rng.integers(0, n))
    rows[k] = rows[k].rsplit(",", 1)[0]
    path = os.path.join(root, f"e2_ragged_n{n}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    files.append(MatrixFile(path, n, Expected(error="ParseError", exit_code=2,
                                              message="ragged CSV rows")))

    path = os.path.join(root, f"e3_truncated_n{n}.json")
    write_json(path, pa_matrix(rng, n, definite=True)[0])
    with open(path, "r+", encoding="utf-8") as fh:
        fh.truncate(os.path.getsize(path) // 2)
    files.append(MatrixFile(path, n, Expected(error="ParseError", exit_code=2,
                                              message="invalid JSON")))

    # largest first: the pool's last tasks are its shortest, so how long one
    # worker idles at the end does not depend on the seed
    return sorted(files, key=lambda f: -f.dim)


#: the two-level grid: alpha and beta both on 40 points of [0.1, 3]
GRID = np.linspace(0.1, 3.0, 40)
SWEEP_PA_POINTS = 208  # 16 of each size 4..16


def two_level_expected(alpha: float, beta: float) -> Expected:
    """Closed form of ``alpha sigma_1 + i beta sigma_2``: energies
    ``+-sqrt(alpha^2 - beta^2)``, real below the diagonal, a conjugate pair
    above it, and the exceptional point on it."""
    if alpha == beta:
        return Expected(error="NonDiagonalizable", exit_code=4, message="exceptional point")
    gap = np.sqrt(complex(alpha * alpha - beta * beta))
    kind = ALL_REAL if alpha > beta else CONJUGATE_PAIRS
    return Expected(kind=kind, values=(gap, -gap))


def make_sweep_small(root: str, seed: int) -> list:
    """The 40 x 40 two-level grid plus P·A files with n cycling through
    4..16, shuffled."""
    rng = np.random.default_rng([seed, 3])
    points = [SweepPoint(two_level_expected(float(a), float(b)), alpha=float(a), beta=float(b))
              for a in GRID for b in GRID]
    for i in range(SWEEP_PA_POINTS):
        n = 4 + i % 13
        h, values = pa_matrix(rng, n, definite=True)
        path = os.path.join(root, f"s{i:03d}_n{n}.json")
        write_json(path, h)
        points.append(SweepPoint(Expected(kind=ALL_REAL, values=tuple(values)), path=path))
    order = rng.permutation(len(points))
    return [points[i] for i in order]


# --- oracles -------------------------------------------------------------------

def values_match(got, want, rtol: float = EIGEN_RTOL) -> bool:
    """Same multiset of eigenvalues within ``rtol`` of the spectral radius.

    Inputs have eigenvalue gaps far above the tolerance, so nearest-neighbour
    agreement both ways with equal counts is a one-to-one match.
    """
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape or got.size == 0:
        return False
    tol = rtol * max(1.0, float(np.max(np.abs(want))))
    dist = np.abs(got[:, None] - want[None, :])
    return bool(np.max(np.min(dist, axis=1)) <= tol and np.max(np.min(dist, axis=0)) <= tol)


def check_report(report: dict, expected: Expected) -> list:
    """Problems with one JSON report (an empty list means correct)."""
    problems = []
    kind = report["spectrum"]["kind"]
    if kind != expected.kind:
        problems.append(f"spectrum kind {kind}, expected {expected.kind}")
    values = [complex(re, im) for re, im in report["eigen"]["values"]]
    if not values_match(values, expected.values):
        problems.append("eigenvalues differ from numpy.linalg.eigvals")
    failed = sorted(name for name, flag in report["flags"].items() if not flag["passed"])
    if failed:
        problems.append(f"flags failed: {failed}")
    if report["diagnostic"] != DIAGNOSTIC_FOR_KIND.get(expected.kind):
        problems.append(f"diagnostic {report['diagnostic']!r} for kind {expected.kind}")
    return problems


def parse_text_report(text: str) -> dict:
    """Section title -> non-empty lines of the ``analyze --format text`` output."""
    sections, current = {}, None
    for line in text.splitlines():
        if line.startswith("== ") and line.endswith(" =="):
            current = sections.setdefault(line[3:-3], [])
        elif current is not None and line.strip():
            current.append(line.strip())
    return sections


def check_text_report(text: str, expected: Expected) -> list:
    """The checks of :func:`check_report`, read from the text rendering."""
    s = parse_text_report(text)
    for title in ("spectrum", "eigenvalues", "diagnostic", "flags"):
        if not s.get(title):
            return [f"section {title!r} missing"]
    problems = []
    if s["spectrum"][0] != f"kind: {expected.kind}":
        problems.append(f"spectrum line {s['spectrum'][0]!r}, expected kind {expected.kind}")
    try:
        values = [complex(cell.replace("i", "j")) for cell in s["eigenvalues"]]
    except ValueError:
        return problems + ["unparseable eigenvalue line"]
    if not values_match(values, expected.values):
        problems.append("eigenvalues differ from numpy.linalg.eigvals")
    failed = [line for line in s["flags"] if ": pass (" not in line]
    if failed:
        problems.append(f"flags not passed: {failed}")
    if s["diagnostic"][0] != DIAGNOSTIC_FOR_KIND.get(expected.kind):
        problems.append(f"diagnostic {s['diagnostic'][0]!r} for kind {expected.kind}")
    return problems


def check_batch_output(text: str, files: list) -> int:
    """Number of files whose ``batch --format text`` status line is missing or
    differs from the file's expected outcome."""
    status = {}
    for line in text.splitlines():
        path, sep, rest = line.partition(": ")
        if sep:
            status[path] = rest
    bad = 0
    for f in files:
        line = status.get(f.path)
        if f.expected.error is None:
            bad += line != "ok"
        else:
            bad += line is None or not line.startswith("error: ") or f.expected.message not in line
    return bad


def check_error(exc: BaseException, expected: Expected, exit_code: int) -> list:
    """Problems with an error raised (or reported) for one input."""
    if expected.error is None:
        return [f"unexpected {type(exc).__name__}: {exc}"]
    problems = []
    if type(exc).__name__ != expected.error:
        problems.append(f"raised {type(exc).__name__}, expected {expected.error}")
    if exit_code != expected.exit_code:
        problems.append(f"exit code {exit_code}, expected {expected.exit_code}")
    return problems
