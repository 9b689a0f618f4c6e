"""Matrix file I/O.

Two on-disk formats are supported:

* JSON: ``{"dim": n, "re": [[...]], "im": [[...]]}`` — ``re`` is required,
  ``im`` defaults to zeros, ``dim`` is validated when present.
* CSV: ``n`` lines of ``n`` cells, each cell a complex literal written with
  ``i`` as the imaginary unit: ``0``, ``1.5``, ``-2i``, ``3+4i``, ``1.2e-3-5i``,
  ``i``, ``-i``. Whitespace inside cells is ignored.
"""

from __future__ import annotations

import cmath
import json
import os

import numpy as np

from .errors import ParseError
from .linalg import as_matrix


def parse_complex_cell(text: str) -> complex:
    """Parse one ``a+bi`` cell."""
    s = "".join(str(text).split())
    if not s:
        raise ParseError("empty cell")
    normalized = s.replace("i", "j").replace("I", "j")
    try:
        value = complex(normalized)
    except ValueError as exc:
        raise ParseError(f"cannot parse complex cell {text!r}") from exc
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise ParseError(f"non-finite cell {text!r}")
    return value


def format_complex_cell(z: complex, digits: int = 12) -> str:
    """Format a complex number in the ``a+bi`` cell grammar."""
    z = complex(z)
    re = f"{z.real:.{digits}g}"
    if z.imag == 0.0:
        return re
    im = f"{abs(z.imag):.{digits}g}"
    sign = "+" if z.imag > 0 else "-"
    if z.real == 0.0:
        return f"{'-' if z.imag < 0 else ''}{im}i"
    return f"{re}{sign}{im}i"


def matrix_to_dict(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_dict(d, name: str = "matrix") -> np.ndarray:
    if not isinstance(d, dict) or "re" not in d:
        raise ParseError(f"{name}: expected an object with an 're' field")
    re = _float_table(d["re"])
    if re is None:
        raise ParseError(f"{name}: 're' must be a rectangular table of numbers")
    im = d.get("im")
    if im is None:
        im = np.zeros_like(re)
    else:
        im = _float_table(im)
        if im is None or im.shape != re.shape:
            raise ParseError(f"{name}: 'im' must match the shape of 're'")
    dim = d.get("dim", re.shape[0])
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ParseError(f"{name}: 'dim' must be an integer, got {dim!r}")
    if dim != re.shape[0]:
        raise ParseError(f"{name}: declared dim {dim} does not match data {re.shape}")
    try:
        return as_matrix(re + 1j * im, name)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _float_table(rows):
    """``rows`` as a 2-D float array, or None unless it is a non-empty list of
    equally long lists of numbers that fit a float. JSON true/false load as
    bool, a subclass of int, and are not numbers; a row is checked by its set
    of entry types, not entry by entry."""
    if not (isinstance(rows, list) and rows and all(
            isinstance(r, list) and len(r) == len(rows[0])
            and bool not in (types := set(map(type, r)))
            and all(issubclass(t, (int, float)) for t in types) for r in rows)):
        return None
    try:
        return np.asarray(rows, dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None


def load_matrix(path: str) -> np.ndarray:
    """Load a matrix from a JSON or CSV file (dispatch on extension, with a
    content sniff fallback)."""
    if not os.path.exists(path):
        raise ParseError(f"no such file: {path}")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc
    except OSError as exc:
        raise ParseError(f"{path}: cannot read ({exc})") from exc
    ext = os.path.splitext(path)[1].lower()
    if ext == ".json" or (ext not in (".csv",) and text.lstrip().startswith("{")):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from exc
        return matrix_from_dict(payload, name=path)
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows:
        raise ParseError(f"{path}: empty matrix file")
    cells = []
    for line in rows:
        try:  # a row at a time, in the grammar of parse_complex_cell
            row = list(map(complex, "".join(line.split()).replace("i", "j")
                           .replace("I", "j").split(",")))
        except ValueError:
            row = None
        # cell by cell, for its message, a row that fails or holds a non-finite
        # cell: a sum is finite only if every cell is (an overflow only re-parses)
        if row is None or not cmath.isfinite(sum(row)):
            row = [parse_complex_cell(c) for c in line.split(",")]
        cells.append(row)
    width = len(cells[0])
    if any(len(r) != width for r in cells):
        raise ParseError(f"{path}: ragged CSV rows")
    try:
        return as_matrix(cells, name=path)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def save_matrix(path: str, m) -> None:
    """Write a matrix in the format selected by the file extension."""
    m = as_matrix(m)
    ext = os.path.splitext(path)[1].lower()
    with open(path, "w", encoding="utf-8") as fh:
        if ext == ".csv":
            for row in m:
                fh.write(",".join(format_complex_cell(z) for z in row) + "\n")
        else:
            json.dump(matrix_to_dict(m), fh, indent=2)
            fh.write("\n")
