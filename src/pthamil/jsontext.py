"""JSON text in the one layout pthamil prints: 2-space indentation, sorted
keys, ASCII-escaped strings and shortest round-trip floats.

:func:`dumps` writes the same bytes as ``json.dumps(obj, indent=2,
sort_keys=True)``, and also takes 2-D float64 numpy arrays, written as that
call writes the array's ``tolist()``. With ``indent`` set, CPython's ``json``
leaves its C encoder for a Python generator that costs several calls per
float; reports hold hundreds of thousands of floats, almost all in the
matrices, so a row of plain floats is written with one join, and a matrix
array formats each distinct magnitude once: its symmetric halves, repeated
values and exact zeros share one string.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

import numpy as np

_INF = float("inf")

#: an array with fewer entries is written row by row from ``tolist()``: below
#: about 100 entries ``np.unique``'s fixed cost outweighs the reprs it saves
_TABLE_MIN_SIZE = 100


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for dicts with ``str``
    keys, lists, tuples, ``str``, ``int``, ``float``, ``bool`` and ``None``;
    a 2-D float64 ndarray is written as its ``tolist()``.

    Raises TypeError for any other value or key type, any other ndarray
    included.
    """
    return _encode(obj, "\n")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _matrix(a: np.ndarray, nl: str) -> str:
    """The 2-D float64 array ``a`` as ``_encode(a.tolist(), nl)`` writes it,
    each distinct magnitude formatted once."""
    flat = a.ravel()
    mags, inverse = np.unique(np.abs(flat), return_inverse=True)
    strs = list(map(float.__repr__, mags.tolist()))
    # inf and nan sort last
    finite = int(np.count_nonzero(np.isfinite(mags)))
    strs[finite:] = ["Infinity" if s == "inf" else "NaN" for s in strs[finite:]]
    table = np.array(strs + ["-" + s for s in strs], dtype=object)
    cells = table[inverse + len(strs) * (np.signbit(flat) & ~np.isnan(flat))].tolist()
    inner = nl + "  "
    sep = "," + inner + "  "
    width = a.shape[1]
    rows = [sep.join(cells[i:i + width]) for i in range(0, len(cells), width)]
    return f"[{inner}[{inner}  " + f"{inner}],{inner}[{inner}  ".join(rows) + f"{inner}]{nl}]"


def _encode(o, nl: str) -> str:
    """``o`` as JSON text whose closing bracket follows ``nl``, the newline
    and indentation of the line ``o`` starts on."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, np.ndarray):
        if o.ndim != 2 or o.dtype != np.float64:
            raise TypeError(f"Object of type ndarray ({o.ndim}-D {o.dtype}) "
                            "is not JSON serializable")
        if o.size >= _TABLE_MIN_SIZE:
            return _matrix(o, nl)
        o = o.tolist()
    inner = nl + "  "
    sep = "," + inner
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = sorted(o.items())
        if not all(isinstance(k, str) for k, _ in items):
            raise TypeError("JSON object keys must be str")
        body = sep.join([f"{_quote(k)}: {_encode(v, inner)}" for k, v in items])
        return f"{{{inner}{body}{nl}}}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if set(map(type, o)) == {float}:
            body = sep.join(map(float.__repr__, o))
            # 'nan' and 'inf' are the only float reprs with an 'n'; json spells them
            # NaN and Infinity, so such a row takes the per-item path
            if "n" not in body:
                return f"[{inner}{body}{nl}]"
        body = sep.join([_encode(v, inner) for v in o])
        return f"[{inner}{body}{nl}]"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
