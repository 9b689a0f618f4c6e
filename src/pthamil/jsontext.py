"""JSON text in the one layout pthamil prints: 2-space indentation, sorted
keys, ASCII-escaped strings and shortest round-trip floats.

:func:`dumps` writes the same bytes as ``json.dumps(obj, indent=2,
sort_keys=True)``. With ``indent`` set, CPython's ``json`` leaves its C
encoder for a Python generator that costs several calls per float; reports
hold hundreds of thousands of floats, almost all in rows of a matrix, so a
row of plain floats is written with one join instead.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

_INF = float("inf")


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for dicts with ``str``
    keys, lists, tuples, ``str``, ``int``, ``float``, ``bool`` and ``None``.

    Raises TypeError for any other value or key type.
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
