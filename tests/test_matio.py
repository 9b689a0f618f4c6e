"""Tests for matrix file parsing and formatting."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pthamil.errors import ParseError
from pthamil.matio import (
    format_complex_cell,
    load_matrix,
    matrix_from_dict,
    matrix_to_dict,
    parse_complex_cell,
    save_matrix,
)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0", 0.0),
        ("1.5", 1.5),
        ("-2i", -2.0j),
        ("3+4i", 3.0 + 4.0j),
        ("1.2e-3-5i", 1.2e-3 - 5.0j),
        ("i", 1.0j),
        ("-i", -1.0j),
        (" 1 + 2i ", 1.0 + 2.0j),
        ("2I", 2.0j),
    ],
)
def test_cell_grammar(text, expected):
    assert parse_complex_cell(text) == expected


@pytest.mark.parametrize("text", ["", "abc", "1+2x", "inf", "nan", "1++2i"])
def test_bad_cells(text):
    with pytest.raises(ParseError):
        parse_complex_cell(text)


def test_format_round_trip():
    values = [0.0, 1.5, -2.0j, 3.0 + 4.0j, 1.2e-3 - 5.0j, -0.75j, 12.25]
    for z in values:
        assert parse_complex_cell(format_complex_cell(z)) == z


def test_json_round_trip(tmp_path):
    m = np.array([[0.0, 8.0], [2.0, 0.0]]) + 1j * np.array([[0.0, 1.0], [-1.0, 0.0]])
    path = tmp_path / "h.json"
    save_matrix(str(path), m)
    loaded = load_matrix(str(path))
    assert np.array_equal(loaded, m)
    payload = json.loads(path.read_text())
    assert payload["dim"] == 2
    assert set(payload) == {"dim", "re", "im"}


def test_csv_round_trip(tmp_path):
    m = np.array([[1.0 + 2.0j, -0.5], [3.25j, -1.0 - 1.0j]])
    path = tmp_path / "h.csv"
    save_matrix(str(path), m)
    assert np.array_equal(load_matrix(str(path)), m)


def test_json_im_optional(tmp_path):
    path = tmp_path / "real.json"
    path.write_text('{"re": [[1, 0], [0, 2]]}')
    assert np.array_equal(load_matrix(str(path)), np.diag([1.0, 2.0]).astype(complex))


def test_json_rows_mixing_int_and_float(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text('{"re": [[1, 0.5], [0.0, 2]], "im": [[0, -1.5], [2, 0.0]]}')
    expected = np.array([[1.0, 0.5 - 1.5j], [2.0j, 2.0]])
    assert np.array_equal(load_matrix(str(path)), expected)


def test_json_dim_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 3, "re": [[1, 0], [0, 2]]}')
    with pytest.raises(ParseError):
        load_matrix(str(path))


@pytest.mark.parametrize("dim", ['"x"', '"2"', "2.5", "true", "null"])
def test_json_dim_not_an_integer(tmp_path, dim):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"dim": {dim}, "re": [[1, 0], [0, 2]]}}')
    with pytest.raises(ParseError, match="'dim' must be an integer"):
        load_matrix(str(path))


@pytest.mark.parametrize(
    "d",
    [
        {"re": [[True, 0], [0, 1]]},
        {"re": [[1, 0], [0, 1]], "im": [[0, False], [0, 0]]},
        {"re": [[1.0, "2"], [0, 1]]},
        {"re": [[1.0, 0.0], [False, 1.0]]},
        {"re": [[1.0, 0.0], [np.bool_(True), 1.0]]},
    ],
)
def test_non_numeric_entries_rejected(d):
    with pytest.raises(ParseError):
        matrix_from_dict(d)


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"re": [[1, 2], [3]]}', "'re' must be a rectangular table"),
        ('{"re": [[1], [2, 3]]}', "'re' must be a rectangular table"),
        ('{"re": [[1, 2], [3, 4]], "im": [[0, 1], [2]]}', "'im' must match the shape"),
        ('{"re": [[1, 0], [0, 1%s]]}' % ("0" * 400), "'re' must be a rectangular table"),
    ],
    ids=["ragged-re-short-last", "ragged-re-short-first", "ragged-im", "int-beyond-float"],
)
def test_json_table_not_rectangular_numbers(tmp_path, text, message):
    # numpy raises ValueError (inhomogeneous shape) or OverflowError on these
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^{path}: {message}"):
        load_matrix(str(path))


def test_non_utf8_file(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("1,2\n3,\u00e9\n".encode("latin-1"))
    with pytest.raises(ParseError, match="not UTF-8"):
        load_matrix(str(path))


@pytest.mark.parametrize("name,text", [
    ("h.csv", "0,1\n1,0\n"),
    ("h.json", '{"dim": 2, "re": [[0, 1], [1, 0]]}'),
    ("h.txt", '{"re": [[0, 1], [1, 0]]}'),  # JSON by content sniff
], ids=["csv", "json", "sniffed-json"])
def test_leading_byte_order_mark_is_ignored(tmp_path, name, text):
    # as editors and spreadsheet "CSV UTF-8" exports write it
    path = tmp_path / name
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert np.array_equal(load_matrix(str(path)), [[0, 1], [1, 0]])


def test_directory_is_not_a_matrix_file(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_matrix(str(tmp_path))


def test_non_square_rejected(tmp_path):
    path = tmp_path / "rect.csv"
    path.write_text("1,2,3\n4,5,6\n")
    with pytest.raises(ParseError):
        load_matrix(str(path))


def test_ragged_csv_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ParseError):
        load_matrix(str(path))


def test_csv_first_bad_cell_in_file_order(tmp_path):
    # row 2 holds the first bad cell, an infinite one; row 3 an unparseable one
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,1e400,6\n7,abc,9\n")
    with pytest.raises(ParseError, match="^non-finite cell '1e400'$"):
        load_matrix(str(path))


def test_missing_file():
    with pytest.raises(ParseError):
        load_matrix("/no/such/file.json")


def test_matrix_dict_helpers():
    m = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
    assert np.array_equal(matrix_from_dict(matrix_to_dict(m)), m)
    # numeric subclasses from Python callers are numbers
    assert np.array_equal(matrix_from_dict({"re": [[np.float64(1.5), 0], [0, 1.0]]}), np.diag([1.5, 1.0]))
    with pytest.raises(ParseError):
        matrix_from_dict({"im": [[0.0]]})


# --- CSV files in the cell grammar, against the cell-by-cell reference -------------

_WHITESPACE = st.sampled_from(["", " ", "  ", "\t"])
_UNSIGNED = st.one_of(
    st.integers(0, 10**6).map(str),
    st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False).map(repr),
    st.builds(lambda m, e, letter: f"{m}{letter}{e}",
              st.integers(0, 999), st.integers(-300, 300), st.sampled_from("eE")),
)
_SIGN = st.sampled_from(["", "-", "+"])
_UNIT = st.sampled_from(["i", "I"])


@st.composite
def _cell(draw):
    real = draw(_SIGN) + draw(_UNSIGNED)
    imag = draw(st.one_of(_UNSIGNED, st.just(""))) + draw(_UNIT)  # "" is a bare i
    shape = draw(st.sampled_from(["real", "imag", "both"]))
    if shape == "real":
        text = real
    elif shape == "imag":
        text = draw(_SIGN) + imag
    else:
        text = real + draw(st.sampled_from(["+", "-"])) + imag
    # whitespace anywhere in a cell is ignored
    for at in draw(st.lists(st.integers(0, len(text)), max_size=3)):
        text = text[:at] + draw(_WHITESPACE) + text[at:]
    return text


@st.composite
def _csv_cells(draw):
    n = draw(st.integers(1, 5))
    return [[draw(_cell()) for _ in range(n)] for _ in range(n)]


def _csv_text(cells) -> str:
    return "".join(",".join(row) + "\n" for row in cells)


@settings(max_examples=100, deadline=None)
@given(cells=_csv_cells())
def test_csv_loads_as_cell_reference(tmp_path_factory, cells):
    path = tmp_path_factory.getbasetemp() / "hypothesis.csv"
    path.write_text(_csv_text(cells))
    expected = np.array([[parse_complex_cell(c) for c in row] for row in cells])
    got = load_matrix(str(path))
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()  # bit for bit, signed zeros too


def _reference_csv_error(path: str) -> str:
    """The message of the cell-by-cell CSV loader: blank lines skipped, every
    cell parsed in file order, then the row widths and the shape checked."""
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh.read().splitlines() if line.strip()]
    try:
        if not rows:
            return f"{path}: empty matrix file"
        cells = [[parse_complex_cell(c) for c in line.split(",")] for line in rows]
    except ParseError as exc:
        return str(exc)
    if any(len(r) != len(cells[0]) for r in cells):
        return f"{path}: ragged CSV rows"
    return f"{path} must be a non-empty square matrix, got shape {np.shape(cells)}"


@settings(max_examples=100, deadline=None)
@given(cells=_csv_cells(), data=st.data())
def test_csv_bad_cell_message_matches_cell_reference(tmp_path_factory, cells, data):
    n = len(cells)
    for _ in range(data.draw(st.integers(1, 2))):
        row, col = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        text = data.draw(st.sampled_from(["", "inf", "nan", "1++2i", "-INF", "1e400"]))
        cells[row][col] = data.draw(_WHITESPACE) + text + data.draw(_WHITESPACE)
    if data.draw(st.booleans()):
        cells[-1] = cells[-1] + ["1"]  # ragged (or, at n=1, not square) as well
    path = tmp_path_factory.getbasetemp() / "hypothesis.csv"
    path.write_text(_csv_text(cells))
    with pytest.raises(ParseError) as got:
        load_matrix(str(path))
    assert str(got.value) == _reference_csv_error(str(path))
