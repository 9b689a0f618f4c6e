"""Tests for the JSON text layout: ``jsontext.dumps`` must write exactly the
bytes of ``json.dumps(obj, indent=2, sort_keys=True)``, the reference, and a
2-D float64 array as the reference writes its ``tolist()``."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pthamil.jsontext import dumps


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


SPECIAL_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e300, -1e-300, 3.0]

floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.text()
    | floats
    | floats.map(np.float64)
)
trees = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(), children, max_size=5)
        # rows of plain floats, the shape of every matrix row in a report
        | st.lists(floats, max_size=6)
    ),
    max_leaves=40,
)


#: few values, so that an array repeats them: both zeros, both NaNs, both
#: infinities, the smallest subnormals and reprs in exponent form
ARRAY_POOL = [0.0, -0.0, float("nan"), -float("nan"), float("inf"), float("-inf"),
              5e-324, -5e-324, 1e16, 1e-5, 0.1, -2.5]


@st.composite
def float_arrays(draw):
    """2-D float64 arrays from 1 x 1 to 24 x 24, on both sides of the size
    below which ``dumps`` writes an array row by row."""
    rows, cols = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    pool = draw(st.lists(st.sampled_from(ARRAY_POOL) | st.floats(), min_size=1, max_size=6))
    picks = draw(st.binary(min_size=rows * cols, max_size=rows * cols))
    return np.array([pool[b % len(pool)] for b in picks], dtype=np.float64).reshape(rows, cols)


class TestDumps:
    @settings(max_examples=300, deadline=None)
    @given(trees)
    def test_matches_json_dumps(self, obj):
        assert dumps(obj) == reference(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            {},
            [],
            {"a": {}, "b": []},
            [[], {}],
            "ünïcödé ☃ \"quoted\" \\ \n\t\x00",
            {"z": 1, "a": [1.5, -0.0, 2e-310], "é": None, "m": True, "k": False},
            [1.0, float("nan"), 2.0],
            [1.0, float("inf")],
            [float("-inf")],
            [np.float64(0.1), 0.1],
            [1, 1.0, True],
        ],
    )
    def test_edge_cases(self, obj):
        assert dumps(obj) == reference(obj)

    @settings(max_examples=300, deadline=None)
    @given(float_arrays())
    def test_float_array_matches_json_dumps_of_its_list(self, a):
        assert dumps({"m": a, "n": [a, 1.5]}) == reference({"m": a.tolist(),
                                                            "n": [a.tolist(), 1.5]})

    def test_float_array_signs_and_specials(self):
        # every special value in one array above the row-by-row size
        a = np.tile(np.array(ARRAY_POOL), (12, 1))
        assert a.size >= 100
        text = dumps(a)
        assert text == reference(a.tolist())
        assert all(s in text for s in ("-0.0", "-5e-324", "-Infinity", "NaN"))
        assert "-NaN" not in text

    @pytest.mark.parametrize("obj", [
        np.int64(3), [object()], {"a": np.bool_(True)},
        # numpy arrays other than 2-D float64 ones
        np.arange(3), np.zeros((12, 12), dtype=int), np.zeros(200), np.array(1.5),
        {"a": np.zeros((12, 12), dtype=complex)}, [np.zeros((12, 12), dtype=np.float32)],
    ])
    def test_rejects_what_json_cannot_write(self, obj):
        with pytest.raises(TypeError):
            reference(obj)
        with pytest.raises(TypeError):
            dumps(obj)

    @pytest.mark.parametrize("obj", [{1: "a"}, {"a": {2.0: 1}}])
    def test_rejects_non_str_keys(self, obj):
        # json would coerce these keys to strings; no report or payload has one
        with pytest.raises(TypeError):
            dumps(obj)
