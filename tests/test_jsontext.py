"""Tests for the JSON text layout: ``jsontext.dumps`` must write exactly the
bytes of ``json.dumps(obj, indent=2, sort_keys=True)``, the reference."""

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

    @pytest.mark.parametrize("obj", [np.int64(3), [object()], {"a": np.bool_(True)}])
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
