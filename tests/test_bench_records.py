"""The benchmark records committed at the repository root (``BENCH_*.json``)
are valid JSON, so every run's numbers can be read back."""

import glob
import json
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(glob.glob(os.path.join(REPO, "BENCH_*.json")))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_record_is_valid_json(path):
    with open(path, encoding="utf-8") as fh:
        assert isinstance(json.load(fh), dict)
