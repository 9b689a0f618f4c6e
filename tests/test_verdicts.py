"""The verdict corpus: what the pipeline decides on a fixed set of inputs.

``tests/verdicts.json`` holds, for each case of :func:`cases`, the verdicts
of its analysis: the exit code and error type, the spectrum kind, each flag
(``pass`` or ``FAIL``; an absent flag is left out), each section's skip
reason (without its residual figure), ``pt.symmetry_check``,
``pt.degenerate_groups``, ``pv.squares_to_identity``, ``c.commutes_with_pt``
and the diagnostic. A case whose verdict is wrong today names the ROADMAP
item that will mend it under ``wrong``. Verdicts do not depend on BLAS
rounding; byte digests are not kept here.

A change that moves a verdict on purpose rewrites the corpus from the
repository root with

    PYTHONPATH=src python tests/test_verdicts.py

and shows each moved verdict as a diff of ``tests/verdicts.json``.
"""

import json
import math
import os
import re
import tempfile
from dataclasses import dataclass

import numpy as np

from pthamil.matio import save_matrix
from pthamil.pipeline import TOL_ENV_VAR, AnalysisConfig, error_entry, run_analyze
from pthamil.twolevel import TwoLevelModel
from testutil import ix3_hamiltonian, kronecker_sum, pa_matrix, rng

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "verdicts.json")

_UNITS = np.array([[0.0, 8.0], [2.0, 0.0]])


def _factor(root, r):
    """The real-phase two-level model with gap ``sqrt(root)`` and ``beta = r alpha``."""
    alpha = math.sqrt(root) / math.sqrt(1.0 - r * r)
    return TwoLevelModel(alpha, r * alpha)


def _two_level(alpha, beta, **kw):
    return dict(model="two-level", alpha=alpha, beta=beta, **kw)


def _kron(models, **kw):
    h, p, u_t = kronecker_sum(models)
    return dict(source_path=h, p_spec=p, t_spec=u_t, **kw)


@dataclass(frozen=True)
class RawFile:
    """An input file's exact bytes, for the files no matrix writer makes."""

    suffix: str
    data: bytes


_BOM = "\ufeff".encode()
_UNITS_CSV = b"0,8\n2,0\n"

#: ROADMAP item 18's draws: ``pa-k`` for k in ``_SHIFTED`` (one of them a pair
#: spectrum) plus ``c * rho * I`` for c in ``_SHIFTS``, rho the spectral radius
_SHIFTED = (0, 1, 10, 14)
_SHIFTS = (1e6, 1e8)

_ITEM18 = "ROADMAP item 18: the real shift c * rho * I moves this draw's verdicts"
_ITEM15 = "ROADMAP item 15: eig returns nearly parallel vectors for a degenerate level"

#: the cases whose verdicts are wrong today, each with the ROADMAP item that will mend it
WRONG = {
    "kron-hermitian-2x": _ITEM15 + ", so it exits 4",
    "kron-same-gap": _ITEM15 + ", so C fails C^2 = I",
    "units-1e-12": "ROADMAP item 4: the absolute floor of residual_bound lets P = I intertwine H",
    "units-1e+300": "ROADMAP item 4: mat_norm overflows, and inf <= tol * inf lets P = I "
                    "intertwine H",
    "ix3-80": "ROADMAP item 4: at cond 1.3e8 the Gram flags ask for more than float64 holds",
    "pa-0-alternating-shift-1e+08": _ITEM18,
    "pa-10-alternating-shift-1e+06": _ITEM18,
    "pa-10-alternating-shift-1e+08": _ITEM18,
    "pa-14-alternating-shift-1e+08": _ITEM18 + ", and joins two of its levels",
}


def cases() -> dict:
    """``{name: config}``: the :class:`AnalysisConfig` fields of each case,
    with a matrix or a :class:`RawFile` in place of each file path."""
    out = {
        "two-level-real": _two_level(5.0, 3.0, c_signs=(1, -1)),
        "two-level-real-no-c": _two_level(3.0, 1.0),
        "two-level-pairs": _two_level(3.0, 5.0, c_signs=(1,)),
        "two-level-ep": _two_level(2.0, 2.0),
    }
    for scale in (1e150, 1e-150):
        out[f"two-level-real-{scale:g}"] = _two_level(3.0 * scale, scale, c_signs=(1, -1))
        out[f"two-level-pairs-{scale:g}"] = _two_level(scale, 3.0 * scale)
    out.update({
        "kron-real": _kron([_factor(1, 0.3), _factor(2, 0.6)], c_signs=(1, -1, -1, 1)),
        "kron-degenerate": _kron([_factor(1, 0.3)] * 2, c_signs=(1, 1, 1, 1)),
        "kron-degenerate-AxBxA": _kron([_factor(1, 0.6), _factor(3, 0.3), _factor(1, 0.6)]),
        "kron-hermitian-2x": _kron([_factor(1, 0.0)] * 2),
        "kron-same-gap": _kron([TwoLevelModel(1.9896950189975284, 0.9792273835139492),
                                TwoLevelModel(1.766337279911713, 0.34633421200613357)],
                               c_signs=(1, 1, 1, 1)),
    })
    for c in (1.0, 1e-12, 1e300):
        out[f"units-{c:g}"] = dict(source_path=c * _UNITS, p_spec="identity", t_spec="k")
    for nmax in (40, 80):
        out[f"ix3-{nmax}"] = dict(source_path=ix3_hamiltonian(nmax), p_spec="alternating",
                                  t_spec="k")
    out.update({
        "jordan": dict(source_path=np.array([[1.0, 1.0], [0.0, 1.0]])),
        "unpaired": dict(source_path=np.diag([1j, 2.0])),
        "bad-frame": dict(source_path=_UNITS, p_spec=np.diag([1.0, 2.0]), t_spec="k"),
        "file-ragged-csv": dict(source_path=RawFile(".csv", b"0,8\n2\n")),
        "file-bom-json": dict(source_path=RawFile(".json", _BOM + b'{"re": [[0, 8], [2, 0]]}\n'),
                              p_spec="identity", t_spec="k"),
        "file-bom-csv": dict(source_path=RawFile(".csv", _BOM + _UNITS_CSV), p_spec="identity",
                             t_spec="k"),
        "file-not-utf8": dict(source_path=RawFile(".csv", _UNITS_CSV + b"\xe9\n")),
    })
    for k in range(16):
        h = pa_matrix(rng(k), 3 + k, definite=k % 2 == 0)
        for p, t in ((None, None), ("alternating", "k"), ("identity", "k")):
            out[f"pa-{k}-{p}"] = dict(source_path=h, p_spec=p, t_spec=t)
        if k < 4:  # C from the signs of each state, or of each pair
            values = np.linalg.eigvals(h)
            count = len(h) if k % 2 == 0 else int((values.imag > 1e-6 * np.abs(values).max()).sum())
            out[f"pa-{k}-alternating-c"] = dict(source_path=h, p_spec="alternating", t_spec="k",
                                                c_signs=tuple((-1) ** j for j in range(count)))
        if k in _SHIFTED:
            rho = np.abs(np.linalg.eigvals(h)).max()
            for c in _SHIFTS:
                out[f"pa-{k}-alternating-shift-{c:g}"] = dict(
                    source_path=h + c * rho * np.eye(len(h)), p_spec="alternating", t_spec="k")
    return out


def verdict(cfg: AnalysisConfig) -> dict:
    """The verdicts of one analysis."""
    try:
        report = run_analyze(cfg)
    except Exception as exc:  # an error is a verdict too
        entry = error_entry(exc)
        return {"exit_code": entry["exit_code"], "error": entry["type"]}
    out = {
        "exit_code": 0,
        "kind": report.spectrum["kind"],
        "flags": {name: "pass" if f["passed"] else "FAIL" for name, f in report.flags.items()},
        "diagnostic": report.diagnostic,
    }
    for section in ("pt", "pv", "c"):
        part = getattr(report, section)
        if "skipped" in part:
            out[f"{section}.skipped"] = re.sub(r" \(residual [^)]*\)", "", part["skipped"])
    for section, key in (("pt", "symmetry_check"), ("pt", "degenerate_groups"),
                         ("pv", "squares_to_identity"), ("c", "commutes_with_pt")):
        if key in getattr(report, section):
            out[f"{section}.{key}"] = getattr(report, section)[key]
    return out


def corpus(directory) -> dict:
    """``{name: {"verdict": ..., "wrong": ...}}`` over :func:`cases`, each
    matrix written to a file in ``directory``."""
    out = {}
    for name, fields in cases().items():
        fields = dict(fields)
        for key in ("source_path", "p_spec", "t_spec"):
            value = fields.get(key)
            if isinstance(value, np.ndarray):
                fields[key] = os.path.join(directory, f"{name}.{key}.json")
                save_matrix(fields[key], value)
            elif isinstance(value, RawFile):
                fields[key] = os.path.join(directory, f"{name}.{key}{value.suffix}")
                with open(fields[key], "wb") as fh:
                    fh.write(value.data)
        out[name] = {"verdict": verdict(AnalysisConfig(**fields)), "wrong": WRONG.get(name)}
    return out


def test_the_verdicts_are_the_corpus(tmp_path, monkeypatch):
    monkeypatch.delenv(TOL_ENV_VAR, raising=False)
    with open(CORPUS, encoding="utf-8") as fh:
        expected = json.load(fh)
    found = corpus(str(tmp_path))
    assert list(found) == list(expected)
    moved = {name: (expected[name], entry) for name, entry in found.items()
             if entry != expected[name]}
    assert not moved, moved


def test_every_failed_flag_is_marked_wrong():
    with open(CORPUS, encoding="utf-8") as fh:
        entries = json.load(fh)
    assert set(WRONG) <= set(entries)
    unmarked = [name for name, entry in entries.items()
                if "FAIL" in entry["verdict"].get("flags", {}).values() and not entry["wrong"]]
    assert not unmarked


def test_a_shift_that_moves_a_verdict_is_marked_wrong():
    with open(CORPUS, encoding="utf-8") as fh:
        entries = json.load(fh)
    moved = {f"pa-{k}-alternating-shift-{c:g}" for k in _SHIFTED for c in _SHIFTS
             if entries[f"pa-{k}-alternating-shift-{c:g}"]["verdict"]
             != entries[f"pa-{k}-alternating"]["verdict"]}
    assert moved
    assert moved == {name for name, why in WRONG.items() if why.startswith(_ITEM18)}


if __name__ == "__main__":
    os.environ.pop(TOL_ENV_VAR, None)
    with tempfile.TemporaryDirectory() as tmp:
        entries = corpus(tmp)
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
