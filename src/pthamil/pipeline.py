"""Analysis orchestration: configuration, the full pipeline, batch mode, and
the JSON report representation.

A report is data in the JSON layout: dicts, lists, numbers, strings, complex
numbers as ``[re, im]`` pairs, and matrices in the ``{"dim", "re", "im"}``
layout of the matrix file format, whose ``re`` and ``im`` stay numpy arrays:
``emit_report`` writes them as they are, and ``to_dict`` converts them to
lists. Two reports are equal when their emitted forms are, so
``parse(emit(report)) == report`` holds exactly.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .antilinear import calibrate, make_frame, pt_eigenstates
from .cpt import build_c, build_pv, c_commutes_with_pt, check_p_intertwines
from .entry import blas_caps
from .errors import (
    InvalidFrame,
    NonDiagonalizable,
    NotRealPhase,
    ParseError,
    UnpairedComplexEigenvalue,
)
from .fockdemo import truncated_position_matrix
from .intertwiner import build_metric, v_gram
from .jsontext import dumps
from .linalg import DEFAULT_TOL, SIGMA1, SIGMA2, SIGMA3, eigendecompose, identity
from .matio import load_matrix
from .spectra import SpectrumKind, antilinear_symmetry_check, classify
from .twolevel import TwoLevelModel, hamiltonian as two_level_hamiltonian

#: Environment variable overriding the default tolerance.
TOL_ENV_VAR = "PTHAMIL_TOL"

_P_BUILTINS = {
    "sigma1": lambda dim: _require_dim(SIGMA1, dim, "sigma1"),
    "sigma2": lambda dim: _require_dim(SIGMA2, dim, "sigma2"),
    "sigma3": lambda dim: _require_dim(SIGMA3, dim, "sigma3"),
    "identity": lambda dim: identity(dim),
    "alternating": lambda dim: np.diag(np.where(np.arange(dim) % 2, -1.0, 1.0)).astype(complex),
}

_T_BUILTINS = {
    # named by operator form; stored as the matrix u of the action v -> u conj(v)
    "k": lambda dim: identity(dim),
    "ki": lambda dim: -1j * identity(dim),
    "kisigma1": lambda dim: _require_dim(-1j * SIGMA1, dim, "kisigma1"),
}


def _require_dim(m, dim, name):
    if m.shape[0] != dim:
        raise ParseError(f"builtin {name!r} is {m.shape[0]}x{m.shape[0]}, need dim {dim}")
    return m


@dataclass(frozen=True)
class AnalysisConfig:
    """One analysis: exactly one input source, optional frame, tolerances."""

    source_path: str | None = None
    model: str | None = None
    alpha: float | None = None
    beta: float | None = None
    nmax: int | None = None
    p_spec: str | None = None
    t_spec: str | None = None
    tol: float | None = None
    c_signs: tuple | None = None
    output: str = "text"

    def __post_init__(self):
        if (self.source_path is not None) == (self.model is not None):
            raise ValueError("exactly one of a file path or a builtin model is required")
        if self.model is not None and self.model not in ("two-level", "fock-x"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.tol is not None and not self.tol > 0.0:
            raise ValueError("tolerance must be positive")
        if self.tol is not None and not np.isfinite(self.tol):
            raise ValueError("tolerance must be finite")
        if self.output not in ("text", "json", "csv"):
            raise ValueError(f"unknown output format {self.output!r}")
        if self.c_signs is not None and len(self.c_signs) == 0:
            object.__setattr__(self, "c_signs", None)  # no signs given: no C


def resolve_tol(cfg: AnalysisConfig) -> float:
    """Tolerance precedence: explicit config, then the environment, then default."""
    if cfg.tol is not None:
        return float(cfg.tol)
    env = os.environ.get(TOL_ENV_VAR)
    if env is not None:
        try:
            value = float(env)
        except ValueError as exc:
            raise ParseError(f"{TOL_ENV_VAR} is not a number: {env!r}") from exc
        if not value > 0.0:
            raise ParseError(f"{TOL_ENV_VAR} must be positive, got {env!r}")
        if not np.isfinite(value):
            raise ParseError(f"{TOL_ENV_VAR} must be finite, got {env!r}")
        return value
    return DEFAULT_TOL


def _load_hamiltonian(cfg: AnalysisConfig):
    if cfg.source_path is not None:
        return load_matrix(cfg.source_path), {"file": cfg.source_path}
    if cfg.model == "two-level":
        if cfg.alpha is None or cfg.beta is None:
            raise ParseError("model two-level requires alpha and beta")
        m = TwoLevelModel(cfg.alpha, cfg.beta)
        return two_level_hamiltonian(m), {"model": "two-level", "alpha": m.alpha, "beta": m.beta}
    if cfg.nmax is None or cfg.nmax < 2:
        raise ParseError("model fock-x requires nmax >= 2")
    return truncated_position_matrix(cfg.nmax), {"model": "fock-x", "nmax": cfg.nmax}


def _default_frame_specs(cfg: AnalysisConfig):
    p_spec, t_spec = cfg.p_spec, cfg.t_spec
    if p_spec == "none":
        p_spec = None
    elif cfg.model == "two-level":
        p_spec = p_spec or "sigma1"
        t_spec = t_spec or "kisigma1"
    elif cfg.model == "fock-x":
        p_spec = p_spec or "alternating"
        t_spec = t_spec or "k"
    elif p_spec is not None and t_spec is None:
        t_spec = "k"
    if p_spec is None and t_spec is not None:
        raise ParseError("a time reversal (--t) needs a parity (--p) to form a PT frame")
    return p_spec, t_spec


def _build_frame(p_spec, t_spec, dim: int, tol: float):
    if p_spec is None:
        return None
    p = _P_BUILTINS[p_spec](dim) if p_spec in _P_BUILTINS else load_matrix(p_spec)
    if p.shape[0] != dim:
        raise InvalidFrame(f"P is {p.shape[0]}x{p.shape[0]} but H is {dim}x{dim}")
    u = _T_BUILTINS[t_spec](dim) if t_spec in _T_BUILTINS else load_matrix(t_spec)
    return make_frame(p, u, tol)


#: built-in frames are constants: one entry per (names, dim, tol), shared
#: read-only; an error is raised again on every call, never cached
_builtin_frame = functools.lru_cache(maxsize=32)(_build_frame)


def _resolve_frame(p_spec, t_spec, dim: int, tol: float):
    """The :class:`PTFrame` of specs that are each a built-in name or a file
    path, or None when both specs are None. A built-in frame comes from the
    per-process cache; a file is read and its frame validated on every call,
    so a rewritten file takes effect. Either way the frame is its matrices:
    the same P and T give the same analysis however spelled."""
    if p_spec in _P_BUILTINS and t_spec in _T_BUILTINS:
        return _builtin_frame(p_spec, t_spec, dim, tol)
    return _build_frame(p_spec, t_spec, dim, tol)


def _complex_list(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex)]


def _matrix(m) -> dict:
    """Report matrix: arrays until emitted, zeros unsigned."""
    return {"dim": int(m.shape[0]), "re": m.real + 0.0, "im": m.imag + 0.0}


def _plain(node):
    """``node`` with every array turned into nested lists."""
    if isinstance(node, dict):
        return {k: _plain(v) for k, v in node.items()}
    return node.tolist() if isinstance(node, np.ndarray) else node


@dataclass(eq=False)
class AnalysisReport:
    """Analysis report in the JSON layout; ``to_dict`` fixes the key names and
    turns the matrices' arrays into lists."""

    provenance: dict
    spectrum: dict
    eigen: dict
    v: dict | None
    gram: dict | None
    pt: dict
    pv: dict
    c: dict
    diagnostic: str | dict
    flags: dict

    def to_dict(self) -> dict:
        return _plain(self._tree())

    def _tree(self) -> dict:
        """The report under its key names, matrices still arrays."""
        return {
            "provenance": self.provenance,
            "spectrum": self.spectrum,
            "eigen": self.eigen,
            "V": self.v,
            "gram": self.gram,
            "pt": self.pt,
            "pv": self.pv,
            "c": self.c,
            "diagnostic": self.diagnostic,
            "flags": self.flags,
        }

    def __eq__(self, other) -> bool:
        return isinstance(other, AnalysisReport) and self.to_dict() == other.to_dict()

    @classmethod
    def from_dict(cls, d: dict) -> "AnalysisReport":
        renamed = dict(d)
        renamed["v"] = renamed.pop("V")
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in renamed.items() if k in known})


def emit_report(report: AnalysisReport) -> str:
    """The report as JSON text: 2-space indentation, sorted keys, shortest
    round-trip floats (:func:`pthamil.jsontext.dumps`), written straight from
    the matrices' arrays; the same bytes as ``dumps(report.to_dict())``."""
    return dumps(report._tree())


def parse_report(text: str) -> AnalysisReport:
    import json

    return AnalysisReport.from_dict(json.loads(text))


def run_analyze(cfg: AnalysisConfig) -> AnalysisReport:
    """Run the full pipeline: classify, build the metric and its Gram matrices,
    then the parity-dependent sections and the diagnostic.

    The diagnostic is read from PT itself: ``real_spectrum`` when every state
    of the calibrated basis is a PT eigenstate (:func:`pt_eigenstates`),
    ``complex_pairs`` when some state is not, and skipped without a frame or
    when H is not PT symmetric under it. C is built only from the signs
    ``cfg.c_signs``; without them its section is skipped, and C is tested
    against PT only where PT is a symmetry of H.

    Raises ParseError for an unreadable input or frame (before the rest),
    NonDiagonalizable at an exceptional point, and UnpairedComplexEigenvalue
    when the spectrum admits no antilinear symmetry. Sections whose
    preconditions fail are marked skipped with the reason instead of aborting
    the analysis. Every stage runs in H's own basis; where H is exactly real
    after a diagonal quarter-turn similarity, with or without a frame,
    ``eig`` alone runs in that basis (:func:`eigendecompose`, README
    "Conventions"). The frame is resolved before ``eig``, so its errors come
    first.
    """
    tol = resolve_tol(cfg)
    h, source_info = _load_hamiltonian(cfg)

    p_spec, t_spec = _default_frame_specs(cfg)
    frame = _resolve_frame(p_spec, t_spec, h.shape[0], tol)
    es = eigendecompose(h, tol)  # may raise NonDiagonalizable
    cls = classify(es, tol)      # may raise UnpairedComplexEigenvalue

    p_intertwines = frame is not None and check_p_intertwines(h, frame.p, tol)
    # on a recombined degenerate group every later section uses the new basis
    es, phases, pt_skipped, uncalibrated = calibrate(es, cls, frame, p_intertwines, tol)

    pt_symmetric = frame is not None and antilinear_symmetry_check(h, frame.pt, tol)
    pt_section: dict = {} if frame is None else {"symmetry_check": pt_symmetric}
    if frame is None:
        diagnostic = {"skipped": "no parity/time-reversal frame supplied"}
    elif not pt_symmetric:
        diagnostic = {"skipped": "H is not PT symmetric under the supplied frame"}
    else:
        diagnostic = "complex_pairs" if pt_eigenstates(frame, es, tol)[2].any() else "real_spectrum"
    if phases is None:
        pt_section["skipped"] = pt_skipped
    else:
        pt_section.update(
            eta=_complex_list(phases.eta),
            phase_fix=_complex_list(phases.phase_fix),
            degenerate_groups=[list(g) for g in phases.degenerate_groups],
        )

    itw = build_metric(es, cls)
    norm_report = v_gram(es, itw, cls, frame, phases, tol, p_intertwines)

    if not p_intertwines:
        reason = ("P does not intertwine H with its adjoint"
                  if frame is not None else "no parity supplied")
        pv_section = {"skipped": f"{reason}; the V norm remains available"}
    elif cls.kind is not SpectrumKind.ALL_REAL:
        pv_section = {"skipped": "complex-pair spectrum: PV plays no role"}
    else:
        pv = build_pv(frame, itw, es, tol)
        pv_section = {
            "matrix": _matrix(pv.matrix),
            "alphas": _complex_list(pv.alphas),
            "squares_to_identity": bool(pv.squares_to_identity),
        }
        if uncalibrated:  # parity overlap below tolerance: a degenerate PV eigenvalue
            pv_section["uncalibrated"] = uncalibrated

    if cfg.c_signs is None:
        c_section = {"skipped": "C is built only from given signs (c_signs); "
                                "the diagnostic reads PT itself"}
    else:
        c = build_c(es, cls, cfg.c_signs, tol)
        c_section = {"matrix": _matrix(c), "signs": [int(s) for s in cfg.c_signs]}
        if pt_symmetric:
            c_section["commutes_with_pt"] = c_commutes_with_pt(c, frame, tol)

    return AnalysisReport(
        provenance={
            "tool": "pthamil",
            "version": __version__,
            "source": source_info,
            "tol": tol,
            "p": p_spec,
            "t": t_spec,
            "schema": 7,  # version of the report layout
        },
        spectrum={
            "kind": cls.kind.value,
            "pairs": [list(pair) for pair in cls.pairs],
            "real_indices": list(cls.real_indices),
            "condition": es.condition,
        },
        eigen={
            "values": _complex_list(es.values),
            "right": _matrix(es.right),
            "left": _matrix(es.left),
        },
        v=dict(_matrix(itw.v), positive=bool(itw.positive)),
        gram={
            "dirac": _matrix(norm_report.dirac),
            "v": _matrix(norm_report.vnorm),
            "p": _matrix(norm_report.pnorm) if norm_report.pnorm is not None else None,
            "pt": _matrix(norm_report.ptnorm) if norm_report.ptnorm is not None else None,
        },
        pt=pt_section,
        pv=pv_section,
        c=c_section,
        diagnostic=diagnostic,
        flags={
            name: {"passed": f.passed, "residual": float(f.residual),
                   "threshold": float(f.threshold)}
            for name, f in norm_report.flags.items()
        },
    )


#: exit codes shared by the CLI and batch entries
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_NO_ANTILINEAR = 3
EXIT_EXCEPTIONAL = 4


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, (ParseError, InvalidFrame, NotRealPhase, ValueError)):
        return EXIT_PARSE
    if isinstance(exc, UnpairedComplexEigenvalue):
        return EXIT_NO_ANTILINEAR
    if isinstance(exc, NonDiagonalizable):
        return EXIT_EXCEPTIONAL
    return EXIT_ERROR


def error_entry(exc: BaseException) -> dict:
    entry = {
        "type": type(exc).__name__,
        "message": str(exc),
        "exit_code": exit_code_for(exc),
    }
    if isinstance(exc, NonDiagonalizable):
        entry["note"] = (
            "exceptional point: eigenvalues merge and the matrix is not "
            f"diagonalizable (condition {exc.condition:.3e} > {exc.threshold:.3e})"
        )
    if isinstance(exc, UnpairedComplexEigenvalue):
        entry["note"] = "no antilinear symmetry: " + str(exc)
    return entry


#: held while ``run_batch`` has the BLAS caps in ``os.environ``
_BLAS_ENV_LOCK = threading.Lock()


def _batch_entry(path: str, base_cfg: AnalysisConfig | None, reports: bool = True) -> dict:
    cfg = AnalysisConfig(
        source_path=path,
        p_spec=base_cfg.p_spec if base_cfg else None,
        t_spec=base_cfg.t_spec if base_cfg else None,
        tol=base_cfg.tol if base_cfg else None,
    )
    try:
        report = run_analyze(cfg)
    except Exception as exc:  # one file's failure, whatever it is, is its entry
        return {"path": path, "error": error_entry(exc)}
    if reports:
        return {"path": path, "report": report}
    failed = sorted(name for name, flag in report.flags.items() if not flag["passed"])
    return {"path": path, "failed_flags": failed} if failed else {"path": path}


def _one_thread() -> bool:
    """Whether this process runs exactly one OS thread (read on Linux only)."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def run_batch(paths, parallelism: int = 1, base_cfg: AnalysisConfig | None = None,
              reports: bool = True) -> list:
    """Analyze many files; output order always matches input order.

    Each entry is ``{"path": ..., "report": ...}``, with the
    :class:`AnalysisReport`, for a file whose analysis succeeded and
    ``{"path": ..., "error": ...}`` (an ``error_entry``) for one that failed.
    With ``reports=False`` a success is ``{"path": ...}``, plus
    ``"failed_flags"`` (their sorted names) when any flag failed: every file is
    still fully analyzed, so the same files fail, but no report is sent back
    from a worker or kept. ``batch --format text`` asks for statuses only;
    ``batch --format json`` prints the full reports.

    With one worker (``parallelism == 1`` or a single file) the files are
    analyzed in this process. Otherwise ``min(parallelism, len(paths))``
    worker processes share the files. If this process runs one OS thread and
    its environment sets a BLAS thread-count variable, as ``pthamil batch``
    does before loading numpy, the workers are forked: they inherit its
    imports and its BLAS. Otherwise they are spawned, each with
    single-threaded BLAS unless the caller's environment sets any of the BLAS
    thread-count variables; an OpenMP BLAS starts its threads only at its
    first parallel call, so one thread alone does not show that BLAS is
    capped. A script whose calls spawn workers needs an
    ``if __name__ == "__main__":`` guard. While spawned workers start,
    the caps are in ``os.environ``, so a subprocess another thread starts then
    inherits them; concurrent calls wait for each other's workers to start.
    Per-file failures become error entries instead of aborting the batch.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    paths = list(paths)
    workers = min(parallelism, len(paths))
    if workers <= 1:
        # a spawned worker costs about 0.3 s of start-up and imports, a forked
        # one about 25 ms: one n=153 file takes 59 ms here and 84 ms through
        # a one-worker forked pool, both with single-threaded BLAS
        return [_batch_entry(path, base_cfg, reports) for path in paths]

    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    tasks = (_batch_entry, paths, [base_cfg] * len(paths), [reports] * len(paths))
    if _one_thread() and not blas_caps(os.environ):
        # no thread can hold a lock across the fork; the pool forks every
        # worker before it starts its own threads
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(*tasks))
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(workers, mp_context=spawn) as pool:
        # a spawned worker loads BLAS while importing numpy, before any
        # initializer could run, so the cap must be in the environment it
        # starts with; every worker starts during map's submissions
        with _BLAS_ENV_LOCK:
            caps = blas_caps(os.environ)
            os.environ.update(dict.fromkeys(caps, "1"))
            try:
                entries = pool.map(*tasks)
            finally:
                for name in caps:
                    os.environ.pop(name, None)
        return list(entries)
