"""Span tracing of pthamil's public functions, installed from outside the package.

:meth:`Tracer.install` replaces every public module-level function of the
traced modules, in every pthamil namespace that holds a reference to it, with
a wrapper that records a span: name, start, end, parent span, operation id and
thread. It also wraps the dense factorizations of ``numpy.linalg`` so that each
call is counted on the innermost open span. Spans stay in memory, in parallel
arrays, until the run writes them out. No file of the package is changed.

Self time shares wall time among the spans open at each instant: at any moment
the *leaf* spans (open, with no open child) split the elapsed time equally. In
one thread this is the usual duration minus the time covered by children; in
``batch`` the worker threads run concurrently, so the shares of all spans add
up to the time during which any span was open, never more than the wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("cli", "pipeline", "matio", "linalg", "spectra", "antilinear", "cpt",
           "intertwiner", "twolevel")

#: called once per matrix cell; a timer pair per cell would swamp what it measures
UNTRACED = {"matio.parse_complex_cell", "matio.format_complex_cell"}

DENSE = ("eig", "inv", "svd", "cond", "eigvalsh", "lstsq")

#: functions named in the per-layer metrics; each reports ``.self_s`` and ``.calls``
FUNCTIONS = (
    "pipeline.run_analyze", "pipeline.emit_report", "pipeline.run_batch",
    "matio.load_matrix", "matio.matrix_to_dict", "linalg.eigendecompose",
    "spectra.classify", "spectra.antilinear_symmetry_check", "antilinear.make_frame",
    "antilinear.fix_pt_phases", "cpt.check_p_intertwines", "cpt.p_normalize",
    "cpt.build_pv", "cpt.build_c", "intertwiner.build_metric",
    "intertwiner.verify_time_independence", "twolevel.hamiltonian",
)

#: span columns; ``error`` indexes the name table, and -1 marks "none"
COLUMNS = ("span_id", "parent", "name", "op", "thread", "start", "end", "dense",
           "error", "nbytes", "known", "total")
_FLOAT_COLUMNS = ("start", "end")
NONE = -1


def redundant_matrices(report) -> tuple:
    """``(known, total)`` n x n matrices in a report: ``S`` is a copy of
    ``eigen.left``, and in the real case the V Gram is the identity."""
    d = report.to_dict()
    total = 0

    def walk(node):
        nonlocal total
        if isinstance(node, dict):
            total += "re" in node and "dim" in node
            for value in node.values():
                walk(value)

    walk(d)
    known = (d.get("S") is not None) + (
        d["spectrum"]["kind"] == "all_real" and (d.get("gram") or {}).get("v") is not None)
    return known, total


class Tracer:
    """Records spans of wrapped calls; install at most one per process."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list | None = None
        self._swaps: list = []
        self.op = 0
        self.cols = {c: array("d" if c in _FLOAT_COLUMNS else "q") for c in COLUMNS}

    def __len__(self) -> int:
        return len(self.cols["span_id"])

    # --- recording -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def _record(self, *values) -> None:
        with self._lock:
            for col, value in zip(self.cols.values(), values):
                col.append(value)

    def _wrap(self, qualname: str, fn):
        tracer = self
        name_id = self._name_id(qualname)
        is_emit = qualname == "pipeline.emit_report"
        is_load = qualname == "matio.load_matrix"

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1][0]
            elif tracer._main_stack:
                # a pool worker's outermost span belongs to the call that
                # submitted it, open on the thread that started the operation
                parent = tracer._main_stack[-1][0]
            else:
                parent = NONE
            frame = [next(tracer._ids), 0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                stack.pop()
                tracer._record(frame[0], parent, name_id, tracer.op, threading.get_native_id(),
                               start, end, frame[1], tracer._name_id(type(exc).__name__),
                               NONE, NONE, NONE)
                raise
            end = time.perf_counter()
            stack.pop()
            nbytes = known = total = NONE
            if is_emit:
                nbytes = len(result)
                known, total = redundant_matrices(args[0])
            elif is_load:
                nbytes = os.path.getsize(args[0])
            tracer._record(frame[0], parent, name_id, tracer.op, threading.get_native_id(),
                           start, end, frame[1], NONE, nbytes, known, total)
            return result

        return functools.wraps(fn)(traced)

    def _count_dense(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                stack[-1][1] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)

    def begin_op(self, op: int) -> None:
        """Start operation ``op``; the calling thread owns its outermost spans."""
        self.op = op
        self._main_stack = self._stack()

    # --- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of :data:`MODULES` wherever pthamil holds
        them, and the dense factorizations of ``numpy.linalg``. The wrappers
        are built once, so installing again only swaps references."""
        if not self._swaps:
            self._swaps = self._build_swaps()
        for ns, attr, _original, wrapper in self._swaps:
            ns[attr] = wrapper

    def uninstall(self) -> None:
        for ns, attr, original, _wrapper in self._swaps:
            ns[attr] = original

    def _build_swaps(self) -> list:
        importlib.import_module("pthamil.cli")
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"pthamil.{short}"]
            for attr, value in vars(mod).items():
                qualname = f"{short}.{attr}"
                if (type(value).__name__ == "function" and value.__module__ == mod.__name__
                        and not attr.startswith("_") and qualname not in UNTRACED):
                    wrappers[id(value)] = (value, self._wrap(qualname, value))
        swaps = []
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "pthamil" or name.startswith("pthamil.")):
                continue
            ns = vars(mod)
            for attr, value in list(ns.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    swaps.append((ns, attr, value, hit[1]))
        for attr in DENSE:
            original = getattr(np.linalg, attr)
            swaps.append((vars(np.linalg), attr, original, self._count_dense(original)))
        return swaps

    # --- output ----------------------------------------------------------------

    def table(self, lo: int = 0) -> dict:
        """Spans recorded from index ``lo`` on, as a table of numpy columns."""
        with self._lock:
            t = {c: np.array(self.cols[c][lo:]) for c in COLUMNS}
            t["names"] = list(self.names)
        return t


# --- span tables -------------------------------------------------------------------

def save_table(path: str, table: dict) -> None:
    cols = {c: table[c] for c in COLUMNS}
    np.savez_compressed(path, names=np.array(table["names"], dtype=str), **cols)


def load_table(path: str) -> dict:
    with np.load(path, allow_pickle=False) as z:
        t = {c: z[c] for c in COLUMNS}
        t["names"] = [str(n) for n in z["names"]]
    return t


def concat_tables(tables: list) -> dict:
    """One table from several (e.g. one per process): span ids are shifted so
    they stay unique, and name and error ids are mapped onto one name list."""
    ids: dict = {}
    parts, offset = [], 0
    for t in tables:
        remap = np.array([ids.setdefault(n, len(ids)) for n in t["names"]] + [NONE])
        part = {c: t[c] for c in COLUMNS}
        part["name"] = remap[t["name"]]
        part["error"] = remap[t["error"]]  # NONE (-1) picks the trailing NONE
        part["span_id"] = t["span_id"] + offset
        part["parent"] = np.where(t["parent"] >= 0, t["parent"] + offset, NONE)
        offset += int(t["span_id"].max()) + 1 if len(t["span_id"]) else 0
        parts.append(part)
    out = {c: np.concatenate([p[c] for p in parts]) for c in COLUMNS}
    out["names"] = sorted(ids, key=ids.get)
    return out


def table_spans(table: dict) -> list:
    """Rows of a table as tuples in :data:`COLUMNS` order, with the name and
    error resolved to strings (error ``None`` when the call returned)."""
    names = table["names"]
    rows = zip(*(table[c].tolist() for c in COLUMNS))
    return [(sid, parent, names[name], op, thread, start, end, dense,
             names[err] if err >= 0 else None, nbytes, known, total)
            for sid, parent, name, op, thread, start, end, dense, err, nbytes, known, total
            in rows]


# --- analysis --------------------------------------------------------------------

def self_times(spans: list) -> dict:
    """Span id -> self time, sharing each instant among the open leaf spans."""
    spans = [s for s in spans if s[6] > s[5]]  # an empty span holds no time
    parent = {s[0]: s[1] for s in spans}
    events = sorted([(s[5], 1, s[0]) for s in spans] + [(s[6], 0, s[0]) for s in spans])
    self_t = defaultdict(float)
    open_children = defaultdict(int)
    active, leaves = set(), set()
    last = None
    for t, is_start, sid in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                self_t[leaf] += share
        last = t
        p = parent[sid]
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if p in active:
                open_children[p] += 1
                leaves.discard(p)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if p in active:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return self_t


class LayerStats:
    """Per-layer metrics accumulated over traced operations.

    Times and call counts are per operation, ``bytes`` per call, and
    ``dense_factorizations`` per analysis (``run_analyze`` call).
    """

    def __init__(self, parallelism: int = 1):
        self.parallelism = parallelism
        self.nops = 0
        self.wall = 0.0
        self.nspans = 0
        self.self_by_name = defaultdict(float)
        self.calls = defaultdict(int)
        self.nbytes = defaultdict(int)
        self.dense = 0
        self.rejected = 0
        self.known = 0
        self.total = 0
        self.batch_busy = 0.0
        self.batch_capacity = 0.0

    def add_op(self, wall_s: float, spans: list) -> None:
        """One operation: its traced wall time and its spans (:func:`table_spans` rows)."""
        self.nops += 1
        self.wall += wall_s
        self.nspans += len(spans)
        st = self_times(spans)
        name_of = {s[0]: s[2] for s in spans}
        for sid, parent, name, _op, _thr, start, end, dense, err, nbytes, known, total in spans:
            self.self_by_name[name] += st.get(sid, 0.0)
            self.calls[name] += 1
            self.dense += dense
            if name == "linalg.eigendecompose" and err == "NonDiagonalizable":
                self.rejected += 1
            if nbytes >= 0:
                self.nbytes[name] += nbytes
            if total >= 0:
                self.known += known
                self.total += total
            if name == "pipeline.run_batch":
                self.batch_capacity += (end - start) * self.parallelism
            elif name == "pipeline.run_analyze" and name_of.get(parent) == "pipeline.run_batch":
                self.batch_busy += end - start

    def metrics(self) -> dict:
        n, calls = max(1, self.nops), self.calls
        m = {}
        for fn in FUNCTIONS:
            m[f"{fn}.self_s"] = self.self_by_name.get(fn, 0.0) / n
            m[f"{fn}.calls"] = calls.get(fn, 0) / n
        m["pipeline.emit_report.bytes"] = (
            self.nbytes["pipeline.emit_report"] / max(1, calls["pipeline.emit_report"]))
        m["pipeline.emit_report.redundant_matrix_frac"] = (
            self.known / self.total if self.total else 0.0)
        m["matio.load_matrix.bytes"] = (
            self.nbytes["matio.load_matrix"] / max(1, calls["matio.load_matrix"]))
        m["linalg.eigendecompose.rejected_frac"] = (
            self.rejected / max(1, calls["linalg.eigendecompose"]))
        m["linalg.dense_factorizations"] = self.dense / max(1, calls["pipeline.run_analyze"])
        m["pipeline.run_batch.busy_frac"] = (
            self.batch_busy / self.batch_capacity if self.batch_capacity else 0.0)
        traced = 0.0
        for mod in MODULES:
            mod_self = sum(v for k, v in self.self_by_name.items() if k.split(".", 1)[0] == mod)
            traced += mod_self
            m[f"{mod}.self_s"] = mod_self / n
            m[f"{mod}.share"] = mod_self / self.wall if self.wall else 0.0
        m["untraced.self_s"] = (self.wall - traced) / n
        m["untraced.share"] = (self.wall - traced) / self.wall if self.wall else 0.0
        m["trace.wall_s"] = self.wall / n
        m["trace.spans_per_op"] = self.nspans / n
        return m


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its last name component."""
    suffix = metric.rsplit(".", 1)[-1]
    return {"self_s": "s", "wall_s": "s", "overhead_ms": "ms", "bytes": "bytes"}.get(
        suffix, "count" if suffix in ("calls", "dense_factorizations", "spans_per_op") else "ratio")
