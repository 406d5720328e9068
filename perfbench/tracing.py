"""Spans and counts around dpquant's entry points, wrapped from outside.

Nothing under ``src/`` is changed: while a :class:`Tracer` is installed, the
entry points are replaced at the names the calling module looks them up by
(``dpquant.harness.ecdq_rate_empirical``, ``dpquant.schemes.dpq_transform``,
``Lattice.nearest_point``, ``SourceModel.cdf`` ...) and restored afterwards.
A name that the package no longer has makes :meth:`Tracer.installed` raise:
rename the target here when the entry point moves.

``coding`` and ``cli`` are on no evaluated path and are not measured.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict

import numpy as np

from perfbench import checks, workloads

_RATE_SPAN = "ecdq.rate_empirical"
_TRANSFORM_SPAN = "transform.dpq_transform"


def _rows(x) -> int:
    x = np.asarray(x)
    return 1 if x.ndim <= 1 else x.shape[0]


# Hooks run after a wrapped call returns, outside its span, with
# (tracer, parent span name, args, kwargs, result).

def _count_elems(key, arg):
    def hook(tr, parent, args, kwargs, out):
        size = np.size(args[arg])
        tr.count(key, size)
        if parent == _TRANSFORM_SPAN:
            tr.count(key.replace("prob.", "transform.", 1), size)
    return hook


def _count_rows(key, arg):
    def hook(tr, parent, args, kwargs, out):
        tr.count(key, _rows(args[arg]))
    return hook


def _count_sample(tr, parent, args, kwargs, out):
    tr.count("prob.sample.items", len(out.values))


def _count_icdf(tr, parent, args, kwargs, out):
    from dpquant.prob import EPS
    u = np.asarray(args[1], dtype=float)
    tr.count("prob.icdf.elems", u.size)
    tr.count("prob.icdf.clamped", int(np.count_nonzero((u < EPS) | (u > 1 - EPS))))


def _count_encode(tr, parent, args, kwargs, out):
    rows = _rows(args[2])
    tr.count("ecdq.encode.items", rows)
    if tr.inside(_RATE_SPAN):
        tr.count("ecdq.encode.rate_items", rows)


def _index_rows(value) -> int:
    """Rows of the integer arrays in a call argument (lists searched too)."""
    if isinstance(value, np.ndarray):
        return _rows(value) if np.issubdtype(value.dtype, np.integer) else 0
    if isinstance(value, (list, tuple)):
        return sum(_index_rows(v) for v in value)
    return 0


def _count_rate_inputs(tr, parent, args, kwargs, out):
    # Index rows handed to the rate estimator come from the evaluation.
    tr.count("ecdq.rate_empirical.reused_items",
             _index_rows(list(args) + list(kwargs.values())))


def _check_sinkhorn(tr, parent, args, kwargs, out):
    if checks.check_coupling(out, kwargs.get("tol", workloads.SINKHORN_TOL)):
        tr.count("bounds.sinkhorn.failed", 1)


# (module, attribute path, span name, hook).  The attribute path is where the
# caller looks the entry point up.  Every span also counts `<span>.failed`
# when the call raises.
TARGETS = [
    ("dpquant.prob", "SourceModel.cdf", "prob.cdf",
     _count_elems("prob.cdf.elems", 1)),
    ("dpquant.prob", "SourceModel.pdf", "prob.pdf",
     _count_elems("prob.pdf.elems", 1)),
    ("dpquant.prob", "SourceModel.icdf", "prob.icdf", _count_icdf),
    ("dpquant.prob", "SourceModel.sample", "prob.sample", _count_sample),
    ("dpquant.harness", "ks_statistic", "prob.ks_statistic", None),
    ("dpquant.prob", "stream_rng", "rng.stream_rng", None),
    ("dpquant.schemes", "stream_rng", "rng.stream_rng", None),
    ("dpquant.ecdq", "stream_rng", "rng.stream_rng", None),
    ("dpquant.lattice", "Lattice.nearest_point", "lattice.nearest_point",
     _count_rows("lattice.nearest_point.items", 1)),
    ("dpquant.lattice", "Lattice.sample_dither", "lattice.sample_dither", None),
    ("dpquant.schemes", "ecdq_encode", "ecdq.encode", _count_encode),
    ("dpquant.ecdq", "ecdq_encode", "ecdq.encode", _count_encode),
    ("dpquant.schemes", "ecdq_decode", "ecdq.decode", None),
    ("dpquant.harness", "ecdq_rate_empirical", _RATE_SPAN, _count_rate_inputs),
    ("dpquant.schemes", "dpq_transform", _TRANSFORM_SPAN,
     _count_rows("transform.dpq_transform.items", 2)),
    ("dpquant.schemes", "simple_dpq", "schemes.simple", None),
    ("dpquant.schemes", "resample_dpq", "schemes.resample", None),
    ("dpquant.schemes", "awgn_oracle_apply", "schemes.awgn", None),
    ("dpquant.schemes", "transform_dpq_encode", "schemes.transform_encode", None),
    ("dpquant.schemes", "transform_dpq_decode", "schemes.transform_decode", None),
    ("dpquant.harness", "evaluate", "harness.evaluate", None),
    ("dpquant.harness", "rd_sweep", "harness.rd_sweep", None),
    ("dpquant.bounds", "sinkhorn_coupling", "bounds.sinkhorn", _check_sinkhorn),
]


class Tracer:
    """Collects spans (name, start, end, parent, op) and counts in memory."""

    def __init__(self):
        self.spans = []            # (id, name, t0, t1, parent id, op)
        self.counts = Counter()
        self.op = None             # label of the operation being run
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A worker thread of the harness pool: its spans belong to the span
        # the main thread is waiting in.
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def count(self, key: str, value) -> None:
        with self._lock:
            self.counts[key] += value

    def inside(self, name: str) -> bool:
        """True when the current thread is within a span of that name."""
        return any(n == name for _, n in self._stack())

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append((sid, name))
        t0 = time.perf_counter()
        try:
            yield parent[1] if parent else None
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1,
                               parent[0] if parent else None, self.op))

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as parent:
                try:
                    out = fn(*args, **kwargs)
                except Exception:
                    self.count(f"{name}.failed", 1)
                    raise
            if hook is not None:
                hook(self, parent, args, kwargs, out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target while the context is open, then restore them."""
        restore = []
        try:
            for module, path, name, hook in TARGETS:
                *owner_path, attr = path.split(".")
                owner = importlib.import_module(module)
                for part in owner_path:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
                setattr(owner, attr, self._wrap(fn, name, hook))
                restore.append((owner, attr, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(restore):
                setattr(owner, attr, fn)

    # ---- summaries ---------------------------------------------------------

    def span_totals(self) -> dict:
        """Per span name: calls, total, self and largest duration (seconds).

        Self time is a span's duration minus the part of it covered by its
        child spans (the union of their intervals, which may overlap when
        the children ran on worker threads).
        """
        children = defaultdict(list)
        for sid, _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "s_max": 0.0})
        for sid, name, t0, t1, _, _ in self.spans:
            dur = t1 - t0
            t = totals[name]
            t["calls"] += 1
            t["s"] += dur
            t["self_s"] += dur - _covered(children.get(sid, ()), t0, t1)
            t["s_max"] = max(t["s_max"], dur)
        return dict(totals)

    def layer_metrics(self, passes: int) -> dict:
        """Every span total and count, per traced pass of the workload."""
        out = {}
        for name, t in self.span_totals().items():
            out[f"{name}.calls"] = t["calls"] / passes
            out[f"{name}.s"] = t["s"] / passes
            out[f"{name}.self_s"] = t["self_s"] / passes
            out[f"{name}.s_max"] = t["s_max"]
        for key, v in self.counts.items():
            out[key] = v / passes
        c = self.counts
        items = c["transform.dpq_transform.items"]
        out["transform.cdf_evals_per_item"] = (
            c["transform.cdf.elems"] / items if items else 0.0)
        reused = c["ecdq.rate_empirical.reused_items"]
        behind_rate = reused + c["ecdq.encode.rate_items"]
        out["ecdq.rate_reuse_ratio"] = (
            reused / behind_rate if behind_rate else 0.0)
        return out

    def dump(self) -> dict:
        return {"spans": [dict(zip(("id", "name", "t0", "t1", "parent", "op"), s))
                          for s in self.spans],
                "counts": dict(self.counts)}


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
