"""Span tracing of the `sci` package from outside it.

`Tracer.install()` replaces every public function of every `sci` module
with a wrapper that records a span (name, start, end, parent). Names that
a module imports from another one, such as `ivf.kmeans`, are replaced too,
so a call is traced whichever module it goes through. The functions are
found by introspection, so a public function added or renamed later is
traced without a change here. `uninstall()` puts the originals back.

A span is named after the module that defines the function
(`core.pairwise_sq_dists`), not the one it was called through. Self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
from array import array
from time import perf_counter_ns

import numpy as np


def _encode_rows(args, _kwargs, before, _result):
    return {"encoder.rows_encoded": args[0].encode_calls - before}


def _pairwise_bytes(args, _kwargs, _before, _result):
    x, c = args[0], args[1]
    # the n x k x d float64 difference tensor the function materializes
    return {"core.pairwise_sq_dists.bytes": x.shape[0] * c.shape[0] * x.shape[1] * 8}


def _lloyd(_args, _kwargs, _before, result):
    return {"clustering.kmeans.lloyd_iterations": result.iterations_run}


def _index_bytes(args, kwargs, _before, _result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"ivf.index_bytes": os.path.getsize(path)}


def _probes(args, _kwargs, _before, result):
    index = args[0]
    return {"ivf.lists_probed": len(result.probed_clusters),
            "ivf.candidates_scanned": sum(len(index.list_ids[j])
                                          for j in result.probed_clusters)}


def _encode_calls_before(args, _kwargs):
    return args[0].encode_calls


# span name -> (pre hook or None, post hook): counters read at the boundary
_COUNTERS = {
    "encoder.encode_batch": (_encode_calls_before, _encode_rows),
    "training.grad": (_encode_calls_before, _encode_rows),
    "training.loss_original": (_encode_calls_before, _encode_rows),
    "training.loss_swap": (_encode_calls_before, _encode_rows),
    "core.pairwise_sq_dists": (None, _pairwise_bytes),
    "clustering.kmeans": (None, _lloyd),
    "ivf.save": (None, _index_bytes),
    "ivf.search": (None, _probes),
}


def public_functions(package):
    """(module, attribute, function) for every public function reachable as
    an attribute of a module of `package`, defined anywhere in the package."""
    prefix = package.__name__ + "."
    found = []
    for info in pkgutil.iter_modules(package.__path__, prefix):
        module = importlib.import_module(info.name)
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__.startswith(prefix)):
                found.append((module, attr, obj))
    return found


class Tracer:
    def __init__(self):
        self.names = []             # span name table
        self._name_ids = {}
        self.name_id = array("l")   # per span: index into names
        self.start = array("q")     # perf_counter_ns
        self.end = array("q")
        self.parent = array("l")    # index of the parent span, -1 at top level
        self._stack = []
        self.counts = {}            # counter -> sum over calls
        self.peaks = {}             # counter -> largest single call
        self._patched = []

    # -- recording --------------------------------------------------------

    def _intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._intern(name))

    def count(self, values):
        for key, v in values.items():
            self.counts[key] = self.counts.get(key, 0) + v
            self.peaks[key] = max(self.peaks.get(key, 0), v)

    # -- installing -------------------------------------------------------

    def _wrap(self, fn):
        name = fn.__module__.split(".", 1)[1] + "." + fn.__qualname__
        nid = self._intern(name)
        pre, post = _COUNTERS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = pre(args, kwargs) if pre else None
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if post:
                tracer.count(post(args, kwargs, before, result))
            return result
        return traced

    def install(self, package):
        wrappers = {}
        for module, attr, fn in public_functions(package):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn)
            self._patched.append((module, attr, fn))
            setattr(module, attr, wrappers[fn])

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- reading ----------------------------------------------------------

    def mark(self):
        """Position to pass to `layers` to read only later spans and
        counts; the peaks start again from here."""
        self.peaks = {}
        return len(self.start), dict(self.counts)

    def layers(self, since=(0, {})):
        """Per span name: calls, inclusive ms, self ms and the inclusive
        durations in ms, over the spans opened after `since`."""
        first, counts_before = since
        names = np.asarray(self.name_id, dtype=np.int64)[first:]
        start = np.asarray(self.start, dtype=np.int64)[first:]
        end = np.asarray(self.end, dtype=np.int64)[first:]
        parent = np.asarray(self.parent, dtype=np.int64)[first:] - first
        dur = (end - start) / 1e6     # ms
        child = np.zeros(len(dur))
        inside = parent >= 0
        np.add.at(child, parent[inside], dur[inside])
        self_ms = dur - child
        out = {}
        for nid in np.unique(names):
            sel = names == nid
            out[self.names[nid]] = {"calls": int(sel.sum()),
                                    "ms": float(dur[sel].sum()),
                                    "self_ms": float(self_ms[sel].sum()),
                                    "durations_ms": dur[sel]}
        counts = {k: v - counts_before.get(k, 0) for k, v in self.counts.items()}
        return out, counts

    def top_level_ms(self, since=(0, {})):
        """Summed duration of the top-level spans opened after `since`."""
        first = since[0]
        parent = np.asarray(self.parent, dtype=np.int64)[first:]
        start = np.asarray(self.start, dtype=np.int64)[first:]
        end = np.asarray(self.end, dtype=np.int64)[first:]
        top = parent < first
        return float((end[top] - start[top]).sum() / 1e6)

    def dump(self, path):
        """Write every span as JSON: a name table and four parallel lists."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "name": list(self.name_id), "start_ns": list(self.start),
                       "end_ns": list(self.end), "parent": list(self.parent)},
                      fh)


class _Span:
    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False
