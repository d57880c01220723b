"""Span recorder for the traced benchmark run.

Layer functions of ``twodiscord`` are wrapped from outside: every attribute of
a loaded ``twodiscord`` module that *is* the original function object is
rebound to a wrapper, so callers that imported the function by name
(``geometric`` and ``entropic`` do) reach the wrapper too. Each call records
one span: name, start, end, parent span, request id and, where the layer has
one, a row count. Spans stay in memory until the run writes them out.

A layer function missing from the code under test is reported as absent, so
the benchmark keeps working when a later version deletes it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np


def _rows(arg_index):
    """Row count read from one positional argument's leading axis."""
    def count(*args, **kwargs):
        return int(np.atleast_2d(np.asarray(args[arg_index])).shape[0])
    return count


def _eig_rows(a, *args, **kwargs):
    shape = np.shape(a)
    return int(np.prod(shape[:-2], dtype=int)) if len(shape) > 2 else 1


# (span name, module, attribute, row counter). Several attributes may share a
# span name; a span nested inside one of the same name is counted once.
LAYERS = [
    ("optimize.pattern_search", "twodiscord.optimize", "pattern_search_multistart", None),
    ("optimize.expm_skew", "twodiscord.optimize", "_expm_skew", _rows(0)),
    ("optimize.product_unitaries", "twodiscord.optimize", "product_unitaries_from_params", _rows(0)),
    ("optimize.params_from_unitary", "twodiscord.optimize", "params_from_unitary", None),
    ("optimize.alternating", "twodiscord.optimize", "_alternating_detail", None),
    ("optimize.grid_oracle", "twodiscord.optimize", "sphere_grid_oracle", None),
    ("contract.diag_probs", "twodiscord._contract", "diag_probs_batch", _rows(1)),
    ("contract.side_blocks", "twodiscord._contract", "side_blocks_batch", _rows(1)),
    ("entropic.one_sided", "twodiscord.entropic", "discord_one_sided", None),
    ("entropic.two_sided", "twodiscord.entropic", "discord_two_sided", None),
    ("entropic.mutual_information", "twodiscord.entropic", "mutual_information", None),
    ("geometric.two_sided", "twodiscord.geometric", "geo_discord_two_sided", None),
    ("geometric.one_sided", "twodiscord.geometric", "geo_discord_one_sided", None),
    ("geometric.warm_starts", "twodiscord.geometric", "_product_warm_starts", None),
    ("geometric.warm_starts", "twodiscord.geometric", "_one_sided_warm_starts", None),
    ("geometric.warm_starts", "twodiscord.geometric", "_marginal_eigenbasis_params", None),
    ("geometric.warm_starts", "twodiscord.geometric", "two_qubit_warm_params", None),
    ("geometric.correlation_matrix", "twodiscord.geometric", "correlation_matrix", None),
    ("geometric.lower_bound", "twodiscord.geometric", "lower_bound_two_sided", None),
    ("geometric.lower_bound", "twodiscord.geometric", "lower_bound_one_sided", None),
    ("geometric.two_qubit_geo", "twodiscord.geometric", "two_qubit_geo", None),
    ("states.validate", "twodiscord.states", "DensityMatrix.__post_init__", None),
    ("states.bloch", "twodiscord.states", "to_bloch", None),
    ("states.bloch", "twodiscord.states", "from_bloch", None),
    ("serialize.load_state", "twodiscord.serialize", "load_state", None),
    ("cli.build_report", "twodiscord.cli", "build_report", None),
    ("verification.entropic_oracle", "twodiscord.verification", "entropic_oracle_two_qubit", None),
]

# Batched spectra: numpy's eigvalsh, recorded only inside an entropic one-sided search.
EIGVALSH_SPAN = "entropic.eigvalsh"
EIGVALSH_SCOPE = "entropic.one_sided"

SPAN_FIELDS = ["name", "start", "end", "parent", "request", "rows"]


class Recorder:
    """In-memory span store with a call stack for parent links."""

    def __init__(self):
        self.spans = []  # lists in SPAN_FIELDS order
        self.extra = {}  # span index -> counts read from a returned value
        self.request = -1
        self.paused = False  # set while the benchmark checks a result
        self._stack = []

    def call(self, name, fn, args, kwargs, rows=None):
        if self.paused:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request, rows]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh, separators=(",", ":"))


def _span_wrapper(rec, name, fn, rows):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, rows(*args, **kwargs) if rows else None)
    return wrapper


def _pattern_search_wrapper(rec, name, fn, rows):
    """Also spans each ``batch_eval`` call and keeps the result's counters."""
    @functools.wraps(fn)
    def wrapper(batch_eval, *args, **kwargs):
        def counted(block):
            return rec.call("optimize.batch_eval", batch_eval, (block,), {}, rows=len(block))

        idx = len(rec.spans)  # the index rec.call gives this span
        res = rec.call(name, fn, (counted,) + args, kwargs)
        if idx < len(rec.spans):
            rec.extra[idx] = {"iterations": res.iterations_total, "restarts": res.restarts_run}
        return res
    return wrapper


def _scoped_wrapper(rec, name, fn, rows, scope):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.inside(scope):
            return fn(*args, **kwargs)
        return rec.call(name, fn, args, kwargs, rows(*args, **kwargs))
    return wrapper


def _loaded_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "twodiscord" or n.startswith("twodiscord."))]


def install(rec: Recorder):
    """Wrap every present layer function; return (restore, absent attributes)."""
    undo = []
    absent = []
    modules = _loaded_modules()
    for name, modname, attr, rows in LAYERS:
        try:
            owner = importlib.import_module(modname)
        except ModuleNotFoundError:
            owner = None
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        orig = getattr(owner, leaf, None) if owner is not None else None
        if orig is None:
            absent.append(f"{modname}.{attr}")
            continue
        make = _pattern_search_wrapper if name == "optimize.pattern_search" else _span_wrapper
        wrapped = make(rec, name, orig, rows)
        targets = [owner] if path else [m for m in modules if vars(m).get(leaf) is orig]
        for target in targets:
            undo.append((target, leaf, orig))
            setattr(target, leaf, wrapped)
    eig = np.linalg.eigvalsh
    undo.append((np.linalg, "eigvalsh", eig))
    np.linalg.eigvalsh = _scoped_wrapper(rec, EIGVALSH_SPAN, eig, _eig_rows, EIGVALSH_SCOPE)

    def restore():
        for target, leaf, orig in reversed(undo):
            setattr(target, leaf, orig)

    return restore, absent


def summarize(rec: Recorder) -> dict:
    """Per span name: calls, s (outermost spans only), self_s, rows, extra counts.

    A span's self time is its duration minus its direct children's durations,
    so self times of all spans partition the time covered by top-level spans.
    """
    spans = rec.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    out = {}
    for i, (name, start, end, parent, _, rows) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            agg["s"] += end - start
            agg["rows"] += rows or 0
        for key, v in rec.extra.get(i, {}).items():
            agg[key] = agg.get(key, 0) + v
    return out


def parent_rows(rec: Recorder, name: str, parent: str) -> int:
    """Rows of ``name`` spans whose direct parent is a ``parent`` span."""
    spans = rec.spans
    return sum(s[5] or 0 for s in spans if s[0] == name and s[3] >= 0 and spans[s[3]][0] == parent)

