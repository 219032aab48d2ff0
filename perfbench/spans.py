"""Spans around calls into starrep, installed from the benchmark's own files.

Each wrapped public function records a span (name, start, end, parent) in
memory.  numpy.linalg.svd and numpy.linalg.eigh are wrapped too, and counted
only beneath a starrep span, so the benchmark's own numpy work (planted
inputs, checks) stays out.  Names bound by `from x import f` in other starrep
modules are rebound as well, so every call path goes through the wrapper.
Spans are written out only when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
import tracemalloc

import numpy as np

# module -> public functions wrapped; (module, "Class.method") for methods
WRAPPED = {
    "linalg": ["orthonormalize", "subspace_intersection", "subspace_sum"],
    "algebra": ["generate_algebra", "span_algebra", "commutant", "wedderburn_decompose",
                "conditional_expectation", "StarAlgebra.__init__"],
    "representation": ["cyclic_subspace", "acl", "extend_with_summand", "direct_sum",
                       "cyclic_substructure"],
    "independence": ["is_independent", "type_of", "descriptor_distance",
                     "spanning_word_length", "nonforking_extension", "canonical_base",
                     "finite_base", "morley_average_check"],
    "functionals": ["vector_state", "functional_norm", "is_orthogonal",
                    "orthogonality_witness", "is_dominated", "gns", "gns_intertwiner",
                    "embeds_as_subrepresentation", "radon_nikodym_operator",
                    "types_orthogonal", "types_dominated"],
    "harness": ["random_structure", "run_freeness_suite", "run_functional_suite"],
    "cli": ["scenario_from_dict"],
    "serialize": ["dumps_canonical"],
}
# spans whose tracemalloc peak is recorded (peak_mb)
MEMORY = {"algebra.generate_algebra", "functionals.gns"}
MODULES = ["starrep", "starrep.linalg", "starrep.algebra", "starrep.representation",
           "starrep.independence", "starrep.functionals", "starrep.harness",
           "starrep.serialize", "starrep.cli"]


def svd_flops(shape, full_matrices=True, compute_uv=True) -> float:
    """Estimated real flops of a complex SVD (R-SVD counts, times 4 for complex)."""
    if len(shape) < 2:
        return 0.0
    batch = float(np.prod(shape[:-2])) if len(shape) > 2 else 1.0
    big, small = float(max(shape[-2:])), float(min(shape[-2:]))
    if not compute_uv:
        real = 2 * big * small ** 2 + 2 * small ** 3
    elif full_matrices:
        real = 4 * big ** 2 * small + 22 * small ** 3
    else:
        real = 6 * big * small ** 2 + 20 * small ** 3
    return 4.0 * batch * real


class Tracer:
    """In-memory span recorder.  Records are [name_id, start, end, parent, value]."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.records: list = []
        self._stack: list = []
        self._lib_depth = 0
        self.enabled = True

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # ----- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        self.records.append([self._nid(name), time.perf_counter(), 0.0, parent, 0.0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, value: float = 0.0):
        rec = self.records[idx]
        rec[2] = time.perf_counter()
        rec[4] = value
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A phase span (a set-up or a round) around the enclosed calls."""
        idx = self.open(name) if self.enabled else None
        try:
            yield
        finally:
            if idx is not None:
                self.close(idx)

    def _wrap(self, name: str, fn):
        tracer = self
        measure = name in MEMORY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            own_malloc = measure and not tracemalloc.is_tracing()
            if own_malloc:
                tracemalloc.start()
            idx = tracer.open(name)
            tracer._lib_depth += 1
            peak = 0.0
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._lib_depth -= 1
                if own_malloc:
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                tracer.close(idx, peak)

        return wrapper

    def _wrap_numpy(self, name: str, fn, flops):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if not tracer.enabled or tracer._lib_depth == 0:
                return fn(a, *args, **kwargs)
            idx = tracer.open(name)
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer.close(idx, flops(np.shape(a), *args, **kwargs) if flops else 0.0)

        return wrapper

    # ----- installation --------------------------------------------------------

    def install(self):
        """Wrap the listed starrep functions everywhere they are bound, and numpy."""
        import importlib

        mods = [importlib.import_module(m) for m in MODULES]
        replace = {}
        for short, names in WRAPPED.items():
            mod = importlib.import_module(f"starrep.{short}")
            for fname in names:
                if "." in fname:
                    cls_name, meth = fname.split(".")
                    cls = getattr(mod, cls_name)
                    label = f"{short}.{cls_name}"
                    setattr(cls, meth, self._wrap(label, getattr(cls, meth)))
                    continue
                fn = getattr(mod, fname)
                replace[id(fn)] = (fn, self._wrap(f"{short}.{fname}", fn))
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

        def flops(shape, full_matrices=True, compute_uv=True, *_, **__):
            return svd_flops(shape, full_matrices, compute_uv)

        np.linalg.svd = self._wrap_numpy("numpy.linalg.svd", np.linalg.svd, flops)
        np.linalg.eigh = self._wrap_numpy("numpy.linalg.eigh", np.linalg.eigh, None)

    # ----- output ----------------------------------------------------------------

    def dump(self, path: str):
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "spans": self.records}, fh)


def load(path: str) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


class Aggregate:
    """Per-name totals of spans, split by the phase (root span name) they ran under."""

    def __init__(self):
        self.stats: dict = {}
        self.spans = 0.0

    def add(self, dump: dict, phase_weights: dict):
        """Fold one span dump in; spans under root `r` count phase_weights[r] each."""
        names, spans = dump["names"], dump["spans"]
        root = [0] * len(spans)
        child = [0.0] * len(spans)
        for i, (_, start, end, parent, _) in enumerate(spans):
            root[i] = i if parent < 0 else root[parent]
            if parent >= 0:
                child[parent] += end - start
        parent_name = [names[spans[p][0]] if p >= 0 else None
                       for p in (s[3] for s in spans)]
        for i, (nid, start, end, parent, value) in enumerate(spans):
            weight = phase_weights.get(names[spans[root[i]][0]])
            if weight is None or parent < 0:
                continue
            st = self.stats.setdefault(names[nid], {
                "calls": 0.0, "s": 0.0, "self_s": 0.0, "value": 0.0, "peak": 0.0,
                "parents": {}})
            self.spans += weight
            st["calls"] += weight
            st["s"] += weight * (end - start)
            st["self_s"] += weight * (end - start - child[i])
            st["value"] += weight * value
            st["peak"] = max(st["peak"], value)
            pn = parent_name[i]
            st["parents"][pn] = st["parents"].get(pn, 0.0) + weight

    def get(self, name: str, field: str) -> float:
        st = self.stats.get(name)
        return float(st[field]) if st else 0.0

    def calls_under(self, name: str, parent: str) -> float:
        st = self.stats.get(name)
        return float(st["parents"].get(parent, 0.0)) if st else 0.0
