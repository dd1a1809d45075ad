"""Per-layer tracing of taubound from outside the package.

The tracer replaces each public entry point listed in WRAPPED with a
wrapper that records a span (name, start, end, parent span).  A function
is replaced on every name a caller resolves: in its defining module, in
each module that bound it with ``from .x import y``, and in the package
namespace; ``Mat.mul`` is replaced on the class.  Spans stay in memory
until the end of the run.  A layer's self time is the duration of its
spans minus the part covered by their direct child spans.

``fields`` works per scalar and is not wrapped: its cost shows in the
self time of the ``linalg`` entry points that call it.
"""

import contextlib
import functools
import gzip
import json
import sys
import time

# (module, qualified name); metric names are "<module>.<qualified name>.<stat>".
WRAPPED = [
    ("linalg", "rref"), ("linalg", "Mat.mul"),
    ("decompose", "decompose"), ("decompose", "iso_test"),
    ("tau", "validate_stt_pair"), ("tau", "classify_pair"), ("tau", "tau_data"),
    ("algebra", "delete_vertices"), ("algebra", "factor_algebra"),
    ("reps", "hom_basis"), ("reps", "minimal_presentation"),
    ("reps", "cokernel"), ("reps", "annihilator"),
    ("mutation", "mutate_down"), ("mutation", "fac_contains"),
    ("mutation", "enumerate_stt"), ("mutation", "mutate"),
    ("endo", "endo_algebra"), ("endo", "quiver_presentation"),
    ("endo", "derdim_estimate"),
    ("reports", "derdim_bound_report"), ("reports", "graph_reports"),
    ("reports", "tilting_proxy_check"), ("reports", "quotient_by_annihilator"),
    ("parsing", "parse_algebra_text"),
]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = [f"{m}.{q}" for m, q in WRAPPED]
        self.spans = []         # (name index, start, end, parent span index or -1)
        self.stack = []
        self.on = False
        self.rref_cells = 0
        self.rref_max_cols = 0
        self.iso_hits = 0
        self.support_sets = set()
        self.max_summand_dim = 0
        self._restore = []      # (namespace, attribute, original)

    @contextlib.contextmanager
    def recording(self):
        self.on = True
        try:
            yield
        finally:
            self.on = False

    def install(self):
        prefix = self.package.__name__
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        observers = {"linalg.rref": self._see_rref,
                     "decompose.iso_test": self._see_iso,
                     "algebra.delete_vertices": self._see_delete,
                     "mutation.mutate_down": self._see_mutate_down}
        for idx, (mod, qual) in enumerate(WRAPPED):
            home = sys.modules[f"{prefix}.{mod}"]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(idx, original, observers.get(self.names[idx])))
                continue
            original = getattr(home, qual)
            wrapper = self._wrap(idx, original, observers.get(self.names[idx]))
            bound = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"nothing resolves to {prefix}.{mod}.{qual}")

    def uninstall(self):
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore.clear()

    def _patch(self, namespace, attr, value):
        self._restore.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def _wrap(self, idx, fn, observe):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (idx, start, end, parent)
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return wrapper

    def _see_rref(self, args, kwargs, result):
        mat = args[0]
        self.rref_cells += mat.nrows * mat.ncols
        self.rref_max_cols = max(self.rref_max_cols, mat.ncols)

    def _see_iso(self, args, kwargs, result):
        self.iso_hits += bool(result.isomorphic)

    def _see_delete(self, args, kwargs, result):
        algebra = args[0]
        labels = args[1] if len(args) > 1 else kwargs["labels"]
        self.support_sets.add((algebra.name, tuple(sorted(str(l) for l in labels))))

    def _see_mutate_down(self, args, kwargs, result):
        dims = [s.dim_total for s in result.pair.summands] + [result.removed.dim_total]
        self.max_summand_dim = max([self.max_summand_dim] + dims)

    def layer_totals(self):
        """Per wrapped name: (calls, self seconds)."""
        n = len(self.names)
        calls, self_s = [0] * n, [0.0] * n
        covered = [0.0] * len(self.spans)
        for idx, start, end, parent in self.spans:
            calls[idx] += 1
            if parent >= 0:
                covered[parent] += end - start
        for sid, (idx, start, end, parent) in enumerate(self.spans):
            self_s[idx] += (end - start) - covered[sid]
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}

    def metrics(self, pairs):
        """Every per-layer metric but trace.overhead_ratio, by name;
        ``pairs`` is the number of pairs the traced public calls produced."""
        totals = self.layer_totals()
        values = {}
        for name, (calls, self_s) in totals.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        iso_calls = totals["decompose.iso_test"][0]
        delete_calls = totals["algebra.delete_vertices"][0]
        values.update({
            "linalg.rref.cells": self.rref_cells,
            "linalg.rref.max_cols": self.rref_max_cols,
            "decompose.iso_test.hit_ratio": self.iso_hits / iso_calls if iso_calls else 0.0,
            "tau.validations_per_pair":
                totals["tau.validate_stt_pair"][0] / pairs if pairs else 0.0,
            "algebra.delete_vertices.distinct_ratio":
                len(self.support_sets) / delete_calls if delete_calls else 0.0,
            "mutation.max_summand_dim": self.max_summand_dim,
        })
        return values

    def write_spans(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {"names": self.names,
                   "fields": ["name", "start_s", "end_s", "parent"],
                   "spans": [[i, round(s - t0, 7), round(e - t0, 7), p]
                             for i, s, e, p in self.spans]}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
