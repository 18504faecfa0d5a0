"""Spans around the calls into each layer of the solver, recorded from outside.

Each target is a name that a caller looks up at call time: a module global
(such as `richards.newton.residual`, which `newton_solve` calls) or a class
attribute (`Parametrization.eval`).  While the tracer is active that name is
bound to a wrapper recording one span (name, start, end, parent) per call;
afterwards the original is put back.  A target that the code no longer has
is reported as absent and left alone.  Spans stay in memory until `write`.

A span's self time is its duration minus the durations of its direct
children.  The benchmark is single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time

# (module, class or None, attribute, span name)
TARGETS = [
    ("richards.harness", None, "run", "harness.run"),
    ("richards.harness", None, "build_mesh", "mesh.build"),
    ("richards.harness", None, "StepProblem", "scheme.step_setup"),
    ("richards.harness", None, "newton_solve", "newton.solve"),
    ("richards.harness", None, "linf_l1_error", "diagnostics.linf_l1_error"),
    ("richards.harness", None, "mass_error", "diagnostics.mass_error"),
    ("richards.newton", None, "residual", "scheme.residual"),
    ("richards.newton", None, "jacobian", "scheme.jacobian"),
    ("richards.newton", None, "linear_solve", "newton.linear_solve"),
    ("richards.newton", None, "mmatrix_analyze", "newton.mmatrix_analyze"),
    ("richards.newton", None, "jacobian_bounds", "newton.jacobian_bounds"),
    ("richards.hydromodel", "Parametrization", "eval", "hydromodel.eval"),
]
# counted, not timed: the size of every sparse LU factorization
SPLU = ("scipy.sparse.linalg", None, "splu")

# per-layer metric -> (span name, what), what in calls | incl_s | self_s
SPAN_METRICS = {
    "hydromodel.eval_calls": ("hydromodel.eval", "calls"),
    "hydromodel.eval_s": ("hydromodel.eval", "incl_s"),
    "scheme.residual_calls": ("scheme.residual", "calls"),
    "scheme.residual_self_s": ("scheme.residual", "self_s"),
    "scheme.jacobian_calls": ("scheme.jacobian", "calls"),
    "scheme.jacobian_self_s": ("scheme.jacobian", "self_s"),
    "scheme.step_setup_calls": ("scheme.step_setup", "calls"),
    "scheme.step_setup_s": ("scheme.step_setup", "incl_s"),
    "newton.solve_self_s": ("newton.solve", "self_s"),
    "newton.linear_solve_calls": ("newton.linear_solve", "calls"),
    "newton.linear_solve_s": ("newton.linear_solve", "incl_s"),
    "newton.mmatrix_analyze_calls": ("newton.mmatrix_analyze", "calls"),
    "newton.mmatrix_analyze_s": ("newton.mmatrix_analyze", "incl_s"),
    "newton.jacobian_bounds_s": ("newton.jacobian_bounds", "incl_s"),
    "diagnostics.linf_l1_error_s": ("diagnostics.linf_l1_error", "incl_s"),
    "diagnostics.mass_error_s": ("diagnostics.mass_error", "incl_s"),
    "harness.runs": ("harness.run", "calls"),
    "harness.run_self_s": ("harness.run", "self_s"),
    "mesh.build_s": ("mesh.build", "incl_s"),
}


def _lookup(module, cls):
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.lu_nnz = []
        self.absent = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def _count_splu(self, splu):
        sizes = self.lu_nnz

        def counted(*args, **kwargs):
            lu = splu(*args, **kwargs)
            sizes.append(int(lu.nnz))
            return lu

        return counted

    def install(self):
        """Bind every target that exists to its wrapper."""
        self.absent = []
        for module, cls, attr, name in TARGETS:
            self._patch(module, cls, attr, lambda fn, name=name: self._wrap(fn, name))
        self._patch(*SPLU, self._count_splu)

    def _patch(self, module, cls, attr, make_wrapper):
        owner = _lookup(module, cls)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append(f"{module}.{cls + '.' if cls else ''}{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def mark(self) -> tuple:
        return len(self.spans), len(self.lu_nnz)

    def layer_metrics(self, since: tuple) -> dict:
        """Per-layer values of the spans recorded since `since` (a `mark`)."""
        first, first_lu = since
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        calls, incl, self_s = {}, {}, {}
        for (name, start, end, _), c in zip(spans, child):
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - c)
        table = {"calls": calls, "incl_s": incl, "self_s": self_s}
        out = {metric: table[what].get(name, 0) for metric, (name, what) in SPAN_METRICS.items()}
        sizes = self.lu_nnz[first_lu:]
        out["newton.lu_nnz"] = statistics.fmean(sizes) if sizes else 0.0
        return out

    def write(self, path, meta: dict):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(meta, absent=self.absent, names=names,
                   spans=[[index[n], a, b, p] for n, a, b, p in self.spans])
        with open(path, "w") as f:
            json.dump(doc, f)
