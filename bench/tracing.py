"""Span tracing for the traced benchmark run, installed from outside memax.

The tracer wraps memax's public callables by replacing module and class
attributes; memax itself is not edited.  Each call becomes a span with a
name, start, end, parent span and job id.  Spans stay in memory and are
written out when the run ends.  Counts are taken at the same boundaries.

Factorizations are counted by wrapping the ``splu`` that ``memax.spectral``
imports; the factor it returns is proxied so that each triangular solve is a
span too.  The stepper imports its own ``splu`` and stays out of
``spectral.*``.  Fill is read from ``SuperLU.nnz``; touching ``.L``/``.U``
would copy the factors.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

from workloads import bin_residual

# (home module, attribute or Class.method, span name)
TARGETS = [
    ("memax.spectral", "solve_linear", "spectral.solve_linear"),
    ("memax.spectral", "SolutionOperator.__init__", "spectral.operator_init"),
    ("memax.spectral", "SolutionOperator.apply_spectral", "spectral.apply_spectral"),
    ("memax.spectral", "SolutionOperator.apply", "spectral.apply"),
    ("memax.materials", "PiecewiseMaterial.eps_values", "materials.eval"),
    ("memax.materials", "line_certificate", "materials.line_certificate"),
    ("memax.materials", "accretivity_scan", "materials.scan"),
    ("memax.signals", "fourier_laplace", "signals.fft"),
    ("memax.signals", "inverse_fourier_laplace", "signals.fft"),
    ("memax.signals", "causal_convolve", "signals.conv"),
    ("memax.nonlinear", "picard_solve", "nonlinear.picard"),
    ("memax.nonlinear", "DtPolarization.__call__", "nonlinear.polarization"),
    ("memax.operators", "build_curl_pair", "operators.build"),
    ("memax.operators", "helmholtz_projections", "operators.kernels"),
    ("memax.operators", "poincare_constant", "operators.poincare"),
    ("memax.stability", "projection_invertibility_check", "operators.poincare"),
    ("memax.stability", "certify_decay_rate", "stability.certify"),
    ("memax.stability", "simulate_decay", "stability.simulate"),
    ("memax.history", "build_maxwell_inhomogeneity", "history.convert"),
    ("memax.stepper", "OracleStepper.step", "stepper.step"),
    ("memax.stepper", "OracleStepper.run", "stepper.run"),
]


class Tracer:
    """In-memory span and counter registry for one traced run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job]
        self.stack = []          # indices of open spans
        self.job = None
        self.paused = False      # set while the benchmark checks outputs
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._restore = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- installation ------------------------------------------------------

    def _traced(self, name, fn, post=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            before = dict(tracer.counts) if post is not None else None
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if post is not None:
                tracer.paused = True
                try:
                    out = post(tracer, before, args, out)
                finally:
                    tracer.paused = False
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every target in its home module and in every memax module
        that imported it by name."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "memax" or n.startswith("memax.")]
        for home, attr, name in TARGETS:
            module = importlib.import_module(home)
            post = _POST.get(attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, meth, self._traced(name, cls.__dict__[meth], post))
                continue
            original = getattr(module, attr)
            wrapped = self._traced(name, original, post)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, wrapped)
        spectral = importlib.import_module("memax.spectral")
        self._replace(spectral, "splu",
                      self._traced("spectral.factor", spectral.splu, _post_splu))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- summaries ---------------------------------------------------------

    def durations(self):
        """Per-name inclusive total, self total and count.

        A span nested in a span of the same name counts only in the outer
        one's inclusive total; self time is the span's duration minus the
        durations of its direct children.
        """
        child_time = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        total = defaultdict(float)
        self_t = defaultdict(float)
        count = defaultdict(int)
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            count[name] += 1
            self_t[name] += (t1 - t0) - child_time[i]
            if not self._has_ancestor(i, name):
                total[name] += t1 - t0
        return total, self_t, count

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def top_op(self, i: int) -> str | None:
        """Name of the outermost benchmark operation span above span i."""
        op = None
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0].startswith("op."):
                op = self.spans[p][0]
            p = self.spans[p][3]
        return op

    def count_under(self, name: str, ancestor: str) -> int:
        return sum(1 for i, s in enumerate(self.spans)
                   if s[0] == name and self._has_ancestor(i, ancestor))

    def write(self, path: str):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, f, separators=(",", ":"))


# ---------------------------------------------------------------------------
# post-call hooks: counts read at the span boundary


class _TracedFactor:
    """Proxy for a SuperLU factor that traces each triangular solve."""

    def __init__(self, tracer: Tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, rhs, *args, **kwargs):
        if self._tracer.paused:
            return self._lu.solve(rhs, *args, **kwargs)
        idx = self._tracer.open("spectral.trisolve")
        try:
            return self._lu.solve(rhs, *args, **kwargs)
        finally:
            self._tracer.close(idx)
            self._tracer.counts["trisolve"] += 1

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _post_splu(tracer, before, args, lu):
    tracer.counts["factor_nnz"] += lu.nnz
    return _TracedFactor(tracer, lu)


def _post_apply_spectral(tracer, before, args, out):
    """Refinement retries, growth against 1/c_min and the Nyquist residual.

    apply_spectral solves each nonzero bin once; any further solve during
    the call is an iterative-refinement retry.
    """
    op, ghat = args[0], args[1]
    gnorm = np.linalg.norm(ghat, axis=1)
    nonzero = gnorm > 0
    solves = tracer.counts["trisolve"] - before.get("trisolve", 0.0)
    tracer.counts["refine"] += solves - int(np.count_nonzero(nonzero))
    if op.c_min > 0 and nonzero.any():
        growth = float((np.linalg.norm(out, axis=1)[nonzero] / gnorm[nonzero]).max())
        tracer.maxima["growth_x_cmin"] = max(tracer.maxima["growth_x_cmin"],
                                             growth * op.c_min)
    nyq = ghat.shape[0] // 2
    if ghat.shape[0] % 2 == 0 and nonzero[nyq]:
        res = bin_residual(op.bundle, op.material, op.z[nyq], out[nyq], ghat[nyq])
        tracer.maxima["nyquist_residual"] = max(tracer.maxima["nyquist_residual"],
                                                res / gnorm.max())
    return out


def _post_scan(tracer, before, args, scan):
    tracer.counts["scan_points"] += scan.n_grid
    return scan


def _post_picard(tracer, before, args, result):
    tracer.counts["picard_iterations"] += result[1].iterations
    return result


_POST = {
    "SolutionOperator.apply_spectral": _post_apply_spectral,
    "accretivity_scan": _post_scan,
    "picard_solve": _post_picard,
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the spans and counts of a traced job list."""
    total, self_t, count = tracer.durations()
    n_factor = count["spectral.factor"]
    refine = tracer.counts["refine"]
    n_certify = count["stability.certify"]
    return {
        "spectral.factor_count": (n_factor, "count"),
        "spectral.factor_s": (total["spectral.factor"], "s"),
        "spectral.factor_nnz_mean": (tracer.counts["factor_nnz"] / n_factor if n_factor else 0.0,
                                     "entries"),
        "spectral.trisolve_count": (count["spectral.trisolve"], "count"),
        "spectral.trisolve_s": (total["spectral.trisolve"], "s"),
        "spectral.solves_per_factor": ((count["spectral.trisolve"] - refine) / n_factor
                                       if n_factor else 0.0, "ratio"),
        "spectral.refine_count": (refine, "count"),
        "spectral.loop_self_s": (self_t["spectral.apply_spectral"], "s"),
        "spectral.operator_init_s": (total["spectral.operator_init"], "s"),
        "spectral.growth_x_cmin": (tracer.maxima["growth_x_cmin"], "ratio"),
        "spectral.nyquist_residual": (tracer.maxima["nyquist_residual"], "ratio"),
        "materials.eval_count": (count["materials.eval"], "count"),
        "materials.eval_s": (total["materials.eval"], "s"),
        "materials.scan_count": (count["materials.scan"], "count"),
        "materials.scan_s": (total["materials.scan"], "s"),
        "materials.scan_points": (tracer.counts["scan_points"], "count"),
        "signals.fft_count": (count["signals.fft"], "count"),
        "signals.fft_s": (total["signals.fft"], "s"),
        "signals.conv_count": (count["signals.conv"], "count"),
        "signals.conv_s": (total["signals.conv"], "s"),
        "operators.build_s": (total["operators.build"], "s"),
        "operators.kernels_s": (total["operators.kernels"], "s"),
        "operators.poincare_s": (total["operators.poincare"], "s"),
        "nonlinear.iterations": (tracer.counts["picard_iterations"], "count"),
        "nonlinear.polarization_s": (total["nonlinear.polarization"], "s"),
        "history.convert_s": (total["history.convert"], "s"),
        "stepper.step_count": (count["stepper.step"], "count"),
        "stepper.step_s": (total["stepper.step"], "s"),
        "stepper.run_self_s": (self_t["stepper.run"], "s"),
        "stability.certify_count": (n_certify, "count"),
        "stability.certify_s": (total["stability.certify"], "s"),
        "stability.scans_per_certificate": (
            tracer.count_under("materials.scan", "stability.certify") / n_certify
            if n_certify else 0.0, "ratio"),
    }
