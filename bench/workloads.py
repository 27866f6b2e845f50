"""The benchmark's workloads: set-up, seeded inputs, jobs and output checks.

Each workload is a closed loop of jobs on one process; a job's inputs come
from ``numpy.random.default_rng([seed, job])`` and memax sees only those
inputs.  Every memax call runs through :meth:`Ledger.run`, which times the
call, records any exception as a failed operation and then checks the
output with tracing paused.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
from scipy import sparse

import memax as mx
import memax.cli
import memax.history

OUT_DIR = Path(__file__).resolve().parents[1] / ".bench_out"
GRID = mx.TimeGrid(-2.0, 1.0 / 32.0, 512)
RHO = 2.0

# The README's minimal configuration, verbatim.
README_CONFIG = {
    "schema_version": 1,
    "grid": {"extents": [1.0, 1.0, 1.0], "n_cells": [4, 4, 4],
             "interface_axis": 3, "interface_index": 2},
    "material": {"model": "mod_dl", "eps0": 1.0,
                 "terms": [{"alpha": 1.0, "gamma": 1.0, "omega0": 2.0}],
                 "r": 4.0, "mu": [1.0, 1.0]},
    "time": {"t_start": -2.0, "dt": 0.03125, "n_samples": 512},
    "source": {"t_on": 0.0, "t_off": 2.0, "seed": 7, "divergence_free": True},
}

# Failures of the program that are known and recorded in NOTES.md.  They
# still count in `failed`; they only keep `correct` true while they fail in
# exactly the recorded way.
KNOWN_FAILURES = {
    "readme_stability": "ValueError: decay window too short to fit",
}


# ---------------------------------------------------------------------------
# operation ledger


class Ledger:
    """Outcome of every operation and every output check of a run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = []                 # {"op", "ok", "error"}
        self.checks = {}              # check name -> [passed, total]
        self.diagnostics = {}         # name -> worst value seen
        self.busy = 0.0               # seconds spent inside memax calls

    def run(self, name: str, call, check=None):
        """Time call(); then verify its result with check(result), which
        yields (check name, ok) pairs.  Returns the result or None."""
        span = self.tracer.span("op." + name) if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                result = call()
        except Exception as exc:  # every program failure is recorded, none dropped
            self.busy += time.perf_counter() - t0
            self._record(name, f"{type(exc).__name__}: {exc}")
            return None
        self.busy += time.perf_counter() - t0
        failed = []
        with self._paused():
            try:
                for check_name, ok in (check(result) if check else ()):
                    tally = self.checks.setdefault(check_name, [0, 0])
                    tally[0] += bool(ok)
                    tally[1] += 1
                    if not ok:
                        failed.append(check_name)
            except Exception as exc:  # a check that cannot run is a failed check
                failed.append(f"{name}.check raised {type(exc).__name__}: {exc}")
        self._record(name, "failed checks: " + ", ".join(failed) if failed else None)
        return result

    def note(self, name: str, value: float):
        """Keep the worst (largest) value of an ungated diagnostic."""
        self.diagnostics[name] = max(self.diagnostics.get(name, 0.0), float(value))

    def _record(self, name, error):
        self.ops.append({"op": name, "ok": error is None, "error": error})

    @contextlib.contextmanager
    def _paused(self):
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    @property
    def failed(self) -> int:
        return sum(not o["ok"] for o in self.ops)

    def unexpected_failures(self) -> list:
        return [o for o in self.ops
                if not o["ok"] and KNOWN_FAILURES.get(o["op"]) != o["error"]]


# ---------------------------------------------------------------------------
# shared pieces


def interface_law():
    """Region 1 mod_dl (alpha=1, gamma=1, omega0=2, r=4); region 2 dl
    (alpha=0.5, gamma=1.2, omega0=2.5) with conductivity 0.5."""
    p1 = mx.ModDLParams(mx.DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)]), 4.0)
    p2 = mx.DrudeLorentzParams(1.0, [(0.5, 1.2, 2.5)])
    material = mx.PiecewiseMaterial(mx.mod_dl_law(p1), mx.dl_law(p2), 1.0, 1.0,
                                    sigma1=0.0, sigma2=0.5)
    return material, p1, p2


def box(n: int):
    return mx.build_curl_pair(mx.YeeGrid((1.0, 1.0, 1.0), (n, n, n), 3, n // 2))


def divergence_free_vector(bundle, rng, amplitude: float) -> np.ndarray:
    vec = np.concatenate([bundle.C @ rng.standard_normal(bundle.n_faces),
                          bundle.C0 @ rng.standard_normal(bundle.n_edges)])
    return vec * (amplitude / np.linalg.norm(vec))


def pulse(bundle, rng, amplitude: float = 1.0, rho: float = RHO) -> mx.WeightedSignal:
    """Divergence-free data switched on over [0, 2] by a smooth pulse."""
    vec = divergence_free_vector(bundle, rng, amplitude)
    prof = mx.smooth_pulse(GRID.times, 0.0, 2.0)
    return mx.WeightedSignal(GRID, rho, prof[:, None] * vec[None, :])


def warm_blas():
    a = np.ones((64, 64))
    return float((a @ a)[0, 0])


def bin_residual(bundle, material, z, u_k, g_k) -> float:
    """|(z diag(eps(z), mu) + A) u_k - g_k| with the matrix built here from
    public pieces, independent of the solver's own assembly."""
    eps = material.eps_values(z, bundle.edge_region_mask())
    mu = np.where(bundle.face_region_mask(), material.mu1, material.mu2)
    mat = sparse.diags(np.concatenate([z * eps, z * mu])) + bundle.A
    return float(np.linalg.norm(mat @ u_k - g_k))


def solve_checks(ledger, bundle, material, g, u, report, bins):
    """Certificate, growth, independent residual and Nyquist checks of one
    linear solve."""
    yield "solve.bound_ok", report.bound_ok()
    yield "solve.growth_x_cmin<=1.02", report.max_growth * report.c_min_line <= 1.02
    yield "solve.finite", bool(np.all(np.isfinite(u.values)))
    G = mx.fourier_laplace(g, check=False).values
    U = mx.fourier_laplace(u, check=False).values
    scale = np.linalg.norm(G, axis=1).max()
    z = RHO + 1j * GRID.xi
    worst = max(bin_residual(bundle, material, z[k], U[k], G[k]) for k in bins) / scale
    ledger.note("solve.max_bin_residual", worst)
    yield "solve.residual<=1e-12", worst <= 1e-12
    # the Nyquist bin is its own mirror; the solver projects it to real values
    nyq = GRID.n_samples // 2
    ledger.note("spectral.nyquist_residual",
                bin_residual(bundle, material, z[nyq], U[nyq], G[nyq]) / scale)
    yield "solve.nyquist_real", np.abs(U[nyq].imag).max() <= 1e-12 * np.abs(U).max()


def check_bins(rng) -> list:
    """xi = 0 plus three seeded bins that have a distinct mirror bin."""
    n = GRID.n_samples
    candidates = [k for k in range(1, n) if k != n // 2]
    return [0] + sorted(int(k) for k in rng.choice(candidates, 3, replace=False))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """setup(seed) -> ctx; make_input(ctx, job) -> inputs; job(ctx, inputs,
    ledger) runs one job; close(ctx) releases what setup made."""

    name = ""
    fixed_jobs = 1

    def close(self, ctx):
        pass


class Forward(Workload):
    """Cold certified forward solves: the CLI `solve` path at n = 6."""

    name = "forward"
    fixed_jobs = 4

    def setup(self, seed: int):
        warm_blas()
        material, _, _ = interface_law()
        return {"seed": seed, "bundle": box(6), "material": material}

    def make_input(self, ctx, job: int):
        rng = np.random.default_rng([ctx["seed"], job])
        return pulse(ctx["bundle"], rng), check_bins(rng)

    def job(self, ctx, inp, ledger: Ledger):
        g, bins = inp
        bundle, material = ctx["bundle"], ctx["material"]
        ledger.run(
            "solve",
            lambda: mx.solve_linear(mx.LinearProblem(bundle, material, RHO, g)),
            lambda r: solve_checks(ledger, bundle, material, g, r[0], r[1], bins),
        )


class FixedPoint(Workload):
    """Certified Picard solves with a saturable memory polarization: the CLI
    `picard` path at n = 4."""

    name = "fixed_point"
    fixed_jobs = 10

    def setup(self, seed: int):
        warm_blas()
        material, _, _ = interface_law()
        spec = mx.KernelSpec.from_dl(
            mx.DrudeLorentzParams(1.0, [(0.8, 1.5, 3.0)]),
            mx.TimeGrid(0.0, GRID.dt, GRID.n_samples), scale=4.0)
        pol = mx.DtPolarization(spec, mx.SaturableNonlinearity(3, 1.0))
        return {"seed": seed, "bundle": box(4), "material": material, "pol": pol}

    def make_input(self, ctx, job: int):
        return pulse(ctx["bundle"], np.random.default_rng([ctx["seed"], job]), 200.0)

    def job(self, ctx, g, ledger: Ledger):
        problem = mx.LinearProblem(ctx["bundle"], ctx["material"], RHO, g)

        def check(result):
            u, cert = result
            yield "picard.converged", cert.converged
            yield "picard.ratio<=1.05*bound", cert.empirical_ratio <= 1.05 * cert.theoretical_bound
            yield "picard.finite", bool(np.all(np.isfinite(u.values)))

        ledger.run("picard",
                   lambda: mx.picard_solve(problem, ctx["pol"], tol=1e-10, max_iter=200),
                   check)


class CertifyOracle(Workload):
    """Lab traffic off the per-frequency solver: kernels, certificates,
    scans, the oracle stepper, history conversion and the README's
    `memax stability --nu 0.015` call."""

    name = "certify_oracle"
    fixed_jobs = 3
    stepper_steps = 4096
    stepper_dt = 1.0 / 64.0

    def setup(self, seed: int):
        warm_blas()
        material, p1, p2 = interface_law()
        law_dl = mx.dl_law(mx.DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)]))
        law_mod = mx.mod_dl_law(mx.ModDLParams(mx.DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)]), 4.0))
        law_sigma = mx.conductivity_law(law_dl, 0.5)
        readme = mx.RunConfig.from_dict(README_CONFIG)
        readme_material, h1, h2, _, _ = readme.material()
        OUT_DIR.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="certify-", dir=OUT_DIR)
        config_path = os.path.join(workdir, "readme_config.json")
        with open(config_path, "w") as f:
            json.dump(README_CONFIG, f)
        bundle8 = box(8)
        return {
            "seed": seed, "bundle8": bundle8, "bundle4": readme.bundle(),
            "material": material, "p1": p1, "p2": p2,
            "sigma_edges": np.where(bundle8.edge_region_mask(), 0.0, 0.5),
            "battery": [("dl", law_dl, False), ("mod_dl", law_mod, True),
                        ("dl_sigma", law_sigma, True)],
            "scan_laws": [("dl", law_dl, False), ("mod_dl", law_mod, True),
                          ("dl_sigma", law_sigma, True),
                          ("region2", material.eps_laws()[1], True)],
            "readme_material": readme_material, "readme_params": (h1, h2),
            "workdir": workdir, "config_path": config_path,
        }

    def close(self, ctx):
        shutil.rmtree(ctx["workdir"], ignore_errors=True)

    def make_input(self, ctx, job: int):
        rng = np.random.default_rng([ctx["seed"], job])
        b8, b4 = ctx["bundle8"], ctx["bundle4"]
        src = divergence_free_vector(b8, rng, 1.0)
        # a smooth, generally incompatible stored history on [-2, 0] at n = 4
        k0 = GRID.index_of(0.0)
        ht = GRID.times[: k0 + 1] - GRID.times[k0]
        env = np.exp(0.8 * ht)
        hist_vals = np.concatenate([
            np.outer(env * np.cos(1.3 * ht), rng.standard_normal(b4.n_edges)),
            np.outer(env * np.sin(0.9 * ht), rng.standard_normal(b4.n_faces)),
        ], axis=1)
        return src, mx.HistorySpec(ht, hist_vals)

    def job(self, ctx, inp, ledger: Ledger):
        src, hist = inp
        b8 = ctx["bundle8"]

        def kernels():
            basis = mx.helmholtz_projections(b8)
            poincare = mx.poincare_constant(b8, basis)
            s2 = mx.projection_invertibility_check(b8, basis, np.ones(b8.n_faces))
            return basis.sigma_min_C0, poincare, s2

        def kernel_checks(r):
            sigma, poincare, s2 = r
            yield "kernels.poincare_match", abs(1.0 / poincare - sigma) <= 1e-12 * sigma
            yield "kernels.projection_match", abs(math.sqrt(s2) - sigma) <= 1e-12 * sigma

        k = ledger.run("kernels", kernels, kernel_checks)
        sigma_B = math.sqrt(k[2]) if k else 1.0

        for name, law, certifies in ctx["battery"]:
            ledger.run(f"certify.{name}",
                       lambda law=law: mx.certify_decay_rate([law], [1.0], sigma_B),
                       lambda c, certifies=certifies: [
                           ("certify.pattern", c.certified == certifies)])

        for name, law, certified in ctx["scan_laws"]:
            ledger.run(f"scan.{name}",
                       lambda law=law: mx.accretivity_scan(law, nu=0.02, delta_exclusion=1.0,
                                                           condition_id="M2"),
                       lambda s, certified=certified: [
                           ("scan.pattern", s.certified == certified),
                           ("scan.finite", math.isfinite(s.c_min))])

        ledger.run("stepper", lambda: self._stepper_run(ctx, src), self._stepper_checks)

        bundle4, material4 = ctx["bundle4"], ctx["readme_material"]
        h1, h2 = ctx["readme_params"]
        ledger.run(
            "history",
            lambda: mx.build_maxwell_inhomogeneity(
                hist, memax.history.default_bump(GRID, GRID.t_end), bundle4, material4,
                h1, h2, GRID, 1.0),
            lambda r: [("history.compatibility_finite", math.isfinite(r[2].compatibility_residual)),
                       ("history.finite", bool(np.all(np.isfinite(r[0].values))
                                               and np.all(np.isfinite(r[1].values))))])

        out_dir = os.path.join(ctx["workdir"], "stability")
        ledger.run(
            "readme_stability",
            lambda: memax.cli.main(["stability", "--config", ctx["config_path"],
                                    "--nu", "0.015", "--out", out_dir]),
            lambda rc: self._stability_checks(rc, out_dir))

    def _stepper_run(self, ctx, src):
        b8 = ctx["bundle8"]
        stp = mx.OracleStepper(b8, ctx["material"], ctx["p1"], ctx["p2"], self.stepper_dt,
                               sigma_edges=ctx["sigma_edges"])
        ne = b8.n_edges

        def profile(t):
            return mx.smooth_pulse(np.array([t]), 0.0, 2.0)[0]

        return stp.run(stp.initial_state(), lambda t: profile(t) * src[:ne],
                       lambda t: profile(t) * src[ne:], self.stepper_steps)

    @staticmethod
    def _stepper_checks(result):
        times, E, H = result
        # the stepper's own accumulator check runs every 100 steps and raises
        yield "stepper.finite", bool(np.all(np.isfinite(E)) and np.all(np.isfinite(H)))
        yield "stepper.steps", len(times) == CertifyOracle.stepper_steps + 1

    @staticmethod
    def _stability_checks(rc, out_dir):
        yield "stability.exit_code", rc == 0
        with open(os.path.join(out_dir, "stability.json")) as f:
            fits = json.load(f)["fits"]
        yield "stability.fit", bool(fits) and all(math.isfinite(x["nu_hat"]) for x in fits)


WORKLOADS = {w.name: w for w in (Forward(), FixedPoint(), CertifyOracle())}
