"""Memory-kernel nonlinear polarizations and fixed-point solvers.

The simple polarization P(E) = kappa * q(E) enters the field equation
through its time derivative

    dP(E)/dt = kappa(0+) q(E(t)) + (kappa' * q(E))(t),

whose Lipschitz constant in the rho-weighted norm is bounded by
|q|_Lip (|kappa(0+)| + L_kappa) with L_kappa the exponentially weighted
L1 mass of kappa'.  Combined with the certified solution-operator norm
1/c_min on the solve line, that gives a computable contraction bound for
the Picard iteration u -> S(g - dP(E)/dt); every run returns the bound
next to the measured geometric rate as a contraction certificate.

Fully nonlocal quadratic polarizations use separable (low-rank)
two-variable kernels, turning the double integral into products of single
convolutions; their integrability constants (L_K, ell_K, d_K) are
recomputed from the assembled kernel samples, and a time cutoff yields the
local Lipschitz estimate sqrt(T) e^{rho T} C_q sqrt(d_K L_K) (|u|+|v|)
that powers small-ball solves in forward or negative weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BallEscape, KernelRankTooHigh, MaxIterExceeded, NotAContraction
from .materials import line_certificate, sample_kernel
from .signals import (
    SampledKernel,
    TimeGrid,
    WeightedSignal,
    causal_convolve,
    weighted_norm,
)
from .spectral import LinearProblem, SolutionOperator

DENSE_KERNEL_BUDGET = 1024     # max lag samples for dense two-variable constants
MAX_KERNEL_RANK = 16


# ---------------------------------------------------------------------------
# single-variable kernel spec


@dataclass(frozen=True)
class KernelSpec:
    """Causal memory kernel with derivative samples and integrability data."""

    kappa: SampledKernel
    kappa_prime: SampledKernel
    kappa_at_0plus: complex
    rho_kappa: float
    L_kappa: float

    @staticmethod
    def from_samples(kappa: SampledKernel, kappa_prime: SampledKernel,
                     rho_kappa: float = 0.0) -> "KernelSpec":
        kappa.check_causal()
        kappa_prime.check_causal()
        return KernelSpec(
            kappa=kappa,
            kappa_prime=kappa_prime,
            kappa_at_0plus=kappa.at_zero_plus(),
            rho_kappa=rho_kappa,
            L_kappa=compute_L_kappa(kappa_prime, rho_kappa),
        )

    @staticmethod
    def from_dl(params, grid: TimeGrid, rho_kappa: float = 0.0,
                scale: float = 1.0) -> "KernelSpec":
        """Oscillator-law kernel and its analytic derivative, scaled by `scale`."""
        terms = [(lam, scale * c) for lam, c in params.kernel_terms()]
        return KernelSpec.from_samples(sample_kernel(terms, grid),
                                       sample_kernel(terms, grid, derivative=True),
                                       rho_kappa)

    def lip_factor(self) -> float:
        """|kappa(0+)| + L_kappa."""
        return abs(self.kappa_at_0plus) + self.L_kappa


def compute_L_kappa(kappa_prime: SampledKernel, rho_kappa: float = 0.0) -> float:
    """L_kappa = integral |kappa'(s)| e^{-rho_kappa s} ds (trapezoid)."""
    s = kappa_prime.lags
    w = np.abs(kappa_prime.values) * np.exp(-rho_kappa * s)
    return float(np.trapezoid(w, dx=kappa_prime.grid.dt))


# ---------------------------------------------------------------------------
# spatial nonlinearities


@dataclass(frozen=True)
class SaturableNonlinearity:
    """q(u) = |u|^{k-1}/(1 + tau |u|^{k-1}) u, applied per degree of freedom.

    Globally Lipschitz; the constant is the supremum of the scalar profile
    derivative d/ds [s^k/(1+tau s^{k-1})], located by dense evaluation of
    the closed-form derivative with local refinement (not sampled from
    random probes), so certificates built on it are sound.
    """

    k: int
    tau: float

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("saturable exponent k must be >= 2")
        if not self.tau > 0:
            raise ValueError("tau must be positive")

    def __call__(self, values: np.ndarray) -> np.ndarray:
        mag = np.abs(values)
        v = mag ** (self.k - 1) / (1.0 + self.tau * mag ** (self.k - 1))
        return v * values

    def profile_derivative(self, s: np.ndarray) -> np.ndarray:
        """d/ds of g(s) = s^k/(1 + tau s^{k-1})."""
        s = np.asarray(s, dtype=float)
        p = s ** (self.k - 1)
        return p * (self.k + self.tau * p) / (1.0 + self.tau * p) ** 2

    @property
    def lip_bound(self) -> float:
        s = np.geomspace(1e-8, 1e8, 20001)
        grid_max = float(self.profile_derivative(s).max())
        i = int(np.argmax(self.profile_derivative(s)))
        lo, hi = s[max(i - 1, 0)], s[min(i + 1, len(s) - 1)]
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(lambda x: -self.profile_derivative(np.array([x]))[0],
                              bounds=(lo, hi), method="bounded")
        refined = float(-res.fun)
        return max(grid_max, refined, 1.0 / self.tau) * (1.0 + 1e-9)


@dataclass(frozen=True)
class BilinearNonlinearity:
    """Pointwise bilinear map q(u, v) = b * u * v per degree of freedom.

    The discrete bound |q(u,v)| <= C_q |u||v| in the quadrature-weighted L2
    norm carries the cell-volume factor: C_q = |b| / sqrt(dof_volume).
    """

    b: float
    dof_volume: float = 1.0

    def __call__(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.b * u * v

    @property
    def C_q(self) -> float:
        return abs(self.b) / math.sqrt(self.dof_volume)


@dataclass(frozen=True)
class NonlocalNonlinearity:
    """Low-rank nonlocal bilinear map q(u,v) = sum_p h_p <f_p, u> <g_p, v>.

    Factors are arrays over the spatial dofs; the inner products carry the
    quadrature weight, making C_q = sum_p |h_p| |f_p| |g_p| dimension-free.
    """

    f: np.ndarray   # (rank, n_dof)
    g: np.ndarray
    h: np.ndarray
    dof_volume: float = 1.0

    def __call__(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        w = self.dof_volume
        fu = (u @ self.f.T) * w      # (n_t, rank)
        gv = (v @ self.g.T) * w
        return (fu * gv) @ self.h

    @property
    def C_q(self) -> float:
        w = math.sqrt(self.dof_volume)
        return float(sum(np.linalg.norm(f) * w * np.linalg.norm(g) * w * np.linalg.norm(h) * w
                         for f, g, h in zip(self.f, self.g, self.h)))


# ---------------------------------------------------------------------------
# simple polarization and its time derivative


def apply_P_nl(spec: KernelSpec, q, E: WeightedSignal) -> WeightedSignal:
    """P(E) = kappa * q(E); causal by construction."""
    qE = E.with_values(q(E.values))
    return causal_convolve(spec.kappa, qE)


def apply_dt_P_nl(spec: KernelSpec, q, E: WeightedSignal) -> WeightedSignal:
    """dP/dt = kappa(0+) q(E) + kappa' * q(E) (the two-term formula)."""
    qE = E.with_values(q(E.values))
    conv = causal_convolve(spec.kappa_prime, qE)
    return conv.with_values(conv.values + spec.kappa_at_0plus * qE.values)


@dataclass(frozen=True)
class DtPolarization:
    """The map E -> dP(E)/dt with its certified Lipschitz data."""

    spec: KernelSpec
    q: SaturableNonlinearity

    def __call__(self, E: WeightedSignal) -> WeightedSignal:
        return apply_dt_P_nl(self.spec, self.q, E)

    def lip_bound(self) -> float:
        return self.q.lip_bound * self.spec.lip_factor()

    def loc_lip_constant(self, rho: float) -> float:
        """A global Lipschitz bound is a local one on every ball."""
        return self.lip_bound()

    def constants(self) -> dict:
        return {
            "q_lip": self.q.lip_bound,
            "kappa_at_0plus": abs(self.spec.kappa_at_0plus),
            "L_kappa": self.spec.L_kappa,
            "rho_kappa": self.spec.rho_kappa,
        }


# ---------------------------------------------------------------------------
# two-variable (quadratic) kernels


@dataclass(frozen=True)
class QuadKernelSpec:
    """Separable two-variable causal kernel K(t1,t2) = sum_r a_r(t1) b_r(t2).

    Constants are recomputed from the densely assembled samples (desk scale):
        L_K  = double integral of |K| e^{-rho_K (t1+t2)}
        ell_K = sup_delta integral_s |K(s, s+delta)| e^{-rho_K (2s+delta)} ds
        d_K  = ess sup |K| e^{-rho_K (t1+t2)}
    """

    factors_a: tuple      # of SampledKernel
    factors_b: tuple
    rho_K: float
    L_K: float
    ell_K: float
    d_K: float
    cutoff_T: float | None = None

    @staticmethod
    def from_factors(factors_a, factors_b, rho_K: float = 0.0,
                     cutoff_T: float | None = None) -> "QuadKernelSpec":
        factors_a = tuple(factors_a)
        factors_b = tuple(factors_b)
        if len(factors_a) != len(factors_b):
            raise ValueError("factor lists must pair up")
        if len(factors_a) > MAX_KERNEL_RANK:
            raise KernelRankTooHigh(f"rank {len(factors_a)} > {MAX_KERNEL_RANK}")
        m = factors_a[0].grid.n_samples
        if m > DENSE_KERNEL_BUDGET:
            raise KernelRankTooHigh(
                f"{m} lag samples exceed the dense-constants budget {DENSE_KERNEL_BUDGET}"
            )
        for f in (*factors_a, *factors_b):
            f.check_causal()
            if f.grid != factors_a[0].grid:
                raise ValueError("all factors must share the lag grid")
        grid = factors_a[0].grid
        t = grid.times
        dt = grid.dt
        K = np.zeros((m, m))
        for fa, fb in zip(factors_a, factors_b):
            K += np.real(np.outer(fa.values, fb.values))
        Wt = np.exp(-rho_K * t)
        Kw = np.abs(K) * np.outer(Wt, Wt)
        trap = np.ones(m)
        trap[0] = 0.5
        trap[-1] = 0.5
        L_K = float(trap @ Kw @ trap) * dt * dt
        d_K = float(Kw.max())
        ell = 0.0
        for off in range(-(m - 1), m):
            diag = np.diagonal(Kw, offset=off)
            ell = max(ell, float(diag.sum()) * dt)
        return QuadKernelSpec(factors_a, factors_b, rho_K, L_K, ell, d_K, cutoff_T)


def apply_P2(quad: QuadKernelSpec, q2, E: WeightedSignal, F: WeightedSignal | None = None) -> WeightedSignal:
    """P2(E, F)(t) = sum_r q2((a_r * E)(t), (b_r * F)(t)).

    Bilinearity lets the separable kernel factor through q2; for the
    pointwise and low-rank nonlocal maps this is exact, not an
    approximation.  F defaults to E (the quadratic case).
    """
    if F is None:
        F = E
    out = np.zeros_like(E.values)
    for fa, fb in zip(quad.factors_a, quad.factors_b):
        xa = causal_convolve(fa, E).values
        xb = causal_convolve(fb, F).values
        out = out + q2(xa, xb)
    result = E.with_values(out)
    if quad.cutoff_T is not None:
        mask = (E.times <= quad.cutoff_T).astype(float)
        result = result.with_values(result.values * mask[:, None])
    return result


def apply_cutoff(quad: QuadKernelSpec, T: float) -> QuadKernelSpec:
    """Kernel with output truncated to t <= T (local well-posedness device)."""
    return QuadKernelSpec(quad.factors_a, quad.factors_b, quad.rho_K,
                          quad.L_K, quad.ell_K, quad.d_K, cutoff_T=T)


def cutoff_loc_lip_bound(quad: QuadKernelSpec, rho: float, C_q: float) -> float:
    """sqrt(T) e^{rho T} C_q sqrt(d_K L_K): the pair-sum local Lipschitz
    coefficient of the cutoff map in the rho-weighted norm."""
    if quad.cutoff_T is None:
        raise ValueError("kernel carries no cutoff")
    T = quad.cutoff_T
    return math.sqrt(T) * math.exp(rho * T) * C_q * math.sqrt(quad.d_K * quad.L_K)


def multilinear_cutoff_bound(T: float, rho: float, C: float, n: int) -> float:
    """sqrt(T) e^{(n-1) rho T} C: the n-linear generalization's coefficient."""
    return math.sqrt(T) * math.exp((n - 1) * rho * T) * C


@dataclass(frozen=True)
class QuadDtPolarization:
    """E -> (dP2/dt)(E): separable expansion of the (d1+d2)-kernel.

    Built from the derivative factors; requires the underlying kappa to
    vanish on the axes so no boundary terms appear.
    """

    quad: QuadKernelSpec
    q2: object

    def __call__(self, E: WeightedSignal) -> WeightedSignal:
        return apply_P2(self.quad, self.q2, E)

    def loc_lip_constant(self, rho: float) -> float:
        if self.quad.cutoff_T is not None:
            return cutoff_loc_lip_bound(self.quad, rho, self.q2.C_q)
        return math.sqrt(self.quad.L_K * self.quad.ell_K) * self.q2.C_q


# ---------------------------------------------------------------------------
# fixed-point solvers


@dataclass
class ContractionCertificate:
    rho: float
    theoretical_bound: float
    empirical_ratio: float
    iterations: int
    converged: bool
    final_residual: float
    constants: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "theoretical_bound": self.theoretical_bound,
            "empirical_ratio": self.empirical_ratio,
            "iterations": self.iterations,
            "converged": self.converged,
            "final_residual": self.final_residual,
            "constants": dict(self.constants),
        }


def _embed_E(bundle, E_values: np.ndarray, n_state: int) -> np.ndarray:
    out = np.zeros((E_values.shape[0], n_state), dtype=E_values.dtype)
    out[:, : E_values.shape[1]] = E_values
    return out


def suggest_rho(problem: LinearProblem, lip: float, target: float = 0.9,
                rho_hi: float = 1e4) -> float:
    """Smallest weight (by bisection) at which lip / c_min(line) <= target."""
    grid = problem.rhs.grid

    def bound(rho):
        c = line_certificate(problem.material, rho, grid.xi)
        return np.inf if c <= 0 else lip / c

    lo, hi = 1e-3, rho_hi
    if bound(hi) > target:
        raise NotAContraction(hi, bound(hi))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if bound(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def _fixed_point(op: SolutionOperator, g: WeightedSignal, nonlinearity, tol: float,
                 max_iter: int, radius: float | None = None):
    """Iterate u <- S(g - (N(E), 0)) from u0 = S g until the step gap drops
    below tol times the scale: |u0| without a ball, the radius with one.

    Without a ball, three successive gap ratios above 2 stop the run as a
    runaway.  With a ball, an iterate outside the radius raises BallEscape.
    Returns u, the certificate fields measured on the run and the trace of
    iterate norms checked against the ball.
    """
    bundle = op.bundle
    n_edges = bundle.n_edges

    def step(u: WeightedSignal) -> WeightedSignal:
        E = u.with_values(u.values[:, :n_edges])
        N = nonlinearity(E)
        rhs = g.with_values(g.values - _embed_E(bundle, N.values, bundle.n_state))
        return op.apply(rhs)

    def inside_ball(u: WeightedSignal) -> float:
        norm_u = weighted_norm(u)
        if norm_u > radius:
            raise BallEscape(len(gaps), norm_u, radius)
        return norm_u

    u = op.apply(g)
    scale = max(weighted_norm(u) if radius is None else radius, 1e-300)
    gaps, ratios, trace = [], [], []
    for _ in range(max_iter):
        if radius is not None:
            trace.append(inside_ball(u))
        u_next = step(u)
        gap = weighted_norm(u_next - u)
        if gaps:
            ratios.append(gap / max(gaps[-1], 1e-300))
        gaps.append(gap)
        u = u_next
        if gap <= tol * scale:
            break
        if radius is None and len(ratios) >= 3 and all(r > 2.0 for r in ratios[-3:]):
            # runaway: usually the window's unweighted dynamic range
            # e^{rho (t_end - t_data)} exceeding float precision
            raise MaxIterExceeded(len(gaps), gaps)
    else:
        raise MaxIterExceeded(len(gaps), gaps)
    if radius is not None:
        inside_ball(u)
    return u, {
        "empirical_ratio": max(ratios) if ratios else 0.0,
        "iterations": len(gaps),
        "converged": True,
        "final_residual": weighted_norm(step(u) - u),
    }, trace


def picard_solve(problem: LinearProblem, nonlinearity, rho: float | None = None,
                 tol: float = 1e-10, max_iter: int = 200):
    """Fixed-point solve of (dM/dt + A) u = g - (dP_nl/dt (E), 0).

    Starts from the linear solution u0 = S g; the theoretical contraction
    bound is lip(dP_nl/dt) / c_min(line) with the scan-certified c_min on
    the actual frequency line.  Raises NotAContraction when the bound is
    not below one, with a suggested weight.
    """
    if rho is None:
        rho = problem.rho
    g = problem.rhs
    if rho != g.rho:
        g = WeightedSignal(g.grid, rho, g.values, g.wrap_tol)
    bundle = problem.bundle
    op = SolutionOperator(bundle, problem.material, rho, g.grid)
    lip = nonlinearity.lip_bound()
    bound = lip / op.c_min
    if bound >= 1.0:
        try:
            suggestion = suggest_rho(problem, lip)
        except NotAContraction:
            suggestion = None
        raise NotAContraction(rho, bound, suggestion)

    u, run, _ = _fixed_point(op, g, nonlinearity, tol, max_iter)
    cert = ContractionCertificate(
        rho=rho,
        theoretical_bound=bound,
        constants={**getattr(nonlinearity, "constants", dict)(), "c_min_line": op.c_min},
        **run,
    )
    return u, cert


def ball_solve(problem: LinearProblem, nonlinearity, weight: float, alpha: float = 1.0,
               radius_policy="auto", K_linear: float | None = None,
               tol: float = 1e-10, max_iter: int = 200):
    """Ball-confined fixed-point solve at forward (w > 0) or decay (w < 0) weight.

    Forward: the local Lipschitz estimate |N(u)-N(v)| <= C (|u|+|v|)^alpha
    |u-v| gives a contraction on the ball of radius r < (1/2)(c_min/C)^(1/alpha).

    Decay weight w = -nu: the linear stability constant K bounds |S| on
    admissible data; with C the local Lipschitz coefficient the admissible
    ball is eps0 = 1/(4 K C) and data must satisfy |g| < eps/(4K).  Iterates
    are checked against the ball every step: leaving it raises BallEscape,
    the signal that the data is too large for the small-solution regime.
    """
    g = problem.rhs
    if weight != g.rho:
        g = WeightedSignal(g.grid, weight, g.values, g.wrap_tol)
    bundle = problem.bundle
    op = SolutionOperator(bundle, problem.material, weight, g.grid,
                          certificate_required=weight > 0)
    C_loc = nonlinearity.loc_lip_constant(weight)

    if weight > 0:
        gain = 1.0 / op.c_min
    else:
        if K_linear is None:
            raise ValueError("decay-weight ball solves need the linear stability constant K")
        gain = K_linear

    if radius_policy == "auto":
        radius = 0.49 * (1.0 / (2.0 ** alpha * gain * C_loc)) ** (1.0 / alpha)
        if weight < 0:
            radius = min(radius, 1.0 / (4.0 * gain * C_loc))
    else:
        radius = float(radius_policy)

    u, run, trace = _fixed_point(op, g, nonlinearity, tol, max_iter, radius)
    cert = ContractionCertificate(
        rho=weight,
        theoretical_bound=gain * C_loc * (2.0 * radius) ** alpha,
        constants={
            "C_loc": C_loc,
            "radius": radius,
            "gain": gain,
            "alpha": alpha,
            "ball_trace": trace,
        },
        **run,
    )
    return u, cert
