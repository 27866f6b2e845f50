"""Memory-kernel nonlinear polarizations and fixed-point solvers.

The simple polarization P(E) = kappa * q(E) enters the field equation
through its time derivative

    dP(E)/dt = kappa(0+) q(E(t)) + (kappa' * q(E))(t),

whose Lipschitz constant in the rho-weighted norm is bounded by
|q|_Lip (|kappa(0+)| + the L1 mass of kappa'(s) e^{-r s}), r = min(rho,
rho_kappa).  Combined with the certified solution-operator norm 1/c_min
on the solve line, that gives a computable contraction bound for the
Picard iteration u -> S(g - dP(E)/dt), whose memory term is a per-bin
multiplier on that line; every run returns the bound next to the
measured geometric rate as a contraction certificate.

Fully nonlocal quadratic polarizations use separable (low-rank)
two-variable kernels, turning the double integral into products of single
convolutions; their integrability constants (L_K, ell_K, d_K) are
recomputed from the assembled kernel samples, and a time cutoff yields the
local Lipschitz estimate sqrt(T) e^{rho T} C_q sqrt(d_K L_K) (|u|+|v|)
that powers small-ball solves in forward or negative weights.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import BallEscape, KernelRankTooHigh, MaxIterExceeded, NotAContraction, NotCertified
from .materials import line_certificate, sample_kernel
from .signals import (
    SampledKernel,
    TimeGrid,
    WeightedSignal,
    _from_line,
    _line_columns,
    _line_norm,
    _to_line,
    causal_convolve,
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

    def lip_factor(self, rho: float) -> float:
        """|kappa(0+)| + the L1 norm of kappa'(s) e^{-r s}, r = min(rho, rho_kappa)."""
        return abs(self.kappa_at_0plus) + compute_L_kappa(self.kappa_prime, min(rho, self.rho_kappa))

    def weighted_taps(self, grid: TimeGrid, rho: float) -> np.ndarray:
        """causal_convolve's taps of kappa' on samples weighted by e^{-rho t}: its
        response to a unit first sample times e^{-rho j dt} at lag j < n."""
        impulse = np.zeros((grid.n_samples, 1))
        impulse[0] = 1.0
        h = causal_convolve(self.kappa_prime, WeightedSignal(grid, 0.0, impulse)).values[:, 0]
        return h * np.exp(-rho * grid.dt * np.arange(grid.n_samples))

    def dt_convolve(self, x: WeightedSignal, out: np.ndarray | None = None) -> np.ndarray:
        """d/dt (kappa * x) = kappa' * x + kappa(0+) x, the two-term formula.

        With out given, the two terms are added to it in that order and out
        is returned; otherwise the sum is a new array.
        """
        conv = causal_convolve(self.kappa_prime, x).values
        k0 = self.kappa_at_0plus
        # a real kernel on real data gives a real current
        zero_lag = (k0.real if k0.imag == 0 and conv.dtype == np.float64 else k0) * x.values
        if out is None:
            return conv + zero_lag
        out += conv
        out += zero_lag
        return out


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

    Globally Lipschitz with the exact supremum of the profile derivative:
    for g(s) = s^k/(1 + tau s^{k-1}) and x = tau s^{k-1},

        tau g'(s) = x (k + x)/(1 + x)^2,   d/dx of that = (k - (k - 2) x)/(1 + x)^3,

    so for k > 2 the maximum is at x = k/(k - 2) and sup g' = k^2/(4 tau (k - 1));
    at k = 2, g' rises to its limit 1/tau, the same formula.  The bound is
    >= 1/tau for every k >= 2, since k^2 - 4 (k - 1) = (k - 2)^2.
    """

    k: int
    tau: float

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("saturable exponent k must be >= 2")
        if not self.tau > 0:
            raise ValueError("tau must be positive")

    def __call__(self, values: np.ndarray) -> np.ndarray:
        p = np.abs(values) ** (self.k - 1)
        return p / (1.0 + self.tau * p) * values

    @property
    def lip_bound(self) -> float:
        return self.k ** 2 / (4.0 * self.tau * (self.k - 1)) * (1.0 + 1e-9)


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


# ---------------------------------------------------------------------------
# simple polarization and its time derivative


def apply_dt_P_nl(spec: KernelSpec, q, E: WeightedSignal) -> WeightedSignal:
    """dP/dt = kappa(0+) q(E) + kappa' * q(E) (the two-term formula)."""
    return E._with_fresh(spec.dt_convolve(E._with_fresh(q(E.values))))


@dataclass(frozen=True)
class DtPolarization:
    """The map E -> dP(E)/dt with its certified Lipschitz data."""

    spec: KernelSpec
    q: SaturableNonlinearity

    def __call__(self, E: WeightedSignal) -> WeightedSignal:
        return apply_dt_P_nl(self.spec, self.q, E)

    def lip_bound(self, rho: float) -> float:
        """The rho-weighted Lipschitz constant: global, so local on every ball."""
        return self.q.lip_bound * self.spec.lip_factor(rho)

    loc_lip_constant = lip_bound

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
    gaps: list = field(default_factory=list)   # step gaps |u_{j+1} - u_j|, one per iteration
    line_steps: int = 0        # steps (the residual's included) whose memory term was a line product
    time_steps: int = 0        # steps whose memory term was formed in time
    max_alias_bound: float | None = None   # the largest wrap bound B of a line-gated step

    def to_dict(self) -> dict:
        return asdict(self)


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

    g is taken at the solve weight op.rho, where data above its wraparound
    tolerance raises WraparoundExceeded, as in solve_linear.  Without a
    ball, three successive gap ratios above 2 stop the run as a runaway.
    With a ball, an iterate outside the radius raises BallEscape.  Returns
    u, the certificate fields measured on the run and the trace of iterate
    norms checked against the ball.

    Iterates live on the solve's line, and S is linear: u_{k+1} = u0 - w_k,
    w_k = S(N(E_k), 0).  g is transformed and solved once, in place, for
    u0; a step solves only the edge data N(E_k) (_solve_line with zero
    faces), and only u_{k+1}'s edge columns U0 - W_k go back to time, for
    the next N(E).  The gap |u_{k+1} - u_k| is |w_k - w_{k-1}|, written
    over w_{k-1}'s buffer, and u = u0 - w comes back once, at the end;
    norms are read off the spectra by _line_norm.  For a DtPolarization
    N(E)'s spectrum is K Q: Q that of q(E), K = kappa(0+) +
    DFT(weighted_taps), exact for dt_convolve up to the circular product's
    wrap, at most B = sum_{j>=1} |taps_j| max_{m>=n-j} x_m per sample, x_m
    the weighted q(E)'s column peak.  A step with B > wrap_tol max x, and
    any other nonlinearity, forms N(E) in time.  The line is g's until a
    complex kernel or N needs the full.
    """
    if g.rho != op.rho:
        g = WeightedSignal(g.grid, op.rho, g.values, g.wrap_tol)
    g.check_wraparound()
    n, ne = g.grid.n_samples, op.bundle.n_edges
    weight = np.exp(-g.rho * g.times)[:, None]
    U0, _, real = _to_line(g)
    paths = {"line_steps": 0, "time_steps": 0, "max_alias_bound": None}

    def full(W: np.ndarray) -> np.ndarray:   # the full line of a real signal's half line W
        return np.asfortranarray(np.concatenate((W, W[(n - 1) // 2:0:-1].conj())))

    spec = nonlinearity.spec if isinstance(nonlinearity, DtPolarization) else None
    if spec is not None:
        taps, k0 = spec.weighted_taps(g.grid, g.rho), spec.kappa_at_0plus
        if real and (taps.imag.any() or k0.imag):
            U0, real = full(U0), False
        K = (k0.real + np.fft.rfft(taps.real) if real else k0 + np.fft.fft(taps))[:, None]
        taps = np.abs(taps[1:])

    def memory(E: WeightedSignal) -> np.ndarray:
        """The spectrum of N(E): edge columns, the data a step solves."""
        nonlocal U0, W, real
        if spec is not None:
            qE = nonlinearity.q(E.values)
            x = np.maximum.accumulate((np.abs(qE).max(axis=1) * weight[:, 0])[::-1])
            bound = float((taps * x[:-1]).sum())
            paths["max_alias_bound"] = max(bound, paths["max_alias_bound"] or 0.0)
        if spec is not None and bound <= g.wrap_tol * x[-1]:
            paths["line_steps"] += 1
            M = _line_columns(qE, weight, real)
            M *= K
            return M
        paths["time_steps"] += 1
        N = nonlinearity(E).values if spec is None else spec.dt_convolve(E._with_fresh(qE))
        if real and np.iscomplexobj(N):   # u0 solved on the full line, u_k kept
            G = _line_columns(g.values, weight, False)
            op._solve_line(G, None)
            U0, W, real = G, G - full(U0 - W), False
        return _line_columns(N, weight, real)

    def step(E: WeightedSignal, V: np.ndarray | None) -> np.ndarray:
        """w = S(N(E), 0), solved into V when V lies on the line (q(E) is freed by then)."""
        M = memory(E)
        if V is None or len(V) != len(M):
            V = np.empty((len(M), op.bundle.n_state), dtype=np.complex128, order="F")
        op._solve_line(M, None, V)
        return V

    def inside_ball(U: np.ndarray) -> float:
        norm_u = _line_norm(U, g.grid, real)
        if norm_u > radius:
            raise BallEscape(len(gaps), norm_u, radius)
        return norm_u

    op._solve_line(U0, None)
    E = _from_line(U0[:, :ne].copy(order="F"), g, real)
    scale = max(_line_norm(U0, g.grid, real) if radius is None else radius, 1e-300)
    gaps, ratios, trace, W, V = [], [], [], np.zeros_like(U0), None   # w_{-1} = 0
    for _ in range(max_iter):
        if radius is not None:
            trace.append(inside_ball(np.subtract(U0, W, out=V)))
        V = step(E, V)
        E = _from_line(np.subtract(U0[:, :ne], V[:, :ne], order="F"), g, real)
        W, V = V, np.subtract(V, W, out=W)   # the gap's spectrum, over w_{k-1}
        gap = _line_norm(V, g.grid, real)
        if gaps:
            ratios.append(gap / max(gaps[-1], 1e-300))
        gaps.append(gap)
        if gap <= tol * scale:
            break
        if radius is None and len(ratios) >= 3 and all(r > 2.0 for r in ratios[-3:]):
            # runaway: the map is not a contraction on this line (a
            # Lipschitz bound below the true constant)
            raise MaxIterExceeded(len(gaps), gaps, ratios[-3:])
    else:
        raise MaxIterExceeded(len(gaps), gaps)
    if radius is not None:
        inside_ball(np.subtract(U0, W, out=V))
    V = step(E, V)
    run = {"empirical_ratio": max(ratios) if ratios else 0.0, "gaps": gaps,
           "iterations": len(gaps), "converged": True,
           "final_residual": _line_norm(np.subtract(V, W, out=V), g.grid, real), **paths}
    return _from_line(np.subtract(U0, W, out=U0), g, real), run, trace


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
    op = SolutionOperator(problem.bundle, problem.material, rho, problem.rhs.grid)
    lip = nonlinearity.lip_bound(rho)
    bound = lip / op.c_min
    if bound >= 1.0:
        try:
            suggestion = suggest_rho(problem, lip)
        except NotAContraction:
            suggestion = None
        raise NotAContraction(rho, bound, suggestion)

    u, run, _ = _fixed_point(op, problem.rhs, nonlinearity, tol, max_iter)
    cert = ContractionCertificate(
        rho=rho,
        theoretical_bound=bound,
        constants={**getattr(nonlinearity, "constants", dict)(), "lip_line": lip, "c_min_line": op.c_min},
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
    op = SolutionOperator(problem.bundle, problem.material, weight, problem.rhs.grid,
                          certificate_required=weight > 0)
    C_loc = nonlinearity.loc_lip_constant(weight)

    if weight > 0:
        gain = 1.0 / op.c_min
    else:
        if K_linear is None:
            raise NotCertified(-weight, "a decay-weight ball solve needs the linear "
                                        "stability constant K_linear")
        gain = K_linear

    if radius_policy == "auto":
        radius = 0.49 * (1.0 / (2.0 ** alpha * gain * C_loc)) ** (1.0 / alpha)
        if weight < 0:
            radius = min(radius, 1.0 / (4.0 * gain * C_loc))
    else:
        radius = float(radius_policy)

    u, run, trace = _fixed_point(op, problem.rhs, nonlinearity, tol, max_iter, radius)
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
