"""Convert a Cauchy problem with prescribed field history into whole-line form.

Given a history phi on (-infty, 0] (truncated to a window and extended by
zero), the unknown u = theta^+ U is separated from the history, the jump of
u at t = 0 is smoothed by a compactly supported bump,

    phi^+ = phi(0-) theta^+ eta  [+ dphi(0-) theta^+ gamma],
    eta(0) = 1, eta'(0) = 0,  gamma(0) = 0, gamma'(0) = 1,

and the shifted unknown solves a right-hand side supported in [0, infty):

    g_phi = -theta^+ [ d/dt (M0 phi^+ + G(phi)) + A phi^+ ].

All time derivatives of the bump terms use the closed-form profile
derivatives, so no discrete delta is ever formed; the assembled right-hand
side is smooth at t = 0 exactly when the history satisfies the
compatibility condition d/dt M(phi)(0) + A phi(0) = 0, which
check_compatibility measures.  The solved u~ vanishes on t <= 0 (causality),
and the solution is reconstructed as U = u~ + phi + phi^+, with the history
samples copied verbatim on t <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .materials import ModDLParams, PiecewiseMaterial, sample_kernel
from .nonlinear import KernelSpec
from .operators import OperatorBundle
from .signals import SampledKernel, TimeGrid, WeightedSignal, causal_convolve


@dataclass(frozen=True)
class HistorySpec:
    """Sampled history on [-T_h, 0], extended by zero to the left.

    values rows follow times; the last row is phi(0-).  The derivative at
    0- defaults to the one-sided second-order difference when not given;
    higher derivatives (used by higher-order jump smoothing) may be supplied
    as extra rows of derivs_at_0minus = [dphi, d2phi, ...].
    """

    times: np.ndarray
    values: np.ndarray
    dphi_at_0minus: np.ndarray | None = None
    derivs_at_0minus: np.ndarray | None = None
    zero_extend: bool = True

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values)
        if v.ndim != 2 or v.shape[0] != t.shape[0]:
            raise ValueError("history values must be (n_times, state_dim)")
        if abs(t[-1]) > 1e-12:
            raise ValueError("history must end at t = 0")
        dts = np.diff(t)
        if t.shape[0] < 3 or np.abs(dts - dts[0]).max() > 1e-12 * dts[0]:
            raise ValueError("history needs >= 3 uniform samples")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v.astype(np.complex128))

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def phi_at_0minus(self) -> np.ndarray:
        return self.values[-1]

    def dphi(self) -> np.ndarray:
        if self.dphi_at_0minus is not None:
            return np.asarray(self.dphi_at_0minus, dtype=np.complex128)
        if self.derivs_at_0minus is not None:
            return np.asarray(self.derivs_at_0minus[0], dtype=np.complex128)
        v = self.values
        return (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * self.dt)

    def deriv(self, order: int) -> np.ndarray:
        """phi^{(order)}(0-); order 0 is the value itself."""
        if order == 0:
            return self.phi_at_0minus
        if order == 1:
            return self.dphi()
        if self.derivs_at_0minus is None or len(self.derivs_at_0minus) < order:
            raise ValueError(
                f"history carries no derivative of order {order}; supply derivs_at_0minus"
            )
        return np.asarray(self.derivs_at_0minus[order - 1], dtype=np.complex128)

    def embed(self, grid: TimeGrid) -> np.ndarray:
        """Zero-extended samples on a master grid (alignment is required)."""
        if abs(grid.dt - self.dt) > 1e-12 * self.dt:
            raise ValueError("history dt must match the master grid")
        k0 = int(round((self.times[0] - grid.t_start) / grid.dt))
        if k0 < 0:
            raise ValueError("master grid does not reach the history start")
        if abs(grid.t_start + k0 * grid.dt - self.times[0]) > 1e-9 * grid.dt:
            raise ValueError("history samples do not align with the master grid")
        out = np.zeros((grid.n_samples, self.values.shape[1]), dtype=np.complex128)
        out[k0:k0 + len(self.times)] = self.values
        return out


@dataclass(frozen=True)
class BumpSpec:
    """Jump-smoothing profiles beta_j(t) = (t^j / j!) (1 - (t/s)^q)^power on [0, s].

    beta_0 is the bump eta (eta(0) = 1, eta'(0) = 0) and beta_1 the optional
    gamma (gamma(0) = 0, gamma'(0) = 1) that matches the history's derivative
    at 0-.  The default (n_derivatives=1, flatness=2) is exactly the
    (eta, gamma) pair; higher n_derivatives Taylor-matches more derivatives,
    pushing the residual kink of the converted data to higher order -- the
    knob that controls the pre-support floor of the solved u~ at a fixed
    sample rate.  Internally q >= n_derivatives + 1 keeps the profiles from
    contaminating each other's matched derivatives.
    """

    support: float
    n_derivatives: int = 1
    flatness: int = 2
    power: int = 3

    def __post_init__(self):
        if not self.support > 0:
            raise ValueError("bump support must be positive")
        if self.n_derivatives < 0:
            raise ValueError("n_derivatives must be >= 0")
        if self.power < 2:
            raise ValueError("core power must be >= 2")

    @property
    def q(self) -> int:
        return max(self.flatness, self.n_derivatives + 1)

    def _core(self, t: np.ndarray) -> np.ndarray:
        x = t / self.support
        return np.where((t >= 0) & (t < self.support), (1.0 - x ** self.q) ** self.power, 0.0)

    def _core_prime(self, t: np.ndarray) -> np.ndarray:
        x = t / self.support
        inside = (t >= 0) & (t < self.support)
        return np.where(
            inside,
            -self.power * self.q * x ** (self.q - 1) / self.support
            * (1.0 - x ** self.q) ** (self.power - 1),
            0.0,
        )

    def beta(self, j: int, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return t ** j / math.factorial(j) * self._core(t)

    def beta_prime(self, j: int, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if j == 0:
            return self._core_prime(t)
        return (t ** (j - 1) / math.factorial(j - 1)) * self._core(t) \
            + (t ** j / math.factorial(j)) * self._core_prime(t)

    # spec-facing names for the first two profiles
    def eta(self, t: np.ndarray) -> np.ndarray:
        return self.beta(0, t)

    def eta_prime(self, t: np.ndarray) -> np.ndarray:
        return self.beta_prime(0, t)

    def gamma(self, t: np.ndarray) -> np.ndarray:
        return self.beta(1, t)

    def gamma_prime(self, t: np.ndarray) -> np.ndarray:
        return self.beta_prime(1, t)

    def check_endpoints(self, tol: float = 1e-10) -> bool:
        zero = np.array([0.0])
        ok = abs(self.eta(zero)[0] - 1.0) <= tol
        ok &= abs(self.eta_prime(zero)[0]) <= tol
        ok &= abs(self.gamma(zero)[0]) <= tol
        ok &= abs(self.gamma_prime(zero)[0] - 1.0) <= tol
        edge = np.array([self.support * (1.0 - 1e-9)])
        ok &= abs(self.eta(edge)[0]) <= 1e-3
        return bool(ok)


def default_bump(grid: TimeGrid, history_free_time: float) -> BumpSpec:
    """Support at least 10*dt, at most the available positive window."""
    s = max(10.0 * grid.dt, 0.05 * history_free_time)
    return BumpSpec(support=min(s, 0.5 * history_free_time))


def history_from_solution(u: "WeightedSignal", n_derivatives: int = 1) -> HistorySpec:
    """Cut a whole-line solution at t = 0 into a history, with spectrally
    exact derivatives at 0- (the strongest compatible-history source)."""
    from .signals import spectral_derivative

    grid = u.grid
    k0 = grid.index_of(0.0)
    if abs(grid.times[k0]) > 1e-9 * grid.dt:
        raise ValueError("t = 0 must be a grid sample")
    derivs = []
    for j in range(1, n_derivatives + 1):
        du = spectral_derivative(u, order=j, check=False)
        derivs.append(du.values[k0].real)
    return HistorySpec(
        times=grid.times[: k0 + 1] - grid.times[k0],
        values=u.values[: k0 + 1].real,
        derivs_at_0minus=np.asarray(derivs) if derivs else None,
    )


# ---------------------------------------------------------------------------
# assembly helpers


def _theta_plus(times: np.ndarray) -> np.ndarray:
    return (times > 0.0).astype(float)


def smooth_jump(h: HistorySpec, b: BumpSpec, grid: TimeGrid, rho: float) -> WeightedSignal:
    """phi^+ = sum_j phi^{(j)}(0-) theta^+ beta_j, supported in (0, support]."""
    t = grid.times
    theta = _theta_plus(t)
    vals = np.zeros((grid.n_samples, h.values.shape[1]), dtype=np.complex128)
    for j in range(b.n_derivatives + 1):
        vals += np.outer(b.beta(j, t) * theta, h.deriv(j))
    return WeightedSignal(grid, rho, vals)


def _dphi_plus(h: HistorySpec, b: BumpSpec, grid: TimeGrid) -> np.ndarray:
    """d(phi^+)/dt for t > 0 via the closed-form profile derivatives."""
    t = grid.times
    theta = _theta_plus(t)
    out = np.zeros((grid.n_samples, h.values.shape[1]), dtype=np.complex128)
    for j in range(b.n_derivatives + 1):
        out += np.outer(b.beta_prime(j, t) * theta, h.deriv(j))
    return out


@dataclass(frozen=True)
class MaterialKernels:
    """Region-wise linear memory kernels (on E dofs) for history assembly."""

    kernel1: SampledKernel | None
    kernel2: SampledKernel | None
    kernel1_prime: SampledKernel | None
    kernel2_prime: SampledKernel | None

    @staticmethod
    def from_params(params1, params2, grid: TimeGrid) -> "MaterialKernels":
        def kernel_pair(params):
            if params is None:
                return None, None
            terms = params.kernel_terms()
            return sample_kernel(terms, grid), sample_kernel(terms, grid, derivative=True)

        k1, k1p = kernel_pair(params1)
        k2, k2p = kernel_pair(params2)
        return MaterialKernels(k1, k2, k1p, k2p)


def _chi_hat(params, z: np.ndarray) -> np.ndarray:
    """Frequency multiplier of the region's linear memory convolution."""
    from .materials import eval_chi_dl, mod_dl_eval

    if params is None:
        return np.zeros_like(z)
    if isinstance(params, ModDLParams):
        return mod_dl_eval(z, params) - params.base.eps0
    return eval_chi_dl(z, params)


def _spectral_memory_derivative(sig_E: WeightedSignal, params1, params2,
                                emask1: np.ndarray) -> np.ndarray:
    """d/dt(chi * sig) per region, evaluated as z*chi_hat(z) on the line."""
    from .signals import fourier_laplace, inverse_fourier_laplace

    S = fourier_laplace(sig_E, check=False)
    z = S.z
    out = np.zeros_like(sig_E.values)
    for params, mask in ((params1, emask1), (params2, ~emask1)):
        if params is None or not mask.any():
            continue
        mult = (z * _chi_hat(params, z))[:, None]
        sub = S.with_values(S.values * mask[None, :] * mult)
        out += inverse_fourier_laplace(sub).values * mask[None, :]
    return out


def _convolve_regions(kernels: MaterialKernels, emask1: np.ndarray,
                      sig: WeightedSignal, derivative: bool) -> np.ndarray:
    """Per-region kernel convolution on the E block."""
    out = np.zeros_like(sig.values)
    k1 = kernels.kernel1_prime if derivative else kernels.kernel1
    k2 = kernels.kernel2_prime if derivative else kernels.kernel2
    if k1 is not None:
        sub = sig.with_values(sig.values * emask1[None, :])
        out += causal_convolve(k1, sub).values
    if k2 is not None:
        sub = sig.with_values(sig.values * (~emask1)[None, :])
        out += causal_convolve(k2, sub).values
    return out


@dataclass
class HistoryConversion:
    """Output bundle of the history-to-evolutionary conversion."""

    phi_plus: WeightedSignal          # full-state bump (E and H rows)
    g_phi: WeightedSignal             # -theta^+[d/dt(M0 phi^+ + G(phi)) + A phi^+]
    Phi: WeightedSignal               # E-block inhomogeneity
    Psi: WeightedSignal               # H-block inhomogeneity
    compatibility_residual: float
    nonlinearity_shift: WeightedSignal | None = None   # d/dt P_nl(E0^+), E rows


def build_g_phi(h: HistorySpec, b: BumpSpec, bundle: OperatorBundle,
                material: PiecewiseMaterial, params1, params2,
                grid: TimeGrid, rho: float,
                nl_spec: KernelSpec | None = None, q=None,
                conv_method: str = "trapezoid") -> HistoryConversion:
    """Assemble the whole-line right-hand side for a stored (E,H) history.

    M0 = diag(eps_inf per edge, mu per face); G(phi) = chi * phi_E region-wise
    (+ kappa * q(phi_E) when a nonlinear memory is present).  Also returns
    the Maxwell-variable blocks Phi (E rows) and Psi (H rows) of g_phi, the
    compatibility residual, and the nonlinearity normalization shift.

    conv_method picks how the linear memory terms are evaluated:
    "trapezoid" samples the kernels and convolves in time (the module's
    standard quadrature; it needs the time-domain expansion, so overdamped
    terms raise OverdampedUnsupported and z0 != 0 raises MemaxError),
    "spectral" multiplies by the closed-form law on
    the frequency line, which matches the solver's own convention and keeps
    the converted data's kink at t=0 at the compatibility level rather than
    at the quadrature level (needed when the pre-support margin of the
    solved u~ must reach the 1e-8 class at desk sample rates).
    """
    ne = bundle.n_edges
    emask1 = bundle.edge_region_mask()
    fmask1 = bundle.face_region_mask()

    eps_inf = np.where(emask1, *(1.0 if p is None else p.eps_inf for p in (params1, params2)))
    mu = np.where(fmask1, material.mu1, material.mu2)
    M0 = np.concatenate([eps_inf, mu])

    phi_plus = smooth_jump(h, b, grid, rho)
    dphi_plus = _dphi_plus(h, b, grid)

    phi_embedded = WeightedSignal(grid, rho, h.embed(grid))
    phi_E = phi_embedded.with_values(phi_embedded.values[:, :ne])
    phip_E = phi_plus.with_values(phi_plus.values[:, :ne])
    dG_full = np.zeros_like(phi_embedded.values)
    if conv_method == "spectral":
        # d/dt(chi * (phi + phi^+)) via the closed-form law on the line:
        # multiply the transform by z * chi_hat(z) per region.  This shares
        # the solver's quadrature convention exactly.
        total_E = phi_E + phip_E
        dG_full[:, :ne] = _spectral_memory_derivative(total_E, params1, params2, emask1)
    elif conv_method == "trapezoid":
        kernels = MaterialKernels.from_params(params1, params2,
                                              TimeGrid(0.0, grid.dt, grid.n_samples))
        dG_full[:, :ne] = _convolve_regions(kernels, emask1, phi_E, derivative=True)
        # zero-lag kernel currents chi(0+) phi(t): phi vanishes for t > 0, so
        # this only feeds the t = 0 sample (and the compatibility residual)
        zero_lag = np.zeros(ne)
        if kernels.kernel1 is not None:
            zero_lag[emask1] = np.real(kernels.kernel1.at_zero_plus())
        if kernels.kernel2 is not None:
            zero_lag[~emask1] = np.real(kernels.kernel2.at_zero_plus())
        dG_full[:, :ne] += zero_lag[None, :] * np.where(
            grid.times[:, None] > 0, 0.0, phi_E.values
        )
        # the solver keeps chi * E~ on its left-hand side, so the bump's own
        # linear memory d/dt(chi * phi^+) belongs to the data (the identity
        # g(0+) = d/dt M(phi)(0) + A phi(0) only closes with it)
        dG_full[:, :ne] += _convolve_regions(kernels, emask1, phip_E, derivative=True)
        dG_full[:, :ne] += zero_lag[None, :] * phip_E.values
    else:
        raise ValueError(f"unknown conv_method {conv_method!r}")
    if nl_spec is not None and q is not None:
        qE = phi_E.with_values(q(phi_E.values))
        dG_full[:, :ne] += causal_convolve(nl_spec.kappa_prime, qE).values
        dG_full[:, :ne] += nl_spec.kappa_at_0plus * np.where(
            grid.times[:, None] > 0, 0.0, qE.values
        )

    A_phi_plus = (bundle.A @ phi_plus.values.T).T
    theta = _theta_plus(grid.times)[:, None]
    g_vals = -theta * (M0[None, :] * dphi_plus + dG_full + A_phi_plus)
    g_phi = WeightedSignal(grid, rho, g_vals)

    # compatibility residual: |M0 dphi(0-) + dG(phi)(0) + A phi(0-)|
    k0 = grid.index_of(0.0)
    dG_at_0 = dG_full[k0]
    resid_vec = M0 * h.dphi() + dG_at_0 + bundle.A @ h.phi_at_0minus
    scale = max(
        np.linalg.norm(M0 * h.dphi()),
        np.linalg.norm(bundle.A @ h.phi_at_0minus),
        np.linalg.norm(dG_at_0),
        1e-300,
    )
    compat = float(np.linalg.norm(resid_vec) / scale)

    Phi = g_phi.with_values(g_phi.values[:, :ne])
    Psi = g_phi.with_values(g_phi.values[:, ne:])

    shift = None
    if nl_spec is not None and q is not None:
        Ep = phi_plus.with_values(phi_plus.values[:, :ne])
        qEp = Ep.with_values(q(Ep.values))
        shift_vals = causal_convolve(nl_spec.kappa_prime, qEp).values \
            + nl_spec.kappa_at_0plus * qEp.values
        shift = Ep.with_values(shift_vals)

    return HistoryConversion(
        phi_plus=phi_plus, g_phi=g_phi, Phi=Phi, Psi=Psi,
        compatibility_residual=compat, nonlinearity_shift=shift,
    )


def build_maxwell_inhomogeneity(h: HistorySpec, b: BumpSpec, bundle: OperatorBundle,
                                material: PiecewiseMaterial, params1, params2,
                                grid: TimeGrid, rho: float,
                                nl_spec: KernelSpec | None = None, q=None):
    """(Phi, Psi) in the Maxwell field variables, with the nonlinearity shift
    applied to Phi so the downstream map satisfies dP~/dt(0) = 0.

    The history of H enters only via H(0-) (through the bump); the E history
    enters through its memory convolutions as well.
    """
    conv = build_g_phi(h, b, bundle, material, params1, params2, grid, rho,
                       nl_spec=nl_spec, q=q)
    Phi = conv.Phi
    if conv.nonlinearity_shift is not None:
        Phi = Phi.with_values(Phi.values - conv.nonlinearity_shift.values)
    return Phi, conv.Psi, conv


def check_compatibility(h: HistorySpec, bundle: OperatorBundle,
                        material: PiecewiseMaterial, params1, params2,
                        grid: TimeGrid, nl_spec: KernelSpec | None = None,
                        q=None) -> float:
    """Relative norm of d/dt M(phi)(0) + A phi(0); small values certify
    once-differentiable whole-line data (the H^1 route for reconstruction)."""
    b = BumpSpec(support=max(10 * grid.dt, 1e-6))
    conv = build_g_phi(h, b, bundle, material, params1, params2, grid, 0.0,
                       nl_spec=nl_spec, q=q)
    return conv.compatibility_residual


def reconstruct_solution(u_tilde: WeightedSignal, h: HistorySpec,
                         phi_plus: WeightedSignal) -> WeightedSignal:
    """U = u~ + phi + phi^+: history verbatim on t <= 0, u~ + phi^+ after.

    The t <= 0 samples are copied bit-for-bit from the stored history (u~
    vanishes there up to solver causality, phi^+ exactly).
    """
    grid = u_tilde.grid
    vals = u_tilde.values + phi_plus.values
    out = np.array(vals)
    hist = h.embed(grid)
    neg = grid.times <= 0.0
    out[neg] = hist[neg]
    return u_tilde.with_values(out)


def delta_spike_metric(sig: WeightedSignal, n_neighbors: int = 5) -> float:
    """Ratio of the first post-zero sample magnitude to its neighbors' median.

    A discrete delta contamination shows up as an O(1/dt) spike at the first
    sample after t = 0; compatible histories keep this ratio near one.
    """
    k0 = int(np.searchsorted(sig.times, 0.0, side="right"))
    mags = np.abs(sig.values).max(axis=1)
    first = mags[k0]
    neighborhood = mags[k0 + 1: k0 + 1 + n_neighbors]
    med = np.median(neighborhood) if neighborhood.size else 0.0
    if med == 0.0:
        return 0.0 if first == 0.0 else np.inf
    return float(first / med)
