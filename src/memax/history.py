"""Convert a Cauchy problem with prescribed field history into whole-line form.

Given a history phi on (-infty, 0] (truncated to a window and extended by
zero), the unknown u = theta^+ U is separated from the history, the jump of
u at t = 0 is smoothed by a compactly supported bump,

    phi^+ = phi(0-) theta^+ eta  [+ dphi(0-) theta^+ gamma],
    eta(0) = 1, eta'(0) = 0,  gamma(0) = 0, gamma'(0) = 1,

and the shifted unknown solves a right-hand side supported in [0, infty):

    g_phi = -theta^+ [ d/dt (M0 phi^+ + G(phi)) + sigma phi^+ + A phi^+ ].

Memory terms d/dt (kappa * x) are KernelSpec.dt_convolve, the formula of the
Picard polarization, on each region's KernelSpec.from_dl kernel.  All time
derivatives of the bump terms use the closed-form profile derivatives, so
no discrete delta is ever formed; the assembled right-hand side is smooth
at t = 0 exactly when the history satisfies the compatibility condition
d/dt M(phi)(0) + sigma phi(0) + A phi(0) = 0, whose residual
build_g_phi reports.  The solved u~ vanishes on t <= 0 (causality),
and the solution is reconstructed as U = u~ + phi + phi^+, with the history
samples copied verbatim on t <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MemaxError
from .materials import PiecewiseMaterial
from .nonlinear import KernelSpec
from .operators import OperatorBundle
from .signals import TimeGrid, WeightedSignal, _from_line, _to_line, spectral_derivative


@dataclass(frozen=True)
class HistorySpec:
    """Sampled history on [-T_h, 0], extended by zero to the left.

    values rows follow times; the last row is phi(0-).  The derivative at
    0- is the first row of derivs_at_0minus = [dphi, d2phi, ...] when given,
    else the one-sided second-order difference; the higher rows are used by
    higher-order jump smoothing.
    """

    times: np.ndarray
    values: np.ndarray
    derivs_at_0minus: np.ndarray | None = None

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
            raise MemaxError(f"the history step dt = {self.dt:g} differs from the window "
                             f"step dt = {grid.dt:g}")
        k0 = int(round((self.times[0] - grid.t_start) / grid.dt))
        if k0 < 0:
            raise MemaxError(f"the history starts at t = {self.times[0]:g}, before the "
                             f"window start t = {grid.t_start:g}")
        offset = self.times[0] - (grid.t_start + k0 * grid.dt)
        if abs(offset) > 1e-9 * grid.dt:
            raise MemaxError(f"the history samples sit {offset:g} off the window grid "
                             f"(t_start = {grid.t_start:g}, dt = {grid.dt:g})")
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

    def check_endpoints(self, tol: float = 1e-10) -> bool:
        """eta = beta_0 and gamma = beta_1 match (1, 0) and (0, 1) at 0."""
        zero = np.array([0.0])
        ok = abs(self.beta(0, zero)[0] - 1.0) <= tol
        ok &= abs(self.beta_prime(0, zero)[0]) <= tol
        ok &= abs(self.beta(1, zero)[0]) <= tol
        ok &= abs(self.beta_prime(1, zero)[0] - 1.0) <= tol
        edge = np.array([self.support * (1.0 - 1e-9)])
        ok &= abs(self.beta(0, edge)[0]) <= 1e-3
        return bool(ok)


def default_bump(grid: TimeGrid, history_free_time: float) -> BumpSpec:
    """Support at least 10*dt, at most the available positive window."""
    s = max(10.0 * grid.dt, 0.05 * history_free_time)
    return BumpSpec(support=min(s, 0.5 * history_free_time))


def history_from_solution(u: "WeightedSignal", n_derivatives: int = 1) -> HistorySpec:
    """Cut a whole-line solution at t = 0 into a history, with spectrally
    exact derivatives at 0- (the strongest compatible-history source)."""
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


def _bump_terms(h: HistorySpec, b: BumpSpec, grid: TimeGrid, profile) -> np.ndarray:
    """sum_j phi^{(j)}(0-) theta^+ profile(j, t), for profile beta or beta_prime."""
    t = grid.times
    theta = _theta_plus(t)
    vals = np.zeros((grid.n_samples, h.values.shape[1]), dtype=np.complex128)
    for j in range(b.n_derivatives + 1):
        vals += np.outer(profile(j, t) * theta, h.deriv(j))
    return vals


def smooth_jump(h: HistorySpec, b: BumpSpec, grid: TimeGrid, rho: float) -> WeightedSignal:
    """phi^+ = sum_j phi^{(j)}(0-) theta^+ beta_j, supported in (0, support]."""
    return WeightedSignal(grid, rho, _bump_terms(h, b, grid, b.beta))


def _spectral_memory_derivative(sig_E: WeightedSignal, params1, params2,
                                emask1: np.ndarray) -> np.ndarray:
    """d/dt(chi * sig) per region, evaluated as z chi(z) on the line: one
    transform, each region's columns multiplied in place, one inverse.
    Columns of a region without a law have no memory term."""
    W, z, real = _to_line(sig_E)
    for params, mask in ((params1, emask1), (params2, ~emask1)):
        if mask.any():
            W[:, mask] *= 0.0 if params is None else (z * params.chi(z))[:, None]
    return _from_line(W, sig_E, real).values


@dataclass
class HistoryConversion:
    """Output bundle of the history-to-evolutionary conversion."""

    phi_plus: WeightedSignal          # full-state bump (E and H rows)
    g_phi: WeightedSignal             # -theta^+[d/dt(M0 phi^+ + G(phi)) + sigma phi^+ + A phi^+]
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
    standard quadrature; it needs the time-domain expansion, so a critically
    damped term, omega0 == gamma, or a non-real z0 raises MemaxError),
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
    dphi_plus = _bump_terms(h, b, grid, b.beta_prime)

    phi_embedded = WeightedSignal(grid, rho, h.embed(grid))
    phi_E = phi_embedded.with_values(phi_embedded.values[:, :ne])
    phip_E = phi_plus.with_values(phi_plus.values[:, :ne])
    dG_full = np.zeros_like(phi_embedded.values, dtype=np.complex128)
    if conv_method == "spectral":
        # d/dt(chi * (phi + phi^+)) by the closed-form law on the solver's own line
        dG_full[:, :ne] = _spectral_memory_derivative(phi_E + phip_E, params1, params2, emask1)
    elif conv_method == "trapezoid":
        lag_grid = TimeGrid(0.0, grid.dt, grid.n_samples)
        regions = [(KernelSpec.from_dl(p, lag_grid), mask)
                   for p, mask in ((params1, emask1), (params2, ~emask1)) if p is not None]
        # d/dt(chi * phi), then the bump's own linear memory d/dt(chi * phi^+):
        # the solver keeps chi * E~ on its left-hand side, so that part belongs
        # to the data (the identity g(0+) = d/dt M(phi)(0) + sigma phi(0) +
        # A phi(0) only closes with it).  phi vanishes for t > 0, so its zero-lag current
        # chi(0+) phi only feeds the t = 0 sample and the compatibility residual.
        for x in (phi_E, phip_E):
            for spec, mask in regions:
                spec.dt_convolve(x.with_values(x.values * mask[None, :]), dG_full[:, :ne])
    else:
        raise ValueError(f"unknown conv_method {conv_method!r}")
    if nl_spec is not None and q is not None:
        nl_spec.dt_convolve(phi_E.with_values(q(phi_E.values)), dG_full[:, :ne])
    sigma_e = np.where(emask1, *(law.sigma for law in material.eps_laws()))
    if sigma_e.any():
        # conduction current sigma E: sigma phi(0-) at t = 0, sigma phi^+ after
        dG_full[:, :ne] += sigma_e * (phi_E.values + phip_E.values)

    A_phi_plus = (bundle.A @ phi_plus.values.T).T
    theta = _theta_plus(grid.times)[:, None]
    g_vals = -theta * (M0[None, :] * dphi_plus + dG_full + A_phi_plus)
    g_phi = WeightedSignal(grid, rho, g_vals)

    # compatibility residual: |M0 dphi(0-) + dG(phi)(0) + sigma phi(0-) + A phi(0-)|,
    # the sigma term being part of dG_full
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
        shift = phip_E.with_values(nl_spec.dt_convolve(phip_E.with_values(q(phip_E.values))))

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


def reconstruct_solution(u_tilde: WeightedSignal, h: HistorySpec,
                         phi_plus: WeightedSignal) -> WeightedSignal:
    """U = u~ + phi + phi^+: history verbatim on t <= 0, u~ + phi^+ after.

    The t <= 0 samples are copied bit-for-bit from the stored history (u~
    vanishes there up to solver causality, phi^+ exactly).
    """
    grid = u_tilde.grid
    vals = u_tilde.values + phi_plus.values
    out = np.array(vals, dtype=np.complex128)
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
