"""Exponential-stability machinery and diagnostics.

A decay certificate for the field equations rests on three checkable
ingredients, all recorded per run:

  1. half-plane accretivity of the permittivity outside a disk around the
     origin (scan, with the analytic tail limit appended),
  2. positivity of the Hermitian part of the permittivity itself on the
     half-plane (the z -> 0 regularization route),
  3. the disk condition: the reduced curl block is boundedly invertible
     (smallest singular value sigma_min of the curl on its kernel
     complement), and |z M_d(z)| stays below it on the excluded disk, for
     the damped substitution law

         M_d(z) = [[M(z), 0], [0, 1]]
                + (d/z) [[-M0(z), (M1(z) - d M0(z))/C], [0, 1]],

     whose accretivity is inherited from z M(z) for small d > 0 (the lab
     picks d by bisection to the largest value keeping half the margin).

The plain oscillator law fails (1) for every positive abscissa (its
Hermitian-part tail limit is eps0 * Re z), while the modified law with
2 gamma r > omega0^2 passes; the capability matrix reproduces exactly that
split.  Decay rates are measured by a log-linear fit of the state norm
after the sources switch off, with the window policy logged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotCertified
from .materials import (
    PiecewiseMaterial,
    ScalarLaw,
    accretivity_scan,
    hermitian_min,
)
from .operators import OperatorBundle, ProjectionBasis, _reduced_curl
from .signals import TimeGrid, WeightedSignal, _cumulative_trapezoid, smooth_pulse, weighted_norm
from .spectral import LinearProblem, solve_linear, stack_rhs


# ---------------------------------------------------------------------------
# M_d reduction


@dataclass(frozen=True)
class MdSystem:
    """Damped first-order reduction of d^2/dt^2 M(d/dt) + C*C."""

    M0: object            # z -> scalar/matrix
    M1: object
    C: float              # invertible factor (scalar stand-in: sigma_min of the block)
    d: float

    def __post_init__(self):
        if abs(self.C) <= 0:
            raise ValueError("C must be invertible (nonzero)")
        for ray in (1e-3, 1e-3 + 1e-3j, 1e-3 - 1e-3j):
            m1 = np.asarray(self.M1(np.asarray([ray]))).ravel()[0]
            if abs(m1) > 1e-2:
                raise ValueError("M1(z) must vanish as z -> 0 along rays")

    def __call__(self, z):
        z = complex(z)
        M0 = complex(np.asarray(self.M0(np.asarray([z]))).ravel()[0])
        M1 = complex(np.asarray(self.M1(np.asarray([z]))).ravel()[0])
        M = M0 + M1 / z
        top = [M - self.d / z * M0, self.d / z * (M1 - self.d * M0) / self.C]
        bot = [0.0, 1.0 + self.d / z]
        return np.array([top, bot], dtype=np.complex128)

    def herm_min_vec(self, z: np.ndarray) -> np.ndarray:
        """lambda_min(Herm(z M_d(z))) in closed form (2x2 upper triangular)."""
        z = np.asarray(z, dtype=np.complex128)
        M0 = np.asarray(self.M0(z))
        M1 = np.asarray(self.M1(z))
        a = z * (M0 + M1 / z) - self.d * M0
        b = self.d * (M1 - self.d * M0) / self.C
        c = z + self.d
        ra, rc = a.real, c.real
        return 0.5 * (ra + rc) - np.sqrt(0.25 * (ra - rc) ** 2 + 0.25 * np.abs(b) ** 2)


def build_Md(M0, M1, C: float, d: float) -> MdSystem:
    """Evaluator for the damped block law; accretivity_scan applies to it."""
    return MdSystem(M0=M0, M1=M1, C=C, d=d)


def md_from_scalar_law(law: ScalarLaw, eps_inf: float, C: float, d: float) -> MdSystem:
    """Split M(z) = eps_inf + z^{-1}(z chi(z)) into the M_d form."""
    def M0(z):
        return np.full_like(np.asarray(z, dtype=np.complex128), eps_inf)

    def M1(z):
        zz = np.asarray(z, dtype=np.complex128)
        return zz * (law(zz) - eps_inf)

    return build_Md(M0, M1, C, d)


def md_margin(laws, eps_infs, C: float, d: float, nu: float, delta: float) -> float:
    """min over laws of the M_d accretivity-scan margin at weight -nu."""
    vals = []
    for law, eps_inf in zip(laws, eps_infs):
        md = md_from_scalar_law(law, eps_inf, C, d)
        scan = accretivity_scan(
            md, nu=nu, delta_exclusion=delta,
            t_max=1e4, n_nu=11, n_t=200, nu_hi=5.0, condition_id="Md",
        )
        vals.append(scan.c_min)
    return float(min(vals))


def select_damping(laws, eps_infs, C: float, nu: float, delta: float,
                   c_at_nu: float, n_grid: int = 12) -> tuple:
    """Best damping parameter for the M_d reduction at weight -nu.

    The admissible window is roughly nu < d < c/eps_inf: the identity block
    needs Re z + d > 0 at Re z = -nu, while the -d M0 shift eats the scalar
    margin c.  The largest d meeting half the attainable margin is kept
    (recorded either way); no admissible d means no certificate.
    """
    eps_max = max(eps_infs)
    d_hi = c_at_nu / eps_max
    d_lo = 1.02 * nu
    if d_hi <= d_lo:
        return 0.0, -np.inf
    ds = np.linspace(d_lo, d_hi, n_grid)
    margins = np.array([md_margin(laws, eps_infs, C, d, nu, delta) for d in ds])
    best = margins.max()
    if best <= 0:
        return 0.0, float(best)
    ok = margins >= 0.5 * best
    d0 = float(ds[np.nonzero(ok)[0][-1]])
    return d0, float(margins[np.nonzero(ok)[0][-1]])


# ---------------------------------------------------------------------------
# linear-algebra checks


def schur_accretivity_check(T: np.ndarray, split: int) -> tuple:
    """(margin of T11, margin of T00 - T01 T11^{-1} T10), Hermitian parts.

    Both inherit the Hermitian-part lower bound of the whole matrix.
    """
    T = np.asarray(T, dtype=np.complex128)
    T00 = T[:split, :split]
    T01 = T[:split, split:]
    T10 = T[split:, :split]
    T11 = T[split:, split:]
    m11 = hermitian_min(T11)
    schur = T00 - T01 @ np.linalg.solve(T11, T10)
    return m11, hermitian_min(schur)


def projection_invertibility_check(bundle: OperatorBundle, basis: ProjectionBasis,
                                   face_weights) -> float:
    """sigma_min of the weighted curl normal operator on ker(C0)^perp.

    face_weights is the positive coefficient sandwiched between the curls
    (mu^{-1} in the field equations); indefinite weights are rejected.
    Returns the smallest eigenvalue of iota* C0^T diag(w) C0 iota, which for
    unit weights equals the squared discrete Poincare sigma_min.
    """
    w = np.asarray(face_weights, dtype=float)
    if w.ndim == 0:
        w = np.full(bundle.n_faces, float(w))
    if np.any(w <= 0):
        raise ValueError("face weights must be uniformly positive")
    red = _reduced_curl(bundle, basis)
    gram = red.T @ (w[:, None] * red)
    vals = np.linalg.eigvalsh(gram)
    return float(vals[0])


# ---------------------------------------------------------------------------
# certification


@dataclass
class StabilityCertificate:
    nu0: float
    c: float                      # (M2)-type margin outside the disk
    c1: float                     # (M3)-type Hermitian-part margin
    delta: float
    d0: float                     # damping parameter retained by bisection
    disk_sup: float               # sup |z M_d(z)| over the excluded disk
    sigma_min_B: float            # invertibility of the reduced curl block
    certified: bool
    scans: dict = field(default_factory=dict)
    reason: str = ""

    def to_dict(self) -> dict:
        out = {
            "nu0": self.nu0, "c": self.c, "c1": self.c1, "delta": self.delta,
            "d0": self.d0, "disk_sup": self.disk_sup,
            "sigma_min_B": self.sigma_min_B, "certified": self.certified,
            "reason": self.reason,
        }
        out["scans"] = {k: json.loads(v.to_json()) for k, v in self.scans.items()}
        return out


def _largest_feasible_nu(feasible, nu_hi: float, iters: int) -> float:
    """Bisect [1e-6, nu_hi] for the edge of feasible(nu); nu_hi itself when
    it is feasible.  The lower end is taken as feasible."""
    lo, hi = 1e-6, nu_hi
    if feasible(hi):
        return hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def certify_decay_rate(laws, eps_infs, sigma_min_B: float, delta: float = 1.0,
                       nu_hi: float | None = None, bisect_iters: int = 25) -> StabilityCertificate:
    """Scan-based decay certificate for one or more scalar permittivity laws.

    Conductivity-augmented laws (a z^{-1} sigma part) take the strict route:
    Re(z M(z)) >= c on the whole numerical half-plane (z = 0 is a discrete
    material-law pole) together with Re(eps(z)) >= c, and need no disk
    exclusion or damped reduction.  Plain permittivities take the disk
    route: bisect the largest nu with a positive margin outside B[0, delta]
    for every law, require the Hermitian-part margin of the law itself,
    retain a damping parameter d for the reduced second-order block, and
    check sup |z M_d(z)| < sigma_min_B on the disk.  All margins are
    recorded; `certified` is the conjunction.
    """
    laws = list(laws)
    eps_infs = list(eps_infs)
    if any(getattr(law, "base", None) is not None for law in laws):
        return _certify_conductivity(laws, eps_infs, sigma_min_B, nu_hi, bisect_iters)
    pole_gap = min(-float(np.max(p.real)) for law in laws for p in [law.poles] if len(p)) \
        if any(len(l.poles) for l in laws) else 1.0
    if nu_hi is None:
        nu_hi = 0.9 * pole_gap

    def m2_margin(nu):
        vals = []
        for law in laws:
            scan = accretivity_scan(law, nu=nu, delta_exclusion=delta,
                                    n_nu=15, n_t=250, condition_id="M2")
            vals.append(scan.c_min)
        return min(vals)

    if m2_margin(1e-6) <= 0:
        return StabilityCertificate(
            nu0=0.0, c=m2_margin(1e-6), c1=0.0, delta=delta, d0=0.0,
            disk_sup=np.inf, sigma_min_B=sigma_min_B, certified=False,
            reason="no strict accretivity on any right neighborhood "
                   "(Re z M(z) tail limit nonpositive)",
        )

    eps_max = max(eps_infs)

    def md_feasible(nu):
        """Margin of the damped reduction with the best d at this weight."""
        c = m2_margin(nu)
        if c <= 1.02 * eps_max * nu:
            return -np.inf
        _, m = select_damping(laws, eps_infs, sigma_min_B, nu, delta, c, n_grid=6)
        return m

    # stay off the bisected edge so the margins below carry real headroom
    nu0 = 0.8 * _largest_feasible_nu(lambda nu: md_feasible(nu) > 0, nu_hi, bisect_iters)
    scans = {}
    c_vals, c1_vals = [], []
    for i, law in enumerate(laws):
        s2 = accretivity_scan(law, nu=nu0, delta_exclusion=delta,
                              n_nu=15, n_t=250, condition_id="M2")
        s3 = accretivity_scan(law, nu=nu0, delta_exclusion=0.0,
                              n_nu=15, n_t=250, condition_id="M3", scan_re_M=True)
        scans[f"M2_law{i}"] = s2
        scans[f"M3_law{i}"] = s3
        c_vals.append(s2.c_min)
        c1_vals.append(s3.c_min)
    c = min(c_vals)
    c1 = min(c1_vals)

    d0, md_m = select_damping(laws, eps_infs, sigma_min_B, nu0, delta, c)
    disk_sup = 0.0
    for law, eps_inf in zip(laws, eps_infs):
        md = md_from_scalar_law(law, eps_inf, sigma_min_B, d0 if d0 > 0 else 1.0)
        rr = np.linspace(1e-3, delta, 12)
        th = np.linspace(0, 2 * np.pi, 25)
        Z = (rr[:, None] * np.exp(1j * th)[None, :]).ravel()
        Z = Z[np.real(Z) > -nu0]
        for z in Z:
            disk_sup = max(disk_sup, float(np.linalg.norm(z * md(z), 2)))

    certified = (c > 0) and (c1 > 0) and (d0 > 0) and (disk_sup < sigma_min_B)
    reason = "" if certified else "margin failure (see scans)"
    return StabilityCertificate(
        nu0=nu0, c=c, c1=c1, delta=delta, d0=d0, disk_sup=disk_sup,
        sigma_min_B=sigma_min_B, certified=certified, scans=scans, reason=reason,
    )


def _certify_conductivity(laws, eps_infs, sigma_min_B: float,
                          nu_hi: float | None, bisect_iters: int) -> StabilityCertificate:
    """Strict-accretivity certificate for laws with a z^{-1} sigma part."""
    pole_gap = min(
        (-float(p.real) for law in laws for p in law.poles if p.real < 0),
        default=1.0,
    )
    if nu_hi is None:
        nu_hi = 0.9 * pole_gap

    def margins(nu):
        vals, base_vals = [], []
        for law in laws:
            s = accretivity_scan(law, nu=nu, delta_exclusion=0.0,
                                 n_nu=15, n_t=250, condition_id="M4")
            vals.append(s.c_min)
            base = getattr(law, "base", None) or law
            sb_ = accretivity_scan(base, nu=nu, delta_exclusion=0.0,
                                   n_nu=15, n_t=250, condition_id="M4_reM",
                                   scan_re_M=True)
            base_vals.append(sb_.c_min)
        return min(vals), min(base_vals)

    m0 = margins(1e-6)
    if min(m0) <= 0:
        return StabilityCertificate(
            nu0=0.0, c=m0[0], c1=m0[1], delta=0.0, d0=0.0, disk_sup=0.0,
            sigma_min_B=sigma_min_B, certified=False,
            reason="conductivity route: no strict accretivity near the axis",
        )
    nu0 = 0.8 * _largest_feasible_nu(lambda nu: min(margins(nu)) > 0, nu_hi, bisect_iters)
    scans = {}
    c_vals, c1_vals = [], []
    for i, law in enumerate(laws):
        s = accretivity_scan(law, nu=nu0, delta_exclusion=0.0,
                             n_nu=15, n_t=250, condition_id="M4")
        base = getattr(law, "base", None) or law
        sb_ = accretivity_scan(base, nu=nu0, delta_exclusion=0.0,
                               n_nu=15, n_t=250, condition_id="M4_reM",
                               scan_re_M=True)
        scans[f"M4_law{i}"] = s
        scans[f"M4_reM_law{i}"] = sb_
        c_vals.append(s.c_min)
        c1_vals.append(sb_.c_min)
    c, c1 = min(c_vals), min(c1_vals)
    certified = c > 0 and c1 > 0
    return StabilityCertificate(
        nu0=nu0, c=c, c1=c1, delta=0.0, d0=0.0, disk_sup=0.0,
        sigma_min_B=sigma_min_B, certified=certified, scans=scans,
        reason="" if certified else "margin failure (see scans)",
    )


# ---------------------------------------------------------------------------
# decay simulation and fitting


@dataclass
class DecayFit:
    t_lo: float
    t_hi: float
    nu_hat: float
    r_squared: float
    times: np.ndarray
    energy: np.ndarray            # state norm per sample (not squared)
    nu_run: float
    amplitude: float = 0.0        # fitted C in C e^{-nu_hat t}

    def to_dict(self) -> dict:
        return {
            "t_lo": self.t_lo, "t_hi": self.t_hi, "nu_hat": self.nu_hat,
            "r_squared": self.r_squared, "nu_run": self.nu_run,
            "amplitude": self.amplitude,
        }


def fit_decay_rate(times: np.ndarray, norms: np.ndarray, t_lo: float,
                   decades: float = 4.0, floor_mult: float = 100.0) -> tuple:
    """Least squares on log(norm) over a window after the sources switch off.

    The window starts at t_lo and ends where the series has dropped by
    `decades` decades from its start value, or earlier where it approaches
    the numerical floor (floor_mult times the series minimum): past that the
    log series flattens into representation noise and a fit would lie.
    """
    start = int(np.searchsorted(times, t_lo))
    if start >= len(times) - 8:
        raise ValueError("decay window too short to fit")
    floor = norms.min() * floor_mult
    ref = norms[start]
    keep = np.zeros_like(norms, dtype=bool)
    for k in range(start, len(norms)):
        if norms[k] <= max(ref * 10.0 ** (-decades), floor):
            break
        keep[k] = True
    if keep.sum() < 8:
        raise ValueError("decay window too short to fit")
    t = times[keep]
    y = np.log(norms[keep])
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(-slope), r2, float(t[-1]), float(np.exp(intercept))


def make_divergence_free_data(bundle: OperatorBundle, grid: TimeGrid, rho: float,
                              seed: int, t_on: float, t_off: float,
                              amplitude: float = 1.0):
    """(Phi, Psi) = (C w, C0 v) modulated by a smooth pulse on [t_on, t_off].

    Exactly divergence-free by the mimetic identities, hence in the ranges
    where the kernel-space obstructions h and w vanish.
    """
    rng = np.random.default_rng(seed)
    w_face = rng.standard_normal(bundle.n_faces)
    v_edge = rng.standard_normal(bundle.n_edges)
    phi_vec = bundle.C @ w_face
    psi_vec = bundle.C0 @ v_edge
    phi_vec *= amplitude / max(np.linalg.norm(phi_vec), 1e-300)
    psi_vec *= amplitude / max(np.linalg.norm(psi_vec), 1e-300)
    prof = smooth_pulse(grid.times, t_on, t_off)
    Phi = WeightedSignal(grid, rho, prof[:, None] * phi_vec[None, :])
    Psi = WeightedSignal(grid, rho, prof[:, None] * psi_vec[None, :])
    return Phi, Psi


def simulate_decay(bundle: OperatorBundle, material: PiecewiseMaterial,
                   certificate: StabilityCertificate,
                   Phi: WeightedSignal, Psi: WeightedSignal,
                   nu_list, t_src_off: float, window_factor: float = 3.0):
    """Solve at each weight -nu and fit the post-source decay rate.

    Refuses weights without a certificate (NotCertified), which is the
    designed behavior for laws with no strict accretivity.
    """
    fits = []
    for nu in nu_list:
        if not certificate.certified:
            raise NotCertified(nu, certificate.reason)
        if nu >= certificate.nu0:
            raise NotCertified(nu, f"requested nu >= certified nu0 = {certificate.nu0:.4g}")
        g = stack_rhs(bundle, WeightedSignal(Phi.grid, -nu, Phi.values),
                      WeightedSignal(Psi.grid, -nu, Psi.values))
        problem = LinearProblem(bundle, material, -nu, g)
        u, _ = solve_linear(problem, certificate_required=False)
        norms = np.linalg.norm(u.values.real, axis=1)
        t_lo = window_factor * t_src_off
        nu_hat, r2, t_hi, amp = fit_decay_rate(u.times, norms, t_lo)
        fits.append(DecayFit(t_lo=t_lo, t_hi=t_hi, nu_hat=nu_hat, r_squared=r2,
                             times=u.times, energy=norms, nu_run=nu, amplitude=amp))
    return fits


def verify_first_order_estimates(bundle: OperatorBundle, basis: ProjectionBasis,
                                 material: PiecewiseMaterial, u: WeightedSignal,
                                 Phi: WeightedSignal, Psi: WeightedSignal,
                                 nu: float) -> dict:
    """Ratios of the four decay estimates (left norm / right norm) at weight -nu.

    g = dPhi/dt + C mu^{-1} Psi, h = Pi0 (antiderivative of Phi),
    w = Pi1 (antiderivative of Psi); ratios are reported, not asserted to a
    universal constant.
    """
    from .signals import spectral_derivative

    ne = bundle.n_edges
    E = u.with_values(u.values[:, :ne])
    H = u.with_values(u.values[:, ne:])
    du = spectral_derivative(u, check=False)
    dE = du.with_values(du.values[:, :ne])
    dH = du.with_values(du.values[:, ne:])

    fmask = bundle.face_region_mask()
    mu = np.where(fmask, material.mu1, material.mu2)
    dPhi = spectral_derivative(Phi, check=False)
    g = dPhi.with_values(dPhi.values + (bundle.C @ (Psi.values / mu[None, :]).T).T)

    h_vals = basis.pi0(_cumulative_trapezoid(Phi.values, Phi.grid.dt))
    w_vals = basis.pi1(_cumulative_trapezoid(Psi.values, Psi.grid.dt))
    h = Phi.with_values(h_vals)
    w = Psi.with_values(w_vals)

    n = {
        "E": weighted_norm(E), "H": weighted_norm(H),
        "dE": weighted_norm(dE), "dH": weighted_norm(dH),
        "g": weighted_norm(g), "h": weighted_norm(h), "w": weighted_norm(w),
        "Phi": weighted_norm(Phi), "Psi": weighted_norm(Psi),
    }
    eps = 1e-300
    return {
        "E_over_g_h": n["E"] / max(n["g"] + n["h"], eps),
        "H_over_g_Phi_w": n["H"] / max(n["g"] + n["Phi"] + n["w"], eps),
        "dE_over_g_Phi": n["dE"] / max(n["g"] + n["Phi"], eps),
        "dH_over_g_Psi": n["dH"] / max(n["g"] + n["Psi"], eps),
        "norms": n,
    }


# ---------------------------------------------------------------------------
# capability matrix


@dataclass
class CapabilityRow:
    model: str
    wp0: bool
    es0: bool
    detail: dict = field(default_factory=dict)


def render_capability_table(rows) -> str:
    lines = ["model      WP0   ES0", "-" * 22]
    for r in rows:
        if r.es0:
            es = "pass"
        elif not r.detail.get("certified", False):
            es = "no-cert"
        else:
            es = "FAIL"
        lines.append(f"{r.model:<10} {'pass' if r.wp0 else 'FAIL':<5} {es}")
    return "\n".join(lines)


def capability_matrix(bundle: OperatorBundle, basis: ProjectionBasis,
                      configs, forward_grid: TimeGrid, decay_grid: TimeGrid,
                      seed: int = 1234) -> list:
    """Run the WP0/ES0 battery per material configuration.

    Each config is (name, material, laws, eps_infs); WP0 checks the forward
    Picard bound on random data over forward_grid, ES0 requires a decay
    certificate plus a successful post-source decay fit over decay_grid
    (the decay window is much longer than the forward one).
    """
    rows = []
    rng = np.random.default_rng(seed)
    for name, material, laws, eps_infs in configs:
        mu_faces = np.where(bundle.face_region_mask(), material.mu1, material.mu2)
        sigma_min_B2 = projection_invertibility_check(bundle, basis, 1.0 / mu_faces)
        # WP0: forward solve bound at rho = 2
        rho = 2.0
        prof = smooth_pulse(forward_grid.times, 0.0, 2.0)
        vec = rng.standard_normal(bundle.n_state)
        gsig = WeightedSignal(forward_grid, rho, prof[:, None] * vec[None, :])
        u, rep = solve_linear(LinearProblem(bundle, material, rho, gsig))
        wp0 = rep.bound_ok() and rep.max_rel_residual < 1e-8

        cert = certify_decay_rate(laws, eps_infs, math.sqrt(sigma_min_B2))
        es0 = False
        detail = {"certified": cert.certified, "nu0": cert.nu0,
                  "wp0_ratio": rep.norm_ratio, "wp0_c_min": rep.c_min_line}
        if cert.certified:
            nu_run = 0.5 * cert.nu0
            t_src = 2.0
            Phi, Psi = make_divergence_free_data(bundle, decay_grid, -nu_run, seed, 0.0, t_src)
            fits = simulate_decay(bundle, material, cert, Phi, Psi, [nu_run], t_src)
            fit = fits[0]
            es0 = fit.nu_hat >= 0.8 * nu_run and fit.r_squared > 0.99
            detail.update({"nu_run": nu_run, "nu_hat": fit.nu_hat, "r2": fit.r_squared})
        rows.append(CapabilityRow(model=name, wp0=wp0, es0=es0, detail=detail))
    return rows
