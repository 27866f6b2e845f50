"""Exponential-stability machinery and diagnostics.

One driver, certify_decay_rate, checks the conditions on the material laws
on one of two routes, picked once per law set.  Laws with a conductivity
part z^{-1} sigma take the strict route: Re(z M(z)) >= c on the whole
half-plane (z = 0 is a discrete material-law pole) and Re eps(z) >= c for
the base permittivity (conditions M4, M4_reM).  All other law sets take the
disk route, which rests on three checkable ingredients:

  1. half-plane accretivity of the permittivity outside a disk around the
     origin (M2: scan, with the analytic tail limit appended),
  2. positivity of the Hermitian part of the permittivity itself on the
     half-plane (M3, the z -> 0 regularization route),
  3. the disk condition: the reduced curl block is boundedly invertible
     (smallest singular value sigma_min of the curl on its kernel
     complement), and |z M_d(z)| stays below it on the excluded disk, for
     the damped substitution law

         M_d(z) = [[M(z), 0], [0, 1]]
                + (d/z) [[-M0(z), (M1(z) - d M0(z))/C], [0, 1]],

     whose accretivity is inherited from z M(z) for small d > 0 (the lab
     picks d by bisection to the largest value keeping half the margin).

The reduction needs M1(z) = z (M(z) - eps_inf) -> 0 as z -> 0, which holds
exactly when the law has no pole at z = 0, so a law with one (a Drude term)
is refused on the disk route.  The plain oscillator law fails (1) for every
positive abscissa (its Hermitian-part tail limit is eps0 * Re z), while the
modified law with 2 gamma r > omega0^2 passes; the capability matrix
reproduces exactly that split.  Decay rates are measured by a log-linear
fit of the state norm after the sources switch off, with the window policy
logged.

Each margin is read on the boundary of its region (materials._boundary),
where the minimum principle puts it, since the laws' poles lie left of the
line Re z = -nu.  The damping sweep takes every value of d from one
evaluation of M0 and M1 on the line and arc, and the disk bound is one
stacked 2x2 spectral norm per law on the arc and chord.  The reductions keep
their order (argmin per law, then the smallest over laws), so the
certificates are those of the one-scan-per-d, one-point-per-norm evaluation
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MemaxError, NotCertified
from .materials import (
    PiecewiseMaterial,
    ScalarLaw,
    _boundary,
    accretivity_scan,
    hermitian_min,
)
from .operators import OperatorBundle, ProjectionBasis, reduced_curl_sigma_min
from .signals import TimeGrid, WeightedSignal, smooth_pulse
from .spectral import LinearProblem, solve_linear, stack_rhs


# ---------------------------------------------------------------------------
# M_d reduction


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) from real parts, rounded as a scalar complex
    product is (numpy's complex loops may fuse the products)."""
    return ar * br - ai * bi, ar * bi + ai * br


def _cdiv(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) from real parts by Smith's method, rounded as
    a scalar complex quotient is (numpy's multiplies by a reciprocal)."""
    ar, ai, br, bi = np.broadcast_arrays(ar, ai, br, bi)
    by_re = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_re, bi / br, br / bi)
    denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
    re = np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom
    im = np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom
    return re, im


def _md_blocks(Z: np.ndarray, M0, M1, C: float, d: float) -> np.ndarray:
    """M_d(z) at every point of Z as a (k, 2, 2) stack, from M0(Z) and M1(Z).

    The entries are formed from real and imaginary parts in the operation
    order of scalar complex arithmetic, so a stacked block equals the
    one-point block bit for bit, and so does the disk bound built on it.
    """
    if np.any(Z == 0):
        raise ZeroDivisionError("M_d has a pole at z = 0")
    M0, M1 = np.asarray(M0), np.asarray(M1)
    zr, zi = Z.real, Z.imag
    out = np.zeros(Z.shape + (2, 2), dtype=np.complex128)
    # silent like scalar arithmetic; Smith's method also computes the branch it drops
    with np.errstate(all="ignore"):
        qr, qi = _cdiv(M1.real, M1.imag, zr, zi)                   # M1/z
        dzr, dzi = _cdiv(d, 0.0, zr, zi)                           # d/z
        tr, ti = _cmul(dzr, dzi, M0.real, M0.imag)                 # (d/z) M0
        sr, si = _cmul(d, 0.0, M0.real, M0.imag)                   # d M0
        vr, vi = _cmul(dzr, dzi, M1.real - sr, M1.imag - si)       # (d/z)(M1 - d M0)
        out.real[..., 0, 0] = (M0.real + qr) - tr
        out.imag[..., 0, 0] = (M0.imag + qi) - ti
        out.real[..., 0, 1], out.imag[..., 0, 1] = _cdiv(vr, vi, C, 0.0)
        out.real[..., 1, 1] = 1.0 + dzr
        out.imag[..., 1, 1] = 0.0 + dzi
    return out


def _md_herm_min(Z: np.ndarray, M0, M1, zm, C: float, d: float) -> np.ndarray:
    """lambda_min(Herm(z M_d(z))) in closed form (2x2 upper triangular) at
    every point of Z, from M0(Z), M1(Z) and the d-free zm = Z (M0 + M1 / Z)."""
    a = zm - d * M0
    b = d * (M1 - d * M0) / C
    c = Z + d
    ra, rc = a.real, c.real
    return 0.5 * (ra + rc) - np.sqrt(0.25 * (ra - rc) ** 2 + 0.25 * np.abs(b) ** 2)


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

    def _parts(self, Z: np.ndarray) -> tuple:
        """(M0(Z), M1(Z)); neither depends on d."""
        return np.asarray(self.M0(Z)), np.asarray(self.M1(Z))

    def __call__(self, z):
        Z = np.asarray([complex(z)])
        return _md_blocks(Z, *self._parts(Z), self.C, self.d)[0]

    def herm_min_vec(self, z: np.ndarray) -> np.ndarray:
        """lambda_min(Herm(z M_d(z))) in closed form (2x2 upper triangular)."""
        z = np.asarray(z, dtype=np.complex128)
        M0, M1 = self._parts(z)
        return _md_herm_min(z, M0, M1, z * (M0 + M1 / z), self.C, self.d)


def md_from_scalar_law(law: ScalarLaw, eps_inf: float, C: float, d: float) -> MdSystem:
    """Split M(z) = eps_inf + z^{-1}(z chi(z)) into the M_d form; it needs
    M1(z) = z chi(z) -> 0 as z -> 0, so a law with a pole at 0 raises."""
    if np.any(law.poles == 0):
        raise MemaxError(f"law {law.name!r} has a pole at z = 0, so M1(z) = z (M(z) - eps_inf) "
                         "does not vanish there and the M_d split does not apply")
    def M0(z):
        return np.full_like(np.asarray(z, dtype=np.complex128), eps_inf)

    def M1(z):
        zz = np.asarray(z, dtype=np.complex128)
        return zz * (law(zz) - eps_inf)

    return MdSystem(M0=M0, M1=M1, C=C, d=d)


def _select_damping(mds, eps_max: float, nu: float, delta: float, c_at_nu: float,
                    n_grid: int) -> tuple:
    """Best damping parameter for the M_d reduction at weight -nu, over the
    M_d splits of the laws (their own d unused).

    The admissible window is roughly nu < d < c/eps_inf: the identity block
    needs Re z + d > 0 at Re z = -nu, while the -d M0 shift eats the scalar
    margin c.  The largest d meeting half the attainable margin is kept
    (recorded either way); no admissible d means no certificate.  Each law
    is evaluated once on the boundary that accretivity_scan(md, nu, delta,
    t_max=1e4, n_t=200) reads (lambda_min(Herm(z M_d)) is superharmonic and
    the laws' poles lie left of the line), and all n_grid values of d are
    swept from that one evaluation; per d the margin is each law's minimum
    at its argmin, then the smallest over laws, so it equals the smallest
    accretivity_scan minimum of md_from_scalar_law(law, eps_inf, C, d).
    """
    d_hi = c_at_nu / eps_max
    d_lo = 1.02 * nu
    if d_hi <= d_lo:
        return 0.0, -np.inf
    ds = np.linspace(d_lo, d_hi, n_grid)
    Z = np.concatenate(_boundary(nu, delta, 1e4, 200)[:2])
    parts = [(M0, M1, Z * (M0 + M1 / Z)) for M0, M1 in (md._parts(Z) for md in mds)]
    margins = []
    for d in ds:
        hs = [_md_herm_min(Z, M0, M1, zm, md.C, d) for md, (M0, M1, zm) in zip(mds, parts)]
        margins.append(min(float(h[int(np.argmin(h))]) for h in hs))
    margins = np.array(margins)
    best = margins.max()
    if best <= 0:
        return 0.0, float(best)
    i = np.nonzero(margins >= 0.5 * best)[0][-1]
    return float(ds[i]), float(margins[i])


def _disk_sup(mds, d: float, nu: float, delta: float) -> float:
    """max |z M_d(z)| (spectral norm) on the boundary (_boundary's arc and
    chord) of B[0, delta] right of Re z = -nu, where the subharmonic norm
    peaks: per law one evaluation and one stacked 2x2 norm."""
    Z = np.concatenate(_boundary(nu, delta, delta, 0)[1:])    # no line ordinates
    sup = 0.0
    for md in mds:
        blocks = Z[:, None, None] * _md_blocks(Z, *md._parts(Z), md.C, d)
        sup = max(sup, float(np.linalg.norm(blocks, 2, axis=(1, 2)).max(initial=0.0)))
    return sup


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
    (mu^{-1} in the field equations); indefinite weights are rejected, and so
    are weights that are not constant per face component and interface layer.
    Returns the smallest eigenvalue of iota* C0^T diag(w) C0 iota, which for
    unit weights equals the squared discrete Poincare sigma_min: the squared
    smallest nonzero singular value of sqrt(w) C0, one SVD per transverse mode.
    """
    w = np.asarray(face_weights, dtype=float)
    if w.ndim == 0:
        w = np.full(bundle.n_faces, float(w))
    if np.any(w <= 0):
        raise ValueError("face weights must be uniformly positive")
    return reduced_curl_sigma_min(bundle, basis, w) ** 2


# ---------------------------------------------------------------------------
# certification


@dataclass
class StabilityCertificate:
    nu0: float
    c: float                      # Re(z M) margin: M2 outside the disk, or M4
    c1: float                     # Re M margin: M3, or M4_reM of the base law
    delta: float                  # excluded disk radius; 0 on the strict route
    d0: float                     # damping parameter retained by bisection
    disk_sup: float               # sup |z M_d(z)| over the excluded disk
    sigma_min_B: float            # invertibility of the reduced curl block
    certified: bool
    scans: dict = field(default_factory=dict)
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "nu0": self.nu0, "c": self.c, "c1": self.c1, "delta": self.delta,
            "d0": self.d0, "disk_sup": self.disk_sup,
            "sigma_min_B": self.sigma_min_B, "certified": self.certified,
            "reason": self.reason,
            "scans": {k: v.to_dict() for k, v in self.scans.items()},
        }


def _largest_feasible_nu(feasible, nu_hi: float, iters: int) -> float:
    """Bisect [1e-6, nu_hi] for the edge of feasible(nu); nu_hi itself when
    it is feasible.  The lower end 1e-6 is tested only when the bisection
    never left it, and 0.0 comes back when it fails: no weight is feasible."""
    lo, hi = 1e-6, nu_hi
    if feasible(hi):
        return hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return 0.0 if lo == 1e-6 and not feasible(lo) else lo


def certify_decay_rate(laws, eps_infs, sigma_min_B: float, delta: float = 1.0,
                       nu_hi: float | None = None, bisect_iters: int = 25) -> StabilityCertificate:
    """Scan-based decay certificate for one or more scalar permittivity laws.

    The route is picked once.  When any law has a conductivity part (a
    z^{-1} sigma on a base permittivity) it is the strict route: Re(z M(z))
    >= c on the whole numerical half-plane (z = 0 is a discrete material-law
    pole) and Re eps(z) >= c for the base, conditions M4 and M4_reM, with no
    disk exclusion or damped reduction.  Otherwise it is the disk route:
    the M2 margin outside B[0, delta] and the M3 margin Re M(z) of the law
    itself, a damping parameter d retained for the reduced second-order
    block, and sup |z M_d(z)| < sigma_min_B on the disk.  A law with a pole
    at z = 0 (a Drude term) is refused there, since z (M(z) - eps_inf) does
    not vanish at 0.  Both routes bisect the largest feasible nu below nu_hi
    (default 0.9 times the smallest pole gap -Re p, over poles with Re p < 0)
    and record every margin; `certified` is the conjunction.
    """
    laws, eps_infs = list(laws), list(eps_infs)
    strict = any(law.base is not None for law in laws)
    ids, radius = (("M4", "M4_reM"), 0.0) if strict else (("M2", "M3"), delta)
    if nu_hi is None:
        nu_hi = 0.9 * min((-float(p.real) for law in laws for p in law.poles if p.real < 0),
                          default=1.0)

    def scans(nu, pair=strict):
        """Per law the Re(z M) scan outside B[0, radius] and, with pair, the
        Re M scan of the law without its conductivity part; the disk route
        bisects on its M2 scan alone."""
        rows = []
        for law in laws:
            rows.append([accretivity_scan(law, nu=nu, delta_exclusion=radius, n_t=250,
                                          condition_id=ids[0])])
            if pair:
                rows[-1].append(accretivity_scan(law.base or law, nu=nu, delta_exclusion=0.0,
                                                 n_t=250, condition_id=ids[1], scan_re_M=True))
        return rows

    def margins(rows):
        """Per condition, the smallest c_min over the laws."""
        return [min(s.c_min for s in col) for col in zip(*rows)]

    def refused(reason):
        return StabilityCertificate(
            nu0=0.0, c=c_axis[0], c1=c_axis[1] if strict else 0.0, delta=radius, d0=0.0,
            disk_sup=0.0 if strict else np.inf, sigma_min_B=sigma_min_B, certified=False,
            reason=reason,
        )

    drude = [i for i, law in enumerate(laws) if not strict and np.any(law.poles == 0)]
    c_axis = [0.0] if drude else margins(scans(1e-6))
    if min(c_axis) <= 0:
        if drude:
            return refused(f"law {drude[0]} has a pole at z = 0 (a Drude term), so the damped "
                           "reduction M_d does not apply: z (M(z) - eps_inf) does not vanish at 0")
        if strict:
            return refused("conductivity route: no strict accretivity near the axis")
        return refused("no strict accretivity on any right neighborhood "
                       "(Re z M(z) tail limit nonpositive)")

    if strict:
        def feasible(nu):
            return min(margins(scans(nu))) > 0
    else:
        eps_max = max(eps_infs)
        # d is supplied by the sweeps
        mds = [md_from_scalar_law(law, e, sigma_min_B, 0.0) for law, e in zip(laws, eps_infs)]

        def feasible(nu):
            """Positive margin of the damped reduction with the best d at this weight."""
            (c,) = margins(scans(nu))
            return c > 1.02 * eps_max * nu and _select_damping(mds, eps_max, nu, delta, c,
                                                               n_grid=6)[1] > 0

    nu_max = _largest_feasible_nu(feasible, nu_hi, bisect_iters)
    if nu_max == 0.0:
        return refused(f"no weight in [1e-6, {nu_hi:.6g}] is feasible: at each weight tried, "
                       "1e-6 included, the M2 margin or the damped reduction's best d fails")
    # stay off the bisected edge so the margins below carry real headroom
    nu0 = 0.8 * nu_max
    final = scans(nu0, pair=True)
    c, c1 = margins(final)
    d0, disk_sup = 0.0, 0.0
    if not strict:
        d0, _ = _select_damping(mds, eps_max, nu0, delta, c, n_grid=12)
        disk_sup = _disk_sup(mds, d0 if d0 > 0 else 1.0, nu0, delta)
    certified = c > 0 and c1 > 0 and (strict or (d0 > 0 and disk_sup < sigma_min_B))
    return StabilityCertificate(
        nu0=nu0, c=c, c1=c1, delta=radius, d0=d0, disk_sup=disk_sup,
        sigma_min_B=sigma_min_B, certified=certified,
        scans={f"{s.condition_id}_law{i}": s for i, pair in enumerate(final) for s in pair},
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
                   nu_list, t_src_off: float, window_factor: float = 3.0,
                   decades: float = 4.0):
    """Solve at each weight -nu and fit the post-source decay rate over at
    most `decades` decades (fit_decay_rate).

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
        # contiguous rows: each norm is a pairwise sum over the dofs
        norms = np.linalg.norm(np.ascontiguousarray(u.values.real), axis=1)
        t_lo = window_factor * t_src_off
        nu_hat, r2, t_hi, amp = fit_decay_rate(u.times, norms, t_lo, decades)
        fits.append(DecayFit(t_lo=t_lo, t_hi=t_hi, nu_hat=nu_hat, r_squared=r2,
                             times=u.times, energy=norms, nu_run=nu, amplitude=amp))
    return fits


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
