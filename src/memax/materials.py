"""Operator-valued material laws z -> M(z) and their accretivity certificates.

The laws here are rational in z.  The damped-oscillator susceptibility

    chi(z) = sum_j alpha_j / (omega0_j^2 + z^2 + 2 gamma_j z)

has its poles in the open left half-plane for gamma_j > 0, except the pole
at 0 of a Drude term (omega0_j = 0).  The modified law multiplies each term
by (1 + (z - z0)/r), which restores strict half-plane accretivity outside a
disk around the origin when 2 gamma r - omega0^2 > 0, and a conductivity
shift sigma adds z^{-1} sigma.  One frozen record, ScalarLaw(eps0, terms,
r, z0, sigma), is one region's law (r = None for the plain law);
DrudeLorentzParams and ModDLParams are constructors that return it.

Time domain: _oscillator expands each term into (lam, c) pairs whose kernel
is Im(c e^{lam t}) for t > 0 (the recursive-convolution form of Luebbers et
al., IEEE Trans. EMC 32, 1990, which covers Debye media too), and
sample_kernel samples it for nonlinear.KernelSpec.from_dl.  Every
time-domain consumer (Picard memory, history conversion through KernelSpec,
the oracle stepper) goes through this one expansion; the z-domain evaluators
and closed forms below do not, so they stay independent checks on it.

Accretivity is always measured as the smallest eigenvalue of the Hermitian
part: "Re B >= c" means <(B + B*)/2 x, x> >= c |x|^2.  Off the law's poles
Re(z M) and Re M are harmonic, so on a scan region {Re z >= -nu} \\ B[0,
delta] without a pole their infimum lies on its boundary (the line Re z =
-nu outside the disk and the arc |z| = delta right of it) or at |Im z| ->
infinity, whose analytic limit is appended; a region with a pole is refused.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import MemaxError, PoleHit
from .signals import SampledKernel, TimeGrid

POLE_PROXIMITY = 1e-14        # relative denominator threshold for PoleHit
ARC_POINTS = 97               # samples of the arc |z| = delta, corners included
CHORD_POINTS = 49             # samples of the chord Re z = -nu inside the disk


# ---------------------------------------------------------------------------
# the law record: M(z) = eps(z) + z^{-1} sigma


def _require(field: str, value, positive: bool = True) -> None:
    """ValueError naming field unless value is finite and positive (or nonnegative)."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        raise ValueError(f"{field} must be {'positive' if positive else 'nonnegative'} "
                         f"and finite, got {value}")


@dataclass(frozen=True)
class ScalarLaw:
    """One region's law M(z) = eps(z) + z^{-1} sigma, eps the damped-oscillator
    terms (alpha_j, gamma_j, omega0_j) plus eps0: eval_dl when r is None, else
    mod_dl_eval (each term times (1 + (z - z0)/r)).  chi and kernel_terms
    describe eps alone; `base` is the law without its conductivity (None
    when sigma == 0), and a conductive law has a pole at 0.
    """

    eps0: float
    terms: tuple
    r: float | None = None
    z0: complex = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        _require("eps0", self.eps0)
        terms = tuple((float(a), float(g), float(w)) for (a, g, w) in self.terms)
        if not terms:
            raise ValueError("need at least one oscillator term")
        for a, g, w in terms:
            if not (a > 0 and g > 0 and w >= 0 and all(map(math.isfinite, (a, g, w)))):
                raise ValueError(f"bad term (alpha={a}, gamma={g}, omega0={w}): alpha and "
                                 "gamma must be positive, omega0 nonnegative, all finite")
        object.__setattr__(self, "terms", terms)
        if self.r is not None:
            _require("r", self.r)
        if not cmath.isfinite(self.z0):
            raise ValueError(f"z0 must be finite, got {self.z0}")
        _require("sigma", self.sigma, positive=False)

    @property
    def eps_inf(self) -> float:
        return self.eps0

    @property
    def name(self) -> str:
        return ("dl" if self.r is None else "mod_dl") + ("_sigma" if self.sigma > 0 else "")

    @property
    def poles(self) -> np.ndarray:
        """The terms' roots (Re z < 0 but a Drude term's 0), and 0 if conductive."""
        poles = np.asarray([z for _, g, w in self.terms for z in _oscillator(g, w)[0]],
                           dtype=np.complex128)
        return np.concatenate([poles, [0.0 + 0.0j]]) if self.sigma > 0 else poles

    @property
    def base(self) -> ScalarLaw | None:
        return replace(self, sigma=0.0) if self.sigma > 0 else None

    def chi(self, z):
        """The memory part of the permittivity, eps(z) - eps0."""
        return eval_chi_dl(z, self) if self.r is None else mod_dl_eval(z, self) - self.eps0

    def __call__(self, z):
        eps = eval_dl if self.r is None else mod_dl_eval
        if not self.sigma > 0:
            return eps(z, self)
        zz = np.asarray(z, dtype=np.complex128)
        return eps(zz, self) + self.sigma / zz

    def kernel_terms(self) -> list:
        """(lam, c) pairs of the terms (n1 z + n0) / (z^2 + 2 gamma z + omega0^2):
        n1 = 0, n0 = alpha for a plain law; n1 = alpha/r, n0 = alpha (1 - z0/r)
        for a modified law with real z0."""
        z0, r = complex(self.z0), self.r
        if r is not None and z0.imag != 0.0:
            raise MemaxError(f"z0 = {self.z0} is not real, so the modified law has no "
                             "real time-domain kernel")
        out = []
        for a, g, w in self.terms:
            n1, n0 = (0.0, a) if r is None else (a / r, a * (1 - z0.real / r))
            pairs = _oscillator(g, w, n1, n0)[1]
            if pairs is None:
                raise MemaxError(f"term (alpha={a}, gamma={g}, omega0={w}) is critically damped: "
                                 "its kernel t e^(-gamma t) has no Im(c e^(lam t)) form")
            out += pairs
        return out

    def accretivity_margin(self) -> float:
        """min over terms of 2*gamma*r - omega0^2 (must be > 0 for the certificate)."""
        if self.r is None:
            raise ValueError("a plain law has no correction factor, so no accretivity margin")
        return min(2.0 * g * self.r - w * w for _, g, w in self.terms)

    def re_zM_limit(self, nu: float) -> float:
        limit = self.eps0 * nu
        if self.r is not None:
            limit += sum(a / self.r for a, _, _ in self.terms)
        return limit + self.sigma if self.sigma > 0 else limit

    def re_M_limit(self, nu: float) -> float:
        return self.eps0


def DrudeLorentzParams(eps0: float, terms) -> ScalarLaw:
    """The plain law: eps0 plus a sum of damped-oscillator terms (alpha_j, gamma_j, omega0_j)."""
    return ScalarLaw(eps0, terms)


def ModDLParams(base: ScalarLaw, r: float, z0: complex = 0.0) -> ScalarLaw:
    """base with the analytic correction factor (1 + (z - z0)/r) on every term."""
    if base.r is not None:
        raise ValueError(f"base is already a modified law (r = {base.r})")
    return replace(base, r=r, z0=z0)


def dl_law(p: ScalarLaw) -> ScalarLaw:
    """The law itself: a ScalarLaw record is its own law."""
    return p


mod_dl_law = dl_law


def conductivity_law(eps_law: ScalarLaw, sigma: float) -> ScalarLaw:
    """M(z) = eps(z) + z^{-1} sigma, the conductivity added to eps_law's own."""
    return replace(eps_law, sigma=eps_law.sigma + sigma) if sigma else eps_law


def _oscillator(g: float, w: float, n1: float = 0.0, n0: float = 0.0) -> tuple:
    """The two roots of z^2 + 2 g z + w^2, and the (lam, c) pairs whose kernel
    sum Im(c e^{lam t}) is that of (n1 z + n0) / (z^2 + 2 g z + w^2): for w > g
    lam = -g + i b, c = (n0 - n1 g)/b + i n1 with b = sqrt(w^2 - g^2); for w < g
    the partial fractions, c+- = +-i (n1 lam+- + n0) / (lam+ - lam-) on the real
    roots lam+-.  The pairs are None at the double root w == g."""
    disc = w * w - g * g
    if disc > 0:
        b = math.sqrt(disc)
        lam = complex(-g, b)
        return (lam, lam.conjugate()), [(lam, complex(n0 / b - n1 * (g / b), n1))]
    s = math.sqrt(-disc)
    hi, lo = complex(-g + s), complex(-g - s)
    if s == 0:
        return (hi, lo), None
    return (hi, lo), [(hi, 1j * (n1 * hi + n0) / (hi - lo)),
                      (lo, -1j * (n1 * lo + n0) / (hi - lo))]


def _check_poles(z, terms) -> list:
    """The term denominators omega0_j^2 + z^2 + 2 gamma_j z at z; PoleHit when
    one is within POLE_PROXIMITY of zero relative to its size."""
    z = np.asarray(z, dtype=np.complex128)
    absz = np.abs(z)
    dens = []
    for _, g, w in terms:
        den = w * w + z * z + 2.0 * g * z
        scale = max(w * w, 1.0) + absz ** 2 + 2.0 * g * absz
        bad = np.abs(den) < POLE_PROXIMITY * scale
        if np.any(bad):
            zb = z[bad] if z.ndim else z
            zb = np.atleast_1d(zb)[0]
            raise PoleHit(complex(zb), float(np.min(np.abs(den))))
        dens.append(den)
    return dens


def _kind(p: ScalarLaw, modified: bool) -> None:
    """ValueError unless p is a modified (modified=True) or a plain law."""
    if (p.r is not None) != modified:
        raise ValueError(f"this reference takes a {'modified' if modified else 'plain'} "
                         f"law, got {p.name}")


def eval_chi_dl(z, p: ScalarLaw):
    """chi(z) = sum_j alpha_j / (omega0_j^2 + z^2 + 2 gamma_j z) of p's terms,
    without a modified law's factor."""
    zz = np.asarray(z, dtype=np.complex128)
    out = np.zeros_like(zz)
    for (a, _, _), den in zip(p.terms, _check_poles(zz, p.terms)):
        out = out + a / den
    return out if np.ndim(z) else complex(out)


def eval_dl(z, p: ScalarLaw):
    """Permittivity eps0 + chi(z) of a plain law."""
    _kind(p, modified=False)
    return p.eps0 + eval_chi_dl(z, p)


def mod_dl_eval(z, p: ScalarLaw):
    """Permittivity M_r(z) = eps0 + chi(z) * (1 + (z - z0)/r) of a modified law."""
    _kind(p, modified=True)
    zz = np.asarray(z, dtype=np.complex128)
    out = p.eps0 + eval_chi_dl(zz, p) * (1.0 + (zz - p.z0) / p.r)
    return out if np.ndim(z) else complex(out)


def re_zM_closed_form(nu: float, t: float, p: ScalarLaw) -> float:
    """Re((nu+it) eps(nu+it)) for a plain law via the real rational closed form.

    Per oscillator term the contribution is

        [alpha nu (omega0^2 + nu^2 + t^2 + 2 gamma nu) + 2 alpha gamma t^2]
        / [(omega0^2 + nu^2 - t^2 + 2 gamma nu)^2 + 4 (nu t + gamma t)^2]

    plus eps0*nu once.  Must agree with the direct complex evaluation to
    near machine precision everywhere off the pole set.
    """
    _kind(p, modified=False)
    z = complex(nu, t)
    _check_poles(np.asarray([z]), p.terms)
    total = p.eps0 * nu
    for a, g, w in p.terms:
        num = a * nu * (w * w + nu * nu + t * t + 2.0 * g * nu) + 2.0 * a * g * t * t
        den = (w * w + nu * nu - t * t + 2.0 * g * nu) ** 2 + 4.0 * (nu * t + g * t) ** 2
        total += num / den
    return float(total)


def mod_dl_g(nu: float, t: float, p: ScalarLaw) -> float:
    """g(nu, t) = Re((nu+it) M_r(nu+it)) - eps0*nu for the single-term modified law.

    Closed rational form; its limit as |t| -> infinity is alpha/r.
    """
    _kind(p, modified=True)
    if len(p.terms) != 1 or p.z0 != 0.0:
        raise ValueError("closed form covers the canonical single-term, z0=0 case")
    a, g, w = p.terms[0]
    r = p.r
    z = complex(nu, t)
    _check_poles(np.asarray([z]), p.terms)
    num = (nu * w * w * r + (2.0 * g * r + w * w) * nu ** 2 + (r + 2.0 * g) * nu ** 3
           + ((r + 2.0 * g) * nu + 2.0 * nu ** 2 + 2.0 * g * r - w * w) * t * t
           + nu ** 4 + t ** 4)
    den = (w * w + nu * nu - t * t + 2.0 * g * nu) ** 2 + (2.0 * nu + 2.0 * g) ** 2 * t * t
    return float(a / r * num / den)


def sample_kernel(terms, grid: TimeGrid, derivative: bool = False) -> SampledKernel:
    """Sample sum_j Im(c_j e^{lam_j t}) for t >= 0 (zero before), or with
    derivative=True its t-derivative sum_j Im(c_j lam_j e^{lam_j t}).

    terms are (lam, c) pairs from a law's kernel_terms().
    """
    t = grid.times
    pos = t >= 0
    tp = t[pos]
    vals = np.zeros_like(t)
    for lam, c in terms:
        g, b = -lam.real, lam.imag
        e = np.exp(-g * tp)
        s, co = np.sin(b * tp), np.cos(b * tp)
        if derivative:
            vals[pos] += c.real * e * (b * co - g * s) + c.imag * e * (-g * co - b * s)
        else:
            vals[pos] += c.real * e * s + c.imag * e * co
    return SampledKernel(grid, vals)


@dataclass(frozen=True)
class PiecewiseMaterial:
    """Two scalar permittivity laws on the two sides of the interface, plus mu.

    Masks select degrees of freedom per region; mu is a positive scalar per
    region (the staggered scheme samples field components, so region-wise
    scalars are the natural coefficient class).  An optional conductivity
    sigma (scalar per region) adds z^{-1} sigma to the permittivity.
    """

    law1: ScalarLaw
    law2: ScalarLaw
    mu1: float
    mu2: float
    sigma1: float = 0.0
    sigma2: float = 0.0

    def __post_init__(self):
        for field in ("mu1", "mu2", "sigma1", "sigma2"):
            _require(field, getattr(self, field), positive=field.startswith("mu"))

    @property
    def mu_min(self) -> float:
        return min(self.mu1, self.mu2)

    def eps_laws(self):
        return conductivity_law(self.law1, self.sigma1), conductivity_law(self.law2, self.sigma2)

    def eps_values(self, z, mask1: np.ndarray) -> np.ndarray:
        """Permittivity per dof at one frequency: law1 on mask1, law2 elsewhere."""
        l1, l2 = self.eps_laws()
        out = np.empty(mask1.shape, dtype=np.complex128)
        out[mask1] = l1(z)
        out[~mask1] = l2(z)
        return out

# ---------------------------------------------------------------------------
# accretivity scans


@dataclass(frozen=True)
class AccretivityScan:
    """Machine-checkable record of min Re(z M(z)) over a scan region."""

    condition_id: str
    nu: float
    delta_exclusion: float
    c_min: float
    argmin: complex
    n_grid: int
    tail_limit: float | None
    certified: bool

    def to_dict(self) -> dict:
        """The record as JSON values, keys in the sorted order artifacts print."""
        return {
            "argmin_im": self.argmin.imag,
            "argmin_re": self.argmin.real,
            "c_min": self.c_min,
            "certified": self.certified,
            "condition_id": self.condition_id,
            "delta": self.delta_exclusion,
            "grid": self.n_grid,
            "nu": self.nu,
            "tail_limit": self.tail_limit,
        }


def _boundary(nu: float, delta: float, t_max: float, n_t: int) -> tuple:
    """(line, arc, chord) right of Re z = -nu: the line outside B[0, delta]
    at t = 0 and +-geomspace(max(delta/10, 1e-8 t_max), t_max, n_t), the arc
    |z| = delta (ARC_POINTS, the corners its ends) and the chord of the line
    inside the disk (CHORD_POINTS).  line and arc bound {Re z >= -nu} \\
    B[0, delta]; arc and chord bound the disk part."""
    t_lo = max(delta / 10.0, t_max * 1e-8)
    ts = np.geomspace(t_lo, t_max, n_t)
    line = -nu + 1j * np.concatenate([-ts[::-1], [0.0], ts])
    line = line[np.abs(line) > delta]
    arc = chord = np.empty(0, dtype=np.complex128)
    if delta > 0 and nu > -delta:
        theta0 = np.pi - np.arccos(np.clip(nu / delta, -1.0, 1.0))
        arc = delta * np.exp(1j * np.linspace(-theta0, theta0, ARC_POINTS))
        if nu < delta:
            h = math.sqrt(delta * delta - nu * nu)
            chord = -nu + 1j * np.linspace(-h, h, CHORD_POINTS)
    return line, arc, chord


def hermitian_min(mat: np.ndarray) -> float:
    """lambda_min((B + B*)/2)."""
    h = 0.5 * (mat + mat.conj().T)
    return float(np.linalg.eigvalsh(h)[0])


def accretivity_scan(law, nu: float, delta_exclusion: float = 0.0,
                     t_max: float | None = None, n_t: int = 400,
                     condition_id: str = "M2",
                     scan_re_M: bool = False) -> AccretivityScan:
    """min over {Re z >= -nu} \\ B[0, delta] of Re(z M(z)) (or Re M(z)) on
    the region's boundary, _boundary's line and arc.

    law is a ScalarLaw, or, for Re(z M(z)) only, has herm_min_vec(Z), the
    vectorized Hermitian-part minimum (stability.MdSystem); anything else
    raises TypeError.  A ScalarLaw pole p in the region (Re p >= -nu, |p| >=
    delta; one at 0 cancels in z M) makes the infimum -inf: nothing is
    evaluated and c_min = -inf at argmin = p.  A ScalarLaw's analytic
    |Im z| -> infinity limit is appended, so that enlarging t_max can only
    confirm, never manufacture, a certificate.
    """
    scalar = isinstance(law, ScalarLaw)
    if not (scalar or (hasattr(law, "herm_min_vec") and not scan_re_M)):
        raise TypeError(f"accretivity_scan takes a ScalarLaw, or an object with "
                        f"herm_min_vec for Re(z M(z)); got {type(law).__name__}")
    poles = law.poles if scalar else np.array([])
    if t_max is None:
        pole_scale = max((abs(p) for p in poles), default=1.0)
        t_max = 1e4 * max(pole_scale, 1.0)
    inside = poles[(poles.real >= -nu) & (np.abs(poles) >= delta_exclusion)
                   & ((poles != 0) | scan_re_M)]
    if inside.size:
        return AccretivityScan(condition_id, nu, delta_exclusion, -np.inf, complex(inside[0]),
                               0, None, False)

    line, arc, _ = _boundary(nu, delta_exclusion, t_max, n_t)
    Z = np.concatenate([line, arc])
    if scalar:
        M = law(Z)
        vals = np.real(M) if scan_re_M else np.real(Z * M)
    else:
        vals = law.herm_min_vec(Z)

    i_min = int(np.argmin(vals))
    c_min = float(vals[i_min])
    argmin = complex(Z[i_min])

    tail = None
    if scalar:
        tail = float((law.re_M_limit if scan_re_M else law.re_zM_limit)(-nu))
        if tail < c_min:
            c_min = tail
            argmin = complex(np.inf)

    return AccretivityScan(
        condition_id=condition_id,
        nu=nu,
        delta_exclusion=delta_exclusion,
        c_min=c_min,
        argmin=argmin,
        n_grid=int(Z.shape[0]),
        tail_limit=tail,
        certified=c_min > 0.0,
    )


def line_certificate(material: PiecewiseMaterial, rho: float, xi: np.ndarray) -> float:
    """c_min of the full first-order block law diag(eps, mu) on the line."""
    z = rho + 1j * np.asarray(xi)
    l1, l2 = material.eps_laws()
    c = min(float(np.real(z * l1(z)).min()), float(np.real(z * l2(z)).min()))
    return min(c, rho * material.mu_min)
