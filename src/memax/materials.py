"""Operator-valued material laws z -> M(z) and their accretivity certificates.

The laws here are rational in z.  The damped-oscillator susceptibility

    chi(z) = sum_j alpha_j / (omega0_j^2 + z^2 + 2 gamma_j z)

has all poles in the open left half-plane for gamma_j > 0.  The modified law
multiplies each term by (1 + (z - z0)/r), which restores strict half-plane
accretivity outside a disk around the origin when 2 gamma r - omega0^2 > 0,
and a conductivity shift sigma adds z^{-1} sigma.

Time domain: each parameter record expands into (lam_j, c_j) pairs whose
kernel is Im(c_j e^{lam_j t}) for t > 0 (the recursive-convolution form of
Luebbers et al., IEEE Trans. EMC 32, 1990), and sample_kernel samples it.
Every time-domain consumer (kernels, Picard memory, history conversion, the
oracle stepper) goes through this one expansion; the z-domain evaluators and
closed forms below do not, so they stay independent checks on it.

Accretivity is always measured as the smallest eigenvalue of the Hermitian
part: "Re B >= c" means <(B + B*)/2 x, x> >= c |x|^2.  Scans walk a half-plane
grid (linear in the abscissa, logarithmic in |Im z|), exclude a disk around
the origin and pole-adjacent cells, and append the known analytic limits at
|Im z| -> infinity so a finite grid cannot fake a certificate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse, MemaxError, OverdampedUnsupported, PoleHit
from .signals import SampledKernel, TimeGrid

POLE_PROXIMITY = 1e-14        # relative denominator threshold for PoleHit
SCAN_POLE_MARGIN = 1e-6       # scan cells closer than this to a pole are skipped


# ---------------------------------------------------------------------------
# parameter records


@dataclass(frozen=True)
class DrudeLorentzParams:
    """eps0 plus a sum of damped-oscillator terms (alpha_j, gamma_j, omega0_j)."""

    eps0: float
    terms: tuple

    def __post_init__(self):
        if not self.eps0 > 0:
            raise ValueError("eps0 must be positive")
        terms = tuple((float(a), float(g), float(w)) for (a, g, w) in self.terms)
        if not terms:
            raise ValueError("need at least one oscillator term")
        for a, g, w in terms:
            if not (a > 0 and g > 0 and w >= 0):
                raise ValueError(f"bad term (alpha={a}, gamma={g}, omega0={w})")
            if not all(map(math.isfinite, (a, g, w))):
                raise ValueError("parameters must be finite")
        object.__setattr__(self, "terms", terms)

    def poles(self) -> np.ndarray:
        """Roots of the term denominators; all satisfy Re z < 0."""
        out = []
        for _, g, w in self.terms:
            disc = w * w - g * g
            if disc > 0:
                out += [-g + 1j * math.sqrt(disc), -g - 1j * math.sqrt(disc)]
            else:
                out += [-g + math.sqrt(-disc), -g - math.sqrt(-disc)]
        return np.asarray(out, dtype=np.complex128)

    @property
    def eps_inf(self) -> float:
        return self.eps0

    def kernel_terms(self) -> list:
        """(lam, c) per term: (alpha/b) e^{-gamma t} sin(b t) = Im(c e^{lam t})
        with lam = -gamma + i b, c = alpha/b, b = sqrt(omega0^2 - gamma^2).

        Only the oscillatory branch omega0 > gamma is covered.
        """
        out = []
        for a, g, w in self.terms:
            if w <= g:
                raise OverdampedUnsupported(
                    f"term (alpha={a}, gamma={g}, omega0={w}) is overdamped; "
                    "z-domain evaluation still works"
                )
            b = math.sqrt(w * w - g * g)
            out.append((complex(-g, b), complex(a / b)))
        return out


@dataclass(frozen=True)
class ModDLParams:
    """Damped-oscillator law with the analytic correction factor (1 + (z-z0)/r)."""

    base: DrudeLorentzParams
    r: float
    z0: complex = 0.0

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("r must be positive")

    def accretivity_margin(self) -> float:
        """min over terms of 2*gamma*r - omega0^2 (must be > 0 for the certificate)."""
        return min(2.0 * g * self.r - w * w for _, g, w in self.base.terms)

    @property
    def eps_inf(self) -> float:
        return self.base.eps0

    def kernel_terms(self) -> list:
        """The plain terms plus the (1 + z/r) correction per oscillator,

            (alpha/r) e^{-gamma t} (cos(b t) - (gamma/b) sin(b t)),

        which only changes the coefficient: c = alpha/b - (alpha/r)(gamma/b)
        + i alpha/r on the same lam (Re x = Im(i x)).  Covers z0 = 0 only.
        """
        if self.z0 != 0.0:
            raise MemaxError(
                f"time-domain kernel covers the z0 = 0 modified law only, got z0 = {self.z0}"
            )
        r = self.r
        return [(lam, complex(c.real - (a / r) * (g / lam.imag), a / r))
                for (lam, c), (a, g, _) in zip(self.base.kernel_terms(), self.base.terms)]


def _denominators(z, terms):
    z = np.asarray(z, dtype=np.complex128)
    return [w * w + z * z + 2.0 * g * z for _, g, w in terms]


def _check_poles(z, terms):
    z = np.asarray(z, dtype=np.complex128)
    for (a, g, w), den in zip(terms, _denominators(z, terms)):
        scale = max(w * w, 1.0) + np.abs(z) ** 2 + 2.0 * g * np.abs(z)
        bad = np.abs(den) < POLE_PROXIMITY * scale
        if np.any(bad):
            zb = z[bad] if z.ndim else z
            zb = np.atleast_1d(zb)[0]
            raise PoleHit(complex(zb), float(np.min(np.abs(den))))


def eval_chi_dl(z, p: DrudeLorentzParams):
    """chi(z) = sum_j alpha_j / (omega0_j^2 + z^2 + 2 gamma_j z)."""
    zz = np.asarray(z, dtype=np.complex128)
    _check_poles(zz, p.terms)
    out = np.zeros_like(zz)
    for (a, g, w), den in zip(p.terms, _denominators(zz, p.terms)):
        out = out + a / den
    return out if np.ndim(z) else complex(out)


def eval_dl(z, p: DrudeLorentzParams):
    """Full permittivity eps0 + chi(z)."""
    return p.eps0 + eval_chi_dl(z, p)


def mod_dl_eval(z, p: ModDLParams):
    """M_r(z) = eps0 + chi(z) * (1 + (z - z0)/r)."""
    zz = np.asarray(z, dtype=np.complex128)
    factor = 1.0 + (zz - p.z0) / p.r
    chi = eval_chi_dl(zz, p.base)
    out = p.base.eps0 + chi * factor
    return out if np.ndim(z) else complex(out)


def re_zM_closed_form(nu: float, t: float, p: DrudeLorentzParams) -> float:
    """Re((nu+it) M(nu+it)) for the plain law via the real rational closed form.

    Per oscillator term the contribution is

        [alpha nu (omega0^2 + nu^2 + t^2 + 2 gamma nu) + 2 alpha gamma t^2]
        / [(omega0^2 + nu^2 - t^2 + 2 gamma nu)^2 + 4 (nu t + gamma t)^2]

    plus eps0*nu once.  Must agree with the direct complex evaluation to
    near machine precision everywhere off the pole set.
    """
    z = complex(nu, t)
    _check_poles(np.asarray([z]), p.terms)
    total = p.eps0 * nu
    for a, g, w in p.terms:
        num = a * nu * (w * w + nu * nu + t * t + 2.0 * g * nu) + 2.0 * a * g * t * t
        den = (w * w + nu * nu - t * t + 2.0 * g * nu) ** 2 + 4.0 * (nu * t + g * t) ** 2
        total += num / den
    return float(total)


def mod_dl_g(nu: float, t: float, p: ModDLParams) -> float:
    """g(nu, t) = Re((nu+it) M_r(nu+it)) - eps0*nu for the single-term modified law.

    Closed rational form; its limit as |t| -> infinity is alpha/r.
    """
    if len(p.base.terms) != 1 or p.z0 != 0.0:
        raise ValueError("closed form covers the canonical single-term, z0=0 case")
    a, g, w = p.base.terms[0]
    r = p.r
    z = complex(nu, t)
    _check_poles(np.asarray([z]), p.base.terms)
    num = (nu * w * w * r + (2.0 * g * r + w * w) * nu ** 2 + (r + 2.0 * g) * nu ** 3
           + ((r + 2.0 * g) * nu + 2.0 * nu ** 2 + 2.0 * g * r - w * w) * t * t
           + nu ** 4 + t ** 4)
    den = (w * w + nu * nu - t * t + 2.0 * g * nu) ** 2 + (2.0 * nu + 2.0 * g) ** 2 * t * t
    return float(a / r * num / den)


def sample_kernel(terms, grid: TimeGrid, derivative: bool = False) -> SampledKernel:
    """Sample sum_j Im(c_j e^{lam_j t}) for t >= 0 (zero before), or with
    derivative=True its t-derivative sum_j Im(c_j lam_j e^{lam_j t}).

    terms are (lam, c) pairs from a parameter record's kernel_terms().
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


def dl_time_kernel(p, grid: TimeGrid) -> SampledKernel:
    """Sampled memory kernel of a plain or modified (z0 = 0) oscillator law.

    For the plain law chi(t) = theta(t) sum_j (alpha_j/b_j) e^{-gamma_j t}
    sin(b_j t); its plain Laplace transform reproduces eval_chi_dl (and, for
    the modified law, mod_dl_eval - eps0) to quadrature accuracy.
    """
    return sample_kernel(p.kernel_terms(), grid)


# ---------------------------------------------------------------------------
# law objects: callables z -> scalar (or matrix) with pole sets and limits


@dataclass(frozen=True)
class ScalarLaw:
    """A scalar material law: evaluator, pole set, and |Im z| -> inf limit data.

    re_zM_limit(nu) returns lim_{|t|->inf} Re((nu+it) M(nu+it)) when known
    (None disables the analytic tail append in scans).  Laws with a z^{-1}
    conductivity part keep a reference to their base permittivity in `base`.
    """

    name: str
    eval_fn: object
    poles: np.ndarray
    re_zM_limit: object = None
    re_M_limit: object = None
    base: object = None

    def __call__(self, z):
        return self.eval_fn(z)


def dl_law(p: DrudeLorentzParams) -> ScalarLaw:
    return ScalarLaw(
        name="dl",
        eval_fn=lambda z: eval_dl(z, p),
        poles=p.poles(),
        re_zM_limit=lambda nu: p.eps0 * nu,
        re_M_limit=lambda nu: p.eps0,
    )


def mod_dl_law(p: ModDLParams) -> ScalarLaw:
    alpha_over_r = sum(a / p.r for a, _, _ in p.base.terms)
    return ScalarLaw(
        name="mod_dl",
        eval_fn=lambda z: mod_dl_eval(z, p),
        poles=p.base.poles(),
        re_zM_limit=lambda nu: p.base.eps0 * nu + alpha_over_r,
        re_M_limit=lambda nu: p.base.eps0,
    )


def conductivity_law(eps_law: ScalarLaw, sigma: float) -> ScalarLaw:
    """M(z) = eps(z) + z^{-1} sigma.  Re(z M(z)) = Re(z eps(z)) + sigma."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0:
        return eps_law
    base_limit = eps_law.re_zM_limit
    return ScalarLaw(
        name=eps_law.name + "_sigma",
        eval_fn=lambda z: eps_law(np.asarray(z, dtype=np.complex128))
        + sigma / np.asarray(z, dtype=np.complex128),
        poles=np.concatenate([eps_law.poles, [0.0 + 0.0j]]),
        re_zM_limit=(lambda nu: base_limit(nu) + sigma) if base_limit else None,
        re_M_limit=eps_law.re_M_limit,
        base=eps_law,
    )


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
        if not (self.mu1 > 0 and self.mu2 > 0):
            raise ValueError("mu must be positive in both regions")
        if self.sigma1 < 0 or self.sigma2 < 0:
            raise ValueError("sigma must be nonnegative")

    @property
    def mu_min(self) -> float:
        return min(self.mu1, self.mu2)

    def eps_laws(self):
        l1 = conductivity_law(self.law1, self.sigma1) if self.sigma1 else self.law1
        l2 = conductivity_law(self.law2, self.sigma2) if self.sigma2 else self.law2
        return l1, l2

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
    n_skipped_pole_cells: int
    tail_limit: float | None
    certified: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "condition_id": self.condition_id,
                "nu": self.nu,
                "delta": self.delta_exclusion,
                "c_min": self.c_min,
                "argmin_re": self.argmin.real,
                "argmin_im": self.argmin.imag,
                "grid": self.n_grid,
                "skipped_pole_cells": self.n_skipped_pole_cells,
                "tail_limit": self.tail_limit,
                "certified": self.certified,
            },
            sort_keys=True,
        )


def _scan_points(nu: float, delta: float, t_max: float, n_nu: int, n_t: int,
                 nu_hi: float) -> np.ndarray:
    """Half-plane grid: linear in the abscissa on [-nu, nu_hi], logarithmic in
    |Im z| from delta/10 up to t_max, both signs, plus the real axis."""
    nus = np.linspace(-nu, nu_hi, n_nu)
    t_lo = max(delta / 10.0, t_max * 1e-8)
    ts = np.geomspace(t_lo, t_max, n_t)
    ts = np.concatenate([-ts[::-1], [0.0], ts])
    Z = nus[:, None] + 1j * ts[None, :]
    return Z.ravel()


def hermitian_min(mat: np.ndarray) -> float:
    """lambda_min((B + B*)/2)."""
    h = 0.5 * (mat + mat.conj().T)
    return float(np.linalg.eigvalsh(h)[0])


def accretivity_scan(law, nu: float, delta_exclusion: float = 0.0,
                     t_max: float | None = None, n_nu: int = 21, n_t: int = 400,
                     nu_hi: float | None = None,
                     condition_id: str = "M2",
                     scan_re_M: bool = False) -> AccretivityScan:
    """Scan min over {Re z > -nu} \\ B[0, delta] of Re(z M(z)) (or Re M(z)).

    law is a ScalarLaw or a callable z -> matrix.  Pole-adjacent cells
    (within SCAN_POLE_MARGIN relative distance) are skipped and counted; the
    analytic |Im z| -> infinity limit, when the law declares one, is appended
    so that enlarging t_max can only confirm, never manufacture, a
    certificate.  GridTooCoarse is raised when the minimum sits on a cell
    adjacent to a skipped one (the scan cannot be trusted there).
    """
    scalar = isinstance(law, ScalarLaw) and law.eval_fn is not None
    poles = law.poles if isinstance(law, ScalarLaw) else np.array([])
    if t_max is None:
        pole_scale = max((abs(p) for p in poles), default=1.0)
        t_max = 1e4 * max(pole_scale, 1.0)
    if nu_hi is None:
        nu_hi = max(10.0 * max(nu, delta_exclusion, 1.0), 1.0)

    Z = _scan_points(nu, delta_exclusion, t_max, n_nu, n_t, nu_hi)
    keep = np.abs(Z) > delta_exclusion
    skipped = 0
    if poles.size:
        dist = np.min(np.abs(Z[:, None] - poles[None, :]), axis=1)
        near = dist < SCAN_POLE_MARGIN * np.maximum(np.abs(Z), 1.0)
        skipped = int(np.count_nonzero(near & keep))
        keep &= ~near
    Z = Z[keep]

    if scalar:
        M = law(Z)
        vals = np.real(M) if scan_re_M else np.real(Z * M)
    elif hasattr(law, "herm_min_vec") and not scan_re_M:
        vals = law.herm_min_vec(Z)
    else:
        fn = law if callable(law) else law[1]
        vals = np.empty(Z.shape[0])
        for i, z in enumerate(Z):
            out = fn(z)
            if np.ndim(out) == 0:
                vals[i] = out.real if scan_re_M else (z * out).real
            elif np.ndim(out) == 1:
                # already a pointwise Hermitian-part value
                vals[i] = float(np.min(out))
            else:
                vals[i] = hermitian_min(out if scan_re_M else z * out)

    i_min = int(np.argmin(vals))
    c_min = float(vals[i_min])
    argmin = complex(Z[i_min])

    tail = None
    limit_fn = None
    if isinstance(law, ScalarLaw):
        limit_fn = law.re_M_limit if scan_re_M else law.re_zM_limit
    if limit_fn is not None:
        tail = float(min(limit_fn(s) for s in np.linspace(-nu, nu_hi, n_nu)))
        if tail < c_min:
            c_min = tail
            argmin = complex(np.inf)

    if skipped and poles.size:
        d_argmin = float(np.min(np.abs(argmin - poles))) if np.isfinite(argmin) else np.inf
        if d_argmin < 10.0 * SCAN_POLE_MARGIN * max(abs(argmin), 1.0):
            raise GridTooCoarse(
                f"scan minimum at {argmin} sits next to a skipped pole cell"
            )

    return AccretivityScan(
        condition_id=condition_id,
        nu=nu,
        delta_exclusion=delta_exclusion,
        c_min=c_min,
        argmin=argmin,
        n_grid=int(Z.shape[0]),
        n_skipped_pole_cells=skipped,
        tail_limit=tail,
        certified=c_min > 0.0,
    )


def line_certificate(material: PiecewiseMaterial, rho: float, xi: np.ndarray) -> float:
    """c_min of the full first-order block law diag(eps, mu) on the line."""
    z = rho + 1j * np.asarray(xi)
    l1, l2 = material.eps_laws()
    c = min(float(np.real(z * l1(z)).min()), float(np.real(z * l2(z)).min()))
    return min(c, rho * material.mu_min)


# ---------------------------------------------------------------------------
# Schur-complement effective laws


def schur_effective_law(blocks, split: int):
    """Given blocks(z) -> square matrix, return z -> Schur complement
    B00(z) - B01(z) B11(z)^{-1} B10(z) for the top-left split x split block.

    When Re(z B(z)) >= c on a region, the effective law inherits the same
    Hermitian-part lower bound there.  Raises BlockSingular when B11 cannot
    be inverted reliably.
    """
    from .errors import BlockSingular

    def eval_schur(z):
        B = np.asarray(blocks(z), dtype=np.complex128)
        B00 = B[:split, :split]
        B01 = B[:split, split:]
        B10 = B[split:, :split]
        B11 = B[split:, split:]
        cond = np.linalg.cond(B11)
        if not np.isfinite(cond) or cond > 1e14:
            raise BlockSingular("B11 block", cond)
        return B00 - B01 @ np.linalg.solve(B11, B10)

    return eval_schur
