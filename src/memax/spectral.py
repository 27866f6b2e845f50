"""Per-frequency realization of the linear solution operator.

On the frequency line z_k = rho + i xi_k the first-order system becomes a
family of sparse solves

    (z_k M(z_k) + A) u_hat_k = g_hat_k,
    M(z) = diag(eps(z) per edge, mu per face),

followed by the inverse transform.  When the Hermitian part of z M(z) is
bounded below by c on the line (the scan certificate), the solve inherits
the norm bound |u|_rho <= (1/c)|g|_rho, the operator is causal, and
solutions for data living in two weighted spaces at once coincide.

One frequency loop serves this system and the second-order E-field form
(z^2 eps(z) + C mu^{-1} C0) E_hat = g_hat.  Both are diag(d_k) + K with a
fixed K.  The law changes only across the interface plane, so d_k is
constant along the two tangential axes, and on the uniform PEC grid K maps
each transverse cavity mode (DST-I/DCT-II along those axes,
operators.transverse_mode_basis) to itself.  Each bin is therefore solved
in the modal basis, where the system is block-diagonal by transverse mode;
data goes in as T g and the solution comes out as T^T u_hat.  The modal
system comes from the modal curl T_f C0 T_e^T, which the operators build
from 1-D factors; T K T^T is never formed.

Both orders factor the same edge system, z^2 eps(z) + Chat^T mu^{-1} Chat:
the first-order solve eliminates H,

    (z^2 eps + Chat^T mu^{-1} Chat) E = z g_E + Chat^T mu^{-1} g_H,
    H = (g_H - Chat E) / (z mu),

which halves the unknowns and the bandwidth.  The modal edges are ordered
once by mode label and then by interface coordinate, so the system is one
narrow band (half-width 3 on the Yee grid, read off the pattern) and each
bin is one LAPACK banded LU.  The residual, refinement and growth checks use
the original matrix.  The band is built once and each bin only adds its
diagonal.  The region laws are evaluated once over the whole line.

A is real and M(conj z) = conj M(z), so real time data (a
conjugate-symmetric spectrum) has a conjugate-symmetric solution: only bins
0 .. n//2 are factored and solved, and bin -k is filled with conj(u_k).  The
self-mirrored bins xi = 0 and Nyquist keep the real part of their solve; at
Nyquist this removes the asymmetry that the e^{rho t} unweighting would
otherwise amplify.  Any other spectrum is solved on every bin.

Factorizations are reused across right-hand sides at a fixed frequency; the
frequency loop dominates runtime and the fixed-point solvers call the same
factors every iteration.  A singular frequency is never skipped or
interpolated over: material-law poles on the solve line violate the solution
theory and must surface as PoleHit or FrequencySingular.  On a certified
line (c_min > 0) the theory bounds every bin, |u_k| <= |g_k| / c_min, so a
solve whose growth * c_min exceeds 1 + BOUND_SLACK raises FrequencySingular;
without a certificate, and for the second-order form, the growth * |z|
heuristic against COND_LIMIT stands in.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import zgbtrf, zgbtrs
from scipy.sparse.linalg import splu  # noqa: F401  (bench/tracing.py wraps this name)

from .errors import FrequencySingular, MemaxError
from .materials import PiecewiseMaterial, line_certificate
from .operators import OperatorBundle, _modal_curl, transverse_mode_basis
from .signals import (
    SpectralSignal,
    TimeGrid,
    WeightedSignal,
    fourier_laplace,
    inverse_fourier_laplace,
    weighted_norm,
)

COND_LIMIT = 1e14               # growth * |z| * max(mu, 1) limit without a certificate
BOUND_SLACK = 0.02              # growth * c_min <= 1 + slack on a certified line
FACTOR_CACHE_DOF_LIMIT = 1500   # cache LU factors below this state size


def _is_hermitian_spectrum(ghat: np.ndarray, tol: float = 1e-12) -> bool:
    n = ghat.shape[0]
    mirror = ghat[(-np.arange(n)) % n]
    scale = np.abs(ghat).max()
    if scale == 0.0:
        return True
    return bool(np.abs(ghat - mirror.conj()).max() <= tol * scale)


@dataclass(frozen=True)
class _BandLU:
    """Banded LU factors and pivots of one bin's edge system (zgbtrf)."""

    lu: np.ndarray
    ipiv: np.ndarray
    kl: int
    ku: int

    @property
    def nnz(self) -> int:
        return self.lu.size   # stored band entries, pivoting fill included

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return zgbtrs(self.lu, self.kl, self.ku, rhs, self.ipiv)[0]


def _band_lu(ab: np.ndarray, kl: int, ku: int) -> _BandLU:
    """LAPACK banded LU of ab, overwritten.

    ab holds the matrix in rows kl .. 2 kl + ku, ab[kl + ku + i - j, j] =
    a_ij; its first kl rows take the fill of row pivoting.  An exactly zero
    pivot raises LinAlgError.
    """
    lu, ipiv, info = zgbtrf(ab, kl, ku, overwrite_ab=1)
    if info < 0:
        raise ValueError(f"zgbtrf: argument {-info} is invalid")
    if info > 0:
        raise np.linalg.LinAlgError(f"zgbtrf: pivot {info} is exactly zero")
    return _BandLU(lu, ipiv, kl, ku)


class _FrequencyLine:
    """The frequency loop shared by the first- and second-order solves.

    order=1 is (z M(z) + A) on the (E, H) state, order=2 is
    (z^2 eps(z) + C mu^{-1} C0) on the edges.  Both are diag(d_k) + K with
    d_k = lines[k, group] * weight, where each column of lines is one
    coefficient evaluated over the whole line.  d_k is constant per component
    and interface layer, so in the transverse cavity-mode basis T the system
    is diag(d_k) + Khat, block-diagonal by mode.  Khat = T K T^T is
    [[0, -Chat^T], [Chat, 0]] for order 1 and Chat^T diag(1/mu) Chat for
    order 2 (mu commutes with T_f), Chat the modal curl; construction checks
    it against K on two seeded vectors.

    The rows of T for the edges are ordered by mode label and then by
    interface coordinate, which makes K2hat = Chat^T diag(1/mu) Chat a band
    whose half-widths come from its pattern.  Each bin factors the edge
    system diag(e_k) + K2hat by one banded LU, with e_k = z d_k on the edges
    for order 1 (where the face part of d_k is z mu and H is eliminated) and
    e_k = d_k for order 2.  Its checks (residual, refinement, growth) use
    diag(d_k) + K in the original basis.
    """

    def __init__(self, bundle: OperatorBundle, material: PiecewiseMaterial,
                 z: np.ndarray, order: int, cache: bool, c_min: float = 0.0):
        l1, l2 = material.eps_laws()
        zp = z if order == 1 else z * z
        lines = [zp * l1(z), zp * l2(z)]
        group = np.where(bundle.edge_region_mask(), 0, 1)
        weight = np.ones(bundle.n_edges)
        mu = np.where(bundle.face_region_mask(), material.mu1, material.mu2)
        ne = bundle.n_edges
        T, mode = transverse_mode_basis(bundle)
        coord = bundle.edge_positions[:, bundle.grid.interface_axis - 1]
        perm = np.lexsort((coord, mode[:ne]))
        chat = _modal_curl(bundle.grid)[:, perm]
        k2hat = (chat.T @ sparse.diags(1.0 / mu) @ chat).tocoo()
        if order == 1:
            K = bundle.A
            Khat = sparse.bmat([[None, -chat.T], [chat, None]])
            T = T[np.concatenate([perm, np.arange(ne, bundle.n_state)])]
            lines.append(z)
            group = np.concatenate([group, np.full(bundle.n_faces, 2)])
            weight = np.concatenate([weight, mu])
        else:
            K = bundle.C @ sparse.diags(1.0 / mu) @ bundle.C0
            Khat = k2hat
            T = T[perm, :ne]
        self.z = z
        self._order = order
        self._lines = np.stack(lines, axis=1)
        self._group = group
        self._weight = weight
        self._cond_unit = max(abs(material.mu1), abs(material.mu2), 1.0)
        self._c_min = c_min
        self._K = K
        self._T = T
        self._Tt = T.T.tocsr()
        self._perm = perm
        self._chat = chat
        self._mu = mu

        x = np.random.default_rng(0).standard_normal((K.shape[0], 2))
        gap = np.abs(K @ x - self._Tt @ (Khat @ (T @ x))).max()
        k_max = np.abs(K.data).max()
        if gap > 1e-12 * k_max * np.abs(x).max():
            raise MemaxError(f"transverse modes couple: the modal system misses K by {gap:.3e} "
                             f"against max |K| {k_max:.3e}")
        offset = k2hat.row - k2hat.col
        kl, ku = int(offset.max(initial=0)), int(-offset.min(initial=0))
        band = np.zeros((2 * kl + ku + 1, ne), dtype=np.complex128)
        np.add.at(band, (kl + ku + offset, k2hat.col), k2hat.data)
        self._band, self._kl, self._ku = band, kl, ku
        self._use_cache = cache
        self._cache: dict = {}

    def _factor(self, k: int, e: np.ndarray) -> _BandLU:
        """Banded LU of diag(e) + K2hat, the bin-k edge system."""
        if self._use_cache and k in self._cache:
            return self._cache[k]
        if self._order == 1 and self.z[k] == 0:
            raise FrequencySingular(0j, np.inf)   # H cannot be eliminated at z = 0
        ab = self._band.copy()
        ab[self._kl + self._ku] += e
        try:
            lu = _band_lu(ab, self._kl, self._ku)
        except np.linalg.LinAlgError as exc:
            raise FrequencySingular(complex(self.z[k]), np.inf) from exc
        if self._use_cache:
            self._cache[k] = lu
        return lu

    def _solve_modal(self, ks: np.ndarray, d: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Solve diag(d) + Khat for the modal right-hand sides g, one row per bin ks."""
        ne = self._band.shape[1]
        e = d[:, self._perm]
        if self._order == 1:
            z = self.z[ks, None]
            e = z * e
            rhs = z * g[:, :ne] + (self._chat.T @ (g[:, ne:] / self._mu).T).T
        else:
            rhs = g
        out = np.empty(rhs.shape, dtype=np.complex128)
        for j, k in enumerate(ks):
            out[j] = self._factor(k, e[j]).solve(rhs[j])
        if self._order == 1:
            h = (g[:, ne:] - (self._chat @ out.T).T) / d[:, ne:]
            out = np.concatenate([out, h], axis=1)
        return out

    def _apply(self, d: np.ndarray, u: np.ndarray) -> np.ndarray:
        """(diag(d) + K) u in the original basis, one row of u per bin."""
        return d * u + (self._K @ u.T).T

    def solve(self, ghat: np.ndarray, half: bool, collect: dict | None = None) -> np.ndarray:
        """Solve bins 0 .. n//2 and mirror them (half=True), or every bin.

        The transforms, residuals and checks run over all solved bins at
        once; a check that fails raises for the first such bin.  Without the
        factor cache, a bin that needs refinement is factored again.
        """
        n_freq = ghat.shape[0]
        out = np.zeros(ghat.shape, dtype=np.complex128)
        ks = np.arange(n_freq // 2 + 1 if half else n_freq)
        ks = ks[np.any(ghat[ks], axis=1)]
        g = ghat[ks]
        d = self._lines[ks][:, self._group] * self._weight
        u = (self._Tt @ self._solve_modal(ks, d, (self._T @ g.T).T).T).T
        gn = np.linalg.norm(g, axis=1)
        first = np.linalg.norm(u, axis=1)
        r = g - self._apply(d, u)
        res = np.linalg.norm(r, axis=1) / gn
        refine = np.flatnonzero(res > 1e-10)
        if refine.size:
            # one step of iterative refinement before giving up
            rm = (self._T @ r[refine].T).T
            u[refine] += (self._Tt @ self._solve_modal(ks[refine], d[refine], rm).T).T
            res[refine] = np.linalg.norm(g[refine] - self._apply(d[refine], u[refine]),
                                         axis=1) / gn[refine]
        if half:
            mirror = (2 * ks) % n_freq == 0
            u[mirror] = u[mirror].real   # xi = 0 and Nyquist are their own mirror
        un = np.linalg.norm(u, axis=1)
        growth = un / gn
        if self._c_min > 0:
            # the certificate bounds every solve, the unrefined one included
            limit = np.maximum(first, un) / gn * self._c_min
            faulty = limit > 1.0 + BOUND_SLACK
        else:
            limit = growth * np.abs(self.z[ks]) * self._cond_unit
            faulty = limit > COND_LIMIT
        bad = np.flatnonzero(faulty | ~np.isfinite(un))
        if bad.size:
            raise FrequencySingular(complex(self.z[ks[bad[0]]]), float(limit[bad[0]]))
        out[ks] = u
        if half:
            k = np.arange(1, (n_freq + 1) // 2)
            out[n_freq - k] = out[k].conj()
        if collect is not None and ks.size:
            collect["max_rel_residual"] = res.max()
            collect["max_growth"] = growth.max()
            collect["refined_bins"] = refine.size
            collect["worst_residual_z"] = _pair(self.z[ks[np.argmax(res)]])
            collect["worst_growth_z"] = _pair(self.z[ks[np.argmax(growth)]])
        return out


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


@dataclass(frozen=True)
class LinearProblem:
    """One linear forward or stability solve: operators, law, weight, data."""

    bundle: OperatorBundle
    material: PiecewiseMaterial
    rho: float
    rhs: WeightedSignal
    check_wraparound: bool = True

    def __post_init__(self):
        if self.rhs.state_dim != self.bundle.n_state:
            raise ValueError(
                f"rhs state_dim {self.rhs.state_dim} != bundle dofs {self.bundle.n_state}"
            )
        if self.rhs.rho != self.rho:
            raise ValueError("rhs weight differs from the solve weight")


@dataclass
class SolveReport:
    """Certificate-facing record of one linear solve."""

    rho: float
    c_min_line: float
    norm_ratio: float
    max_rel_residual: float
    max_growth: float
    wraparound_residual: float
    causality_margin: float | None = None
    refined_bins: int = 0                    # bins that took a refinement step
    worst_residual_z: list | None = None     # [re, im] of the largest final residual
    worst_growth_z: list | None = None       # [re, im] of the largest |u_k| / |g_k|

    def bound_ok(self, slack: float = BOUND_SLACK) -> bool:
        if self.c_min_line <= 0:
            return True  # no certificate claimed on this line
        return self.norm_ratio <= (1.0 + slack) / self.c_min_line

    def to_dict(self) -> dict:
        return asdict(self)


class SolutionOperator:
    """g -> (z M(z) + A)^{-1} g per frequency, with factor reuse.

    Instances are bound to (bundle, material, rho, grid).  apply_spectral()
    maps a spectral right-hand side array (n_freq, n_state) to the solution
    array; apply() goes signal to signal.  A material-law pole on the line
    raises PoleHit here, at construction.
    """

    def __init__(self, bundle: OperatorBundle, material: PiecewiseMaterial,
                 rho: float, grid: TimeGrid, certificate_required: bool = True):
        self.bundle = bundle
        self.material = material
        self.rho = rho
        self.grid = grid
        self.z = rho + 1j * grid.xi
        self.c_min = line_certificate(material, rho, grid.xi)
        if certificate_required and self.c_min <= 0.0:
            raise ValueError(
                f"no accretivity certificate on the line Re z = {rho} "
                f"(c_min = {self.c_min:.3e}); pass certificate_required=False to override"
            )
        self._line = _FrequencyLine(bundle, material, self.z, order=1,
                                    cache=bundle.n_state <= FACTOR_CACHE_DOF_LIMIT,
                                    c_min=self.c_min)

    def apply_spectral(self, ghat: np.ndarray, collect: dict | None = None) -> np.ndarray:
        """Solve on the line; ghat and result have shape (n_freq, n_state).

        A conjugate-symmetric spectrum (real time data) has a
        conjugate-symmetric solution, because A is real and
        M(conj z) = conj M(z).  For such input only bins 0 .. n//2 are
        solved, bin -k is conj(u_k), and the self-mirrored bins xi = 0 and
        Nyquist keep the real part of their solve.  Any other input is
        solved on every bin.
        """
        return self._line.solve(ghat, _is_hermitian_spectrum(ghat), collect)

    def apply(self, g: WeightedSignal, collect: dict | None = None) -> WeightedSignal:
        G = fourier_laplace(g, check=False)
        U = self.apply_spectral(G.values, collect)
        return inverse_fourier_laplace(SpectralSignal(self.grid, self.rho, U, g.wrap_tol))


def solve_linear(problem: LinearProblem, certificate_required: bool = True):
    """Solve the first-order system; returns (u, SolveReport)."""
    g = problem.rhs
    if problem.check_wraparound:
        g.check_wraparound()
    op = SolutionOperator(problem.bundle, problem.material, problem.rho, g.grid,
                          certificate_required=certificate_required)
    stats: dict = {}
    u = op.apply(g, collect=stats)
    gn = weighted_norm(g)
    un = weighted_norm(u)
    report = SolveReport(
        rho=problem.rho,
        c_min_line=op.c_min,
        norm_ratio=(un / gn if gn > 0 else 0.0),
        max_rel_residual=stats.get("max_rel_residual", 0.0),
        max_growth=stats.get("max_growth", 0.0),
        wraparound_residual=u.wraparound_measure(),
        refined_bins=stats.get("refined_bins", 0),
        worst_residual_z=stats.get("worst_residual_z"),
        worst_growth_z=stats.get("worst_growth_z"),
    )
    return u, report


def verify_causality(problem: LinearProblem, a: float) -> float:
    """Pre-support mass of the response to data supported in [a, inf).

    Returns max |u(t)| over t < a relative to the peak; the solution operator
    is causal, so the margin measures only windowing artifacts.
    """
    u, _ = solve_linear(problem)
    mags = np.abs(u.values).max(axis=1)
    peak = mags.max()
    if peak == 0.0:
        return 0.0
    before = mags[u.times < a - 0.5 * u.grid.dt]
    return float(before.max() / peak) if before.size else 0.0


def verify_rho_independence(problem: LinearProblem, rho1: float, rho2: float,
                            t_hi: float | None = None) -> float:
    """Relative L2 gap between solves at two admissible weights.

    The data must genuinely live in both weighted spaces on the window;
    compactly supported data does.  The gap is plain (unweighted) L2 on the
    common window up to t_hi.  The final stretch of the window is excluded by
    default: there the unweighting e^{rho t} amplifies the representation
    floor past any fixed tolerance, so no reconstruction is trustworthy in
    unweighted terms (the weighted solutions themselves agree).
    """
    g = problem.rhs
    g1 = WeightedSignal(g.grid, rho1, g.values, g.wrap_tol)
    g2 = WeightedSignal(g.grid, rho2, g.values, g.wrap_tol)
    u1, _ = solve_linear(LinearProblem(problem.bundle, problem.material, rho1, g1))
    u2, _ = solve_linear(LinearProblem(problem.bundle, problem.material, rho2, g2))
    if t_hi is None:
        t_hi = g.grid.t_end - 0.25 * (g.grid.t_end - g.grid.t_start)
    keep = g.times <= t_hi
    num = np.linalg.norm(u1.values[keep] - u2.values[keep])
    den = max(np.linalg.norm(u1.values[keep]), np.linalg.norm(u2.values[keep]))
    return float(num / den) if den > 0 else 0.0


def verify_time_regularity(problem: LinearProblem) -> float:
    """Gap between solve(d/dt g) and d/dt solve(g), both spectral derivatives."""
    g = problem.rhs
    G = fourier_laplace(g, check=False)
    op = SolutionOperator(problem.bundle, problem.material, problem.rho, g.grid)
    zcol = op.z[:, None]
    u_of_dg = op.apply_spectral(G.values * zcol)
    du = op.apply_spectral(G.values) * zcol
    num = np.linalg.norm(u_of_dg - du)
    den = max(np.linalg.norm(du), 1e-300)
    return float(num / den)


@dataclass(frozen=True)
class SecondOrderProblem:
    """E-field wave form: (z^2 eps(z) + C mu^{-1} C0) E_hat = g_hat.

    The right-hand side is z Phi_hat + C mu^{-1} Psi_hat, so Phi, Psi must be
    once differentiable in time on the grid for the data to be admissible.
    """

    bundle: OperatorBundle
    material: PiecewiseMaterial
    rho: float
    phi: WeightedSignal
    psi: WeightedSignal


def second_order_solve(problem: SecondOrderProblem,
                       certificate_required: bool = True) -> WeightedSignal:
    """Solve the E-field second-order formulation per frequency."""
    b = problem.bundle
    m = problem.material
    mu = np.where(b.face_region_mask(), m.mu1, m.mu2)
    Phi = fourier_laplace(problem.phi, check=False).values
    Psi = fourier_laplace(problem.psi, check=False).values
    z = problem.rho + 1j * problem.phi.grid.xi
    ghat = z[:, None] * Phi + (b.C @ sparse.diags(1.0 / mu) @ Psi.T).T
    half = _is_hermitian_spectrum(Phi) and _is_hermitian_spectrum(Psi)
    out = _FrequencyLine(b, m, z, order=2, cache=False).solve(ghat, half)
    spec = SpectralSignal(problem.phi.grid, problem.rho, out, problem.phi.wrap_tol)
    return inverse_fourier_laplace(spec)


def stack_rhs(bundle: OperatorBundle, phi: WeightedSignal, psi: WeightedSignal) -> WeightedSignal:
    """Combine (Phi, Psi) block signals into one (E,H)-state right-hand side."""
    phi._check_compatible(psi)
    if phi.state_dim != bundle.n_edges or psi.state_dim != bundle.n_faces:
        raise ValueError("Phi/Psi dimensions do not match the bundle")
    return phi.with_values(np.concatenate([phi.values, psi.values], axis=1))
