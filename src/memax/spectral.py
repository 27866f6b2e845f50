"""Per-frequency realization of the linear solution operator.

On the frequency line z_k = rho + i xi_k the first-order system becomes a
family of sparse solves

    (z_k M(z_k) + A) u_hat_k = g_hat_k,
    M(z) = diag(eps(z) per edge, mu per face),   A = [[0, -C], [C0, 0]],

followed by the inverse transform.  When the Hermitian part of z M(z) is
bounded below by c on the line (the scan certificate), the solve inherits
the norm bound |u|_rho <= (1/c)|g|_rho, the operator is causal, and
solutions for data living in two weighted spaces at once coincide.

SolutionOperator is the one frequency loop.  Each bin eliminates H with the
sparse curl pair C = C0^T and C0,

    (z^2 eps(z) + C mu^{-1} C0) E = z g_E + C mu^{-1} g_H,
    H = (g_H - C0 E) / (z mu),

which halves the unknowns.  With data (Phi, Psi) the first line is the
second-order E-field form, so second_order_solve is the E block of this
solve and gets its checks.

The law changes only across the interface plane, so eps is constant along
the two tangential axes, and on the uniform PEC grid the edge system maps
each transverse cavity mode (DST-I/DCT-II along those axes,
operators.transverse_mode_basis) to itself.  It is solved in the edge rows
T_e of that basis, where it is z^2 eps + Chat^T mu^{-1} Chat with Chat the
modal curl T_f C0 T_e^T, which the operators build from 1-D factors; the
product T_e C mu^{-1} C0 T_e^T is never formed.  Neither is T_e: it and its
transpose are applied as dense 1-D contractions along the two tangential
axes of each edge component (operators._mode_transform), on the float view
of the complex data, since the factors are real.  The modal edges are
ordered once by mode label and then by interface coordinate, a gather, so
the system is one narrow band (half-width 3 on the Yee grid, read off the
pattern) and each bin is one LAPACK banded LU.  The modal right-hand sides
are laid out one contiguous row per bin, which LAPACK solves in place.  The
band is built once and each bin only adds its diagonal; the region laws are
evaluated once over the whole line.  The residual, refinement and growth
checks use z M + A in the original basis.

A is real and M(conj z) = conj M(z), so the operator maps real fields to
real fields.  apply() keeps them real: for real weighted samples
g e^{-rho t} it takes the real DFT (rfft), solves bins 0 .. n//2 and returns
irfft(U) e^{rho t}, exactly real.  The transform's unit phase
e^{-i xi t_start} and constant dt / sqrt(2 pi) are left out, because the
inverse undoes both and every per-bin check (residual, refinement, growth,
1/c_min bound, zero-bin skip) is invariant under scaling a bin by a nonzero
scalar.  Any other data is solved on every bin of its full DFT.  The
self-mirrored bins xi = 0 and Nyquist keep the real part of their solve.

Factorizations are reused across right-hand sides at a fixed frequency; the
frequency loop dominates runtime and the fixed-point solvers call the same
factors every iteration.  A one-shot solve keeps none.  The bins are solved
in consecutive blocks bounded in bytes (LINE_BLOCK_BYTES per dofs x bins
working array), in buffers the operator reuses, never in whole-line
bins x dofs temporaries.  A singular frequency is never skipped or
interpolated over: material-law poles on the solve line violate the solution
theory and must surface as PoleHit or FrequencySingular.  On a certified
line (c_min > 0) the theory bounds every bin, |u_k| <= |g_k| / c_min, so a
solve whose growth * c_min exceeds 1 + BOUND_SLACK raises FrequencySingular;
without a certificate the growth * |z| heuristic against COND_LIMIT stands
in.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import zgbtrf, zgbtrs
from scipy.sparse.linalg import splu  # noqa: F401  (bench/tracing.py wraps this name)

from .errors import FrequencySingular, MemaxError
from .materials import PiecewiseMaterial, line_certificate
from .operators import OperatorBundle, _component_modes, _modal_curl, _mode_transform
from .signals import TimeGrid, WeightedSignal, fourier_laplace, weighted_norm

COND_LIMIT = 1e14               # growth * |z| * max(mu, 1) limit without a certificate
BOUND_SLACK = 0.02              # growth * c_min <= 1 + slack on a certified line
FACTOR_CACHE_DOF_LIMIT = 1500   # cache LU factors below this state size
LINE_BLOCK_BYTES = 1 << 20      # bytes of one dofs x bins working array of a line block


def _is_hermitian_spectrum(ghat: np.ndarray, tol: float = 1e-12) -> bool:
    """max_k |g_k - conj g_{-k}| <= tol max |g|; bin 0 is its own mirror."""
    scale = np.abs(ghat).max()
    if scale == 0.0:
        return True
    gap = max(2.0 * np.abs(ghat[0].imag).max(), np.abs(ghat[1:] - ghat[:0:-1].conj()).max(initial=0.0))
    return bool(gap <= tol * scale)


def _column_norms(x: np.ndarray) -> np.ndarray:
    """2-norms of the columns of a complex array, summing re^2 + im^2 over
    its float view (np.linalg.norm would make a conjugate copy)."""
    f = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)
    sq = np.einsum("ij,ij->j", f, f)
    return np.sqrt(sq[0::2] + sq[1::2])


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
        """The solution for one contiguous right-hand side, written over it."""
        return zgbtrs(self.lu, self.kl, self.ku, rhs, self.ipiv, overwrite_b=1)[0]


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
    growth_x_cmin: float = 0.0               # max_growth * c_min_line; 0 without a certificate

    def bound_ok(self, slack: float = BOUND_SLACK) -> bool:
        if self.c_min_line <= 0:
            return True  # no certificate claimed on this line
        return self.norm_ratio <= (1.0 + slack) / self.c_min_line

    def to_dict(self) -> dict:
        return asdict(self)


class SolutionOperator:
    """g -> (z M(z) + A)^{-1} g per frequency, with factor reuse.

    Instances are bound to (bundle, material, rho, grid).  apply_spectral()
    maps a spectral right-hand side array, the full line (n, n_state) or
    the half line (n//2 + 1, n_state), to the solution array of the same
    shape; apply() goes signal to signal, real data to an exactly real
    solution.  A material-law pole on the line raises PoleHit here, at
    construction.

    Bin k eliminates H in the original basis and factors the edge system in
    the mode-sorted rows T_e of the cavity-mode basis: diag(z_k^2 eps(z_k))
    + K2hat, K2hat = Chat^T diag(1/mu) Chat, a band whose half-widths come
    from its pattern.  T_e is held as its 1-D factors, the mode labels and
    the sort permutation, never as a matrix.  Construction checks
    T_e^T K2hat T_e against C mu^{-1} C0, the system actually factored, on
    two seeded vectors, through the same matrix-free transforms the solve
    uses.

    Each bin's factors are kept for later applies below
    FACTOR_CACHE_DOF_LIMIT dofs, unless keep_factors=False: a caller that
    applies the operator once (solve_linear, second_order_solve) says so,
    and every bin then factors into one reused band buffer.  The line is
    solved in blocks whose working arrays the operator allocates on its
    first apply and reuses, so one operator serves one thread.
    """

    def __init__(self, bundle: OperatorBundle, material: PiecewiseMaterial,
                 rho: float, grid: TimeGrid, certificate_required: bool = True, *,
                 keep_factors: bool = True):
        self.bundle = bundle
        self.material = material
        self.rho = rho
        self.grid = grid
        self.z = z = rho + 1j * grid.xi
        self.c_min = line_certificate(material, rho, grid.xi)
        if certificate_required and self.c_min <= 0.0:
            raise ValueError(
                f"no accretivity certificate on the line Re z = {rho} "
                f"(c_min = {self.c_min:.3e}); pass certificate_required=False to override"
            )
        ne = bundle.n_edges
        l1, l2 = material.eps_laws()
        mu = np.where(bundle.face_region_mask(), material.mu1, material.mu2)
        # bin k of z M(z) is diag(lines[k, group] * weight)
        self._lines = np.stack([z * l1(z), z * l2(z), z], axis=1)
        self._group = np.concatenate([np.where(bundle.edge_region_mask(), 0, 1),
                                      np.full(bundle.n_faces, 2)])
        self._weight = np.concatenate([np.ones(ne), mu])
        self._mu = mu
        self._cond_unit = max(abs(material.mu1), abs(material.mu2), 1.0)

        self._modes = _component_modes(bundle.grid, "edge")
        mode = np.concatenate([labels for *_, labels in self._modes])
        coord = bundle.edge_positions[:, bundle.grid.interface_axis - 1]
        self._perm = perm = np.lexsort((coord, mode))
        chat = _modal_curl(bundle.grid)[:, perm]
        k2hat = (chat.T @ sparse.diags(1.0 / mu) @ chat).tocoo()
        K2 = bundle.C @ sparse.diags(1.0 / mu) @ bundle.C0
        x = np.random.default_rng(0).standard_normal((ne, 2))
        gap = np.abs(K2 @ x - self._from_modal((k2hat @ self._to_modal(x).T).T)).max()
        k_max = np.abs(K2.data).max()
        if gap > 1e-12 * k_max * np.abs(x).max():
            raise MemaxError(f"transverse modes couple: the modal system misses C mu^-1 C0 "
                             f"by {gap:.3e} against its max entry {k_max:.3e}")
        offset = k2hat.row - k2hat.col
        kl, ku = int(offset.max(initial=0)), int(-offset.min(initial=0))
        band = np.zeros((2 * kl + ku + 1, ne), dtype=np.complex128)
        np.add.at(band, (kl + ku + offset, k2hat.col), k2hat.data)
        self._band, self._kl, self._ku = band, kl, ku
        self._band_group = self._group[perm]     # region of each sorted modal edge
        self._use_cache = keep_factors and bundle.n_state <= FACTOR_CACHE_DOF_LIMIT
        self._cache: dict = {}
        # without a cache every bin factors in this one buffer
        self._ab = None if self._use_cache else np.empty_like(band, order="F")
        self._work = None   # the block workspace, allocated on the first apply

    @property
    def factor_cache_bytes(self) -> int:
        """Bytes of the banded LU factors the operator holds for reuse."""
        return sum(lu.lu.nbytes for lu in self._cache.values())

    def _to_modal(self, x: np.ndarray) -> np.ndarray:
        """(T_e x)^T for complex edge columns x, which it may overwrite, the
        modal edges in the sorted order: one contiguous row per column."""
        x = np.ascontiguousarray(x, dtype=np.complex128)
        x = _mode_transform(self._modes, x.view(np.float64))
        x = x.view(np.complex128)[self._perm]
        return x.T.copy()

    def _from_modal(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """T_e^T y^T for rows y laid out as _to_modal returns them, written
        into out (C-contiguous edges x columns) when it is given."""
        x = np.empty(y.shape[::-1], dtype=np.complex128) if out is None else out
        x[self._perm] = y.T
        return _mode_transform(self._modes, x.view(np.float64), transpose=True).view(np.complex128)

    def _factor(self, k: int) -> _BandLU:
        """Banded LU of diag(z_k^2 eps(z_k)) + K2hat, the bin-k edge system."""
        if k in self._cache:
            return self._cache[k]
        z = self.z[k]
        if z == 0:
            raise FrequencySingular(0j, np.inf)   # H cannot be eliminated at z = 0
        if self._use_cache:
            ab = np.array(self._band, order="F")
        else:
            ab = self._ab
            ab[...] = self._band
        ab[self._kl + self._ku] += z * self._lines[k, self._band_group]
        try:
            lu = _band_lu(ab, self._kl, self._ku)
        except np.linalg.LinAlgError as exc:
            raise FrequencySingular(complex(z), np.inf) from exc
        if self._use_cache:
            self._cache[k] = lu
        return lu

    def _solve(self, ks: np.ndarray, d: np.ndarray, g: np.ndarray, u: np.ndarray) -> np.ndarray:
        """u = (diag(d) + A)^{-1} g, one column per bin ks, written into u
        (C-contiguous, apart from g and d): E from the modal edge system,
        then H = (g_H - C0 E) / (z mu) in the original basis."""
        ne = self.bundle.n_edges
        E, H = u[:ne], u[ne:]
        np.divide(g[ne:], self._mu[:, None], out=H)
        np.multiply(self.z[ks], g[:ne], out=E)
        E += self.bundle.C @ H
        rhs = self._to_modal(E)
        for j, k in enumerate(ks):
            rhs[j] = self._factor(k).solve(rhs[j])
        self._from_modal(rhs, out=E)
        np.subtract(g[ne:], self.bundle.C0 @ E, out=H)
        H /= d[ne:]
        return u

    def _residual(self, d: np.ndarray, u: np.ndarray, g: np.ndarray, out: np.ndarray) -> np.ndarray:
        """g - (diag(d) + A) u, one column per bin, written into out."""
        np.multiply(d, u, out=out)
        out += self.bundle.A @ u
        return np.subtract(g, out, out=out)

    def _workspace(self, m: int) -> list:
        """Data, diagonal, solution and residual of an m-bin block: dofs x m
        C-contiguous views of the operator's buffers, grown when m needs it."""
        size = self.bundle.n_state * m
        if self._work is None or self._work.shape[1] < size:
            self._work = np.empty((4, size), dtype=np.complex128)
        return [w[:size].reshape(-1, m) for w in self._work]

    def _solve_block(self, ks: np.ndarray, gk: np.ndarray, half: bool):
        """Solve the bins ks, whose data are the rows of gk, in the workspace.

        Returns the solution (a workspace view, one column per bin), the
        relative residual and growth per bin and the number of refined bins.
        A bin whose solve the certificate (or the conditioning heuristic)
        rejects raises FrequencySingular, the first such bin in ks.
        """
        n = self.z.size
        g, d, u, r = self._workspace(ks.size)
        np.copyto(g, gk.T)
        np.take(self._lines[ks].T, self._group, axis=0, out=d, mode="clip")   # "raise" would buffer
        d *= self._weight[:, None]
        self._solve(ks, d, g, u)
        gn = _column_norms(g)
        first = _column_norms(u)
        res = _column_norms(self._residual(d, u, g, r)) / gn
        refine = np.flatnonzero(res > 1e-10)
        if refine.size:
            # one step of iterative refinement before giving up
            du = np.empty((u.shape[0], refine.size), dtype=np.complex128)
            u[:, refine] += self._solve(ks[refine], d[:, refine], r[:, refine], du)
            res[refine] = _column_norms(
                self._residual(d[:, refine], u[:, refine], g[:, refine], du)) / gn[refine]
        if half:
            mirror = (2 * ks) % n == 0
            u[:, mirror] = u[:, mirror].real   # xi = 0 and Nyquist are their own mirror
        un = _column_norms(u)
        growth = un / gn
        if self.c_min > 0:
            # the certificate bounds every solve, the unrefined one included
            limit = np.maximum(first, un) / gn * self.c_min
            faulty = limit > 1.0 + BOUND_SLACK
        else:
            limit = growth * np.abs(self.z[ks]) * self._cond_unit
            faulty = limit > COND_LIMIT
        bad = np.flatnonzero(faulty | ~np.isfinite(un))
        if bad.size:
            raise FrequencySingular(complex(self.z[ks[bad[0]]]), float(limit[bad[0]]))
        return u, res, growth, refine.size

    def apply_spectral(self, ghat: np.ndarray, collect: dict | None = None) -> np.ndarray:
        """Solve on the line, one row of ghat per bin; ghat is not modified.

        A full spectrum has n rows, bins in FFT order, and the result has
        the same shape.  A conjugate-symmetric one (real time data) has a
        conjugate-symmetric solution, because A is real and
        M(conj z) = conj M(z): only bins 0 .. n//2 are solved and bin -k is
        conj(u_k).  Any other full spectrum is solved on every bin.  A half
        spectrum has n//2 + 1 rows, bins 0 .. n//2 of real data (rfft
        order); they are solved and returned as they are, not mirrored.  In
        both symmetric cases the self-mirrored bins xi = 0 and Nyquist keep
        the real part of their solve.

        The nonzero bins are solved in consecutive blocks, each the columns
        of dofs x bins arrays of at most LINE_BLOCK_BYTES (one bin at least),
        so the sparse products read contiguous rows.  The arrays belong to
        the operator and are reused by every block and every apply.  The
        transforms, residuals, the one refinement step and the checks run
        per block; a check that fails raises for the first such bin in bin
        order.  collect receives the maxima over all blocks.  Without the
        factor cache, a bin that needs refinement is factored again.
        """
        n = self.z.size
        if ghat.shape[0] not in (n, n // 2 + 1):
            raise ValueError(f"spectrum has {ghat.shape[0]} rows; "
                             f"expected {n} bins or the half line's {n // 2 + 1}")
        full = ghat.shape[0] == n
        half = not full or _is_hermitian_spectrum(ghat)
        ks = np.flatnonzero(np.any(ghat[:n // 2 + 1 if half else n], axis=1))
        out = np.zeros(ghat.shape, dtype=np.complex128)
        res, growth = np.empty(ks.size), np.empty(ks.size)
        refined = 0
        step = max(1, LINE_BLOCK_BYTES // (16 * self.bundle.n_state))
        for b in range(0, ks.size, step):
            kb = ks[b:b + step]
            # consecutive bins are read and written through a view
            rows = slice(kb[0], kb[-1] + 1) if kb[-1] - kb[0] < kb.size else kb
            u, res[b:b + step], growth[b:b + step], m = self._solve_block(kb, ghat[rows], half)
            out[rows] = u.T
            refined += m
        if half and full:
            k = np.arange(1, (n + 1) // 2)
            out[n - k] = out[k].conj()
        if collect is not None and ks.size:
            collect["max_rel_residual"] = res.max()
            collect["max_growth"] = growth.max()
            collect["refined_bins"] = refined
            collect["worst_residual_z"] = _pair(self.z[ks[np.argmax(res)]])
            collect["worst_growth_z"] = _pair(self.z[ks[np.argmax(growth)]])
        return out

    def apply(self, g: WeightedSignal, collect: dict | None = None) -> WeightedSignal:
        """Signal to signal on the plain DFT of w = g e^{-rho t}.

        Real w (imaginary part at most 1e-12 of max |w|, the tolerance of
        _is_hermitian_spectrum) goes through rfft, the half line and irfft,
        so the solution is exactly real; any other w through fft and ifft
        on every bin.  The unit phase and the constant of fourier_laplace
        are left out: the inverse would undo both, and no per-bin check
        sees a nonzero scale.  Exactly real g is weighted in real
        arithmetic, and irfft writes into the real part of the array the
        returned signal adopts, so no complex temporary is made.
        """
        n, t = self.grid.n_samples, self.grid.times
        decay = np.exp(-self.rho * t)[:, None]
        if not g.values.imag.any():
            w = g.values.real * decay          # exactly real: no complex product
        else:
            w = g.values * decay
            im = np.abs(w.imag).max(initial=0.0)
            if not (im == 0.0 or im <= 1e-12 * np.abs(w).max()):
                np.fft.fft(w, axis=0, out=w)
                w = self.apply_spectral(w, collect)
                np.fft.ifft(w, axis=0, out=w)
                w *= np.exp(self.rho * t)[:, None]
                return WeightedSignal._adopt(self.grid, self.rho, w, g.wrap_tol)
            w = w.real
        w = np.fft.rfft(w, axis=0)
        w = self.apply_spectral(w, collect)
        u = np.zeros(g.values.shape, dtype=np.complex128)
        real = u.real
        np.fft.irfft(w, n, axis=0, out=real)
        del w   # free the spectrum before the strided scaling buffers its operands
        real *= np.exp(self.rho * t)[:, None]
        return WeightedSignal._adopt(self.grid, self.rho, u, g.wrap_tol)


def solve_linear(problem: LinearProblem, certificate_required: bool = True):
    """Solve the first-order system; returns (u, SolveReport)."""
    g = problem.rhs
    if problem.check_wraparound:
        g.check_wraparound()
    op = SolutionOperator(problem.bundle, problem.material, problem.rho, g.grid,
                          certificate_required=certificate_required, keep_factors=False)
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
        growth_x_cmin=stats.get("max_growth", 0.0) * max(op.c_min, 0.0),
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
    """Solve the E-field second-order formulation per frequency.

    Eliminating H from the first-order system with data (Phi, Psi) gives
    exactly this system, so E is the edge block of the first-order solve,
    with its residual and growth checks; certificate_required is as for
    SolutionOperator.
    """
    b = problem.bundle
    linear = LinearProblem(b, problem.material, problem.rho,
                           stack_rhs(b, problem.phi, problem.psi), check_wraparound=False)
    op = SolutionOperator(b, linear.material, linear.rho, linear.rhs.grid, certificate_required,
                          keep_factors=False)
    u = op.apply(linear.rhs)
    return u.with_values(u.values[:, :b.n_edges])


def stack_rhs(bundle: OperatorBundle, phi: WeightedSignal, psi: WeightedSignal) -> WeightedSignal:
    """Combine (Phi, Psi) block signals into one (E,H)-state right-hand side."""
    phi._check_compatible(psi)
    if phi.state_dim != bundle.n_edges or psi.state_dim != bundle.n_faces:
        raise ValueError("Phi/Psi dimensions do not match the bundle")
    return phi.with_values(np.concatenate([phi.values, psi.values], axis=1))
