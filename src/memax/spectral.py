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

which halves the unknowns; with data (Phi, Psi) the first line is the
second-order E-field form.  The law changes only across the interface
plane, so each transverse cavity mode maps to itself, and ModalReduction
splits the edge system into tridiagonal systems along the interface axis,
one record per (bundle, mu) that every operator on them shares, solved for
a block of bins at once by Thomas sweeps without pivoting: on a certified
line every pivot has |p| >= |z| c_min (Golub & Van Loan, Linear Algebra
Appl. 28, 1979); the checks use z M + A in the original basis.

A is real and M(conj z) = conj M(z), so real fields map to real fields:
apply() solves real data on the rfft half line of the transform pair of
memax.signals, and every per-bin check is invariant under the scaling the
pair leaves out.  An operator keeps its first bins' factors, one sweep,
for the next iterations of the fixed-point solvers (a one-shot solve
keeps none), and solves the bins in byte-bounded blocks, in buffers it
reuses, writing each block's solution over its data in the spectrum.

A singular frequency is never skipped: material-law poles on the line
surface as PoleHit or FrequencySingular.  On a certified line (c_min > 0)
a solve whose growth * c_min exceeds 1 + BOUND_SLACK raises
FrequencySingular (|u_k| <= |g_k| / c_min in theory); without a
certificate the growth * |z| heuristic against COND_LIMIT stands in.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .errors import FrequencySingular, MemaxError, UncertifiedLine, WraparoundExceeded
from .materials import PiecewiseMaterial
from .operators import OperatorBundle, _component_modes, _mode_transform
from .signals import (LINE_BLOCK_BYTES, TimeGrid, WeightedSignal, _from_line, _to_line,
                      _wraparound_and_norm)

COND_LIMIT = 1e14               # growth * |z| * max(mu, 1) limit without a certificate
BOUND_SLACK = 0.02              # growth * c_min <= 1 + slack on a certified line
FACTOR_CACHE_BYTES = 1 << 27    # bytes of line factors an operator keeps for reuse


def __getattr__(name):
    # bench/tracing.py wraps spectral.splu, loaded on first access; ROADMAP item 5 drops both
    if name == "splu":
        from scipy.sparse.linalg import splu
        return globals().setdefault("splu", splu)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _column_norms(x: np.ndarray) -> np.ndarray:
    """2-norms of the columns of a complex array, summing re^2 + im^2 over
    its float view (np.linalg.norm would make a conjugate copy)."""
    f = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)
    sq = np.einsum("ij,ij->j", f, f)
    return np.sqrt(sq[0::2] + sq[1::2])


def _real_times(M: sparse.csr_matrix, x: np.ndarray) -> np.ndarray:
    """M @ x for a real sparse M and complex x, through the float view of x
    (C-contiguous, copied if it is not): the bytes of the complex product,
    for which scipy would cast M to complex, in about two thirds of its time."""
    return (M @ np.ascontiguousarray(x).view(np.float64)).view(np.complex128)


class _LineFactors(NamedTuple):
    """Thomas factors of a block of bins' edge systems, bins on the last axis."""

    ks: np.ndarray      # the bins
    q: np.ndarray       # reciprocal pivots, systems x m x bins
    e: np.ndarray       # TM off-diagonals, F x (m - 1) x bins
    dn: np.ndarray      # reciprocal E_n diagonals, F x (m + 1) x bins

    @property
    def nbytes(self) -> int:
        return self.q.nbytes + self.e.nbytes + self.dn.nbytes


def _run(ks: np.ndarray):
    """A slice for ascending consecutive indices ks, so reads through it are views; else ks."""
    return slice(ks[0], ks[-1] + 1) if ks[-1] - ks[0] < ks.size else ks


def _columns(fac: _LineFactors, cols: np.ndarray) -> _LineFactors:
    """The factors of the columns cols (ascending) of fac, as views when they are consecutive."""
    return _LineFactors(*(a[..., _run(cols)] for a in fac))


def _thomas_pivots(d: np.ndarray, e: np.ndarray):
    """LDL^T of symmetric tridiagonal systems, diagonals d (systems x m x bins, overwritten by
    the reciprocal pivots) and off-diagonals e; a zero pivot leaves non-finite entries."""
    np.divide(1.0, d[:, 0], out=d[:, 0])
    for j in range(1, d.shape[1]):
        d[:, j] -= e[:, j - 1] * e[:, j - 1] * d[:, j - 1]
        np.divide(1.0, d[:, j], out=d[:, j])


def _thomas_solve(q: np.ndarray, e: np.ndarray, w: np.ndarray):
    """w <- the solution for right-hand sides w, from the factors (q, e) of _thomas_pivots."""
    for j in range(1, w.shape[1]):
        w[:, j] -= e[:, j - 1] * q[:, j - 1] * w[:, j - 1]
    w[:, -1] *= q[:, -1]
    for j in range(w.shape[1] - 2, -1, -1):
        w[:, j] = q[:, j] * (w[:, j] - e[:, j] * w[:, j + 1])


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


class ModalReduction:
    """C mu^{-1} C0 in the transverse cavity modes (DST-I/DCT-II along the
    tangential axes), reduced to tridiagonal systems along the interface
    axis: built from (bundle, mu) alone, with no law, weight or line.

    In the edge rows T_e it is K2hat = Chat^T mu^{-1} Chat, Chat the modal
    curl; T_e is applied as 1-D contractions, and neither it nor K2hat is
    kept.  Rotating a full mode's (E_t1, E_t2) by s/|s|, s its tangential
    wave vector, gives its TM part a = c1 E_t1 + c2 E_t2, which meets only
    E_n, and its TE part b = c2 E_t1 - c1 E_t2, which meets no E_n.  The
    attributes are real and documented where they are set (F full modes, S
    single-component modes, m = n_axis - 1 nodes).  Construction refuses a
    TE-TM entry above round-off and checks the systems against C mu^{-1} C0
    on two seeded vectors.
    """

    def __init__(self, bundle: OperatorBundle, mu: np.ndarray):
        ne = bundle.n_edges
        self.modes = _component_modes(bundle.grid, "edge")   # T_e: 1-D factors and mode labels
        ax = bundle.grid.interface_axis - 1
        mode = np.concatenate([labels for *_, labels in self.modes])
        comp = np.repeat(np.arange(3), [labels.size for *_, labels in self.modes])
        # class 0/1: the first/second tangential component of a full mode (one
        # with an E_n part), 2: a single-component mode, 3: E_n; sorted modal
        # row i (by class, mode, interface coordinate) is T_e row perm[i]
        full = np.isin(mode, self.modes[ax][2])
        cls = np.where(comp == ax, 3, np.where(full, comp != int(ax == 0), 2))
        self.perm = perm = np.lexsort((bundle.edge_positions[:, ax], mode, cls))
        m = bundle.grid.n_cells[ax] - 1
        F = np.count_nonzero(cls == 3) // (m + 1)
        R, T = ne - F * (m + 1), F * m
        self.bytes_per_bin = 16 * (R + 2 * T)   # a bin's factors: R pivots, 2T TM and E_n entries
        chat = bundle.modal_curl[:, perm]
        k2hat = (chat.T @ sparse.diags(1.0 / mu) @ chat).tocsr()
        diag, up = k2hat.diagonal(), k2hat.diagonal(1)[:R].reshape(-1, m)[:, :-1]
        rows = np.arange(2 * T)
        below = R + rows % T // m * (m + 1) + rows % m      # the cell below each node
        # the coupling of each node to the cell below and above: side, component, mode, node
        tn = np.asarray(k2hat[np.tile(rows, 2), np.r_[below, below + 1]]).reshape(2, 2, F, m)
        # rotate (E_t1, E_t2) by the mode's unit vector (s1, s2)/|s|, read off
        # the node-cell coupling, to a (TM) and b (TE); then b meets no E_n
        c1, c2 = tn[0, :, :, :1] / np.hypot(*tn[0, :, :, :1])
        d1, d2 = diag[:T].reshape(F, m), diag[T:2 * T].reshape(F, m)
        d12, u1, u2 = k2hat[:T, T:2 * T].diagonal().reshape(F, m), up[:F], up[F:2 * F]
        te_tm = (c1 * c2 * (d1 - d2) - (c1 * c1 - c2 * c2) * d12, c1 * c2 * (u1 - u2),
                 c2 * tn[:, 0] - c1 * tn[:, 1])
        dropped, k_max = max(np.abs(v).max(initial=0.0) for v in te_tm), np.abs(k2hat.data).max()
        if dropped > 1e-13 * k_max:
            raise MemaxError(f"transverse modes couple: TE-TM entry {dropped:.3e} "
                             f"against the max entry {k_max:.3e}")
        self.c = np.stack([c1, c2])[..., None]   # 2 x F x 1 x 1
        # the 2F + S systems (a, b, single modes): diagonals x m, off-diagonals x (m - 1)
        self.diag = np.concatenate([c1 * c1 * d1 + 2 * c1 * c2 * d12 + c2 * c2 * d2,
                                    c2 * c2 * d1 - 2 * c1 * c2 * d12 + c1 * c1 * d2,
                                    diag[2 * T:R].reshape(-1, m)])
        self.off = np.concatenate([c1 * c1 * u1 + c2 * c2 * u2, c2 * c2 * u1 + c1 * c1 * u2,
                                   up[2 * F:]])
        self.pa = (c1 * tn[:, 0] + c2 * tn[:, 1])[..., None]   # a at node j: E_n at cells j, j + 1
        self.nn = diag[R:].reshape(F, m + 1)                    # the E_n diagonals
        group = np.where(bundle.edge_region_mask(), 0, 1)[perm]   # the region of each row
        self.node_group, self.cell_group = group[:R].reshape(-1, m), group[R:].reshape(F, m + 1)
        # the reduced form, shifted by its max entry to be well conditioned,
        # solves C mu^-1 C0 + k_max on two seeded vectors
        K2 = bundle.C @ sparse.diags(1.0 / mu) @ bundle.C0
        x = np.random.default_rng(0).standard_normal((ne, 2))
        fac, _ = self.factor(np.arange(2), np.full((2, 2), k_max))
        y = self.solve(fac, self.to_modal(K2 @ x + k_max * x))
        gap = np.abs(self.from_modal(y) - x).max()
        if gap > 1e-12 * np.abs(x).max():
            raise MemaxError(f"transverse modes couple: the reduced modal system misses "
                             f"C mu^-1 C0 by {gap:.3e} (relative)")

    def to_modal(self, x: np.ndarray) -> np.ndarray:
        """T_e x, the modal edges sorted, for complex edge columns x, which it may overwrite."""
        return _mode_transform(self.modes, np.ascontiguousarray(x, dtype=np.complex128))[self.perm]

    def from_modal(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """T_e^T y for sorted modal rows y, written into out (C-contiguous
        edges x columns) when it is given."""
        x = np.empty_like(y) if out is None else out
        x[self.perm] = y
        return _mode_transform(self.modes, x, transpose=True)

    def _rotate(self, w: np.ndarray):
        """(t1, t2) <-> (a, b) on the full modes' node rows of w, in place;
        the rotation is its own inverse."""
        c1, c2 = self.c
        t1, t2 = w[:len(c1)], w[len(c1):2 * len(c1)]   # views; np.split costs more per call
        t1[...], t2[...] = c1 * t1 + c2 * t2, c2 * t1 - c1 * t2

    def factor(self, ks: np.ndarray, zl: np.ndarray) -> tuple:
        """Factors of diag(zl[region]) + K2hat, one column of zl per label in
        ks, and the columns with a zero pivot (non-finite factors): E_n out
        of each TM system, then Thomas on every system, all columns at once."""
        F = len(self.nn)
        dn, d = zl[self.cell_group], zl[self.node_group]   # shifted in place: no second copy
        dn += self.nn[..., None]
        d += self.diag[..., None]
        pa0, pa1 = self.pa
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(1.0, dn, out=dn)
            t = np.multiply(pa0 * pa0, dn[:, :-1])   # the products one at a time, in their order
            t += np.multiply(pa1 * pa1, dn[:, 1:])
            d[:F] -= t
            e = np.multiply(pa1[:, :-1] * pa0[:, 1:], dn[:, 1:-1])
            np.subtract(self.off[:F, :, None], e, out=e)
            _thomas_pivots(d[:F], e)
            _thomas_pivots(d[F:], self.off[F:, :, None])
        finite = np.isfinite(d).all(axis=(0, 1)) & np.isfinite(dn).all(axis=(0, 1))
        return _LineFactors(ks, d, e, dn), ~finite

    def solve(self, fac: _LineFactors, y: np.ndarray) -> np.ndarray:
        """The systems of fac solved for sorted modal rows y (edges x
        columns), in place: node rows w (systems x m x columns), E_n rows n."""
        R, F = self.diag.size, len(self.nn)
        w, n = y[:R].reshape(*self.diag.shape, -1), y[R:].reshape(*self.nn.shape, -1)
        pa0, pa1 = self.pa
        self._rotate(w)
        t = n * fac.dn
        w[:F] -= pa0 * t[:, :-1] + pa1 * t[:, 1:]
        _thomas_solve(fac.q[:F], fac.e, w[:F])
        _thomas_solve(fac.q[F:], self.off[F:, :, None], w[F:])
        n[:, :-1] -= pa0 * w[:F]
        n[:, 1:] -= pa1 * w[:F]
        n *= fac.dn
        self._rotate(w)
        return y


class SolutionOperator:
    """g -> (z M(z) + A)^{-1} g per frequency, with factor reuse.

    Instances are bound to (bundle, material, rho, grid): apply_spectral()
    maps a half or full line spectrum to the solution array of its shape,
    apply() a signal to a signal.  Both solve a spectrum in place:
    apply_spectral a copy of its argument, apply the buffer the transform
    pair of memax.signals makes and transforms back in place.  A
    material-law pole on the line raises PoleHit at construction.

    Bin k eliminates H and solves diag(z_k^2 eps(z_k)) + K2hat through the
    bundle's ModalReduction for mu, a block of bins at once; refinement
    slices the block's factors.  The first bins' factors are kept, one sweep
    (_kept), unless keep_factors is off, as in solve_linear.  The block working
    arrays are allocated on the first apply and reused, so one operator serves one thread.
    """

    def __init__(self, bundle: OperatorBundle, material: PiecewiseMaterial,
                 rho: float, grid: TimeGrid, certificate_required: bool = True, *,
                 keep_factors: bool = True):
        self.bundle = bundle
        self.material = material
        self.rho = rho
        self.grid = grid
        self.z = z = rho + 1j * grid.xi
        l1, l2 = material.eps_laws()
        # bin k of z M(z) is diag(lines[k, group]); c_min as line_certificate
        self._lines = np.stack([z * l1(z), z * l2(z), z * material.mu1, z * material.mu2], axis=1)
        self.c_min = min(float(self._lines[:, :2].real.min()), rho * material.mu_min)
        if certificate_required and self.c_min <= 0.0:
            raise UncertifiedLine(rho, self.c_min)
        mu = np.where(bundle.face_region_mask(), material.mu1, material.mu2)
        key = mu.tobytes()
        if key not in bundle.modal_reductions:   # one record per (bundle, mu), built on first use
            bundle.modal_reductions[key] = ModalReduction(bundle, mu)
        self._reduction = bundle.modal_reductions[key]
        self._group = np.concatenate([np.where(bundle.edge_region_mask(), 0, 1),
                                      np.where(bundle.face_region_mask(), 2, 3)])
        self._inv_mu = 1.0 / mu
        self._cond_unit = max(abs(material.mu1), abs(material.mu2), 1.0)
        self._keep = keep_factors
        self._kept: _LineFactors | None = None   # the sweep of the line's first bins
        self._work = None   # the block workspace, allocated on the first apply

    @property
    def factor_cache_bytes(self) -> int:
        """Bytes of the line factors the operator holds for reuse."""
        return 0 if self._kept is None else self._kept.nbytes

    def _factor(self, ks: np.ndarray) -> _LineFactors:
        """Factors of the edge systems diag(z_k^2 eps(z_k)) + K2hat of the bins
        ks; a zero pivot raises FrequencySingular for the first such bin."""
        z = self.z[ks]
        if not z.all():
            raise FrequencySingular(0j, np.inf)   # H cannot be eliminated at z = 0
        fac, zero = self._reduction.factor(ks, z * self._lines[ks, :2].T)
        if zero.any():
            raise FrequencySingular(complex(z[np.argmax(zero)]), np.inf)
        return fac

    def _solve(self, fac: _LineFactors, d: np.ndarray, g: np.ndarray, u: np.ndarray) -> np.ndarray:
        """u = (diag(d) + A)^{-1} g, one column per bin fac.ks, written into u
        (C-contiguous, apart from g and d): E from the modal edge systems,
        then H = (g_H - C0 E) / (z mu) in the original basis, z mu read off
        d's face rows, the only rows of d read.  g may hold the edge rows
        alone, for zero face data.  Returns C0 E."""
        ne, red = self.bundle.n_edges, self._reduction
        E, H = u[:ne], u[ne:]
        faces = g.shape[0] > ne   # else g holds edge data alone, its faces zero
        np.multiply(self.z[fac.ks], g[:ne], out=E)
        if faces:
            np.multiply(g[ne:], self._inv_mu[:, None], out=H)   # g_H / mu, as numpy divides
            E += _real_times(self.bundle.C, H)
        red.from_modal(red.solve(fac, red.to_modal(E)), out=E)
        c0e = _real_times(self.bundle.C0, E)
        if faces:
            np.subtract(g[ne:], c0e, out=H)
        else:
            np.negative(c0e, out=H)
        H /= d[ne:]
        return c0e

    def _residual(self, d: np.ndarray, u: np.ndarray, g: np.ndarray, out: np.ndarray,
                  c0e: np.ndarray | None = None) -> np.ndarray:
        """g - (diag(d) + A) u, one column per bin, written into out, which may be d
        itself (d u is formed first, in place); c0e is the solve's C0 E (A's rows
        hold -C's and C0's entries in their order: the bits are those of A u).
        g may hold the edge rows alone, for zero face data."""
        ne, m = self.bundle.n_edges, g.shape[0]
        np.multiply(d, u, out=out)
        out[:ne] -= _real_times(self.bundle.C, u[ne:])
        out[ne:] += _real_times(self.bundle.C0, u[:ne]) if c0e is None else c0e
        np.negative(out[m:], out=out[m:])
        np.subtract(g, out[:m], out=out[:m])
        return out

    def _workspace(self, m: int) -> list:
        """Data, solution and residual of an m-bin block: dofs x m C-contiguous
        views of the operator's buffers, grown when m needs it.  The residual
        buffer holds the block's diagonal until the residual is formed over it."""
        size = self.bundle.n_state * m
        if self._work is None or self._work.shape[1] < size:
            self._work = np.empty((3, size), dtype=np.complex128)
        return [w[:size].reshape(-1, m) for w in self._work]

    def _solve_block(self, fac: _LineFactors, gk: np.ndarray, half: bool):
        """Solve the bins fac.ks, factored as fac, whose data are the rows of
        gk (n_state columns, or n_edges for edge data with zero faces), in
        the workspace: the solution (a workspace view, one column per bin),
        the relative residual and growth per bin and the number of refined
        bins.  The diagonal is gathered into the residual buffer, which the
        residual then overwrites; a refined bin gathers its own again.  Only
        the columns that refinement or the mirror step changed are normed
        again.  The first bin the certificate (or the heuristic) rejects raises."""
        n, ks = self.z.size, fac.ks
        g, u, r = self._workspace(ks.size)
        g = g[:gk.shape[1]]
        np.copyto(g, gk.T)
        np.take(self._lines[ks].T, self._group, axis=0, out=r, mode="clip")   # "raise" would buffer
        c0e = self._solve(fac, r, g, u)
        gn = _column_norms(g)
        first = _column_norms(u)
        res = _column_norms(self._residual(r, u, g, r, c0e)) / gn
        refine = np.flatnonzero(res > 1e-10)
        if refine.size:
            # one step of iterative refinement before giving up, on the block's factors
            d = np.take(self._lines[ks[refine]].T, self._group, axis=0)
            du = np.empty_like(d)
            self._solve(_columns(fac, refine), d, r[:, refine], du)
            u[:, refine] += du
            res[refine] = _column_norms(
                self._residual(d, u[:, refine], g[:, refine], d)) / gn[refine]
        mirror = np.flatnonzero((2 * ks) % n == 0) if half else ks[:0]
        u[:, mirror] = u[:, mirror].real   # xi = 0 and Nyquist are their own mirror
        un, touched = first, np.union1d(refine, mirror)
        if touched.size:
            un = first.copy()
            un[touched] = _column_norms(u[:, touched])
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

        A half spectrum has n//2 + 1 rows, bins 0 .. n//2 of real data (rfft
        order): those bins are solved, and the self-mirrored bins xi = 0
        and Nyquist keep the real part of their solve.  A full spectrum has
        n rows, bins in FFT order, and every bin is solved as it is; no
        symmetry is looked for, so real data belongs on the half line.  The
        result is a Fortran-ordered copy of ghat, solved in place.
        """
        n = self.z.size
        if ghat.shape[0] not in (n, n // 2 + 1):
            raise ValueError(f"spectrum has {ghat.shape[0]} rows; "
                             f"expected {n} bins or the half line's {n // 2 + 1}")
        out = np.array(ghat, dtype=np.complex128, order="F")
        self._solve_line(out, collect)
        return out

    def _solve_line(self, W: np.ndarray, collect: dict | None, out: np.ndarray | None = None):
        """apply_spectral's solve, written over the spectrum W, one row per bin,
        or into out, W's rows by n_state columns, when W holds edge data alone
        (n_edges columns, the faces zero): each block copies and norms only
        that data, and its checks are those of the whole system.

        The nonzero bins are solved in consecutive blocks, each the columns
        of the workspace's three dofs x bins arrays of at most
        LINE_BLOCK_BYTES (one bin at least: a 512-sample n=4 half line is
        one block, an n=16 block 4 bins), so the sparse products read
        contiguous rows, cut every `step` bins and at `held`; a block's rows
        are copied into the workspace before its solution is written back
        over them.  The first `held` bins (as many
        as FACTOR_CACHE_BYTES holds; 0 without keep_factors) read one kept
        sweep, factored unless it holds them all already; later blocks are
        factored one by one.  A check that fails raises for the first such
        bin in bin order, but the sweep checks its zero pivots before any bin
        is solved, so it names such a bin ahead of a failed check at a lower
        bin; collect receives the maxima.
        """
        out = W if out is None else out
        half = W.shape[0] != self.z.size
        nonzero = np.any(W, axis=1)
        ks = np.flatnonzero(nonzero)
        out[~nonzero] = 0.0   # a zero row solves to +0.0, whatever the sign of its zeros
        res, growth = np.empty(ks.size), np.empty(ks.size)
        refined = 0
        step = max(1, LINE_BLOCK_BYTES // (16 * self.bundle.n_state))
        held = (min(ks.size, FACTOR_CACHE_BYTES // self._reduction.bytes_per_bin)
                if self._keep else 0)
        if held and (self._kept is None or not np.isin(ks[:held], self._kept.ks).all()):
            self._kept = None   # the old sweep is freed before the new one is factored
            self._kept = self._factor(ks[:held])
        cuts = sorted({*range(0, ks.size, step), held, ks.size})
        for a, b in zip(cuts, cuts[1:]):
            kb = ks[a:b]
            fac = (_columns(self._kept, np.searchsorted(self._kept.ks, kb)) if b <= held
                   else self._factor(kb))
            rows = _run(kb)   # consecutive bins are read and written through a view
            u, res[a:b], growth[a:b], m = self._solve_block(fac, W[rows], half)
            out[rows] = u.T
            refined += m
        if collect is not None and ks.size:
            collect["max_rel_residual"] = res.max()
            collect["max_growth"] = growth.max()
            collect["refined_bins"] = refined
            for key, worst in (("worst_residual_z", res), ("worst_growth_z", growth)):
                collect[key] = self.z[ks[[np.argmax(worst)]]].view(float).tolist()   # [re, im]

    def apply(self, g: WeightedSignal, collect: dict | None = None) -> WeightedSignal:
        """apply_spectral between the transform pair of memax.signals: real
        data on the half line, to an exactly real solution.  The data's
        spectrum is solved in place and transformed back in place, so a real
        signal's solve holds one half-spectrum buffer beside g."""
        if (g.grid, g.rho) != (self.grid, self.rho):
            raise ValueError("the signal's grid or weight is not the operator's")
        W, _, real = _to_line(g)
        self._solve_line(W, collect)
        return _from_line(W, g, real)


def solve_linear(problem: LinearProblem, certificate_required: bool = True):
    """Solve the first-order system; returns (u, SolveReport)."""
    g = problem.rhs
    g_wrap, gn = _wraparound_and_norm(g)
    if problem.check_wraparound and g_wrap > g.wrap_tol:
        raise WraparoundExceeded(g_wrap, g.wrap_tol)
    op = SolutionOperator(problem.bundle, problem.material, problem.rho, g.grid,
                          certificate_required=certificate_required, keep_factors=False)
    stats: dict = {}
    u = op.apply(g, collect=stats)
    u_wrap, un = _wraparound_and_norm(u)
    report = SolveReport(
        rho=problem.rho,
        c_min_line=op.c_min,
        norm_ratio=(un / gn if gn > 0 else 0.0),
        max_rel_residual=stats.get("max_rel_residual", 0.0),
        max_growth=stats.get("max_growth", 0.0),
        wraparound_residual=u_wrap,
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
    """Relative plain L2 gap between solves at two admissible weights, on
    the window up to t_hi, for data living in both weighted spaces (as
    compactly supported data does).  The last quarter of the window is left
    out by default: there the unweighting e^{rho t} amplifies the
    representation floor past any fixed tolerance."""
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


def stack_rhs(bundle: OperatorBundle, phi: WeightedSignal, psi: WeightedSignal) -> WeightedSignal:
    """Combine (Phi, Psi) block signals into one (E,H)-state right-hand side."""
    phi._check_compatible(psi)
    if phi.state_dim != bundle.n_edges or psi.state_dim != bundle.n_faces:
        raise ValueError("Phi/Psi dimensions do not match the bundle")
    return phi.with_values(np.concatenate([phi.values, psi.values], axis=1))
