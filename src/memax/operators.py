"""Mimetic staggered-grid curl/divergence operators on a PEC box with a
planar interface.

Degrees of freedom follow the standard staggering (Yee 1966): electric
components live on edges (tangential boundary edges eliminated by the
perfect-conductor condition), magnetic components on faces.  Every operator
is a Kronecker product over the axes of 1-D stencils (identity, interior
nodes among all nodes, node-to-cell difference).  C0 and its plain
transpose C = C0^T are exact adjoints, the block

    A = [[0, -C], [C0, 0]]

is skew-symmetric bit-for-bit, and the face->cell divergence satisfies
D @ C0 = 0 with exact floating-point cancellation.  The material
discontinuity at the interface never touches the stencils; it enters only
through per-dof coefficient masks.

The transverse cavity-mode basis T (per component, orthonormal DCT-II/DST-I
factors along the two tangential axes) is never formed.  The curl builder
with its factors gives the block-diagonal T_f C0 T_e^T, whose per-mode SVDs
give the Helmholtz kernels, the discrete Poincare constant and the weighted
projection check (no dense SVD of C0), and the same factors, as 1-D
contractions, apply T to data (_mode_transform).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np
from scipy import sparse

from .errors import MemaxError, RankAmbiguous

RANK_TOL = 1e-10          # singular values below tol*smax are kernel
RANK_GAP = 1e-8           # ambiguity window around the threshold


@dataclass(frozen=True)
class YeeGrid:
    """Box [0,L1]x[0,L2]x[0,L3] split by a grid plane normal to interface_axis.

    interface_index is the cell-layer index where region 2 starts; it must be
    strictly interior so both regions are nonempty.
    """

    extents: tuple
    n_cells: tuple
    interface_axis: int = 3
    interface_index: int = 1

    def __post_init__(self):
        ext = tuple(float(e) for e in self.extents)
        n = tuple(int(m) for m in self.n_cells)
        if len(ext) != 3 or len(n) != 3:
            raise ValueError("extents and n_cells must have length 3")
        if any(e <= 0 for e in ext):
            raise ValueError("extents must be positive")
        if any(m < 2 for m in n):
            raise ValueError("need at least 2 cells per axis")
        if self.interface_axis not in (1, 2, 3):
            raise ValueError("interface_axis must be 1, 2, or 3")
        ax = self.interface_axis - 1
        if not (0 < self.interface_index < n[ax]):
            raise ValueError("interface must be strictly interior")
        object.__setattr__(self, "extents", ext)
        object.__setattr__(self, "n_cells", n)

    @property
    def spacing(self) -> tuple:
        return tuple(e / m for e, m in zip(self.extents, self.n_cells))

    @property
    def interface_position(self) -> float:
        ax = self.interface_axis - 1
        return self.spacing[ax] * self.interface_index


_OFFSET = {"cell": 0, "node": -1, "wall": 1}   # samples along m cells: m + offset


def _samplings(kind: str, a: int) -> list:
    """Per-axis sampling of the edge or face component along axis a: "cell"
    (the m cell centres of an axis of m cells), "node" (the m - 1 interior
    nodes) or "wall" (all m + 1 nodes).  A component's dofs are numbered in C
    order over its three axes, the components one after another."""
    if kind == "edge":
        return ["cell" if b == a else "node" for b in range(3)]
    return ["wall" if b == a else "cell" for b in range(3)]


def _mode_factor(sampling: str, m: int, tangential: bool):
    """Square 1-D factor of the cavity-mode basis along an axis of m cells,
    and the mode label of each of its rows (walls get label m).

    sampling is "cell" (cell centres i + 1/2: orthonormal DCT-II rows
    cos(pi k (i + 1/2) / m)), "node" (interior nodes j: orthonormal DST-I rows
    sin(pi k j / m)) or "wall" (all nodes; the two wall nodes stay as they are).
    """
    size = m + _OFFSET[sampling]
    if not tangential:
        return np.eye(size), np.zeros(size, dtype=np.int64)
    if sampling == "cell":
        k = np.arange(m)
        F = np.sqrt(2.0 / m) * np.cos(np.pi * np.outer(k, k + 0.5) / m)
        F[0] /= np.sqrt(2.0)
        return F, k
    k = np.arange(1, m)
    sine = np.sqrt(2.0 / m) * np.sin(np.pi * np.outer(k, k) / m)
    if sampling == "node":
        return sine, k
    F = np.eye(m + 1)
    F[1:m, 1:m] = sine
    return F, np.concatenate([[m], k, [m]])


def _axis_stencils(grid: YeeGrid, src: list, dst: list, tangential) -> list:
    """Per axis, the 1-D stencil from samples src to samples dst: the
    identity, the interior nodes placed among all nodes, or the difference
    from nodes to cell centres.

    Along each tangential axis the stencil is carried into the cavity-mode
    basis by the factors of its two samplings.  It then maps mode k to mode
    k, so its entries across labels are round-off and dropped.
    """
    ops = []
    for s, d, m, h, t in zip(src, dst, grid.n_cells, grid.spacing, tangential):
        embed = np.eye(m + 1, m - 1, k=-1)
        diff = (np.eye(m, m + 1, k=1) - np.eye(m, m + 1)) / h
        op = np.eye(m + _OFFSET[s]) if s == d else \
            {("node", "wall"): embed, ("wall", "cell"): diff, ("node", "cell"): diff @ embed}[s, d]
        if t:
            (F_d, label_d), (F_s, label_s) = (_mode_factor(x, m, True) for x in (d, s))
            scale, op = np.abs(op).max(), F_d @ op @ F_s.T
            cross = label_d[:, None] != label_s[None, :]
            dropped = np.abs(op[cross]).max(initial=0.0)
            if dropped > 1e-13 * scale:
                raise MemaxError(f"transverse modes couple: dropped entry {dropped:.3e}")
            op[cross] = 0.0
        ops.append(op)
    return ops


def _kron(ops) -> sparse.csr_matrix:
    """Kronecker product of dense 1-D operators, as a CSR matrix."""
    rows, cols, vals = np.zeros(1, np.int64), np.zeros(1, np.int64), np.ones(1)
    for op in ops:
        i, j = np.nonzero(op)
        rows = (rows[:, None] * op.shape[0] + i).ravel()
        cols = (cols[:, None] * op.shape[1] + j).ravel()
        vals = (vals[:, None] * op[i, j]).ravel()
    shape = np.prod([op.shape for op in ops], axis=0)
    return sparse.csr_matrix((vals, (rows, cols)), shape=tuple(shape))


def _curl(grid: YeeGrid, tangential) -> sparse.csr_matrix:
    """Faces x interior edges curl, in the cavity-mode basis along the
    tangential axes.  The face component along a couples to the edge
    component along e != a by +-d(E_e)/dx_d, d the third axis."""
    blocks = [[None] * 3 for _ in range(3)]
    for a, e in permutations(range(3), 2):
        edge, face = _samplings("edge", e), _samplings("face", a)
        first, *rest = _axis_stencils(grid, edge, face, tangential)
        blocks[a][e] = _kron([(1.0 if e == (a + 2) % 3 else -1.0) * first, *rest])
    return sparse.bmat(blocks, format="csr")


def _modal_curl(grid: YeeGrid) -> sparse.csr_matrix:
    """T_f C0 T_e^T, faces x edges: the curl of build_curl_pair with the
    cavity-mode factors applied along both tangential axes."""
    ax = grid.interface_axis - 1
    return _curl(grid, [b != ax for b in range(3)])


def _component_modes(grid: YeeGrid, kind: str) -> list:
    """The edge or face block of the cavity-mode basis T, one entry per field
    component in dof order: (shape, factors, labels).

    shape is the component's samples along the three axes, factors maps each
    tangential axis to its square 1-D factor (the factor along the interface
    axis is the identity) and labels is the transverse mode label of each
    dof.  The component's block of T is the Kronecker product of the three
    factors.
    """
    n = grid.n_cells
    ax = grid.interface_axis - 1
    t1, t2 = [b for b in range(3) if b != ax]
    out = []
    for a in range(3):
        factors, labels = zip(*(_mode_factor(s, n[b], b != ax)
                                for b, s in enumerate(_samplings(kind, a))))
        label = np.meshgrid(*labels, indexing="ij")
        out.append((tuple(len(F) for F in factors), {b: factors[b] for b in (t1, t2)},
                    (label[t1] * (n[t2] + 1) + label[t2]).ravel()))
    return out


def _mode_transform(components: list, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """T x, or T^T x, for the block of T that components (_component_modes)
    describe, written over x and returned.  x is C-contiguous, real or
    complex, with one row per dof (a 1-D x is one column); complex x is
    transformed through its float view, since the factors are real.

    Each component's rows are reshaped to its three axes and contracted along
    the two tangential ones with the 1-D factors (the fast diagonalization
    method of Lynch, Rice & Thomas, Numer. Math. 6, 1964), so T is never
    formed.
    """
    f = x.reshape(len(x), -1).view(np.float64)
    start = 0
    for shape, factors, _ in components:
        stop = start + math.prod(shape)
        block = f[start:stop]
        (b1, F1), (b2, F2) = factors.items()
        if transpose:
            F1, F2 = F1.T, F2.T
        partial = np.matmul(F1, _along(block, shape, b1))
        np.matmul(F2, _along(partial, shape, b2), out=_along(block, shape, b2))
        start = stop
    return x


def _along(a: np.ndarray, shape: tuple, b: int) -> np.ndarray:
    """The rows of a, one component of the given shape, as a 3-D view with
    axis b of the component in the middle."""
    return a.reshape(math.prod(shape[:b]), shape[b], -1)


@dataclass(frozen=True)
class OperatorBundle:
    """Assembled sparse operators for one grid.

    C0: interior edges -> faces (curl with PEC rows eliminated)
    C:  faces -> interior edges, C = C0^T exactly
    D:  faces -> cells (divergence); D @ C0 = 0 exactly
    G0: interior nodes -> interior edges (Dirichlet gradient); C0 @ G0 = 0
    A:  skew block [[0, -C], [C0, 0]] over (E, H) dofs
    """

    grid: YeeGrid
    C0: sparse.csr_matrix
    C: sparse.csr_matrix
    D: sparse.csr_matrix
    G0: sparse.csr_matrix
    A: sparse.csr_matrix
    n_edges: int
    n_faces: int
    edge_positions: np.ndarray
    face_positions: np.ndarray

    @property
    def n_state(self) -> int:
        return self.n_edges + self.n_faces

    @cached_property
    def modal_curl(self) -> sparse.csr_matrix:
        """_modal_curl of the grid, built on first use and only read after."""
        return _modal_curl(self.grid)

    @cached_property
    def modal_reductions(self) -> dict:
        """memax.spectral's ModalReduction of each mu seen, by mu.tobytes(); filled on use."""
        return {}

    def edge_region_mask(self) -> np.ndarray:
        """True where an edge dof belongs to region 1 (midpoint strictly below
        the interface plane along the interface axis; ties go to region 2)."""
        ax = self.grid.interface_axis - 1
        return self.edge_positions[:, ax] < self.grid.interface_position - 1e-12

    def face_region_mask(self) -> np.ndarray:
        ax = self.grid.interface_axis - 1
        return self.face_positions[:, ax] < self.grid.interface_position - 1e-12


def _positions(grid: YeeGrid, kind: str) -> np.ndarray:
    """Midpoint of every edge or face dof, one row per dof."""
    out = []
    for a in range(3):
        axes = [{"cell": np.arange(m) * h + 0.5 * h, "node": np.arange(1, m) * h,
                 "wall": np.arange(m + 1) * h}[s]
                for s, m, h in zip(_samplings(kind, a), grid.n_cells, grid.spacing)]
        out.append(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3))
    return np.concatenate(out)


def build_curl_pair(grid: YeeGrid) -> OperatorBundle:
    """Assemble the staggered curl pair, divergence, gradient, and A as
    Kronecker products of 1-D stencils."""
    plain = (False, False, False)
    C0 = _curl(grid, plain)
    C = sparse.csr_matrix(C0.T)
    D = sparse.hstack([_kron(_axis_stencils(grid, _samplings("face", a), ["cell"] * 3, plain))
                       for a in range(3)], format="csr")
    G0 = sparse.vstack([_kron(_axis_stencils(grid, ["node"] * 3, _samplings("edge", a), plain))
                        for a in range(3)], format="csr")
    A = sparse.bmat([[None, -C], [C0, None]], format="csr")
    return OperatorBundle(
        grid=grid, C0=C0, C=C, D=D, G0=G0, A=A,
        n_edges=C0.shape[1], n_faces=C0.shape[0],
        edge_positions=_positions(grid, "edge"), face_positions=_positions(grid, "face"),
    )


# ---------------------------------------------------------------------------
# Helmholtz projections


@dataclass(frozen=True)
class ModeBlock:
    """One transverse mode's block of T_f C0 T_e^T and its numerical rank."""

    faces: np.ndarray     # modal face rows of the mode
    curl: np.ndarray      # the block, faces x the mode's modal edge rows
    rank: int


@dataclass(frozen=True)
class ProjectionBasis:
    """Orthonormal kernel bases, per transverse mode, and the induced
    orthogonal projections.

    ker_C0_modal spans ker(C0) in modal edge coordinates (Pi0 projects onto
    it) and ker_C_modal spans ker(C) = ran(C0)^perp in modal face coordinates
    (Pi1 projects onto it), one (modal rows, block) pair per mode.  T_e and
    T_f are held as their 1-D factors (_component_modes); the projections
    apply T, the per-mode product and T^T.  Dimension bookkeeping is
    reported, not asserted: on a discrete box the boundary faces contribute
    exceptional vectors to ker(C) beyond the continuum picture.
    """

    T_e: list
    T_f: list
    ker_C0_modal: tuple
    ker_C_modal: tuple
    modes: tuple                  # one ModeBlock per transverse mode
    sigma_min_C0: float
    dims: dict

    @property
    def basis_ker_C0(self) -> np.ndarray:
        return _kernel_basis(self.T_e, self.ker_C0_modal)

    @property
    def basis_ker_C(self) -> np.ndarray:
        return _kernel_basis(self.T_f, self.ker_C_modal)

    def pi0(self, v: np.ndarray) -> np.ndarray:
        return _project(self.T_e, self.ker_C0_modal, v)

    def pi1(self, v: np.ndarray) -> np.ndarray:
        return _project(self.T_f, self.ker_C_modal, v)


def _project(components: list, kernels: tuple, v) -> np.ndarray:
    """T^T K K^T T applied to v, or to each row of a 2-D v, with K the
    kernel blocks, each on its modal rows."""
    v = np.asarray(v)
    x = _mode_transform(components, np.array(v.T, dtype=np.result_type(v, np.float64), order="C"))
    y = np.zeros_like(x)
    for rows, K in kernels:
        y[rows] = K @ (K.T @ x[rows])
    return _mode_transform(components, y, transpose=True).T


def _kernel_basis(components: list, kernels: tuple) -> np.ndarray:
    """T^T K as a dense array, the kernel blocks side by side on their rows."""
    widths = np.cumsum([0] + [K.shape[1] for _, K in kernels])
    blocks = np.zeros((sum(len(rows) for rows, _ in kernels), widths[-1]))
    for (rows, K), a, b in zip(kernels, widths[:-1], widths[1:]):
        blocks[rows, a:b] = K
    return _mode_transform(components, blocks, transpose=True)


def _numerical_rank(s: np.ndarray) -> tuple:
    """(rank, threshold) of a descending list of singular values.

    Values below RANK_TOL * smax are kernel.  Raises RankAmbiguous when
    singular values hug the threshold on both sides.
    """
    smax = s[0] if s.size else 1.0
    thresh = RANK_TOL * smax
    rank = int(np.count_nonzero(s > thresh))
    if 0 < rank < s.size and (s[rank - 1] - s[rank]) < RANK_GAP * smax:
        raise RankAmbiguous(
            f"singular values straddle the rank threshold within {RANK_GAP:.1e}*smax "
            f"({s[rank - 1]:.3e} vs {s[rank]:.3e})"
        )
    return rank, thresh


def helmholtz_projections(bundle: OperatorBundle) -> ProjectionBasis:
    """Kernels of C0 and C from one full SVD per transverse mode.

    The rank rule is applied to the union of all modes' singular values, so
    its thresholds mean what they mean for one SVD of C0.
    """
    edge_modes = _component_modes(bundle.grid, "edge")
    face_modes = _component_modes(bundle.grid, "face")
    ne, nf = bundle.n_edges, bundle.n_faces
    mode_e, mode_f = (np.concatenate([c[2] for c in m]) for m in (edge_modes, face_modes))
    chat = bundle.modal_curl
    svds = []
    for label in np.union1d(mode_e, mode_f):
        edges, faces = np.flatnonzero(mode_e == label), np.flatnonzero(mode_f == label)
        curl = chat[faces][:, edges].toarray()
        svds.append((edges, faces, curl, *np.linalg.svd(curl)))
    # padded to the min(ne, nf) values one SVD of C0 would list
    s_all = np.concatenate([s for *_, s, _ in svds])
    s_all = np.sort(np.concatenate([s_all, np.zeros(min(ne, nf) - s_all.size)]))[::-1]
    rank, thresh = _numerical_rank(s_all)

    modes, ker_e, ker_f = [], [], []
    for edges, faces, curl, U, s, Vt in svds:
        r = int(np.count_nonzero(s > thresh))
        modes.append(ModeBlock(faces=faces, curl=curl, rank=r))
        ker_e.append((edges, Vt[r:].T))
        ker_f.append((faces, U[:, r:]))
    dims = {
        "n_edges": ne,
        "n_faces": nf,
        "rank_C0": rank,
        "dim_ker_C0": ne - rank,
        "dim_ker_C": nf - rank,
    }
    return ProjectionBasis(
        T_e=edge_modes, T_f=face_modes,
        ker_C0_modal=tuple(ker_e), ker_C_modal=tuple(ker_f),
        modes=tuple(modes), sigma_min_C0=float(s_all[rank - 1]) if rank else 0.0, dims=dims,
    )


def _face_layers(bundle: OperatorBundle) -> np.ndarray:
    """Integer label of each face's (component, interface layer)."""
    n = bundle.grid.n_cells
    ax = bundle.grid.interface_axis - 1
    comp = np.repeat(np.arange(3), [np.prod(n) // n[a] * (n[a] + 1) for a in range(3)])
    layer = np.rint(2.0 * bundle.face_positions[:, ax] / bundle.grid.spacing[ax]).astype(np.int64)
    return comp * (2 * n[ax] + 1) + layer


def reduced_curl_sigma_min(bundle: OperatorBundle, basis: ProjectionBasis,
                           face_weights: np.ndarray | None = None) -> float:
    """Smallest nonzero singular value of diag(sqrt(w)) C0 (w = 1 if None).

    That is sigma_min of C0 on ker(C0)^perp in the w-weighted face norm.  w
    must be constant per face component and interface layer: it then
    commutes with T_f (modal face row r carries w[r]), and the problem splits
    into one SVD of sqrt(w_m) B_m per transverse mode, whose rank is the
    mode's unweighted rank.  Raises
    ValueError naming the first face that breaks the layer rule.
    """
    w = np.ones(bundle.n_faces)
    if face_weights is not None:
        w = np.asarray(face_weights, dtype=float)
        _, first, group = np.unique(_face_layers(bundle), return_index=True, return_inverse=True)
        bad = np.flatnonzero(w != w[first][group])
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"face weights must be constant per component and interface layer: face {i} "
                f"has {w[i]!r}, the first face of its layer {w[first[group[i]]]!r}")
    sigma = min((np.linalg.svd(np.sqrt(w[m.faces])[:, None] * m.curl, compute_uv=False)[m.rank - 1]
                 for m in basis.modes if m.rank), default=0.0)
    return float(sigma)


def poincare_constant(bundle: OperatorBundle, basis: ProjectionBasis | None = None) -> float:
    """1/sigma_min of C0 restricted to ker(C0)^perp, per transverse mode.

    Finite on the PEC box; cross-checked in tests against a dense SVD of C0
    and against the closed-form lowest cavity mode.
    """
    if basis is None:
        basis = helmholtz_projections(bundle)
    sigma_min = reduced_curl_sigma_min(bundle, basis)
    if sigma_min <= 0:
        raise RankAmbiguous("reduced curl has a nonpositive smallest singular value")
    return 1.0 / sigma_min


def divergence_diagnostics(bundle: OperatorBundle, H_trajectory: np.ndarray,
                           mu_faces: np.ndarray, B0: np.ndarray | None = None) -> np.ndarray:
    """Per-step ||Div(mu H)(t) - Div(mu H)(0)|| over a trajectory.

    H_trajectory has shape (n_t, n_faces); the magnetic flux divergence is
    conserved by the discrete structure whenever the magnetic source is
    divergence-free, so this series is a solver diagnostic.
    """
    flux = H_trajectory * np.asarray(mu_faces)[None, :]
    div = (bundle.D @ flux.T).T
    ref = div[0] if B0 is None else bundle.D @ (np.asarray(mu_faces) * np.asarray(B0))
    return np.linalg.norm(div - ref[None, :], axis=1)
