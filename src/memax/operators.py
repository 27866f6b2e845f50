"""Mimetic staggered-grid curl/divergence operators on a PEC box with a
planar interface.

Degrees of freedom follow the standard staggering: electric components live
on edges (tangential boundary edges eliminated by the perfect-conductor
condition), magnetic components on faces.  With field-component sampling and
uniform per-axis spacings, the edge->face curl C0 and its plain transpose
C = C0^T are exact adjoints of one another, the block

    A = [[0, -C], [C0, 0]]

is skew-symmetric bit-for-bit, and the face->cell divergence satisfies
D @ C0 = 0 with exact floating-point cancellation.  The material
discontinuity at the interface never touches the stencils; it enters only
through per-dof coefficient masks.

Kernel bases for the Helmholtz projections are computed densely (desk scale)
and can be cached on disk keyed by a grid hash.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import RankAmbiguous

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

    def content_hash(self) -> str:
        key = repr((self.extents, self.n_cells, self.interface_axis, self.interface_index))
        return hashlib.sha256(key.encode()).hexdigest()[:16]


def _edge_shapes(n):
    nx, ny, nz = n
    return [(nx, ny + 1, nz + 1), (nx + 1, ny, nz + 1), (nx + 1, ny + 1, nz)]


def _face_shapes(n):
    nx, ny, nz = n
    return [(nx + 1, ny, nz), (nx, ny + 1, nz), (nx, ny, nz + 1)]


def _interior_edge_mask(axis, shape, n):
    """Tangential boundary edges (PEC) are removed: an edge along `axis` is
    interior iff its transverse node indices avoid the boundary planes."""
    m = np.ones(shape, dtype=bool)
    for tr in range(3):
        if tr == axis:
            continue
        idx = [slice(None)] * 3
        idx[tr] = 0
        m[tuple(idx)] = False
        idx[tr] = shape[tr] - 1
        m[tuple(idx)] = False
    return m


def edge_dof_count(n) -> int:
    nx, ny, nz = n
    return nx * (ny - 1) * (nz - 1) + (nx - 1) * ny * (nz - 1) + (nx - 1) * (ny - 1) * nz


def face_dof_count(n) -> int:
    nx, ny, nz = n
    return (nx + 1) * ny * nz + nx * (ny + 1) * nz + nx * ny * (nz + 1)


class _Numbering:
    """Linear numbering of kept dofs per component with coordinate tables."""

    def __init__(self, shapes, masks):
        self.shapes = shapes
        self.masks = masks
        self.offsets = []
        total = 0
        self.index = []
        for shape, mask in zip(shapes, masks):
            ids = -np.ones(shape, dtype=np.int64)
            ids[mask] = total + np.arange(int(mask.sum()))
            self.offsets.append(total)
            total += int(mask.sum())
            self.index.append(ids)
        self.total = total

    def id_of(self, comp, i, j, k):
        return self.index[comp][i, j, k]


def _build_numbering(grid: YeeGrid):
    n = grid.n_cells
    eshapes = _edge_shapes(n)
    emasks = [_interior_edge_mask(ax, s, n) for ax, s in enumerate(eshapes)]
    edges = _Numbering(eshapes, emasks)
    fshapes = _face_shapes(n)
    fmasks = [np.ones(s, dtype=bool) for s in fshapes]
    faces = _Numbering(fshapes, fmasks)
    return edges, faces


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

    def edge_region_mask(self) -> np.ndarray:
        """True where an edge dof belongs to region 1 (midpoint strictly below
        the interface plane along the interface axis; ties go to region 2)."""
        ax = self.grid.interface_axis - 1
        return self.edge_positions[:, ax] < self.grid.interface_position - 1e-12

    def face_region_mask(self) -> np.ndarray:
        ax = self.grid.interface_axis - 1
        return self.face_positions[:, ax] < self.grid.interface_position - 1e-12

    def split_state(self, v: np.ndarray):
        return v[..., : self.n_edges], v[..., self.n_edges:]

    def stack_state(self, e: np.ndarray, h: np.ndarray) -> np.ndarray:
        return np.concatenate([e, h], axis=-1)


def build_curl_pair(grid: YeeGrid) -> OperatorBundle:
    """Assemble the staggered curl pair, divergence, gradient, and A."""
    n = grid.n_cells
    h = grid.spacing
    edges, faces = _build_numbering(grid)

    rows, cols, vals = [], [], []

    def add(r, c, v):
        if c >= 0:
            rows.append(r)
            cols.append(c)
            vals.append(v)

    # curl: face component along `a` couples edges along axes b = a+1, c = a+2
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        fshape = faces.shapes[a]
        for i in range(fshape[0]):
            for j in range(fshape[1]):
                for k in range(fshape[2]):
                    r = faces.id_of(a, i, j, k)
                    idx = [i, j, k]
                    # + d(E_c)/d(x_b)
                    up = idx.copy()
                    up[b] += 1
                    add(r, edges.id_of(c, *up), 1.0 / h[b])
                    add(r, edges.id_of(c, *idx), -1.0 / h[b])
                    # - d(E_b)/d(x_c)
                    up = idx.copy()
                    up[c] += 1
                    add(r, edges.id_of(b, *up), -1.0 / h[c])
                    add(r, edges.id_of(b, *idx), 1.0 / h[c])

    C0 = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(faces.total, edges.total)
    )
    C = sparse.csr_matrix(C0.T)

    # divergence: cell (i,j,k) from the 6 surrounding faces
    rows, cols, vals = [], [], []
    nx, ny, nz = n
    cell_id = np.arange(nx * ny * nz).reshape(nx, ny, nz)
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                r = cell_id[i, j, k]
                for a, (di, dj, dk) in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
                    hi = faces.id_of(a, i + di, j + dj, k + dk)
                    lo = faces.id_of(a, i, j, k)
                    add(r, hi, 1.0 / h[a])
                    add(r, lo, -1.0 / h[a])
    D = sparse.csr_matrix((vals, (rows, cols)), shape=(nx * ny * nz, faces.total))

    # Dirichlet gradient: interior nodes -> interior edges
    node_shape = (nx + 1, ny + 1, nz + 1)
    node_ids = -np.ones(node_shape, dtype=np.int64)
    interior = np.zeros(node_shape, dtype=bool)
    interior[1:-1, 1:-1, 1:-1] = True
    node_ids[interior] = np.arange(int(interior.sum()))
    rows, cols, vals = [], [], []
    for a in range(3):
        eshape = edges.shapes[a]
        for i in range(eshape[0]):
            for j in range(eshape[1]):
                for k in range(eshape[2]):
                    r = edges.id_of(a, i, j, k)
                    if r < 0:
                        continue
                    idx = [i, j, k]
                    up = idx.copy()
                    up[a] += 1
                    head = node_ids[tuple(up)]
                    tail = node_ids[tuple(idx)]
                    if head >= 0:
                        rows.append(r)
                        cols.append(head)
                        vals.append(1.0 / h[a])
                    if tail >= 0:
                        rows.append(r)
                        cols.append(tail)
                        vals.append(-1.0 / h[a])
    G0 = sparse.csr_matrix((vals, (rows, cols)), shape=(edges.total, int(interior.sum())))

    A = sparse.bmat([[None, -C], [C0, None]], format="csr")

    # dof midpoints for region masks
    def positions(numbering, kind):
        pos = np.zeros((numbering.total, 3))
        for a in range(3):
            shape = numbering.shapes[a]
            ids = numbering.index[a]
            for i in range(shape[0]):
                for j in range(shape[1]):
                    for k in range(shape[2]):
                        r = ids[i, j, k]
                        if r < 0:
                            continue
                        xyz = np.array([i * h[0], j * h[1], k * h[2]])
                        if kind == "edge":
                            xyz[a] += 0.5 * h[a]
                        else:
                            for tr in range(3):
                                if tr != a:
                                    xyz[tr] += 0.5 * h[tr]
                        pos[r] = xyz
        return pos

    return OperatorBundle(
        grid=grid, C0=C0, C=C, D=D, G0=G0, A=A,
        n_edges=edges.total, n_faces=faces.total,
        edge_positions=positions(edges, "edge"), face_positions=positions(faces, "face"),
    )


# ---------------------------------------------------------------------------
# Helmholtz projections


@dataclass(frozen=True)
class ProjectionBasis:
    """Orthonormal kernel bases and the induced orthogonal projections.

    basis_ker_C0 spans ker(C0) in edge space (Pi0 projects onto it);
    basis_ker_C spans ker(C) = ran(C0)^perp in face space (Pi1 projects onto
    it).  Dimension bookkeeping is reported, not asserted: on a discrete box
    the boundary faces contribute exceptional vectors to ker(C) beyond the
    continuum picture.
    """

    basis_ker_C0: np.ndarray
    basis_ker_C: np.ndarray
    sigma_min_C0: float
    dims: dict

    def pi0(self, v: np.ndarray) -> np.ndarray:
        B = self.basis_ker_C0
        return (v @ B.conj()) @ B.T if v.ndim > 1 else B @ (B.conj().T @ v)

    def pi1(self, v: np.ndarray) -> np.ndarray:
        B = self.basis_ker_C
        return (v @ B.conj()) @ B.T if v.ndim > 1 else B @ (B.conj().T @ v)


def _kernel_split(svd_vectors: np.ndarray, s: np.ndarray, total: int):
    """Columns of svd_vectors belonging to the numerical kernel.

    svd_vectors holds an orthonormal basis ordered by descending singular
    value; vectors past the rank are the kernel.  Raises RankAmbiguous when
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
    return svd_vectors[:, rank:], rank


def helmholtz_projections(bundle: OperatorBundle, cache_dir: str | None = None) -> ProjectionBasis:
    """Dense rank-revealing kernels of C0 and C (desk scale: <= ~10^4 dofs)."""
    if cache_dir is not None:
        path = os.path.join(cache_dir, f"projections_{bundle.grid.content_hash()}.npz")
        if os.path.exists(path):
            data = np.load(path)
            return ProjectionBasis(
                basis_ker_C0=data["ker_C0"], basis_ker_C=data["ker_C"],
                sigma_min_C0=float(data["sigma_min"]),
                dims={k: int(v) for k, v in zip(data["dim_keys"], data["dim_vals"])},
            )

    dense = bundle.C0.toarray()
    U, s, Vt = np.linalg.svd(dense, full_matrices=True)
    ker_C0, rank = _kernel_split(Vt.T, s, bundle.n_edges)
    ker_C, _ = _kernel_split(U, s, bundle.n_faces)
    sigma_min = float(s[rank - 1]) if rank else 0.0

    dims = {
        "n_edges": bundle.n_edges,
        "n_faces": bundle.n_faces,
        "rank_C0": rank,
        "dim_ker_C0": bundle.n_edges - rank,
        "dim_ker_C": bundle.n_faces - rank,
        "dim_ran_G0": int(np.linalg.matrix_rank(bundle.G0.toarray())) if bundle.G0.shape[1] else 0,
        "dim_ker_D": bundle.D.shape[1] - int(np.linalg.matrix_rank(bundle.D.toarray())),
    }

    basis = ProjectionBasis(
        basis_ker_C0=ker_C0, basis_ker_C=ker_C, sigma_min_C0=sigma_min, dims=dims
    )
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        keys = list(dims.keys())
        np.savez(
            path, ker_C0=ker_C0, ker_C=ker_C, sigma_min=sigma_min,
            dim_keys=np.array(keys), dim_vals=np.array([dims[k] for k in keys]),
        )
    return basis


def _reduced_curl(bundle: OperatorBundle, basis: ProjectionBasis) -> np.ndarray:
    """C0 on an orthonormal basis of ker(C0)^perp: the orthonormal completion
    of the kernel basis by QR."""
    ker = basis.basis_ker_C0
    n = bundle.n_edges
    full, _ = np.linalg.qr(np.concatenate([ker, np.eye(n)], axis=1))
    return bundle.C0 @ full[:, ker.shape[1]:n]


def poincare_constant(bundle: OperatorBundle, basis: ProjectionBasis | None = None) -> float:
    """1/sigma_min of C0 restricted to ker(C0)^perp.

    Finite on the PEC box; computed through the reduced normal matrix on the
    kernel complement (cross-checked in tests against a dense SVD of C0).
    """
    if basis is None:
        basis = helmholtz_projections(bundle)
    red = _reduced_curl(bundle, basis)
    gram = red.T @ red
    w = np.linalg.eigvalsh(gram)
    sigma_min = float(np.sqrt(max(w[0], 0.0)))
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


def export_triplets(matrix: sparse.spmatrix, path: str):
    """Plain-text (row, col, value) triplets for cross-checking elsewhere."""
    coo = matrix.tocoo()
    with open(path, "w") as f:
        f.write(f"# {coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            f.write(f"{int(r)} {int(c)} {float(v)!r}\n")
