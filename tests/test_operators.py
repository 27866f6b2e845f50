"""Discrete operators: exact identities, projections, Poincare constant."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import memax
from memax import (
    YeeGrid,
    build_curl_pair,
    divergence_diagnostics,
    helmholtz_projections,
    poincare_constant,
)
from memax.operators import RANK_TOL, _modal_curl
from modal_oracle import transverse_mode_basis

GRIDS = [(4, 4, 4), (3, 4, 5)]


def edge_count_oracle(n):
    # combinatorial count written before the builder: interior edges per axis
    nx, ny, nz = n
    return nx * (ny - 1) * (nz - 1) + (nx - 1) * ny * (nz - 1) + (nx - 1) * (ny - 1) * nz


def face_count_oracle(n):
    nx, ny, nz = n
    return (nx + 1) * ny * nz + nx * (ny + 1) * nz + nx * ny * (nz + 1)


class TestExactIdentities:
    @pytest.mark.parametrize("n", [(4, 4, 4), (8, 8, 8), (3, 4, 5)])
    def test_skew_symmetry_exact(self, n):
        b = build_curl_pair(YeeGrid((1.0, 1.3, 0.8), n, 3, 1))
        AT = (b.A + b.A.T)
        assert AT.nnz == 0 or np.abs(AT.data).max() == 0.0

    @pytest.mark.parametrize("n", [(4, 4, 4), (8, 8, 8), (3, 4, 5)])
    def test_div_curl_exact_zero(self, n):
        b = build_curl_pair(YeeGrid((1.0, 1.3, 0.8), n, 3, 1))
        DC = (b.D @ b.C0)
        assert DC.nnz == 0 or np.abs(DC.data).max() == 0.0

    def test_curl_grad_exact_zero(self, bundle4):
        CG = bundle4.C0 @ bundle4.G0
        assert CG.nnz == 0 or np.abs(CG.data).max() == 0.0

    def test_curl_is_transpose(self, bundle4):
        gap = (bundle4.C - bundle4.C0.T)
        assert gap.nnz == 0 or np.abs(gap.data).max() == 0.0

    def test_dof_counts(self):
        for n in [(4, 4, 4), (8, 8, 8), (2, 3, 4)]:
            b = build_curl_pair(YeeGrid((1.0, 1.0, 1.0), n, 3, 1))
            assert b.n_edges == edge_count_oracle(n)
            assert b.n_faces == face_count_oracle(n)


class TestExactIdentitiesProperty:
    """Skewness and Div Curl0 = 0 hold exactly on random grids: cell counts,
    extents, interface axes and every interior interface index."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.tuples(*[st.integers(2, 6)] * 3),
           extents=st.tuples(*[st.floats(0.1, 10.0)] * 3),
           axis=st.integers(1, 3), index=st.integers(1, 5))
    def test_skew_and_div_curl_exact(self, n, extents, axis, index):
        index = 1 + (index - 1) % (n[axis - 1] - 1)    # every interior interface index
        b = build_curl_pair(YeeGrid(extents, n, axis, index))
        AT = b.A + b.A.T
        DC = b.D @ b.C0
        assert AT.nnz == 0 or np.abs(AT.data).max() == 0.0
        assert DC.nnz == 0 or np.abs(DC.data).max() == 0.0


class TestTransverseModes:
    @pytest.mark.parametrize("axis", [1, 2, 3])
    @pytest.mark.parametrize("n", [(4, 4, 4), (3, 4, 5), (2, 3, 2)])
    def test_orthonormal_and_mode_diagonal(self, n, axis):
        b = build_curl_pair(YeeGrid((1.0, 1.3, 0.8), n, axis, 1))
        T, mode = transverse_mode_basis(b)
        assert T.shape == (b.n_state, b.n_state) and mode.shape == (b.n_state,)
        gap = (T @ T.T - np.eye(b.n_state))
        assert np.abs(gap).max() < 1e-14
        # a diagonal that depends only on component and interface coordinate
        # (the material laws) commutes with T
        comp = np.concatenate([np.zeros(b.n_edges), np.ones(b.n_faces)])
        w = comp + np.concatenate([b.edge_positions, b.face_positions])[:, axis - 1]
        gap = (T @ np.diag(w) @ T.T) - np.diag(w)
        assert np.abs(gap).max() < 1e-14
        # the curl pair couples only rows of equal transverse mode
        Ahat = (T @ b.A @ T.T).toarray()
        cross = mode[:, None] != mode[None, :]
        assert np.abs(Ahat[cross]).max() <= 1e-13 * np.abs(b.A.data).max()
        assert np.abs(Ahat[~cross]).max() > 0.1 * np.abs(b.A.data).max()

    @pytest.mark.parametrize("axis", [1, 2, 3])
    @pytest.mark.parametrize("n", [(4, 4, 4), (3, 4, 5), (2, 3, 2)])
    def test_modal_curl_is_the_formed_product(self, n, axis):
        # the 1-D assembly equals T_f C0 T_e^T, cross-mode round-off included
        b = build_curl_pair(YeeGrid((1.0, 1.3, 0.8), n, axis, 1))
        T, _ = transverse_mode_basis(b)
        ne = b.n_edges
        formed = (T[ne:, ne:] @ b.C0 @ T[:ne, :ne].T).toarray()
        gap = np.abs(_modal_curl(b.grid).toarray() - formed).max()
        assert gap <= 1e-13 * np.abs(b.C0.data).max()


def _half(pos, h):
    """Where a dof coordinate sits half-way between nodes."""
    return np.abs(pos / h - np.floor(pos / h) - 0.5) < 1e-9


class TestGeometricAssembly:
    """C0, D and G0 rebuilt from the dof midpoints alone: ties the numbering
    to the positions that the region masks read."""

    CASES = [(n, axis) for n in [(3, 4, 5), (2, 3, 2), (4, 4, 4)] for axis in (1, 2, 3)]

    @staticmethod
    def _bundle(n, axis):
        b = build_curl_pair(YeeGrid((1.0, 1.3, 0.8), n, axis, 1))
        return b, np.array(b.grid.spacing), 1e-9 * min(b.grid.spacing)

    @pytest.mark.parametrize("n, axis", CASES)
    def test_curl_from_face_boundaries(self, n, axis):
        # C0[f, e] = +-1/h exactly when edge e lies on the boundary of face f,
        # + where e runs counterclockwise about the face normal
        b, h, tol = self._bundle(n, axis)
        half_e, half_f = _half(b.edge_positions, h), _half(b.face_positions, h)
        assert (half_e.sum(axis=1) == 1).all() and (half_f.sum(axis=1) == 2).all()
        along, normal = np.argmax(half_e, axis=1), np.argmin(half_f, axis=1)
        expected = np.zeros((b.n_faces, b.n_edges))
        ix = np.arange(b.n_edges)
        for f, (p, a) in enumerate(zip(b.face_positions, normal)):
            r = b.edge_positions - p
            c = (3 - a - along) % 3          # the third axis where along != a
            on = ((along != a) & (np.abs(r[:, a]) < tol) & (np.abs(r[ix, along]) < tol)
                  & (np.abs(np.abs(r[ix, c]) - 0.5 * h[c]) < tol))
            tangent = np.cross(np.eye(3)[a], r)
            expected[f, on] = np.sign(tangent[ix, along][on]) / h[c[on]]
        assert ((expected != 0).sum(axis=0) == 4).all()   # kept edges are interior: 4 faces each
        assert np.array_equal(b.C0.toarray(), expected)

    @pytest.mark.parametrize("n, axis", CASES)
    def test_divergence_from_cell_faces(self, n, axis):
        # D[cell, f] = +-1/h over the six faces of each cell, + on the outward side
        b, h, tol = self._bundle(n, axis)
        centres = [np.arange(m) * hh + 0.5 * hh for m, hh in zip(b.grid.n_cells, h)]
        cells = np.stack(np.meshgrid(*centres, indexing="ij"), axis=-1).reshape(-1, 3)
        normal = np.argmin(_half(b.face_positions, h), axis=1)
        ix = np.arange(b.n_faces)
        expected = np.zeros((len(cells), b.n_faces))
        for k, p in enumerate(cells):
            r = b.face_positions - p
            off = np.abs(r[ix, normal])
            on = (np.abs(off - 0.5 * h[normal]) < tol) & (np.abs(r).sum(axis=1) - off < tol)
            expected[k, on] = np.sign(r[ix, normal][on]) / h[normal[on]]
        assert ((expected != 0).sum(axis=1) == 6).all()
        assert np.array_equal(b.D.toarray(), expected)

    @pytest.mark.parametrize("n, axis", CASES)
    def test_gradient_from_edge_ends(self, n, axis):
        # G0[e, v] = +-1/h over the interior end nodes v of edge e, + at the head
        b, h, tol = self._bundle(n, axis)
        inner = [np.arange(1, m) * hh for m, hh in zip(b.grid.n_cells, h)]
        nodes = np.stack(np.meshgrid(*inner, indexing="ij"), axis=-1).reshape(-1, 3)
        along = np.argmax(_half(b.edge_positions, h), axis=1)
        expected = np.zeros((b.n_edges, len(nodes)))
        for e, (p, a) in enumerate(zip(b.edge_positions, along)):
            for side in (1.0, -1.0):
                end = p + side * 0.5 * h[a] * np.eye(3)[a]
                hit = np.flatnonzero(np.abs(nodes - end).max(axis=1) < tol)
                expected[e, hit] = side / h[a]
        assert np.array_equal(b.G0.toarray(), expected)


def dense_oracle(b):
    """Rank, sigma_min and kernel projectors of C0 from one dense SVD."""
    U, s, Vt = np.linalg.svd(b.C0.toarray(), full_matrices=True)
    rank = int(np.count_nonzero(s > RANK_TOL * s[0]))
    return rank, s[rank - 1], Vt[rank:].T @ Vt[rank:], U[:, rank:] @ U[:, rank:].T


class TestModalKernels:
    """The per-mode route against a dense SVD of C0 taken here."""

    @pytest.mark.parametrize("axis", [1, 2, 3])
    @pytest.mark.parametrize("n", GRIDS)
    def test_rank_and_sigma_min(self, n, axis):
        b = build_curl_pair(YeeGrid((1.0, 1.3, 0.8), n, axis, 1))
        basis = helmholtz_projections(b)
        rank, sigma_min, _, _ = dense_oracle(b)
        assert basis.dims["rank_C0"] == rank
        assert basis.dims["dim_ker_C0"] == b.n_edges - rank
        assert basis.dims["dim_ker_C"] == b.n_faces - rank
        assert abs(basis.sigma_min_C0 - sigma_min) <= 1e-12 * sigma_min
        assert abs(1.0 / poincare_constant(b, basis) - sigma_min) <= 1e-12 * sigma_min

    @pytest.mark.parametrize("axis", [1, 2, 3])
    @pytest.mark.parametrize("n", GRIDS)
    def test_projectors_match_dense(self, n, axis, rng):
        b = build_curl_pair(YeeGrid((1.0, 1.3, 0.8), n, axis, 1))
        basis = helmholtz_projections(b)
        _, _, P0, P1 = dense_oracle(b)
        assert np.abs(basis.pi0(np.eye(b.n_edges)) - P0).max() <= 1e-12
        assert np.abs(basis.pi1(np.eye(b.n_faces)) - P1).max() <= 1e-12
        v = rng.standard_normal(b.n_edges) + 1j * rng.standard_normal(b.n_edges)
        assert np.abs(basis.pi0(v) - P0 @ v).max() <= 1e-12 * np.abs(v).max()
        # complex rows, as the first-order estimates in test_stability.py pass their signals
        for P, n_dofs, pi in ((P0, b.n_edges, basis.pi0), (P1, b.n_faces, basis.pi1)):
            rows = rng.standard_normal((7, n_dofs)) + 1j * rng.standard_normal((7, n_dofs))
            assert np.abs(pi(rows) - rows @ P.T).max() <= 1e-12 * np.abs(rows).max()
        B0, B1 = basis.basis_ker_C0, basis.basis_ker_C
        assert np.abs(B0.T @ B0 - np.eye(B0.shape[1])).max() <= 1e-12
        assert np.abs(B1 @ B1.T - P1).max() <= 1e-12

    def test_basis_holds_no_sparse_matrix(self, basis4):
        # T_e and T_f are held as their 1-D factors, the kernels as one dense
        # block per mode
        assert not any(sparse.issparse(v) for v in vars(basis4).values())
        assert all(not sparse.issparse(K) for _, K in basis4.ker_C0_modal + basis4.ker_C_modal)


class TestClosedFormPoincare:
    """sigma_min is the lowest Yee cavity mode: two half-wavelength axes."""

    @pytest.mark.parametrize("axis", [1, 2, 3])
    @pytest.mark.parametrize("n", [(3, 4, 5), (2, 3, 2), (5, 3, 4)])
    def test_lowest_cavity_mode(self, n, axis):
        b = build_curl_pair(YeeGrid((1.0, 1.3, 0.8), n, axis, 1))
        h = b.grid.spacing
        lam = [(2.0 / h[a] * np.sin(np.pi / (2 * n[a]))) ** 2 for a in range(3)]
        closed = np.sqrt(min(lam[a] + lam[c] for a in range(3) for c in range(a + 1, 3)))
        sigma = 1.0 / poincare_constant(b)
        assert abs(sigma - closed) <= 1e-13 * closed


IMPORT_BUDGET = """
import json, os, sys, tempfile
import memax
from memax.cli import main

def loaded():
    return [m for m in ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph",
                        "scipy.fft") if m in sys.modules]

assert not loaded(), ("import memax", loaded())
with tempfile.TemporaryDirectory() as d:
    cfg = os.path.join(d, "config.json")
    with open(cfg, "w") as f:
        json.dump(memax.default_config_dict(), f)
    assert main(["solve", "--config", cfg, "--rho", "2.0", "--out", os.path.join(d, "s")]) == 0
    assert main(["scan", "--config", cfg, "--out", os.path.join(d, "c")]) == 0
assert not loaded(), ("memax solve and memax scan", loaded())
config = memax.RunConfig.from_dict(memax.default_config_dict())
material, law1, law2, _, _ = config.material()
memax.OracleStepper(config.bundle(), material, law1, law2, 0.02)
assert "scipy.linalg" in sys.modules, "the stepper's banded Cholesky loads scipy.linalg"
"""


def test_import_does_not_load_scipy_fft():
    # the mode factors are closed-form matrices and the kernel bases numpy
    # arrays, so import memax, a solve and a scan load no scipy.fft, no
    # scipy.linalg and no sparse.linalg or csgraph, each costing cold-start
    # time; only the oracle stepper loads scipy.linalg
    src = os.path.dirname(os.path.dirname(os.path.abspath(memax.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", IMPORT_BUDGET], env=env, timeout=300,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


LAB_TRAFFIC = """
import sys
import numpy as np
from memax import (BumpSpec, DrudeLorentzParams, DtPolarization, HistorySpec, KernelSpec,
                   LinearProblem, OracleStepper, PiecewiseMaterial, SampledKernel,
                   SaturableNonlinearity, TimeGrid, WeightedSignal, YeeGrid,
                   build_curl_pair, build_maxwell_inhomogeneity, causal_convolve, dl_law,
                   picard_solve, smooth_pulse)
p1, p2 = DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)]), DrudeLorentzParams(1.0, [(0.5, 1.2, 2.5)])
bundle = build_curl_pair(YeeGrid((1.0, 1.0, 1.0), (3, 3, 3), 2, 1))
material = PiecewiseMaterial(dl_law(p1), dl_law(p2), 1.0, 1.0)
rng = np.random.default_rng(1)
grid = TimeGrid(-1.0, 1.0 / 32.0, 256)
lag = TimeGrid(0.0, grid.dt, grid.n_samples)
g = WeightedSignal(grid, 2.0, 0.5 * smooth_pulse(grid.times, 0.0, 2.0)[:, None]
                   * rng.standard_normal(bundle.n_state)[None, :])
spec = KernelSpec.from_dl(DrudeLorentzParams(1.0, [(0.8, 1.5, 3.0)]), lag)
q = SaturableNonlinearity(3, 1.0)
picard_solve(LinearProblem(bundle, material, 2.0, g), DtPolarization(spec, q))
causal_convolve(SampledKernel(lag, np.exp(-lag.times)), g)
ht = np.arange(-16, 1) * grid.dt
h = HistorySpec(ht, np.outer(np.exp(0.8 * ht), rng.standard_normal(bundle.n_state)))
build_maxwell_inhomogeneity(h, BumpSpec(0.5), bundle, material, p1, p2, grid, 1.0,
                            nl_spec=spec, q=q)
stp = OracleStepper(bundle, material, p1, p2, 0.02, checkpoint_every=2)
stp.run(stp.initial_state(rng.standard_normal(bundle.n_edges)), None, None, 4)
heavy = ("signal", "optimize", "stats", "ndimage", "interpolate", "integrate")
sys.exit(", ".join(m for m in heavy if "scipy." + m in sys.modules) or None)
"""


def test_lab_traffic_loads_only_linalg_and_sparse():
    # a Picard solve, a convolution, a history conversion and stepper steps
    # in a fresh process (pytest may already hold SciPy): none of them may
    # pull in the heavy SciPy subpackages, each costing cold-start time
    src = os.path.dirname(os.path.dirname(os.path.abspath(memax.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", LAB_TRAFFIC], env=env, timeout=300,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


class TestProjections:
    def test_gradient_fields_fixed_by_pi0(self, bundle4, basis4, rng):
        grad = bundle4.G0 @ rng.standard_normal(bundle4.G0.shape[1])
        assert np.abs(basis4.pi0(grad) - grad).max() < 1e-10 * max(np.abs(grad).max(), 1.0)

    def test_complementarity(self, bundle4, basis4, rng):
        v = rng.standard_normal(bundle4.n_edges)
        p = basis4.pi0(v)
        total = np.dot(p, p) + np.dot(v - p, v - p)
        assert abs(total - np.dot(v, v)) < 1e-12 * np.dot(v, v)

    def test_kernel_annihilated(self, bundle4, basis4, rng):
        v = rng.standard_normal(bundle4.n_edges)
        assert np.abs(bundle4.C0 @ basis4.pi0(v)).max() < 1e-12 * np.abs(v).max()

    def test_idempotent_and_symmetric(self, bundle4, basis4, rng):
        v = rng.standard_normal(bundle4.n_edges)
        p1 = basis4.pi0(v)
        assert np.abs(basis4.pi0(p1) - p1).max() < 1e-12
        w = rng.standard_normal(bundle4.n_edges)
        # symmetry: <Pi v, w> = <v, Pi w>
        assert abs(np.dot(basis4.pi0(v), w) - np.dot(v, basis4.pi0(w))) < 1e-12

    def test_dimension_report(self, bundle4, basis4):
        dims = dict(basis4.dims)
        dims["dim_ran_G0"] = int(np.linalg.matrix_rank(bundle4.G0.toarray()))
        dims["dim_ker_D"] = bundle4.D.shape[1] - int(np.linalg.matrix_rank(bundle4.D.toarray()))
        # discrete ker(Curl0) is exactly the Dirichlet gradients on the box
        assert dims["dim_ker_C0"] == dims["dim_ran_G0"] == 27
        assert dims["rank_C0"] == bundle4.n_edges - 27
        # ker(Div) contains ran(Curl0); the counts are reported, not asserted
        assert dims["dim_ker_D"] >= dims["rank_C0"]


class TestPoincare:
    def test_positive_and_matches_svd_oracle(self, bundle4, basis4):
        c = poincare_constant(bundle4, basis4)
        assert np.isfinite(c) and c > 0
        # dense SVD oracle on C0 itself
        s = np.linalg.svd(bundle4.C0.toarray(), compute_uv=False)
        sigma_min = s[s > 1e-10 * s[0]].min()
        assert abs(1.0 / c - sigma_min) < 1e-8 * sigma_min

    def test_cavity_mode_scaling(self):
        # doubling the extents (same cell count) halves the first curl
        # frequency exactly; against the analytic PEC cavity value the
        # discrete sigma_min carries only the O(h^2) stencil error
        b1 = build_curl_pair(YeeGrid((1.0, 1.0, 1.0), (4, 4, 4), 3, 2))
        b2 = build_curl_pair(YeeGrid((2.0, 2.0, 2.0), (4, 4, 4), 3, 2))
        s1 = 1.0 / poincare_constant(b1)
        s2 = 1.0 / poincare_constant(b2)
        assert abs(s1 / s2 - 2.0) < 1e-10
        analytic = np.pi * np.sqrt(2.0)  # first resonant mode of the unit box
        assert abs(s1 - analytic) / analytic < 0.1

    def test_refinement_converges_to_cavity_mode(self):
        b8 = build_curl_pair(YeeGrid((1.0, 1.0, 1.0), (8, 8, 8), 3, 4))
        s8 = 1.0 / poincare_constant(b8)
        analytic = np.pi * np.sqrt(2.0)
        assert abs(s8 - analytic) / analytic < 0.01


class TestDivergenceDiagnostics:
    def test_zero_field(self, bundle4):
        traj = np.zeros((5, bundle4.n_faces))
        dev = divergence_diagnostics(bundle4, traj, np.ones(bundle4.n_faces))
        assert np.all(dev == 0.0)

    def test_curl_fields_conserved(self, bundle4, rng):
        # flux trajectories that stay in ran(C0) keep Div(mu H) constant
        base = bundle4.C0 @ rng.standard_normal(bundle4.n_edges)
        traj = np.outer(np.linspace(1.0, 0.2, 7), base)
        dev = divergence_diagnostics(bundle4, traj, np.ones(bundle4.n_faces))
        assert dev.max() < 1e-12 * np.abs(base).max()

    def test_detects_perturbation(self, bundle4, rng):
        base = bundle4.C0 @ rng.standard_normal(bundle4.n_edges)
        traj = np.tile(base, (4, 1))
        traj[2] += rng.standard_normal(bundle4.n_faces) * 0.01
        dev = divergence_diagnostics(bundle4, traj, np.ones(bundle4.n_faces))
        assert dev[2] > 100 * dev[1]


class TestRegionMasks:
    def test_masks_partition(self, bundle4):
        m = bundle4.edge_region_mask()
        assert m.any() and (~m).any()
        f = bundle4.face_region_mask()
        assert f.any() and (~f).any()

    def test_interface_plane_assignment(self):
        b = build_curl_pair(YeeGrid((1.0, 1.0, 1.0), (4, 4, 4), 3, 2))
        m = b.edge_region_mask()
        ax = b.grid.interface_axis - 1
        pos = b.edge_positions[:, ax]
        assert np.all(pos[m] < b.grid.interface_position)
        assert np.all(pos[~m] >= b.grid.interface_position - 1e-12)
