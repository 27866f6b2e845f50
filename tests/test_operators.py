"""Discrete operators: exact identities, projections, Poincare constant."""

import numpy as np
import pytest

from memax import (
    YeeGrid,
    build_curl_pair,
    divergence_diagnostics,
    export_triplets,
    helmholtz_projections,
    poincare_constant,
)
from memax.operators import transverse_mode_basis


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
        dims = basis4.dims
        # discrete ker(Curl0) is exactly the Dirichlet gradients on the box
        assert dims["dim_ker_C0"] == dims["dim_ran_G0"] == 27
        assert dims["rank_C0"] == bundle4.n_edges - 27
        # ker(Div) contains ran(Curl0); the counts are reported, not asserted
        assert dims["dim_ker_D"] >= dims["rank_C0"]

    def test_cache_round_trip(self, bundle4, tmp_path):
        b1 = helmholtz_projections(bundle4, cache_dir=str(tmp_path))
        b2 = helmholtz_projections(bundle4, cache_dir=str(tmp_path))
        assert np.array_equal(b1.basis_ker_C0, b2.basis_ker_C0)
        assert b1.dims == b2.dims


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


class TestExport:
    def test_triplet_format(self, bundle4, tmp_path):
        path = str(tmp_path / "c0.txt")
        export_triplets(bundle4.C0, path)
        lines = open(path).read().strip().splitlines()
        header = lines[0].split()
        assert header[1] == str(bundle4.n_faces)
        assert len(lines) - 1 == bundle4.C0.nnz
        r, c, v = lines[1].split()
        assert float(v) != 0.0
