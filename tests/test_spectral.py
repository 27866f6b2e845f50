"""Per-frequency solution operator: bounds, causality, weight independence."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import splu, spsolve

import memax.operators as operators
import memax.spectral as spectral
from memax import (
    DrudeLorentzParams,
    DtPolarization,
    FrequencySingular,
    KernelSpec,
    LinearProblem,
    ModDLParams,
    PiecewiseMaterial,
    SaturableNonlinearity,
    SecondOrderProblem,
    SolutionOperator,
    TimeGrid,
    WeightedSignal,
    YeeGrid,
    build_curl_pair,
    dl_law,
    fourier_laplace,
    inverse_fourier_laplace,
    mod_dl_law,
    picard_solve,
    second_order_solve,
    smooth_pulse,
    solve_linear,
    stack_rhs,
    suggest_rho,
    verify_causality,
    verify_rho_independence,
    verify_time_regularity,
    weighted_norm,
)
from memax.errors import MemaxError
from memax.operators import transverse_mode_basis


def pulse_rhs(bundle, grid, rho, rng, t_on=0.0, t_off=2.0, div_free=False):
    if div_free:
        vec = np.concatenate([
            bundle.C @ rng.standard_normal(bundle.n_faces),
            bundle.C0 @ rng.standard_normal(bundle.n_edges),
        ])
    else:
        vec = rng.standard_normal(bundle.n_state)
    prof = smooth_pulse(grid.times, t_on, t_off)
    return WeightedSignal(grid, rho, prof[:, None] * vec[None, :])


def frequency_matrix(bundle, material, z):
    """z diag(eps(z), mu) + A, built from public pieces independently of the solver."""
    eps = material.eps_values(z, bundle.edge_region_mask())
    mu = np.where(bundle.face_region_mask(), material.mu1, material.mu2)
    return sparse.diags(np.concatenate([z * eps, z * mu])) + bundle.A


GRID = TimeGrid(-2.0, 1.0 / 32.0, 512)  # t in [-2, 14)


class TestSolveLinear:
    def test_zero_rhs(self, bundle4, material_dl):
        g = WeightedSignal(GRID, 2.0, np.zeros((GRID.n_samples, bundle4.n_state)))
        u, rep = solve_linear(LinearProblem(bundle4, material_dl, 2.0, g))
        assert not u.values.any()
        assert rep.norm_ratio == 0.0

    def test_linearity(self, bundle4, material_dl, rng):
        # superposition in the weighted norm (the operator's native norm)
        g1 = pulse_rhs(bundle4, GRID, 2.0, rng)
        g2 = pulse_rhs(bundle4, GRID, 2.0, rng, t_on=0.5, t_off=3.0)
        u1, _ = solve_linear(LinearProblem(bundle4, material_dl, 2.0, g1))
        u2, _ = solve_linear(LinearProblem(bundle4, material_dl, 2.0, g2))
        u12, _ = solve_linear(LinearProblem(bundle4, material_dl, 2.0,
                                            g1 * 0.3 + g2 * (-1.7)))
        gap = weighted_norm(u12 - (u1 * 0.3 - u2 * 1.7))
        assert gap <= 1e-12 * weighted_norm(u12)

    def test_norm_bound_batch(self, bundle4, material_dl, rng):
        # |S_rho g| <= (1/c_min) |g| with 2% headroom, 50 random data sets
        rho = 2.0
        op = SolutionOperator(bundle4, material_dl, rho, GRID)
        assert op.c_min > 0
        for _ in range(50):
            g = pulse_rhs(bundle4, GRID, rho, rng,
                          t_on=rng.uniform(-0.5, 0.5), t_off=rng.uniform(1.0, 4.0))
            u = op.apply(g)
            ratio = weighted_norm(u) / weighted_norm(g)
            assert ratio <= (1.0 + 0.02) / op.c_min

    def test_residuals_and_report(self, bundle4, material_dl, rng):
        g = pulse_rhs(bundle4, GRID, 2.0, rng)
        u, rep = solve_linear(LinearProblem(bundle4, material_dl, 2.0, g))
        assert rep.max_rel_residual < 1e-10
        assert rep.bound_ok()
        d = rep.to_dict()
        assert d["c_min_line"] == rep.c_min_line

    def test_solution_in_domain_per_frequency(self, bundle4, material_dl, rng):
        # the defining equation holds per frequency with finite A u_hat
        rho = 2.0
        g = pulse_rhs(bundle4, GRID, rho, rng)
        op = SolutionOperator(bundle4, material_dl, rho, GRID)
        G = fourier_laplace(g)
        U = op.apply_spectral(G.values)
        k = 17
        mat = frequency_matrix(bundle4, material_dl, op.z[k])
        res = np.linalg.norm(mat @ U[k] - G.values[k])
        assert np.isfinite(np.linalg.norm(bundle4.A @ U[k]))
        assert res < 1e-10 * np.linalg.norm(G.values[k])

    def test_real_data_real_solution(self, bundle4, material_dl, rng):
        # window sized so the e^{rho t} unweighting stays inside the float
        # dynamic range (rho * (t_end - t_peak) well under ln(1e10))
        grid = TimeGrid(-2.0, 1.0 / 32.0, 256)
        g = pulse_rhs(bundle4, grid, 2.0, rng)
        u, _ = solve_linear(LinearProblem(bundle4, material_dl, 2.0, g))
        assert np.abs(u.values.imag).max() < 1e-10 * np.abs(u.values).max()

    def test_refuses_uncertified_line(self, bundle4, material_dl, rng):
        g = pulse_rhs(bundle4, GRID, -0.5, rng)
        with pytest.raises(ValueError, match="certificate"):
            solve_linear(LinearProblem(bundle4, material_dl, -0.5, g))


@pytest.fixture(scope="module")
def material_mix(dl_params, dl_params_b):
    # distinct laws, mu and conductivity per region: every diagonal group differs
    return PiecewiseMaterial(dl_law(dl_params), dl_law(dl_params_b), 1.0, 2.0, sigma2=0.5)


class TestHalfLine:
    def test_real_data_exact_conjugate_symmetry(self, bundle4, material_mix, rng):
        g = pulse_rhs(bundle4, GRID, 2.0, rng)
        op = SolutionOperator(bundle4, material_mix, 2.0, GRID)
        G = fourier_laplace(g).values
        U = op.apply_spectral(G)
        n = GRID.n_samples
        k = np.arange(1, n // 2)
        assert np.array_equal(U[n - k], U[k].conj())
        assert not U[0].imag.any() and not U[n // 2].imag.any()
        m = n - 37  # a mirrored bin, never factored
        res = np.linalg.norm(frequency_matrix(bundle4, material_mix, op.z[m]) @ U[m] - G[m])
        assert res <= 1e-10 * np.linalg.norm(G[m])

    def test_complex_data_solves_every_bin(self, bundle4, material_mix, rng):
        g = pulse_rhs(bundle4, GRID, 2.0, rng)
        h = pulse_rhs(bundle4, GRID, 2.0, rng, t_on=0.5, t_off=3.0)
        G = fourier_laplace(g + h * 1j).values
        op = SolutionOperator(bundle4, material_mix, 2.0, GRID)
        U = op.apply_spectral(G)
        n = GRID.n_samples
        for k in (0, 5, n // 2, n - 5, n - 37):
            res = np.linalg.norm(frequency_matrix(bundle4, material_mix, op.z[k]) @ U[k] - G[k])
            assert res <= 1e-10 * np.linalg.norm(G[k])


class TestRealPath:
    """apply() solves real data on the rfft half line and returns it exactly
    real; the plain-DFT route agrees with the transform route."""

    @pytest.mark.parametrize("rho", [2.0, -0.015])
    @pytest.mark.parametrize("n, axis", [((4, 4, 4), 3), ((3, 4, 5), 1),
                                         ((3, 4, 5), 2), ((3, 4, 5), 3)])
    def test_matches_transform_route(self, n, axis, rho, material_mix, rng):
        b = build_curl_pair(YeeGrid((1.0, 1.3, 0.8), n, axis, 2))
        for grid in (GRID, TimeGrid(-2.0, 1.0 / 32.0, 511)):
            g = pulse_rhs(b, grid, rho, rng)
            op = SolutionOperator(b, material_mix, rho, grid, certificate_required=False)
            G = fourier_laplace(g, check=False)
            ref = inverse_fourier_laplace(G.with_values(op.apply_spectral(G.values)))
            u = op.apply(g)
            assert not u.values.imag.any()
            assert weighted_norm(u - ref) <= 1e-12 * weighted_norm(ref)

    def test_half_spectrum_rows_solved_as_given(self, bundle4, material_mix, rng):
        g = pulse_rhs(bundle4, GRID, 2.0, rng)
        op = SolutionOperator(bundle4, material_mix, 2.0, GRID)
        G = fourier_laplace(g).values
        n = GRID.n_samples
        assert np.array_equal(op.apply_spectral(G[: n // 2 + 1]), op.apply_spectral(G)[: n // 2 + 1])
        with pytest.raises(ValueError, match="rows"):
            op.apply_spectral(G[: n // 2])


TERMS = st.lists(st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 2.0), st.floats(0.0, 4.0)),
                 min_size=1, max_size=2)
LAW = st.tuples(st.floats(0.5, 3.0), TERMS, st.one_of(st.none(), st.floats(1.0, 8.0)))


def random_law(eps0, terms, r):
    """A DL law, or a mod-DL law when r is drawn."""
    p = DrudeLorentzParams(eps0, terms)
    return dl_law(p) if r is None else mod_dl_law(ModDLParams(p, r))


class TestRealPathProperty:
    """Real data gives an exactly real solution equal to the transform
    route's, on random grids, interfaces, laws and sample counts."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.tuples(*[st.integers(2, 6)] * 3), axis=st.integers(1, 3),
           index=st.integers(1, 5), laws=st.tuples(LAW, LAW),
           mu=st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0)),
           rho=st.floats(0.5, 3.0), n_samples=st.integers(16, 65),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_exactly_real_and_matches_transform_route(self, n, axis, index, laws, mu, rho,
                                                      n_samples, seed):
        index = 1 + (index - 1) % (n[axis - 1] - 1)    # every interior interface index
        b = build_curl_pair(YeeGrid((1.0, 1.3, 0.8), n, axis, index))
        material = PiecewiseMaterial(random_law(*laws[0]), random_law(*laws[1]), *mu)
        grid = TimeGrid(-1.0, 1.0 / 8.0, n_samples)
        g = pulse_rhs(b, grid, rho, np.random.default_rng(seed), t_on=-0.5, t_off=1.0)
        op = SolutionOperator(b, material, rho, grid, certificate_required=False)
        G = fourier_laplace(g, check=False)
        ref = inverse_fourier_laplace(G.with_values(op.apply_spectral(G.values)))
        u = op.apply(g)
        assert not u.values.imag.any()
        assert weighted_norm(u - ref) <= 1e-12 * weighted_norm(ref)


class TestFactorCounts:
    @pytest.fixture()
    def factor_calls(self, monkeypatch):
        calls = []
        band_lu = spectral._band_lu

        def counting(ab, kl, ku):
            calls.append(ab.shape[1])
            return band_lu(ab, kl, ku)

        monkeypatch.setattr(spectral, "_band_lu", counting)
        return calls

    def test_real_then_cached(self, bundle4, material_dl, rng, factor_calls):
        op = SolutionOperator(bundle4, material_dl, 2.0, GRID)
        op.apply(pulse_rhs(bundle4, GRID, 2.0, rng))
        assert len(factor_calls) == GRID.n_samples // 2 + 1
        op.apply(pulse_rhs(bundle4, GRID, 2.0, rng))
        assert len(factor_calls) == GRID.n_samples // 2 + 1

    def test_non_integer_window_start(self, bundle4, material_dl, rng, factor_calls):
        # the unit phase of the window offset no longer breaks the Nyquist
        # symmetry: real data stays on the half line
        grid = TimeGrid(-2.01, GRID.dt, GRID.n_samples)
        u = SolutionOperator(bundle4, material_dl, 2.0, grid).apply(pulse_rhs(bundle4, grid, 2.0, rng))
        assert len(factor_calls) == grid.n_samples // 2 + 1
        assert not u.values.imag.any()

    def test_nearly_real_data_half_line(self, bundle4, material_dl, rng, factor_calls):
        g = pulse_rhs(bundle4, GRID, 2.0, rng)
        op = SolutionOperator(bundle4, material_dl, 2.0, GRID)
        u = op.apply(g + g * 1e-14j)
        assert len(factor_calls) == GRID.n_samples // 2 + 1
        assert not u.values.imag.any()

    def test_picard_real_to_real(self, bundle4, material_dl, rng, factor_calls):
        # every Picard iterate stays real, so one half-line factor pass
        # serves all iterations
        grid = TimeGrid(-1.0, 1.0 / 32.0, 512)
        g = WeightedSignal(grid, 1.0, 0.5 * smooth_pulse(grid.times, 0.0, 2.0)[:, None]
                           * rng.standard_normal(bundle4.n_state)[None, :])
        spec = KernelSpec.from_dl(DrudeLorentzParams(1.0, [(0.8, 1.5, 3.0)]),
                                  TimeGrid(0.0, grid.dt, grid.n_samples))
        pol = DtPolarization(spec, SaturableNonlinearity(3, 1.0))
        prob = LinearProblem(bundle4, material_dl, 1.0, g)
        u, cert = picard_solve(prob, pol, rho=suggest_rho(prob, pol.lip_bound(), target=0.5))
        assert cert.iterations >= 3
        assert len(factor_calls) == grid.n_samples // 2 + 1
        assert not u.values.imag.any()

    def test_complex_data(self, bundle4, material_dl, rng, factor_calls):
        g = pulse_rhs(bundle4, GRID, 2.0, rng)
        SolutionOperator(bundle4, material_dl, 2.0, GRID).apply(g * 1j + g)
        assert len(factor_calls) == GRID.n_samples

    def test_second_order_real_data(self, bundle4, material_dl, rng, factor_calls):
        prof = smooth_pulse(GRID.times, 0.0, 1.5)
        phi = WeightedSignal(GRID, 2.5, prof[:, None] * rng.standard_normal(bundle4.n_edges)[None, :])
        psi = WeightedSignal(GRID, 2.5, prof[:, None] * rng.standard_normal(bundle4.n_faces)[None, :])
        second_order_solve(SecondOrderProblem(bundle4, material_dl, 2.5, phi, psi))
        assert factor_calls == [bundle4.n_edges] * (GRID.n_samples // 2 + 1)

    def test_growth_beyond_certificate_raises(self, bundle4, material_dl, rng, monkeypatch):
        # a factor whose solve returns twice the true solution breaks
        # growth * c_min <= 1 + slack on the first solved bin
        band_lu = spectral._band_lu

        class Doubled:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                return 2.0 * self.lu.solve(rhs)

        monkeypatch.setattr(spectral, "_band_lu",
                            lambda ab, kl, ku: Doubled(band_lu(ab, kl, ku)))
        op = SolutionOperator(bundle4, material_dl, 2.0, GRID)
        assert op.c_min > 0
        with pytest.raises(FrequencySingular) as info:
            op.apply(pulse_rhs(bundle4, GRID, 2.0, rng))
        assert info.value.z == op.z[0]
        assert info.value.cond > 1.0 + spectral.BOUND_SLACK

    def test_one_shot_refactors_refined_bins(self, bundle4, material_dl, rng, factor_calls):
        # solve_linear keeps no factors: a bin that takes the refinement
        # step is factored a second time
        rho = -0.001
        _, rep = solve_linear(LinearProblem(bundle4, material_dl, rho,
                                            pulse_rhs(bundle4, GRID, rho, rng)),
                              certificate_required=False)
        assert rep.refined_bins >= 1
        assert len(factor_calls) == GRID.n_samples // 2 + 1 + rep.refined_bins


class TestFactorCacheBytes:
    def test_one_shot_holds_none(self, bundle4, material_dl, rng, monkeypatch):
        op = SolutionOperator(bundle4, material_dl, 2.0, GRID, keep_factors=False)
        op.apply(pulse_rhs(bundle4, GRID, 2.0, rng))
        assert op.factor_cache_bytes == 0
        built = []

        class Recorded(SolutionOperator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(spectral, "SolutionOperator", Recorded)
        solve_linear(LinearProblem(bundle4, material_dl, 2.0, pulse_rhs(bundle4, GRID, 2.0, rng)))
        assert len(built) == 1 and built[0].factor_cache_bytes == 0

    def test_kept_factors_counted(self, bundle4, material_dl, rng):
        op = SolutionOperator(bundle4, material_dl, 2.0, GRID)
        g = pulse_rhs(bundle4, GRID, 2.0, rng)
        op.apply(g)
        op.apply(g)
        rows = 2 * op._kl + op._ku + 1
        assert op.factor_cache_bytes == (GRID.n_samples // 2 + 1) * rows * bundle4.n_edges * 16


class TestLineBlocks:
    """apply_spectral solves the line in blocks of LINE_BLOCK_BYTES per
    working array: 1 bin, 7 bins and the whole line give the same bits."""

    BLOCKS = (1, 7, GRID.n_samples)

    @pytest.mark.parametrize("rho", [-0.001, 2.0])
    def test_results_independent_of_block_size(self, rho, bundle4, material_dl, rng, monkeypatch):
        n = GRID.n_samples
        g = pulse_rhs(bundle4, GRID, rho, rng)
        shape = (n, bundle4.n_state)
        full = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)   # every bin
        hermitian = fourier_laplace(g, check=False).values                     # the half line
        spectra = (full, hermitian, hermitian[: n // 2 + 1].copy())
        runs = []
        for bins in self.BLOCKS:
            monkeypatch.setattr(spectral, "LINE_BLOCK_BYTES", 16 * bundle4.n_state * bins)
            op = SolutionOperator(bundle4, material_dl, rho, GRID, certificate_required=False)
            stats = {}
            run = [(op.apply(g, stats).values, stats)]
            for ghat in spectra:
                given = ghat.copy()
                stats = {}
                run.append((op.apply_spectral(ghat, stats), stats))
                assert np.array_equal(ghat, given)     # the input is left as it was
            runs.append(run)
        if rho < 0:
            assert runs[0][0][1]["refined_bins"] >= 1
        for run in runs[1:]:
            for (u, stats), (u0, stats0) in zip(run, runs[0]):
                assert np.array_equal(u, u0)
                assert stats.keys() == stats0.keys()
                assert all(np.array_equal(stats[k], stats0[k]) for k in stats)

    def test_growth_failure_names_the_same_bin(self, bundle4, material_dl, rng, monkeypatch):
        # the factors of bins 9 and 20 (factored in bin order) solve to four
        # times the solution, past the certificate (growth * c_min is about
        # 0.43 and 0.39 there); every block size raises for bin 9
        band_lu = spectral._band_lu

        class Scaled:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                return 4.0 * self.lu.solve(rhs)

        g = pulse_rhs(bundle4, GRID, 2.0, rng)
        for bins in self.BLOCKS:
            calls = []

            def scaling(ab, kl, ku):
                calls.append(ab.shape[1])
                lu = band_lu(ab, kl, ku)
                return Scaled(lu) if len(calls) - 1 in (9, 20) else lu

            monkeypatch.setattr(spectral, "LINE_BLOCK_BYTES", 16 * bundle4.n_state * bins)
            monkeypatch.setattr(spectral, "_band_lu", scaling)
            op = SolutionOperator(bundle4, material_dl, 2.0, GRID)
            with pytest.raises(FrequencySingular) as info:
                op.apply(g)
            assert info.value.z == op.z[9]
            assert info.value.cond > 1.0 + spectral.BOUND_SLACK


def traced_peak(call) -> int:
    """tracemalloc's peak bytes above the start while call() runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestWorkingBytes:
    """Peak bytes of the solve path against the bytes of the data signal:
    the line is solved in reused block buffers, not in bins x dofs arrays."""

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_kept_operator_reapply(self, n, material_dl, rng):
        b = build_curl_pair(YeeGrid((1.0, 1.0, 1.0), (n, n, n), 3, n // 2))
        g = pulse_rhs(b, GRID, 2.0, rng)
        op = SolutionOperator(b, material_dl, 2.0, GRID)
        op.apply(g)
        assert traced_peak(lambda: op.apply(g)) <= 1.6 * g.values.nbytes

    def test_one_shot_solve(self, material_dl, rng):
        b = build_curl_pair(YeeGrid((1.0, 1.0, 1.0), (6, 6, 6), 3, 3))
        g = pulse_rhs(b, GRID, 2.0, rng)
        peak = traced_peak(lambda: solve_linear(LinearProblem(b, material_dl, 2.0, g)))
        assert peak <= 2.5 * g.values.nbytes


class TestModalSolve:
    """The per-bin solve in the transverse cavity-mode basis against sparse LU
    of the original matrices, on every interface axis and a non-cubic grid."""

    @pytest.mark.parametrize("axis", [1, 2, 3])
    @pytest.mark.parametrize("n", [(4, 4, 4), (6, 6, 6), (3, 4, 5), (2, 3, 2)])
    def test_matches_original_basis_lu(self, n, axis, material_mix, rng):
        b = build_curl_pair(YeeGrid((1.0, 1.3, 0.8), n, axis, 1))
        grid = TimeGrid(-2.0, 1.0 / 8.0, 64)
        rho = 2.0
        bins = (0, 3, grid.n_samples // 2, grid.n_samples - 3, grid.n_samples - 17)

        def noise(dim):  # complex data: no bin is mirrored, every bin is solved
            shape = (grid.n_samples, dim)
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        G = noise(b.n_state)
        op = SolutionOperator(b, material_mix, rho, grid)
        U = op.apply_spectral(G)
        for k in bins:
            ref = spsolve(frequency_matrix(b, material_mix, op.z[k]).tocsc(), G[k])
            assert np.linalg.norm(U[k] - ref) <= 1e-12 * np.linalg.norm(ref)

        phi = WeightedSignal(grid, rho, noise(b.n_edges))
        psi = WeightedSignal(grid, rho, noise(b.n_faces))
        E = fourier_laplace(second_order_solve(
            SecondOrderProblem(b, material_mix, rho, phi, psi)), check=False).values
        Phi = fourier_laplace(phi, check=False).values
        Psi = fourier_laplace(psi, check=False).values
        mu = np.where(b.face_region_mask(), material_mix.mu1, material_mix.mu2)
        curl_curl = b.C @ sparse.diags(1.0 / mu) @ b.C0
        for k in bins:
            z = op.z[k]
            eps = material_mix.eps_values(z, b.edge_region_mask())
            mat = (sparse.diags(z * z * eps) + curl_curl).tocsc()
            ref = spsolve(mat, z * Phi[k] + b.C @ (Psi[k] / mu))
            assert np.linalg.norm(E[k] - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_modal_factors_sparse_and_exact(self, bundle4, material_mix, rng, monkeypatch):
        # guards the within-mode assembly (a coupled system widens the band) and
        # the transforms (refinement would hide a wrong one, at two solves a bin);
        # nnz is the stored band of the edge system against SuperLU's fill of the full one
        factors, solves = [], []
        band_lu = spectral._band_lu

        class Counted:
            def __init__(self, lu):
                self.lu = lu
                self.nnz = lu.nnz

            def solve(self, rhs):
                solves.append(rhs.shape)
                return self.lu.solve(rhs)

        def keeping(ab, kl, ku):
            factors.append(Counted(band_lu(ab, kl, ku)))
            return factors[-1]

        monkeypatch.setattr(spectral, "_band_lu", keeping)
        op = SolutionOperator(bundle4, material_mix, 2.0, GRID)
        op.apply(pulse_rhs(bundle4, GRID, 2.0, rng))
        assert len(solves) == len(factors) == GRID.n_samples // 2 + 1
        k = 5
        full = splu(frequency_matrix(bundle4, material_mix, op.z[k]).tocsc())
        assert factors[k].nnz <= 0.5 * full.nnz

    def test_mode_coupling_raises(self, bundle4, material_dl, monkeypatch):
        # a basis that does not decouple K is refused at construction: identity
        # tangential factors keep the mode labels but not the modes
        component_modes = spectral._component_modes

        def identity(grid, kind):
            return [(shape, {b: np.eye(len(F)) for b, F in factors.items()}, labels)
                    for shape, factors, labels in component_modes(grid, kind)]

        monkeypatch.setattr(spectral, "_component_modes", identity)
        with pytest.raises(MemaxError, match="transverse modes couple"):
            SolutionOperator(bundle4, material_dl, 2.0, GRID)

    def test_solve_never_forms_basis(self, bundle4, material_dl, rng, monkeypatch):
        # the transforms are matrix-free: the solve path builds no explicit T
        def refuse(bundle):
            raise AssertionError("transverse_mode_basis called on the solve path")

        monkeypatch.setattr(operators, "transverse_mode_basis", refuse)
        op = SolutionOperator(bundle4, material_dl, 2.0, GRID)
        u = op.apply(pulse_rhs(bundle4, GRID, 2.0, rng))
        assert np.isfinite(u.values).all() and not u.values.imag.any()
        assert not any(sparse.issparse(v) for v in vars(op).values())


class TestModalTransform:
    """The matrix-free T_e and T_e^T against the rows of the explicit
    transverse_mode_basis, in the solver's sorted order."""

    @pytest.mark.parametrize("cols", [1, 257])
    @pytest.mark.parametrize("axis", [1, 2, 3])
    @pytest.mark.parametrize("n", [(4, 4, 4), (3, 4, 5), (2, 3, 2)])
    def test_matches_explicit_basis(self, n, axis, cols, material_mix, rng):
        b = build_curl_pair(YeeGrid((1.0, 1.3, 0.8), n, axis, 1))
        op = SolutionOperator(b, material_mix, 2.0, GRID, certificate_required=False)
        T, mode = transverse_mode_basis(b)
        ne = b.n_edges
        labels = np.concatenate([c[2] for c in op._modes])
        assert np.array_equal(labels, mode[:ne])
        Te = T[:ne, :ne][op._perm]
        x = rng.standard_normal((ne, cols)) + 1j * rng.standard_normal((ne, cols))
        ref = (Te @ x).T
        modal = op._to_modal(x.copy())      # it may overwrite its input
        assert modal.flags.c_contiguous      # each bin's column handed to LAPACK as is
        assert np.abs(modal - ref).max() <= 1e-14 * np.abs(ref).max()
        y = rng.standard_normal((cols, ne)) + 1j * rng.standard_normal((cols, ne))
        ref = Te.T @ y.T
        assert np.abs(op._from_modal(y) - ref).max() <= 1e-14 * np.abs(ref).max()


class TestModalSystem:
    """The factored modal edge system built from the modal curl against the
    within-mode part of the formed product T_e C mu^-1 C0 T_e^T, kept here as
    the oracle, with the edges in the solver's order.  The modal curl itself
    is checked against T_f C0 T_e^T in test_operators."""

    @staticmethod
    def within_mode(formed, row_mode, col_mode):
        formed = formed.tocoo()
        keep = row_mode[formed.row] == col_mode[formed.col]
        out = np.zeros(formed.shape)
        np.add.at(out, (formed.row[keep], formed.col[keep]), formed.data[keep])
        return out

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("axis", [1, 2, 3])
    @pytest.mark.parametrize("n", [(4, 4, 4), (3, 4, 5)])
    def test_matches_formed_product(self, n, axis, order, material_mix, rng, monkeypatch):
        # the operator that solve_linear (order 1) or second_order_solve
        # (order 2) factors; material_mix has mu = (1, 2)
        b = build_curl_pair(YeeGrid((1.0, 1.3, 0.8), n, axis, 1))
        grid = TimeGrid(-2.0, 1.0 / 8.0, 16)
        built = []

        class Recorded(SolutionOperator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(spectral, "SolutionOperator", Recorded)
        if order == 1:
            g = pulse_rhs(b, grid, 2.0, rng, t_on=-1.5, t_off=-0.5)
            solve_linear(LinearProblem(b, material_mix, 2.0, g, check_wraparound=False))
        else:
            prof = smooth_pulse(grid.times, -1.5, -0.5)
            phi = WeightedSignal(grid, 2.0, prof[:, None] * rng.standard_normal(b.n_edges)[None, :])
            psi = WeightedSignal(grid, 2.0, prof[:, None] * rng.standard_normal(b.n_faces)[None, :])
            second_order_solve(SecondOrderProblem(b, material_mix, 2.0, phi, psi))
        assert len(built) == 1
        op = built[0]
        T, mode = transverse_mode_basis(b)
        ne, perm = b.n_edges, op._perm
        assert np.array_equal(np.sort(perm), np.arange(ne))
        assert np.all(np.diff(mode[perm]) >= 0)   # one block per mode
        Te = T[:ne, :ne][perm]
        mu = np.where(b.face_region_mask(), material_mix.mu1, material_mix.mu2)
        K = b.C @ sparse.diags(1.0 / mu) @ b.C0
        oracle = self.within_mode(Te @ K @ Te.T, mode[perm], mode[perm])
        kl, ku, ab = op._kl, op._ku, op._band
        assert max(kl, ku) <= 3
        unpacked = np.zeros((ne, ne), dtype=complex)
        for off in range(-ku, kl + 1):
            j = np.arange(max(0, -off), min(ne, ne - off))
            unpacked[j + off, j] = ab[kl + ku + off, j]
        assert not ab[:kl].any()
        assert np.abs(unpacked - oracle).max() <= 1e-13 * np.abs(K.data).max()

    def test_perturbed_modal_curl_raises(self, bundle4, material_dl, monkeypatch):
        # a modal curl that no longer carries C0 is refused at construction
        modal_curl = spectral._modal_curl

        def perturbed(grid):
            chat = modal_curl(grid).copy()
            chat.data[7] *= 1.0 + 1e-8
            return chat

        monkeypatch.setattr(spectral, "_modal_curl", perturbed)
        with pytest.raises(MemaxError, match="transverse modes couple"):
            SolutionOperator(bundle4, material_dl, 2.0, GRID)


class TestSmallFrequency:
    """Eliminating H squares the conditioning of the bins nearest z = 0; one
    step of refinement keeps their residual in the original basis small."""

    @pytest.mark.parametrize("rho", [-0.015, -0.001])
    @pytest.mark.parametrize("axis", [1, 2, 3])
    @pytest.mark.parametrize("n", [(4, 4, 4), (3, 4, 5), (2, 3, 2)])
    def test_residual_every_bin(self, n, axis, rho, material_dl, rng):
        b = build_curl_pair(YeeGrid((1.0, 1.3, 0.8), n, axis, 1))
        grid = TimeGrid(-2.0, 1.0 / 8.0, 64)
        shape = (grid.n_samples, b.n_state)
        G = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        op = SolutionOperator(b, material_dl, rho, grid, certificate_required=False)
        U = op.apply_spectral(G)
        for k in range(grid.n_samples):
            res = np.linalg.norm(frequency_matrix(b, material_dl, op.z[k]) @ U[k] - G[k])
            assert res <= 1e-10 * np.linalg.norm(G[k])

    def test_refined_bins_reported(self, bundle4, material_dl, rng):
        rho = -0.001
        g = pulse_rhs(bundle4, GRID, rho, rng)
        _, rep = solve_linear(LinearProblem(bundle4, material_dl, rho, g),
                              certificate_required=False)
        assert rep.refined_bins >= 1
        assert rep.max_rel_residual <= 1e-10
        # the refined bin is xi = 0: data there alone takes the one step
        op = SolutionOperator(bundle4, material_dl, rho, GRID, certificate_required=False)
        G = np.zeros((GRID.n_samples, bundle4.n_state), dtype=complex)
        G[0] = rng.standard_normal(bundle4.n_state)
        stats = {}
        op.apply_spectral(G, stats)
        assert stats["refined_bins"] == 1
        assert stats["worst_residual_z"] == [rho, 0.0]
        _, rep = solve_linear(LinearProblem(bundle4, material_dl, 2.0,
                                            pulse_rhs(bundle4, GRID, 2.0, rng)))
        assert rep.refined_bins == 0
        assert len(rep.worst_residual_z) == len(rep.worst_growth_z) == 2

    def test_growth_x_cmin_zero_without_certificate(self, bundle4, material_dl, rng):
        rho = -0.001
        _, rep = solve_linear(LinearProblem(bundle4, material_dl, rho,
                                            pulse_rhs(bundle4, GRID, rho, rng)),
                              certificate_required=False)
        assert rep.c_min_line <= 0 and rep.max_growth > 0
        assert rep.growth_x_cmin == 0.0

    def test_zero_frequency_raises(self, bundle4, material_dl, rng):
        # H cannot be eliminated at z = 0: refused before any division
        op = SolutionOperator(bundle4, material_dl, 0.0, GRID, certificate_required=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FrequencySingular) as info:
                op.apply(pulse_rhs(bundle4, GRID, 0.0, rng))
        assert info.value.z == 0
        assert info.value.__cause__ is None   # not a failed factorization

    def test_zero_pivot_names_bin(self, bundle4, material_dl, rng, monkeypatch):
        zgbtrf, calls = spectral.zgbtrf, []

        def failing(ab, kl, ku, **kwargs):
            lu, ipiv, info = zgbtrf(ab, kl, ku, **kwargs)
            calls.append(info)
            return lu, ipiv, 3 if len(calls) == 6 else info

        monkeypatch.setattr(spectral, "zgbtrf", failing)
        op = SolutionOperator(bundle4, material_dl, 2.0, GRID)
        with pytest.raises(FrequencySingular, match="singular") as info:
            op.apply(pulse_rhs(bundle4, GRID, 2.0, rng))
        assert info.value.z == op.z[5]


class TestCausality:
    def test_impulse_margin(self, bundle4, material_dl, rng):
        rho = 2.0
        g = pulse_rhs(bundle4, GRID, rho, rng, t_on=1.0, t_off=2.0)
        margin = verify_causality(LinearProblem(bundle4, material_dl, rho, g), a=1.0)
        assert margin < 1e-8

    def test_anticausal_counterexample_detected(self, bundle4, material_dl, rng):
        # test the test: a time-reversed response must violate the margin
        rho = 2.0
        g = pulse_rhs(bundle4, GRID, rho, rng, t_on=4.0, t_off=5.0)
        u, _ = solve_linear(LinearProblem(bundle4, material_dl, rho, g))
        flipped = u.with_values(u.values[::-1])
        mags = np.abs(flipped.values).max(axis=1)
        pre = mags[GRID.times < 4.0 - 0.5 * GRID.dt].max() / mags.max()
        assert pre > 1e-3

    def test_margin_grows_with_loose_windows(self, bundle4, material_dl, rng):
        # monotonicity report: pushing the pulse toward the window end leaves
        # less room for the weighted tail, degrading the margin
        rho = 2.0
        margins = []
        for t_on in (1.0, 6.0, 10.0):
            g = pulse_rhs(bundle4, GRID, rho, rng, t_on=t_on, t_off=t_on + 1.0)
            margins.append(verify_causality(
                LinearProblem(bundle4, material_dl, rho, g), a=t_on))
        assert margins[0] <= margins[-1] * 10  # recorded trend, generous slack
        assert margins[-1] > margins[0]


class TestRhoIndependence:
    def test_same_weight_zero_gap(self, bundle4, material_dl, rng):
        g = pulse_rhs(bundle4, GRID, 2.0, rng)
        gap = verify_rho_independence(LinearProblem(bundle4, material_dl, 2.0, g), 2.0, 2.0)
        assert gap < 1e-14

    def test_one_vs_two(self, bundle4, material_dl, rng):
        g = pulse_rhs(bundle4, GRID, 2.0, rng)
        gap = verify_rho_independence(LinearProblem(bundle4, material_dl, 2.0, g), 1.0, 2.0)
        assert gap < 1e-6

    def test_slowly_decaying_data_diagnostic(self, bundle4, material_dl, rng):
        # data whose weighted tail is not negligible at the smaller weight
        # produces a visibly larger gap: the two-space membership matters
        vals = np.exp(-0.3 * np.clip(GRID.times, 0.0, None)) * (GRID.times > 0)
        vec = rng.standard_normal(bundle4.n_state)
        g = WeightedSignal(GRID, 2.0, vals[:, None] * vec[None, :], wrap_tol=1.0)
        bad = verify_rho_independence(
            LinearProblem(bundle4, material_dl, 2.0, g, check_wraparound=False), 0.5, 2.0)
        good_g = pulse_rhs(bundle4, GRID, 2.0, rng)
        good = verify_rho_independence(
            LinearProblem(bundle4, material_dl, 2.0, good_g), 0.5, 2.0)
        assert bad > 10 * good


class TestTimeRegularity:
    def test_zero_rhs(self, bundle4, material_dl):
        g = WeightedSignal(GRID, 2.0, np.zeros((GRID.n_samples, bundle4.n_state)))
        gap = verify_time_regularity(LinearProblem(bundle4, material_dl, 2.0, g))
        assert gap == 0.0

    def test_spectral_identity(self, bundle4, material_dl, rng):
        g = pulse_rhs(bundle4, GRID, 2.0, rng)
        gap = verify_time_regularity(LinearProblem(bundle4, material_dl, 2.0, g))
        assert gap < 1e-8

    def test_finite_difference_cross_check(self, bundle4, material_dl, rng):
        # d/dt u by centered differences vs the spectral derivative: O(dt^2)
        from memax import spectral_derivative

        g = pulse_rhs(bundle4, GRID, 2.0, rng)
        u, _ = solve_linear(LinearProblem(bundle4, material_dl, 2.0, g))
        du = spectral_derivative(u, check=False)
        fd = np.gradient(u.values.real, GRID.dt, axis=0)
        sl = (GRID.times > -1.0) & (GRID.times < 8.0)
        err = np.abs(du.values.real[sl] - fd[sl]).max()
        scale = np.abs(du.values[sl]).max()
        assert err < 30 * GRID.dt ** 2 * scale


class TestSecondOrder:
    def test_consistency_with_first_order(self, bundle4, material_dl, rng):
        rho = 2.5
        prof = smooth_pulse(GRID.times, 0.0, 1.5)
        phi = WeightedSignal(GRID, rho, prof[:, None] * rng.standard_normal(bundle4.n_edges)[None, :])
        psi = WeightedSignal(GRID, rho, prof[:, None] * rng.standard_normal(bundle4.n_faces)[None, :])
        g = stack_rhs(bundle4, phi, psi)
        u1, _ = solve_linear(LinearProblem(bundle4, material_dl, rho, g))
        E1 = u1.with_values(u1.values[:, : bundle4.n_edges])
        E2 = second_order_solve(SecondOrderProblem(bundle4, material_dl, rho, phi, psi))
        gap = weighted_norm(E1 - E2) / weighted_norm(E1)
        assert gap < 1e-8

    def test_refuses_uncertified_line(self, bundle4, material_dl, rng):
        rho = -0.5
        prof = smooth_pulse(GRID.times, 0.0, 1.5)
        phi = WeightedSignal(GRID, rho, prof[:, None] * rng.standard_normal(bundle4.n_edges)[None, :])
        psi = WeightedSignal(GRID, rho, prof[:, None] * rng.standard_normal(bundle4.n_faces)[None, :])
        problem = SecondOrderProblem(bundle4, material_dl, rho, phi, psi)
        with pytest.raises(ValueError, match="no accretivity certificate"):
            second_order_solve(problem)
        E = second_order_solve(problem, certificate_required=False)
        assert E.state_dim == bundle4.n_edges
        assert np.all(np.isfinite(E.values))

    def test_static_limit_block_structure(self, bundle4, basis4, material_dl, rng):
        # at z -> 0 the range-block equation collapses to the reduced
        # curl-curl solve: solve the full frequency system at tiny z and
        # compare with the projected static solution
        z = 1e-6
        emask = bundle4.edge_region_mask()
        eps = material_dl.eps_values(z, emask)
        mu = np.where(bundle4.face_region_mask(), material_dl.mu1, material_dl.mu2)
        K = (bundle4.C @ sparse.diags(1.0 / mu) @ bundle4.C0).tocsc()
        ghat = bundle4.C @ rng.standard_normal(bundle4.n_faces)  # in ran(C)
        mat = (sparse.diags(z * z * eps) + K).tocsc()
        from scipy.sparse.linalg import splu, spsolve

        E_full = spsolve(mat, ghat.astype(complex))
        # independent reduced solve on ker(C0)^perp; the kernel component of
        # E_full legitimately carries the eps-coupling, so only the
        # kernel-complement projection collapses to the curl-curl solve
        ker = basis4.basis_ker_C0
        full, _ = np.linalg.qr(np.concatenate([ker, np.eye(bundle4.n_edges)], axis=1))
        comp = full[:, ker.shape[1]:bundle4.n_edges]
        K00 = comp.T @ (K @ comp)
        E0_red = np.linalg.solve(K00, comp.T @ ghat)
        proj_full = comp.T @ E_full.real
        assert np.linalg.norm(proj_full - E0_red) < 1e-6 * np.linalg.norm(E0_red)

    def test_stability_norm_bound_observed(self, bundle4, material_mod, rng):
        # |E|_{-nu} <= K(|g| + |h|): finite empirical K across a batch
        nu = 0.015
        grid = TimeGrid(-2.0, 0.25, 512)
        ratios = []
        for _ in range(20):
            vec = np.concatenate([
                bundle4.C @ rng.standard_normal(bundle4.n_faces),
                bundle4.C0 @ rng.standard_normal(bundle4.n_edges),
            ])
            prof = smooth_pulse(grid.times, 0.0, 2.0)
            g = WeightedSignal(grid, -nu, prof[:, None] * vec[None, :])
            u, _ = solve_linear(LinearProblem(bundle4, material_mod, -nu, g),
                                certificate_required=False)
            ratios.append(weighted_norm(u) / weighted_norm(g))
        assert np.isfinite(ratios).all()
        assert max(ratios) < 100.0
