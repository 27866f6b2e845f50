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
    RunConfig,
    SaturableNonlinearity,
    SolutionOperator,
    TimeGrid,
    UncertifiedLine,
    WeightedSignal,
    YeeGrid,
    build_curl_pair,
    default_config_dict,
    dl_law,
    fourier_laplace,
    helmholtz_projections,
    inverse_fourier_laplace,
    line_certificate,
    mod_dl_law,
    picard_solve,
    smooth_pulse,
    solve_linear,
    stack_rhs,
    suggest_rho,
    verify_causality,
    verify_rho_independence,
    weighted_norm,
)
from memax.errors import MemaxError
from memax.signals import _to_line
from memax.spectral import ModalReduction
from modal_oracle import transverse_mode_basis


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


@pytest.fixture()
def factor_calls(monkeypatch):
    """The number of bins each batched factor of the solver covers, in order."""
    calls = []
    factor = SolutionOperator._factor

    def counting(self, ks):
        calls.append(ks.size)
        return factor(self, ks)

    monkeypatch.setattr(SolutionOperator, "_factor", counting)
    return calls


def edge_systems(grid):
    """(F, S, m): the full and single-component transverse modes of the edge
    system and the length of every tridiagonal system, from the grid alone."""
    ax = grid.interface_axis - 1
    n1, n2 = (grid.n_cells[b] for b in range(3) if b != ax)
    return (n1 - 1) * (n2 - 1), n1 + n2 - 2, grid.n_cells[ax] - 1


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
        with pytest.raises(UncertifiedLine, match="certificate") as exc:
            solve_linear(LinearProblem(bundle4, material_dl, -0.5, g))
        assert exc.value.rho == -0.5 and exc.value.c_min <= 0.0


@pytest.fixture(scope="module")
def material_mix(dl_params, dl_params_b):
    # distinct laws, mu and conductivity per region: every diagonal group differs
    return PiecewiseMaterial(dl_law(dl_params), dl_law(dl_params_b), 1.0, 2.0, sigma2=0.5)


class TestHalfLine:
    def test_real_data_exact_conjugate_symmetry(self, bundle4, material_mix, rng, factor_calls):
        # a full spectrum is solved on every bin, a Hermitian one included
        g = pulse_rhs(bundle4, GRID, 2.0, rng)
        op = SolutionOperator(bundle4, material_mix, 2.0, GRID)
        G = fourier_laplace(g).values
        U = op.apply_spectral(G)
        n = GRID.n_samples
        assert sum(factor_calls) == n
        for k in range(n):
            res = np.linalg.norm(frequency_matrix(bundle4, material_mix, op.z[k]) @ U[k] - G[k])
            assert res <= 1e-10 * np.linalg.norm(G[k])

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


    def test_zeroed_rows_of_a_half_spectrum(self, bundle4, material_mix, rng):
        # rows left out of the solve are exact zeros, and the solved rows
        # have the bytes of the same rows in a solve of the whole spectrum
        n = GRID.n_samples
        G = fourier_laplace(pulse_rhs(bundle4, GRID, 2.0, rng)).values[: n // 2 + 1].copy()
        op = SolutionOperator(bundle4, material_mix, 2.0, GRID)
        whole = op.apply_spectral(G)
        rows = [0, 3, 4, 100, n // 2]
        G[rows] = 0.0
        U = op.apply_spectral(G)
        assert np.array_equal(U[rows], np.zeros((len(rows), bundle4.n_state)))
        solved = np.setdiff1d(np.arange(n // 2 + 1), rows)
        assert U[solved].tobytes() == whole[solved].tobytes()


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

    @pytest.mark.parametrize("n", [2, 3, 128])
    @pytest.mark.parametrize("imag", [0.0, 1e-14, 1.0])
    def test_apply_is_the_inline_formula(self, n, imag, bundle4, material_mix, rng):
        # the plain DFT of g e^{-rho t}: the rfft half line when the weighted
        # samples are real to 1e-12, the fft full line otherwise
        grid = TimeGrid(-2.0, 1.0 / 8.0, n)
        prof = smooth_pulse(grid.times, -2.5, 2.0)[:, None]
        g = WeightedSignal(grid, 2.0, prof * (rng.standard_normal(bundle4.n_state)
                                             + imag * 1j * rng.standard_normal(bundle4.n_state)))
        op = SolutionOperator(bundle4, material_mix, 2.0, grid)
        w = g.values * np.exp(-2.0 * grid.times)[:, None]
        if np.iscomplexobj(w) and np.abs(w.imag).max() > 1e-12 * np.abs(w).max():
            ref = np.fft.ifft(op.apply_spectral(np.fft.fft(w, axis=0)), axis=0)
        else:
            ref = np.fft.irfft(op.apply_spectral(np.fft.rfft(w.real, axis=0)), n, axis=0)
        ref *= np.exp(2.0 * grid.times)[:, None]
        u = op.apply(g)
        assert u.values.dtype == ref.dtype and np.array_equal(u.values, ref)

    def test_apply_refuses_another_grid_or_weight(self, bundle4, material_mix, rng):
        # the transform pair weights by the signal's own rho: a signal on
        # another line is refused, not solved at the operator's z
        op = SolutionOperator(bundle4, material_mix, 2.0, GRID)
        for g in (pulse_rhs(bundle4, GRID, 3.0, rng),
                  pulse_rhs(bundle4, TimeGrid(-2.0, 1.0 / 32.0, 256), 2.0, rng)):
            with pytest.raises(ValueError, match="grid or weight"):
                op.apply(g)

    def test_construction_evaluates_each_law_once(self, bundle4, monkeypatch):
        # c_min is read off the line values the solve uses: one eval_chi_dl
        # call per region law over the whole line, none for the certificate
        import memax.materials as materials

        sizes = []
        eval_chi_dl = materials.eval_chi_dl

        def counted(z, p):
            sizes.append(np.size(z))
            return eval_chi_dl(z, p)

        monkeypatch.setattr(materials, "eval_chi_dl", counted)
        material, *_ = RunConfig.from_dict(default_config_dict()).material()
        op = SolutionOperator(bundle4, material, 2.0, GRID)
        assert sizes == [GRID.n_samples] * 2
        monkeypatch.undo()
        assert op.c_min == line_certificate(material, 2.0, GRID.xi)

    def test_half_spectrum_rows_solved_as_given(self, bundle4, material_mix, rng):
        g = pulse_rhs(bundle4, GRID, 2.0, rng)
        op = SolutionOperator(bundle4, material_mix, 2.0, GRID)
        G = fourier_laplace(g).values
        n = GRID.n_samples
        half, full = op.apply_spectral(G[: n // 2 + 1]), op.apply_spectral(G)[: n // 2 + 1]
        full[[0, n // 2]] = full[[0, n // 2]].real   # the self-mirrored bins keep their real part
        gap = np.linalg.norm(half - full, axis=1)
        assert np.all(gap <= 1e-10 * np.linalg.norm(full, axis=1))
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
        # the full route solves the Nyquist bin as it is; the half line keeps
        # its real part, and so does the real part of the full route's output
        ref = ref.with_values(ref.values.real)
        u = op.apply(g)
        assert not u.values.imag.any()
        assert weighted_norm(u - ref) <= 1e-12 * weighted_norm(ref)


class TestFactorCounts:
    def test_real_then_cached(self, bundle4, material_dl, rng, factor_calls):
        # the half line's factors are one sweep, which the re-apply reads
        op = SolutionOperator(bundle4, material_dl, 2.0, GRID)
        op.apply(pulse_rhs(bundle4, GRID, 2.0, rng))
        assert factor_calls == [GRID.n_samples // 2 + 1]
        op.apply(pulse_rhs(bundle4, GRID, 2.0, rng))
        assert factor_calls == [GRID.n_samples // 2 + 1]

    def test_non_integer_window_start(self, bundle4, material_dl, rng, factor_calls):
        # the unit phase of the window offset no longer breaks the Nyquist
        # symmetry: real data stays on the half line
        grid = TimeGrid(-2.01, GRID.dt, GRID.n_samples)
        u = SolutionOperator(bundle4, material_dl, 2.0, grid).apply(pulse_rhs(bundle4, grid, 2.0, rng))
        assert sum(factor_calls) == grid.n_samples // 2 + 1
        assert not u.values.imag.any()

    def test_nearly_real_data_half_line(self, bundle4, material_dl, rng, factor_calls):
        g = pulse_rhs(bundle4, GRID, 2.0, rng)
        op = SolutionOperator(bundle4, material_dl, 2.0, GRID)
        u = op.apply(g + g * 1e-14j)
        assert sum(factor_calls) == GRID.n_samples // 2 + 1
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
        u, cert = picard_solve(prob, pol, rho=suggest_rho(prob, pol.lip_bound(spec.rho_kappa), target=0.5))
        assert cert.iterations >= 3
        assert sum(factor_calls) == grid.n_samples // 2 + 1
        assert not u.values.imag.any()

    def test_complex_data(self, bundle4, material_dl, rng, factor_calls):
        g = pulse_rhs(bundle4, GRID, 2.0, rng)
        SolutionOperator(bundle4, material_dl, 2.0, GRID).apply(g * 1j + g)
        assert sum(factor_calls) == GRID.n_samples

    def test_second_order_real_data(self, bundle4, material_dl, rng, monkeypatch):
        # on a fresh bundle the construction check's two seeded columns, then
        # the half line's bins, each factored once, as systems of the edges
        # alone; a second solve reuses the bundle's record and its check
        b = build_curl_pair(bundle4.grid)
        rows = []
        factor = ModalReduction.factor

        def counting(self, ks, zl):
            rows.extend([self.diag.size + self.nn.size] * zl.shape[1])
            return factor(self, ks, zl)

        monkeypatch.setattr(ModalReduction, "factor", counting)
        prof = smooth_pulse(GRID.times, 0.0, 1.5)
        phi = WeightedSignal(GRID, 2.5, prof[:, None] * rng.standard_normal(b.n_edges)[None, :])
        psi = WeightedSignal(GRID, 2.5, prof[:, None] * rng.standard_normal(b.n_faces)[None, :])
        for check in (2, 0):
            rows.clear()
            solve_linear(LinearProblem(b, material_dl, 2.5, stack_rhs(b, phi, psi),
                                       check_wraparound=False))
            assert rows == [b.n_edges] * (check + GRID.n_samples // 2 + 1)

    def test_growth_beyond_certificate_raises(self, bundle4, material_dl, rng, monkeypatch):
        # factors whose solve returns twice the true solution break
        # growth * c_min <= 1 + slack on the first solved bin
        op = SolutionOperator(bundle4, material_dl, 2.0, GRID)
        assert op.c_min > 0
        solve = ModalReduction.solve
        monkeypatch.setattr(ModalReduction, "solve", lambda self, fac, y: 2.0 * solve(self, fac, y))
        with pytest.raises(FrequencySingular) as info:
            op.apply(pulse_rhs(bundle4, GRID, 2.0, rng))
        assert info.value.z == op.z[0]
        assert info.value.cond > 1.0 + spectral.BOUND_SLACK

    def test_one_shot_refines_on_the_block_factors(self, bundle4, material_dl, rng,
                                                   factor_calls):
        # solve_linear keeps no factors, yet a bin that takes the refinement
        # step is not factored a second time: it reuses its block's factors
        rho = -0.001
        _, rep = solve_linear(LinearProblem(bundle4, material_dl, rho,
                                            pulse_rhs(bundle4, GRID, rho, rng)),
                              certificate_required=False)
        assert rep.refined_bins >= 1
        assert sum(factor_calls) == GRID.n_samples // 2 + 1


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
        # per bin: (2F + S) m reciprocal pivots, F (m - 1) TM off-diagonals
        # and F (m + 1) reciprocal E_n diagonals, complex
        F, S, m = edge_systems(bundle4.grid)
        assert op.factor_cache_bytes == (GRID.n_samples // 2 + 1) * (4 * F + S) * m * 16

    def test_n8_reapply_factors_nothing(self, material_dl, rng, factor_calls, monkeypatch):
        # 2904 dofs: the line's factors (about 6 MB) fit the byte budget, and
        # a re-apply solves every block on views of the kept factors
        b = build_curl_pair(YeeGrid((1.0, 1.0, 1.0), (8, 8, 8), 3, 4))
        g = pulse_rhs(b, GRID, 2.0, rng)
        op = SolutionOperator(b, material_dl, 2.0, GRID)
        op.apply(g)
        assert sum(factor_calls) == GRID.n_samples // 2 + 1
        used, solve = [], ModalReduction.solve
        monkeypatch.setattr(ModalReduction, "solve",
                            lambda self, fac, y: used.append(fac) or solve(self, fac, y))
        op.apply(g)
        assert sum(factor_calls) == GRID.n_samples // 2 + 1
        assert op.factor_cache_bytes <= spectral.FACTOR_CACHE_BYTES
        assert used and all(np.shares_memory(f.q, op._kept.q) for f in used)

    @pytest.mark.parametrize("spare", [0, 0.5])
    def test_budget_keeps_the_first_bins(self, spare, bundle4, material_dl, rng, factor_calls,
                                         monkeypatch):
        # in blocks of 7 bins, a budget of 14 bins' worth (17.5 with half a
        # block to spare) keeps the factors of the first 14 (17) bins, swept
        # in the first call; every other bin factors on each apply, and the
        # solution has the same bits as an unbounded operator's
        monkeypatch.setattr(spectral, "LINE_BLOCK_BYTES", 16 * bundle4.n_state * 7)
        g = pulse_rhs(bundle4, GRID, 2.0, rng)
        unbounded = SolutionOperator(bundle4, material_dl, 2.0, GRID)
        ref = [unbounded.apply(g).values for _ in range(2)]
        bins = GRID.n_samples // 2 + 1
        assert sum(factor_calls) == bins
        per_bin = unbounded.factor_cache_bytes // bins
        monkeypatch.setattr(spectral, "FACTOR_CACHE_BYTES", int((2 + spare) * 7 * per_bin))
        kept = 14 if spare == 0 else 17
        factor_calls.clear()
        op = SolutionOperator(bundle4, material_dl, 2.0, GRID)
        u = op.apply(g)
        assert sum(factor_calls) == bins and factor_calls[0] == kept
        assert list(op._kept.ks) == list(range(kept))
        assert op.factor_cache_bytes == kept * per_bin <= spectral.FACTOR_CACHE_BYTES
        assert np.array_equal(u.values, ref[0])
        u = op.apply(g)
        assert sum(factor_calls) == bins + bins - kept
        assert op.factor_cache_bytes == kept * per_bin <= spectral.FACTOR_CACHE_BYTES
        assert np.array_equal(u.values, ref[1])

    def test_reapply_with_other_zero_rows_factors_nothing(self, bundle4, material_dl, rng,
                                                          factor_calls):
        # a re-apply whose zero rows differ reads every bin it solves from the
        # kept sweep, and holds one copy; a complex full line then replaces
        # the sweep by its 512 bins
        n = GRID.n_samples
        G = fourier_laplace(pulse_rhs(bundle4, GRID, 2.0, rng)).values[: n // 2 + 1].copy()
        op = SolutionOperator(bundle4, material_dl, 2.0, GRID)
        op.apply_spectral(G)
        assert sum(factor_calls) == n // 2 + 1 and op.factor_cache_bytes == 518112
        G[3] = 0.0
        U = op.apply_spectral(G)
        assert sum(factor_calls) == n // 2 + 1 and op.factor_cache_bytes == 518112
        fresh = SolutionOperator(bundle4, material_dl, 2.0, GRID).apply_spectral(G)
        assert U.tobytes() == fresh.tobytes()
        full = rng.standard_normal((n, bundle4.n_state)) + 1j * rng.standard_normal((n, bundle4.n_state))
        factor_calls.clear()
        U = op.apply_spectral(full)
        assert factor_calls == [n] and op._kept.ks.size == n
        fresh = SolutionOperator(bundle4, material_dl, 2.0, GRID).apply_spectral(full)
        assert U.tobytes() == fresh.tobytes()


class TestLineBlocks:
    """apply_spectral solves the line in blocks of LINE_BLOCK_BYTES per
    working array: 1 bin, 7 bins and the whole line give the same bits."""

    BLOCKS = (1, 7, GRID.n_samples)
    # (rho, grid): bundle4's grid, n=8, and (3, 4, 5) on every interface axis
    CONFIGS = [pytest.param(-0.001, None, id="-0.001"), pytest.param(2.0, None, id="2.0"),
               pytest.param(2.0, YeeGrid((1.0, 1.0, 1.0), (8, 8, 8), 3, 4), id="2.0-n8")] + [
        pytest.param(2.0, YeeGrid((1.0, 1.3, 0.8), (3, 4, 5), axis, 2), id=f"2.0-345-axis{axis}")
        for axis in (1, 2, 3)]

    @pytest.mark.parametrize("rho, grid", CONFIGS)
    def test_results_independent_of_block_size(self, rho, grid, bundle4, material_dl, rng,
                                               monkeypatch):
        b = bundle4 if grid is None else build_curl_pair(grid)
        n = GRID.n_samples
        g = pulse_rhs(b, GRID, rho, rng)
        shape = (n, b.n_state)
        full = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)   # every bin
        hermitian = fourier_laplace(g, check=False).values                     # every bin too
        # the other grids check apply() alone: at n=8 a whole-line block of a
        # full spectrum (512 columns) moves the bits of the dense mode transform
        spectra = (full, hermitian, hermitian[: n // 2 + 1].copy()) if grid is None else ()
        runs = []
        for bins in self.BLOCKS:
            monkeypatch.setattr(spectral, "LINE_BLOCK_BYTES", 16 * b.n_state * bins)
            op = SolutionOperator(b, material_dl, rho, GRID, certificate_required=False)
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
        # the factors of bins 9 and 20 solve to four times the solution, past
        # the certificate (growth * c_min is about 0.43 and 0.39 there);
        # every block size raises for bin 9
        solve = ModalReduction.solve

        def scaling(self, fac, y):
            solve(self, fac, y)
            y[:, np.isin(fac.ks, (9, 20))] *= 4.0
            return y

        monkeypatch.setattr(ModalReduction, "solve", scaling)
        g = pulse_rhs(bundle4, GRID, 2.0, rng)
        for bins in self.BLOCKS:
            monkeypatch.setattr(spectral, "LINE_BLOCK_BYTES", 16 * bundle4.n_state * bins)
            op = SolutionOperator(bundle4, material_dl, 2.0, GRID)
            with pytest.raises(FrequencySingular) as info:
                op.apply(g)
            assert info.value.z == op.z[9]
            assert info.value.cond > 1.0 + spectral.BOUND_SLACK


class TestEdgeData:
    """_solve_line on edge data alone (n_edges columns, the faces zero) is
    the solve of the whole spectrum [M, 0], signed zeros aside: the solution
    written to the caller's n_state-column buffer (a zero row included), the
    per-bin statistics, and the data left as it was.  Half and full lines,
    at a certified weight and at a decay weight (the COND_LIMIT branch,
    where bins refine), and with one block's bin forced through refinement."""

    @pytest.mark.parametrize("rho", [2.0, -0.001], ids=["certified", "decay"])
    @pytest.mark.parametrize("half", [True, False], ids=["half", "full"])
    @pytest.mark.parametrize("forced", [False, True], ids=["as-solved", "forced-refine"])
    def test_edge_data_is_the_whole_solve(self, rho, half, forced, bundle4, material_dl, rng,
                                          monkeypatch):
        rows = GRID.n_samples // 2 + 1 if half else GRID.n_samples
        ne = bundle4.n_edges
        M = np.asfortranarray(rng.standard_normal((rows, ne)) + 1j * rng.standard_normal((rows, ne)))
        M[5] = 0.0
        if half:
            M[0] = M[0].real
        norms, calls = spectral._column_norms, []

        def forcing(x):   # a block's third call norms its residuals: report bin 0's as 1
            calls.append(x.shape)
            out = norms(x)
            if forced and len(calls) == 3:
                out[0] = 1.0
            return out

        monkeypatch.setattr(spectral, "_column_norms", forcing)
        op = SolutionOperator(bundle4, material_dl, rho, GRID, certificate_required=False)
        whole = np.asfortranarray(np.hstack([M, np.zeros((rows, bundle4.n_faces))]))
        stats = [{}, {}]
        op._solve_line(whole, stats[0])
        calls.clear()
        given, out = M.copy(), np.full((rows, bundle4.n_state), np.nan + 0j, order="F")
        op._solve_line(M, stats[1], out)
        assert calls[0] == (ne, calls[1][1])   # the block normed the edge data alone
        np.testing.assert_array_equal(out, whole)
        assert np.array_equal(M, given)
        assert stats[0].keys() == stats[1].keys()
        assert all(np.array_equal(stats[0][k], stats[1][k]) for k in stats[0])
        assert (stats[1]["refined_bins"] >= 1) == (forced or rho < 0)

    def test_block_passes_on_edge_rows(self, bundle4, material_dl, rng):
        # _solve and _residual on the edge rows alone give what they give on
        # [g_E, 0], for any u: the face residual keeps its sign
        op = SolutionOperator(bundle4, material_dl, 2.0, GRID)
        ks = np.arange(1, 9)
        d = np.take(op._lines[ks].T, op._group, axis=0)
        shape = (bundle4.n_state, ks.size)
        g, u = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
        g[bundle4.n_edges:] = 0.0
        edge = g[:bundle4.n_edges]
        np.testing.assert_array_equal(op._residual(d, u, edge, np.empty_like(g)),
                                      op._residual(d, u, g, np.empty_like(g)))
        x, y = np.empty_like(g), np.empty_like(g)
        np.testing.assert_array_equal(op._solve(op._factor(ks), d, edge, x),
                                      op._solve(op._factor(ks), d, g, y))
        np.testing.assert_array_equal(x, y)


class TestBlockPasses:
    """A block's diagonal, its H data scaling and its residual, bit for bit
    against the formulas they stand for: take(lines) * weight with lines
    (z eps1, z eps2, z) and weight (1, mu), g_H / mu, and g - (d u + A u).
    The diagonal lives in the residual buffer until _residual forms d u over
    it, so a hook reads it there first."""

    @pytest.mark.parametrize("half", [True, False])
    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_bits_of_the_formed_passes(self, axis, half, material_dl, rng, monkeypatch):
        b = build_curl_pair(YeeGrid((1.0, 1.3, 0.8), (3, 4, 5), axis, 2))
        material = PiecewiseMaterial(material_dl.law1, material_dl.law2, 1.0, 2.5, sigma2=0.3)
        grid = TimeGrid(-2.0, 1.0 / 8.0, 64)
        op = SolutionOperator(b, material, 2.0, grid)
        n, ne = grid.n_samples, b.n_edges
        ks = np.arange(n // 2 + 1 if half else n)
        G = rng.standard_normal((ks.size, b.n_state)) + 1j * rng.standard_normal((ks.size, b.n_state))
        diagonals, residual = [], SolutionOperator._residual

        def reading(self, d, *args):   # the diagonal as the residual receives it
            diagonals.append(d.copy())
            return residual(self, d, *args)

        monkeypatch.setattr(SolutionOperator, "_residual", reading)
        u, _, _, refined = op._solve_block(op._factor(ks), G, half)
        g, _, r = op._workspace(ks.size)
        assert refined == 0 and len(diagonals) == 1   # r holds the residual of the first solve
        d = diagonals[0]
        l1, l2 = material.eps_laws()
        lines = np.stack([op.z * l1(op.z), op.z * l2(op.z), op.z], axis=1)[ks]
        mu = np.where(b.face_region_mask(), 1.0, 2.5)
        group = np.concatenate([np.where(b.edge_region_mask(), 0, 1), np.full(b.n_faces, 2)])
        weight = np.concatenate([np.ones(ne), mu])
        formed = np.take(lines.T, group, axis=0) * weight[:, None]
        assert d.tobytes() == formed.tobytes()
        red = op._reduction
        E = red.to_modal(op.z[ks] * g[:ne] + b.C @ (g[ne:] / mu[:, None]))
        E = red.from_modal(red.solve(op._factor(ks), E))
        H = (g[ne:] - b.C0 @ E) / formed[ne:]
        keep = slice(1, -1) if half else slice(None)   # xi = 0 and Nyquist keep their real part
        assert u[:, keep].tobytes() == np.concatenate([E, H])[:, keep].tobytes()
        uk, gk = u[:, keep], g[:, keep]
        assert r[:, keep].tobytes() == (gk - (formed[:, keep] * uk + b.A @ uk)).tobytes()


class TestRenormedColumns:
    """After the mirror step and after refinement a block norms again only the
    columns they changed: its growth is the whole block's _column_norms(u) /
    gn bit for bit, and a refined bin's residual that of the whole block's
    final solution.  Half and full lines, with bins 1 and 2 forced through
    refinement (their first residuals reported as 1) or as solved."""

    @pytest.mark.parametrize("half", [True, False], ids=["half", "full"])
    @pytest.mark.parametrize("forced", [False, True], ids=["as-solved", "forced-refine"])
    def test_growth_and_residuals_of_the_whole_block(self, half, forced, bundle4, material_dl,
                                                     rng, monkeypatch):
        n = GRID.n_samples
        ks = np.arange(n // 2 + 1 if half else n)
        G = rng.standard_normal((ks.size, bundle4.n_state)) + 1j * rng.standard_normal(
            (ks.size, bundle4.n_state))
        norms, calls = spectral._column_norms, []

        def forcing(x):   # a block's third call norms its first residuals
            calls.append(x.shape[1])
            out = norms(x)
            if forced and len(calls) == 3:
                out[1:3] = 1.0
            return out

        monkeypatch.setattr(spectral, "_column_norms", forcing)
        op = SolutionOperator(bundle4, material_dl, 2.0, GRID)
        u, res, growth, refined = op._solve_block(op._factor(ks), G, half)
        g, _, _ = op._workspace(ks.size)
        assert refined == (2 if forced else 0)
        touched = refined + (2 if half else 0)   # the refined bins, xi = 0 and Nyquist
        assert calls[3:] == ([refined] if forced else []) + ([touched] if touched else [])
        gn = norms(g)
        assert growth.tobytes() == (norms(u) / gn).tobytes()   # the whole-block formula
        d = np.take(op._lines[ks].T, op._group, axis=0)
        whole = norms(op._residual(d, u, g, np.empty_like(u))) / gn
        kept = slice(1, -1) if half else slice(None)   # the mirror step leaves res as solved
        assert res[kept].tobytes() == whole[kept].tobytes()


class TestRealViewProducts:
    """_solve and _residual take their curl products with the real C and C0
    on the float view of the complex block: the bytes of the complex
    products, on a block that holds exact zeros and negative zeros."""

    def test_bytes_of_the_complex_products(self, bundle4, material_dl, rng, monkeypatch):
        op = SolutionOperator(bundle4, material_dl, 2.0, GRID)
        ks = np.arange(1, 9)
        fac = op._factor(ks)
        d = np.take(op._lines[ks].T, op._group, axis=0)
        g = rng.standard_normal((bundle4.n_state, ks.size)) + 1j * rng.standard_normal(
            (bundle4.n_state, ks.size))
        g[rng.random(g.shape) < 0.3] = 0.0
        g.real[rng.random(g.shape) < 0.3] = -0.0
        g.imag[rng.random(g.shape) < 0.3] = -0.0
        g[:, 0] = complex(-0.0, -0.0)   # a bin of negative zeros only
        g[:, 1] = g[:, 1].real   # and one of real data

        def run():
            u = np.empty_like(g)
            c0e = op._solve(fac, d, g, u)
            fused = op._residual(d, u, g, np.empty_like(g), c0e)
            both = op._residual(d, u[:, ::-1], g, np.empty_like(g))   # a strided u
            return [x.tobytes() for x in (u, c0e, fused, both)]

        real_view = run()
        zeros = np.frombuffer(real_view[0] + real_view[2], dtype=np.float64)
        zeros = zeros[zeros == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()   # both signs come out
        monkeypatch.setattr(spectral, "_real_times", lambda M, x: M @ x)
        assert run() == real_view


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
    """Peak bytes of the solve path against the bytes of the data as a
    complex128 signal, 16 n_samples n_state: the line is solved in reused
    block buffers, not in bins x dofs arrays, and real data stays float64."""

    @staticmethod
    def complex_bytes(b):
        return 16 * GRID.n_samples * b.n_state

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_kept_operator_reapply(self, n, material_dl, rng):
        b = build_curl_pair(YeeGrid((1.0, 1.0, 1.0), (n, n, n), 3, n // 2))
        g = pulse_rhs(b, GRID, 2.0, rng)
        op = SolutionOperator(b, material_dl, 2.0, GRID)
        op.apply(g)
        assert traced_peak(lambda: op.apply(g)) <= 1.6 * self.complex_bytes(b)

    def test_conjugate_symmetric_full_spectrum(self, material_dl, rng):
        # a full spectrum is solved on every bin in the block buffers: no
        # spectrum-sized temporaries beside the result
        b = build_curl_pair(YeeGrid((1.0, 1.0, 1.0), (6, 6, 6), 3, 3))
        g = pulse_rhs(b, GRID, 2.0, rng)
        ghat = np.fft.fft(g.values * np.exp(-2.0 * GRID.times)[:, None], axis=0)
        op = SolutionOperator(b, material_dl, 2.0, GRID)
        op.apply_spectral(ghat)
        assert traced_peak(lambda: op.apply_spectral(ghat)) <= 1.3 * self.complex_bytes(b)

    def one_shot_peak(self, material, rng):
        b = build_curl_pair(YeeGrid((1.0, 1.0, 1.0), (6, 6, 6), 3, 3))
        g = pulse_rhs(b, GRID, 2.0, rng)
        peak = traced_peak(lambda: solve_linear(LinearProblem(b, material, 2.0, g)))
        return peak / self.complex_bytes(b)

    def test_one_shot_solve(self, material_dl, rng):
        assert self.one_shot_peak(material_dl, rng) <= 2.5

    def test_one_shot_solve_keeps_real_data_real(self, material_dl, rng):
        # real data in, the float64 solution out: no complex signal-sized array
        assert self.one_shot_peak(material_dl, rng) <= 1.7

    def test_one_shot_solve_one_spectrum_buffer(self, material_dl, rng):
        # real data: one half spectrum, solved and transformed back in place,
        # and norms read in column blocks; about 1.5x the input at n=8, where
        # a separate solution spectrum and a |u| array made it 2.5x
        b = build_curl_pair(YeeGrid((1.0, 1.0, 1.0), (8, 8, 8), 3, 4))
        g = pulse_rhs(b, GRID, 2.0, rng)
        peak = traced_peak(lambda: solve_linear(LinearProblem(b, material_dl, 2.0, g)))
        assert peak <= 1.75 * g.values.nbytes

    @pytest.mark.parametrize("half", [True, False])
    def test_apply_spectral_leaves_its_argument(self, half, bundle4, material_dl, rng):
        # the solve runs in place in a copy: zero rows (a negative zero among
        # them) are zeroed and solved rows written there, not in ghat
        n = GRID.n_samples
        ghat = fourier_laplace(pulse_rhs(bundle4, GRID, 2.0, rng), check=False).values
        ghat = ghat[: n // 2 + 1].copy() if half else ghat.copy()
        ghat[[3, 9]] = 0.0
        ghat[9, 0] = -0.0
        given = ghat.tobytes()
        U = SolutionOperator(bundle4, material_dl, 2.0, GRID).apply_spectral(ghat)
        assert ghat.tobytes() == given
        assert U.flags.f_contiguous and U.shape == ghat.shape
        assert not U[[3, 9]].any() and not np.signbit(U[9, 0].real)


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

        def noise(dim):  # complex data: every bin is solved
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
        u, _ = solve_linear(LinearProblem(b, material_mix, rho, stack_rhs(b, phi, psi),
                                          check_wraparound=False))
        E = fourier_laplace(u.with_values(u.values[:, :b.n_edges]), check=False).values
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
        # guards the within-mode assembly (a coupled system would not reduce)
        # and the transforms (refinement would hide a wrong one, at two solves
        # a bin); a bin's factors hold fewer entries than half of SuperLU's
        # fill of the full system
        factors, solved = [], []
        factor, solve = SolutionOperator._factor, ModalReduction.solve

        def keeping(self, ks):
            factors.append(factor(self, ks))
            return factors[-1]

        def counted(self, fac, y):
            solved.extend(fac.ks)
            return solve(self, fac, y)

        op = SolutionOperator(bundle4, material_mix, 2.0, GRID)
        monkeypatch.setattr(SolutionOperator, "_factor", keeping)
        monkeypatch.setattr(ModalReduction, "solve", counted)
        op.apply(pulse_rhs(bundle4, GRID, 2.0, rng))
        bins = GRID.n_samples // 2 + 1
        assert solved == list(np.concatenate([f.ks for f in factors])) == list(range(bins))
        full = splu(frequency_matrix(bundle4, material_mix, op.z[5]).tocsc())
        assert sum(f.nbytes for f in factors) / (16 * bins) <= 0.5 * full.nnz

    def test_mode_coupling_raises(self, bundle4, monkeypatch):
        # a basis that does not decouple K is refused at construction: identity
        # tangential factors keep the mode labels but not the modes
        component_modes = spectral._component_modes

        def identity(grid, kind):
            return [(shape, {b: np.eye(len(F)) for b, F in factors.items()}, labels)
                    for shape, factors, labels in component_modes(grid, kind)]

        monkeypatch.setattr(spectral, "_component_modes", identity)
        with pytest.raises(MemaxError, match="transverse modes couple"):
            ModalReduction(bundle4, np.ones(bundle4.n_faces))

    def test_solve_never_forms_basis(self, bundle4, material_dl, rng):
        # the transforms are matrix-free: neither the operator nor its
        # reduction holds a sparse T or K2hat
        op = SolutionOperator(bundle4, material_dl, 2.0, GRID)
        u = op.apply(pulse_rhs(bundle4, GRID, 2.0, rng))
        assert np.isfinite(u.values).all() and not u.values.imag.any()
        assert not any(sparse.issparse(v) for v in vars(op).values())
        assert not any(sparse.issparse(v) for v in vars(op._reduction).values())


class TestModalTransform:
    """The matrix-free T_e and T_e^T against the rows of the explicit
    transverse_mode_basis, in the solver's sorted order."""

    @pytest.mark.parametrize("cols", [1, 257])
    @pytest.mark.parametrize("axis", [1, 2, 3])
    @pytest.mark.parametrize("n", [(4, 4, 4), (3, 4, 5), (2, 3, 2)])
    def test_matches_explicit_basis(self, n, axis, cols, rng):
        b = build_curl_pair(YeeGrid((1.0, 1.3, 0.8), n, axis, 1))
        red = ModalReduction(b, np.where(b.face_region_mask(), 1.0, 2.0))
        T, mode = transverse_mode_basis(b)
        ne = b.n_edges
        labels = np.concatenate([c[2] for c in red.modes])
        assert np.array_equal(labels, mode[:ne])
        Te = T[:ne, :ne][red.perm]
        x = rng.standard_normal((ne, cols)) + 1j * rng.standard_normal((ne, cols))
        ref = Te @ x
        modal = red.to_modal(x.copy())      # it may overwrite its input
        assert modal.flags.c_contiguous      # edges x bins, as the block's columns
        assert np.abs(modal - ref).max() <= 1e-14 * np.abs(ref).max()
        y = rng.standard_normal((ne, cols)) + 1j * rng.standard_normal((ne, cols))
        ref = Te.T @ y
        assert np.abs(red.from_modal(y) - ref).max() <= 1e-14 * np.abs(ref).max()


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
        # order 1: the record built from (bundle, mu) alone; order 2: the one
        # a solve with data (Phi, Psi) builds; material_mix has mu = (1, 2)
        b = build_curl_pair(YeeGrid((1.0, 1.3, 0.8), n, axis, 1))
        mu = np.where(b.face_region_mask(), material_mix.mu1, material_mix.mu2)
        built = []

        class Recorded(ModalReduction):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(spectral, "ModalReduction", Recorded)
        if order == 1:
            Recorded(b, mu)
        else:
            grid = TimeGrid(-2.0, 1.0 / 8.0, 16)
            prof = smooth_pulse(grid.times, -1.5, -0.5)
            phi = WeightedSignal(grid, 2.0, prof[:, None] * rng.standard_normal(b.n_edges)[None, :])
            psi = WeightedSignal(grid, 2.0, prof[:, None] * rng.standard_normal(b.n_faces)[None, :])
            solve_linear(LinearProblem(b, material_mix, 2.0, stack_rhs(b, phi, psi),
                                       check_wraparound=False))
        assert len(built) == 1
        red = built[0]
        T, mode = transverse_mode_basis(b)
        ne, perm = b.n_edges, red.perm
        assert np.array_equal(np.sort(perm), np.arange(ne))
        # one mode per system: a full mode's t1, t2 and E_n rows, then the single modes
        F, S, m = edge_systems(b.grid)
        nodes = mode[perm][:(2 * F + S) * m].reshape(-1, m)
        cells = mode[perm][(2 * F + S) * m:].reshape(F, m + 1)
        assert (nodes == nodes[:, :1]).all() and (cells == cells[:, :1]).all()
        assert np.array_equal(nodes[:F], nodes[F:2 * F])
        assert np.array_equal(nodes[:F, 0], cells[:, 0])
        Te = T[:ne, :ne][perm]
        K = b.C @ sparse.diags(1.0 / mu) @ b.C0
        oracle = self.within_mode(Te @ K @ Te.T, mode[perm], mode[perm])
        # 2F + S tridiagonal systems of length m and F diagonal E_n blocks;
        # the reduced coefficients, rotated back, give the oracle
        assert red.diag.shape == (2 * F + S, m) and red.off.shape == (2 * F + S, m - 1)
        assert red.nn.shape == (F, m + 1) and red.pa.shape == (2, F, m, 1)
        assert np.abs(self.reduced_matrix(red) - oracle).max() <= 1e-13 * np.abs(K.data).max()

    @staticmethod
    def reduced_matrix(red):
        """The sorted modal edge matrix that the reduced coefficients stand
        for, rebuilt densely: the tridiagonal (a, b, single-mode) systems and
        the a-E_n coupling, with (a, b) rotated back to (E_t1, E_t2)."""
        F, m = len(red.nn), red.diag.shape[1]
        nodes = np.arange(red.diag.size).reshape(-1, m)
        cells = red.diag.size + np.arange(red.nn.size).reshape(red.nn.shape)
        M = np.diag(np.concatenate([red.diag.ravel(), red.nn.ravel()]))
        M[nodes[:, :-1], nodes[:, 1:]] = M[nodes[:, 1:], nodes[:, :-1]] = red.off
        for side in (0, 1):
            a, n = nodes[:F], cells[:, side:side + m]
            M[a, n] = M[n, a] = red.pa[side, ..., 0]
        c1, c2 = red.c[:, :, :, 0]
        t1, t2 = nodes[:F], nodes[F:2 * F]
        Q = np.eye(len(M))
        Q[t1, t1], Q[t1, t2], Q[t2, t1], Q[t2, t2] = c1, c2, c2, -c1
        return Q @ M @ Q

    def test_perturbed_modal_curl_raises(self, bundle4, material_dl, monkeypatch):
        # a modal curl that no longer carries C0 is refused at construction
        modal_curl = operators._modal_curl

        def perturbed(grid):
            chat = modal_curl(grid).copy()
            chat.data[7] *= 1.0 + 1e-8
            return chat

        monkeypatch.setattr(operators, "_modal_curl", perturbed)
        fresh = build_curl_pair(bundle4.grid)     # bundle4 has its modal curl built
        with pytest.raises(MemaxError, match="transverse modes couple"):
            SolutionOperator(fresh, material_dl, 2.0, GRID)

    def test_modal_curl_built_once_per_bundle(self, bundle4, material_dl, rng, monkeypatch):
        calls = []

        def counted(grid):
            calls.append(grid)
            return modal_curl(grid)

        modal_curl = operators._modal_curl
        monkeypatch.setattr(operators, "_modal_curl", counted)
        fresh = build_curl_pair(bundle4.grid)
        g = pulse_rhs(fresh, GRID, 2.0, rng)
        u1, u2 = (SolutionOperator(fresh, material_dl, 2.0, GRID).apply(g) for _ in range(2))
        helmholtz_projections(fresh)
        assert len(calls) == 1
        u0 = SolutionOperator(bundle4, material_dl, 2.0, GRID).apply(g)
        assert np.array_equal(u1.values, u2.values) and np.array_equal(u1.values, u0.values)

    def test_reduction_kept_per_mu(self, bundle4, material_dl, rng, monkeypatch):
        # operators on one bundle share the record of their mu, built (and
        # checked) once; another mu gets its own; each solves to the bytes of
        # an operator on a fresh bundle
        built = []

        class Recorded(ModalReduction):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(spectral, "ModalReduction", Recorded)
        other = PiecewiseMaterial(material_dl.law1, material_dl.law2, 1.0, 2.5)
        shared = build_curl_pair(bundle4.grid)
        ops = [SolutionOperator(shared, m, 2.0, GRID) for m in (material_dl, material_dl, other)]
        assert ops[0]._reduction is ops[1]._reduction is built[0]
        assert ops[2]._reduction is built[1] and len(built) == 2
        assert len(shared.modal_reductions) == 2
        g = pulse_rhs(shared, GRID, 2.0, rng)
        for op in ops:
            alone = SolutionOperator(build_curl_pair(bundle4.grid), op.material, 2.0, GRID)
            assert alone._reduction is not op._reduction
            assert op.apply(g).values.tobytes() == alone.apply(g).values.tobytes()


class TestReduction:
    """Each full transverse mode split into its TE part and its TM part with
    E_n eliminated: the batched Thomas solves against a dense solve of each
    formed mode block, and the pivots of a certified line."""

    @pytest.mark.parametrize("index", ["first", "last"])
    @pytest.mark.parametrize("axis", [1, 2, 3])
    @pytest.mark.parametrize("n", [(4, 4, 4), (3, 4, 5)])
    def test_matches_dense_mode_blocks(self, n, axis, index, material_mix, rng):
        # the interface after the first or before the last cell layer, so
        # either region of material_mix is the thin one
        b = build_curl_pair(YeeGrid((1.0, 1.3, 0.8), n, axis,
                                    1 if index == "first" else n[axis - 1] - 1))
        grid = TimeGrid(-2.0, 1.0 / 8.0, 64)
        op = SolutionOperator(b, material_mix, 2.0, grid)
        T, mode = transverse_mode_basis(b)
        ne, perm = b.n_edges, op._reduction.perm
        Te = T[:ne, :ne][perm]
        mu = np.where(b.face_region_mask(), material_mix.mu1, material_mix.mu2)
        K = (Te @ b.C @ sparse.diags(1.0 / mu) @ b.C0 @ Te.T).toarray()
        ks = np.sort(rng.choice(grid.n_samples, 6, replace=False))
        y = rng.standard_normal((ne, ks.size)) + 1j * rng.standard_normal((ne, ks.size))
        x = op._reduction.solve(op._factor(ks), y.copy())
        for j, k in enumerate(ks):
            z = op.z[k]
            eps = material_mix.eps_values(z, b.edge_region_mask())[perm]
            for label in np.unique(mode[perm]):
                rows = np.flatnonzero(mode[perm] == label)
                block = K[np.ix_(rows, rows)] + np.diag(z * z * eps[rows])
                ref = np.linalg.solve(block, y[rows, j])
                assert np.linalg.norm(x[rows, j] - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_pivots_bounded_on_a_certified_line(self, axis, material_mix):
        # z^{-1} (z^2 eps + K) has Hermitian part >= c_min, and so has every
        # Schur complement: each E_n diagonal and Thomas pivot has |p| >= |z| c_min
        b = build_curl_pair(YeeGrid((1.0, 1.3, 0.8), (3, 4, 5), axis, 1))
        op = SolutionOperator(b, material_mix, 2.0, GRID)
        assert op.c_min > 0
        fac = op._factor(np.arange(GRID.n_samples))
        smallest = 1.0 / np.maximum(np.abs(fac.q).max(axis=(0, 1)), np.abs(fac.dn).max(axis=(0, 1)))
        assert (smallest >= np.abs(op.z) * op.c_min * (1 - 1e-12)).all()


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

    def test_growth_read_off_the_final_solution(self, bundle4, material_dl, rng):
        # a block holding a refined bin (xi = 0) and the self-mirrored Nyquist
        # bin reports the growth of the solution it returns, not of the first solve
        rho, n = -0.001, GRID.n_samples
        op = SolutionOperator(bundle4, material_dl, rho, GRID, certificate_required=False)
        G = fourier_laplace(pulse_rhs(bundle4, GRID, rho, rng), check=False).values
        ks = np.array([0, 1, n // 2])
        u, _, growth, refined = op._solve_block(op._factor(ks), G[ks], half=True)
        assert refined >= 1 and not u[:, -1].imag.any()
        norms = spectral._column_norms
        assert np.array_equal(growth, norms(u) / norms(G[ks].T))

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
        # bins 5 and 9 made to hold an exactly zero first pivot in the last
        # (single-mode) system: z = 1 and 2 there, and z^2 eps cancelling its
        # diagonal entry; every block size raises for bin 5, without a warning
        g = pulse_rhs(bundle4, GRID, 2.0, rng)
        for bins in (1, 7, GRID.n_samples):
            monkeypatch.setattr(spectral, "LINE_BLOCK_BYTES", 16 * bundle4.n_state * bins)
            op = SolutionOperator(bundle4, material_dl, 2.0, GRID)
            for k, z in ((5, 1.0), (9, 2.0)):
                op.z[k] = z
                op._lines[k, :2] = -op._reduction.diag[-1, 0] / z
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FrequencySingular, match="singular") as info:
                    op.apply(g)
            assert info.value.z == 1.0


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


def verify_time_regularity(problem: LinearProblem) -> float:
    """Gap between solve(d/dt g) and d/dt solve(g), both spectral derivatives,
    relative to the latter, on the line apply() takes: the half line for
    real data and the full line otherwise.  On the half line an even n's
    Nyquist row differentiates with z = rho, as real spectral
    differentiation does, since that row is solved as real."""
    g = problem.rhs
    op = SolutionOperator(problem.bundle, problem.material, problem.rho, g.grid)
    G, z, real = _to_line(g)
    zcol = z[:, None]
    if real and g.grid.n_samples % 2 == 0:
        zcol[-1] = problem.rho
    u_of_dg = op.apply_spectral(G * zcol)
    du = op.apply_spectral(G) * zcol
    num = np.linalg.norm(u_of_dg - du)
    den = max(np.linalg.norm(du), 1e-300)
    return float(num / den)


class TestTimeRegularity:
    def test_zero_rhs(self, bundle4, material_dl):
        g = WeightedSignal(GRID, 2.0, np.zeros((GRID.n_samples, bundle4.n_state)))
        gap = verify_time_regularity(LinearProblem(bundle4, material_dl, 2.0, g))
        assert gap == 0.0

    def test_spectral_identity(self, bundle4, material_dl, rng):
        g = pulse_rhs(bundle4, GRID, 2.0, rng)
        gap = verify_time_regularity(LinearProblem(bundle4, material_dl, 2.0, g))
        assert gap < 1e-8

    def test_real_data_half_line(self, bundle4, material_dl, rng, factor_calls):
        # real data is checked on the rfft bins, each factored once and kept
        g = pulse_rhs(bundle4, GRID, 2.0, rng)
        verify_time_regularity(LinearProblem(bundle4, material_dl, 2.0, g))
        assert sum(factor_calls) == GRID.n_samples // 2 + 1

    def test_real_data_nyquist_row(self, bundle4, material_dl, rng):
        # white noise under a pulse reaches the Nyquist bin; the half line
        # solves that bin as real, so it commutes with d/dt only at z = rho
        noise = rng.standard_normal((GRID.n_samples, bundle4.n_state))
        vals = smooth_pulse(GRID.times, 0.0, 2.0)[:, None] * noise
        for data in (vals, (1.0 + 1.0j) * vals):
            g = WeightedSignal(GRID, 2.0, data)
            assert verify_time_regularity(LinearProblem(bundle4, material_dl, 2.0, g)) <= 1e-12

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
    def test_refuses_uncertified_line(self, bundle4, material_dl, rng):
        rho = -0.5
        prof = smooth_pulse(GRID.times, 0.0, 1.5)
        phi = WeightedSignal(GRID, rho, prof[:, None] * rng.standard_normal(bundle4.n_edges)[None, :])
        psi = WeightedSignal(GRID, rho, prof[:, None] * rng.standard_normal(bundle4.n_faces)[None, :])
        problem = LinearProblem(bundle4, material_dl, rho, stack_rhs(bundle4, phi, psi),
                                check_wraparound=False)
        with pytest.raises(UncertifiedLine, match="no accretivity certificate"):
            solve_linear(problem)
        u, _ = solve_linear(problem, certificate_required=False)
        assert np.all(np.isfinite(u.values[:, :bundle4.n_edges]))

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
