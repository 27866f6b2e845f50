"""Nonlinear polarizations, constants, and fixed-point certificates."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from memax import (
    BallEscape,
    BilinearNonlinearity,
    DrudeLorentzParams,
    DtPolarization,
    KernelSpec,
    LinearProblem,
    NotAContraction,
    NotCertified,
    QuadDtPolarization,
    QuadKernelSpec,
    SampledKernel,
    SaturableNonlinearity,
    TimeGrid,
    WeightedSignal,
    apply_P2,
    apply_cutoff,
    apply_dt_P_nl,
    ball_solve,
    causal_convolve,
    compute_L_kappa,
    cutoff_loc_lip_bound,
    picard_solve,
    smooth_pulse,
    solve_linear,
    suggest_rho,
    weighted_norm,
)
import memax.nonlinear as nonlinear
import memax.signals as signals
from memax import MaxIterExceeded, SolutionOperator, YeeGrid, build_curl_pair
from oracles import plain_laplace

KGRID = TimeGrid(0.0, 1.0 / 64.0, 512)
SGRID = TimeGrid(-1.0, 1.0 / 64.0, 512)


@pytest.fixture(scope="module")
def kernel_spec():
    return KernelSpec.from_dl(DrudeLorentzParams(1.0, [(0.8, 1.5, 3.0)]), KGRID)


def apply_P_nl(spec, q, E):
    """P(E) = kappa * q(E); causal by construction."""
    return causal_convolve(spec.kappa, E.with_values(q(E.values)))


def field_signal(rng, rho=1.0, dim=4, amp=1.0, grid=SGRID):
    prof = smooth_pulse(grid.times, 0.0, 1.5)
    return WeightedSignal(grid, rho, amp * prof[:, None] * rng.standard_normal((dim,))[None, :])


class TestLKappa:
    def test_zero_derivative(self):
        kp = SampledKernel(KGRID, np.zeros(KGRID.n_samples))
        assert compute_L_kappa(kp) == 0.0

    def test_scaling_linear(self, kernel_spec):
        doubled = KernelSpec.from_dl(DrudeLorentzParams(1.0, [(0.8, 1.5, 3.0)]), KGRID, scale=2.0)
        assert doubled.L_kappa == pytest.approx(2.0 * kernel_spec.L_kappa, rel=1e-12)

    def test_dense_quadrature_oracle(self):
        # recompute at dt/10 with plain summation; trapezoid value must agree
        fine = TimeGrid(0.0, KGRID.dt / 10.0, KGRID.n_samples * 10)
        spec_c = KernelSpec.from_dl(DrudeLorentzParams(1.0, [(0.8, 1.5, 3.0)]), KGRID)
        spec_f = KernelSpec.from_dl(DrudeLorentzParams(1.0, [(0.8, 1.5, 3.0)]), fine)
        assert spec_c.L_kappa == pytest.approx(spec_f.L_kappa, rel=1e-3)

    def test_kappa_at_zero(self, kernel_spec):
        assert kernel_spec.kappa_at_0plus == 0.0  # damped sine starts at zero
        assert kernel_spec.lip_factor(kernel_spec.rho_kappa) == pytest.approx(kernel_spec.L_kappa)


def searched_lip(q: SaturableNonlinearity) -> tuple[float, float]:
    """Grid maximum of g'(s), g(s) = s^k/(1 + tau s^{k-1}), over 20001
    log-spaced points, and its bounded-Brent refinement around the argmax."""
    from scipy.optimize import minimize_scalar

    def deriv(s):
        p = np.asarray(s, dtype=float) ** (q.k - 1)
        return p * (q.k + q.tau * p) / (1.0 + q.tau * p) ** 2

    s = np.geomspace(1e-8, 1e8, 20001)
    i = int(np.argmax(deriv(s)))
    bracket = (s[max(i - 1, 0)], s[min(i + 1, s.size - 1)])
    res = minimize_scalar(lambda x: -deriv(x), bounds=bracket, method="bounded")
    return float(deriv(s[i])), float(-res.fun)


class TestSaturable:
    @pytest.mark.parametrize("tau", [0.1, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8])
    def test_closed_form_lipschitz_matches_search(self, k, tau):
        q = SaturableNonlinearity(k, tau)
        grid_max, refined = searched_lip(q)
        assert q.lip_bound == pytest.approx(max(grid_max, refined, 1.0 / tau) * (1.0 + 1e-9),
                                            rel=1e-9)
        assert q.lip_bound >= grid_max
        assert q.lip_bound >= 1.0 / tau

    def test_lipschitz_bound_on_random_pairs(self, rng):
        q = SaturableNonlinearity(3, 1.0)
        lip = q.lip_bound
        assert lip == pytest.approx(9.0 / 8.0, rel=1e-6)  # sup at s^2 = 3
        for _ in range(1000):
            u = rng.standard_normal(8) * rng.uniform(0.1, 10)
            v = rng.standard_normal(8) * rng.uniform(0.1, 10)
            num = np.linalg.norm(q(u) - q(v))
            assert num <= lip * np.linalg.norm(u - v) * (1 + 1e-12)

    def test_small_amplitude_power_law(self, rng):
        # q(u) ~ |u|^{k-1} u for small u; deviation tau |u|^{2(k-1)} |u| elementwise
        q = SaturableNonlinearity(3, 1.0)
        for amp in (1e-3, 1e-4):
            u = amp * rng.standard_normal(16)
            expect = np.abs(u) ** 2 * u
            vals = q(u)
            assert np.all(np.abs(vals - expect) <= np.abs(u) ** 5 * (1 + 1e-6) + 1e-30)

    def test_complex_values(self, rng):
        q = SaturableNonlinearity(2, 0.5)
        z = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        out = q(z)
        mags = np.abs(z)
        assert np.abs(out - mags / (1 + 0.5 * mags) * z).max() < 1e-14


class TestApplyPnl:
    def test_zero_field(self, kernel_spec, rng):
        q = SaturableNonlinearity(3, 1.0)
        E = field_signal(rng, amp=0.0)
        assert not apply_P_nl(kernel_spec, q, E).values.any()
        assert not apply_dt_P_nl(kernel_spec, q, E).values.any()

    def test_causal_output(self, kernel_spec, rng):
        q = SaturableNonlinearity(3, 1.0)
        E = field_signal(rng)
        out = apply_P_nl(kernel_spec, q, E)
        assert np.all(out.values[SGRID.times <= 0.0] == 0.0)

    def test_linear_q_spectral_cross_check(self, rng):
        # with q = identity the convolution theorem pins the transform
        from memax import fourier_laplace

        spec = KernelSpec.from_dl(DrudeLorentzParams(1.0, [(0.8, 1.5, 3.0)]), KGRID)
        E = field_signal(rng, rho=2.0, dim=2)
        out = apply_P_nl(spec, lambda v: v, E)
        O = fourier_laplace(out, check=False)
        Ehat = fourier_laplace(E, check=False)
        K = plain_laplace(spec.kappa, Ehat.z)
        err = np.abs(O.values - K[:, None] * Ehat.values).max()
        assert err < 1e-4 * np.abs(O.values).max()

    def test_dt_formula_matches_finite_differences(self, kernel_spec, rng):
        q = SaturableNonlinearity(3, 1.0)
        E = field_signal(rng)
        P = apply_P_nl(kernel_spec, q, E)
        dP = apply_dt_P_nl(kernel_spec, q, E)
        fd = np.gradient(P.values, SGRID.dt, axis=0)
        sl = slice(5, -5)
        err = np.abs(dP.values[sl] - fd[sl]).max()
        assert err < 50 * SGRID.dt ** 2 * max(np.abs(dP.values).max(), 1.0) / SGRID.dt * SGRID.dt
        # refine to confirm the order
        assert err < 5e-3 * max(np.abs(dP.values).max(), 1.0)

    def test_lipschitz_ratio_weighted(self, kernel_spec, rng):
        # |dP(u) - dP(v)|_rho <= |q|_Lip (|kappa(0+)| + L_kappa) |u - v|_rho
        q = SaturableNonlinearity(3, 1.0)
        pol = DtPolarization(kernel_spec, q)
        bound = pol.lip_bound(1.0)   # field_signal's weight
        for _ in range(25):
            u = field_signal(rng)
            v = field_signal(rng)
            num = weighted_norm(pol(u) - pol(v))
            den = weighted_norm(u - v)
            assert num <= bound * den * (1 + 1e-9)


class TestQuadKernel:
    def make_quad(self, cutoff=None):
        def a(t):
            return np.exp(-2.0 * t) * t

        def b(t):
            return np.exp(-3.0 * t) * t ** 2

        lag = TimeGrid(0.0, 1.0 / 64.0, 256)
        fa = SampledKernel(lag, np.where(lag.times >= 0, a(lag.times), 0.0))
        fb = SampledKernel(lag, np.where(lag.times >= 0, b(lag.times), 0.0))
        quad = QuadKernelSpec.from_factors([fa], [fb])
        return apply_cutoff(quad, cutoff) if cutoff is not None else quad

    def test_constants_recomputable(self):
        quad = self.make_quad()
        # rank-1 nonnegative kernel: L_K factorizes into single integrals
        lag = quad.factors_a[0].lags
        dt = quad.factors_a[0].grid.dt
        w = np.ones(len(lag))
        w[0] = w[-1] = 0.5
        ia = float((np.abs(quad.factors_a[0].values) * w).sum() * dt)
        ib = float((np.abs(quad.factors_b[0].values) * w).sum() * dt)
        assert quad.L_K == pytest.approx(ia * ib, rel=1e-12)
        assert quad.d_K == pytest.approx(
            float(np.abs(np.outer(quad.factors_a[0].values,
                                  quad.factors_b[0].values)).max()), rel=1e-12)
        assert quad.ell_K > 0

    def test_zero_field(self, rng):
        quad = self.make_quad()
        q2 = BilinearNonlinearity(1.0)
        E = field_signal(rng, amp=0.0)
        assert not apply_P2(quad, q2, E).values.any()

    def test_double_sum_oracle_small_n(self, rng):
        # direct O(n^2) double sum at small n against the factored path
        n = 48
        grid = TimeGrid(-0.25, 1.0 / 32.0, n)
        lag = TimeGrid(0.0, 1.0 / 32.0, n)
        av = np.where(lag.times >= 0, np.exp(-1.5 * lag.times) * lag.times, 0.0)
        bv = np.where(lag.times >= 0, np.exp(-2.5 * lag.times) * lag.times, 0.0)
        quad = QuadKernelSpec.from_factors(
            [SampledKernel(lag, av)], [SampledKernel(lag, bv)])
        q2 = BilinearNonlinearity(0.7)
        prof = smooth_pulse(grid.times, 0.0, 1.0)
        E = WeightedSignal(grid, 1.0, prof[:, None] * rng.standard_normal((2,))[None, :])
        out = apply_P2(quad, q2, E)

        # oracle: trapezoid-in-lag double sum, written independently
        wts = np.ones(n)
        wts[0] = wts[-1] = 0.5
        dt = grid.dt
        expect = np.zeros_like(E.values, dtype=complex)
        for k in range(n):
            acc = np.zeros(E.state_dim, dtype=complex)
            for l1 in range(n):
                i1 = k - l1
                if i1 < 0 or av[l1] == 0.0:
                    continue
                for l2 in range(n):
                    i2 = k - l2
                    if i2 < 0 or bv[l2] == 0.0:
                        continue
                    acc += (wts[l1] * av[l1]) * (wts[l2] * bv[l2]) \
                        * 0.7 * E.values[i1] * E.values[i2]
            expect[k] = acc * dt * dt
        assert np.abs(out.values - expect).max() < 1e-12 * max(np.abs(expect).max(), 1e-30)

    def test_weight_doubling_bound(self, rng):
        # |P2(E)|_{2 rho} <= sqrt(L_K ell_K) C_q |E|_rho^2
        quad = self.make_quad()
        q2 = BilinearNonlinearity(1.0)
        bound = np.sqrt(quad.L_K * quad.ell_K) * q2.C_q
        for _ in range(10):
            E = field_signal(rng, rho=0.5, dim=3)
            out = apply_P2(quad, q2, E)
            out2 = WeightedSignal(out.grid, 1.0, out.values)  # weight 2*rho
            lhs = weighted_norm(out2)
            rhs = bound * weighted_norm(E) ** 2
            assert lhs <= rhs * (1 + 1e-9)


class TestCutoff:
    def test_below_window_zero_map(self, rng):
        quad = TestQuadKernel().make_quad(cutoff=-2.0)
        q2 = BilinearNonlinearity(1.0)
        E = field_signal(rng)
        assert not apply_P2(quad, q2, E).values.any()

    def test_output_truncated(self, rng):
        quad = TestQuadKernel().make_quad(cutoff=0.5)
        q2 = BilinearNonlinearity(1.0)
        E = field_signal(rng)
        out = apply_P2(quad, q2, E)
        assert np.all(out.values[SGRID.times > 0.5] == 0.0)

    def test_local_lipschitz_bound(self, rng):
        # sqrt(T) e^{rho T} C_q sqrt(d_K L_K) (|u| + |v|) over random pairs
        T = 0.75
        rho = 1.0
        quad = TestQuadKernel().make_quad(cutoff=T)
        q2 = BilinearNonlinearity(1.0)
        coeff = cutoff_loc_lip_bound(quad, rho, q2.C_q)
        for _ in range(100):
            u = field_signal(rng, rho=rho, amp=rng.uniform(0.2, 2.0))
            v = field_signal(rng, rho=rho, amp=rng.uniform(0.2, 2.0))
            num = weighted_norm(apply_P2(quad, q2, u) - apply_P2(quad, q2, v))
            rhs = coeff * (weighted_norm(u) + weighted_norm(v)) * weighted_norm(u - v)
            assert num <= rhs * (1 + 1e-9)


class TestPicard:
    def test_zero_nonlinearity_matches_linear(self, bundle4, material_dl, rng):
        grid = TimeGrid(-1.0, 1.0 / 32.0, 512)
        prof = smooth_pulse(grid.times, 0.0, 2.0)
        g = WeightedSignal(grid, 2.0, prof[:, None] * rng.standard_normal(bundle4.n_state)[None, :])
        spec = KernelSpec.from_dl(DrudeLorentzParams(1.0, [(1e-14, 1.5, 3.0)]),
                                  TimeGrid(0.0, grid.dt, grid.n_samples))
        pol = DtPolarization(spec, SaturableNonlinearity(3, 1.0))
        u, cert = picard_solve(LinearProblem(bundle4, material_dl, 2.0, g), pol)
        u_lin, _ = solve_linear(LinearProblem(bundle4, material_dl, 2.0, g))
        assert cert.iterations <= 2
        assert weighted_norm(u - u_lin) < 1e-10 * weighted_norm(u_lin)

    def test_contraction_certificate_at_half(self, bundle4, material_dl, rng):
        grid = TimeGrid(-1.0, 1.0 / 32.0, 512)
        prof = smooth_pulse(grid.times, 0.0, 2.0)
        g = WeightedSignal(grid, 1.0, 0.5 * prof[:, None] * rng.standard_normal(bundle4.n_state)[None, :])
        spec = KernelSpec.from_dl(DrudeLorentzParams(1.0, [(0.8, 1.5, 3.0)]),
                                  TimeGrid(0.0, grid.dt, grid.n_samples))
        pol = DtPolarization(spec, SaturableNonlinearity(3, 1.0))
        prob = LinearProblem(bundle4, material_dl, 1.0, g)
        rho_half = suggest_rho(prob, pol.lip_bound(spec.rho_kappa), target=0.5)
        u, cert = picard_solve(prob, pol, rho=rho_half)
        assert cert.theoretical_bound == pytest.approx(0.5, abs=1e-6)
        assert cert.converged
        assert cert.empirical_ratio <= cert.theoretical_bound + 0.05
        assert cert.final_residual <= 1e-8 * weighted_norm(u)
        assert "L_kappa" in cert.constants

    def test_not_a_contraction_raises_with_suggestion(self, bundle4, material_dl, rng):
        grid = TimeGrid(-1.0, 1.0 / 32.0, 256)
        prof = smooth_pulse(grid.times, 0.0, 2.0)
        g = WeightedSignal(grid, 0.05, prof[:, None] * rng.standard_normal(bundle4.n_state)[None, :])
        spec = KernelSpec.from_dl(DrudeLorentzParams(1.0, [(0.8, 1.5, 3.0)]),
                                  TimeGrid(0.0, grid.dt, grid.n_samples), scale=50.0)
        pol = DtPolarization(spec, SaturableNonlinearity(3, 1.0))
        with pytest.raises(NotAContraction) as exc:
            picard_solve(LinearProblem(bundle4, material_dl, 0.05, g), pol)
        assert exc.value.bound >= 1.0
        assert exc.value.rho_suggestion is not None

    def test_fixed_point_rho_independence(self, bundle4, material_dl, rng):
        grid = TimeGrid(-1.0, 1.0 / 32.0, 512)
        prof = smooth_pulse(grid.times, 0.0, 1.5)
        vals = 0.4 * prof[:, None] * rng.standard_normal(bundle4.n_state)[None, :]
        spec = KernelSpec.from_dl(DrudeLorentzParams(1.0, [(0.8, 1.5, 3.0)]),
                                  TimeGrid(0.0, grid.dt, grid.n_samples))
        pol = DtPolarization(spec, SaturableNonlinearity(3, 1.0))
        sols = []
        # both weights sized so rho * (t_end - t_data) stays within the float
        # dynamic range of the unweighted reconstruction
        for rho in (1.2, 1.8):
            g = WeightedSignal(grid, rho, vals)
            u, cert = picard_solve(LinearProblem(bundle4, material_dl, rho, g), pol,
                                   tol=1e-12)
            assert cert.converged
            sols.append(u)
        keep = grid.times <= grid.t_start + 0.5 * (grid.t_end - grid.t_start)
        num = np.linalg.norm(sols[0].values[keep] - sols[1].values[keep])
        den = np.linalg.norm(sols[0].values[keep])
        assert num / den < 1e-6


class TestBallSolve:
    def quad_pol(self, grid, cutoff_T=2.0):
        lag = TimeGrid(0.0, grid.dt, 256)

        def a(t):
            return np.exp(-2.0 * t) * t

        fa = SampledKernel(lag, np.where(lag.times >= 0, a(lag.times), 0.0))
        quad = QuadKernelSpec.from_factors([fa], [fa])
        return QuadDtPolarization(apply_cutoff(quad, cutoff_T), BilinearNonlinearity(1.0))

    def test_zero_data(self, bundle4, material_dl):
        grid = TimeGrid(-1.0, 1.0 / 32.0, 256)
        g = WeightedSignal(grid, 2.0, np.zeros((grid.n_samples, bundle4.n_state)))
        pol = self.quad_pol(grid)
        u, cert = ball_solve(LinearProblem(bundle4, material_dl, 2.0, g), pol,
                             weight=2.0, alpha=1.0)
        assert weighted_norm(u) == 0.0
        assert cert.iterations >= 1

    def test_forward_small_data_stays_in_ball(self, bundle4, material_dl, rng):
        grid = TimeGrid(-1.0, 1.0 / 32.0, 512)
        prof = smooth_pulse(grid.times, 0.0, 1.5)
        g = WeightedSignal(grid, 2.0,
                           0.05 * prof[:, None] * rng.standard_normal(bundle4.n_state)[None, :])
        pol = self.quad_pol(grid)
        u, cert = ball_solve(LinearProblem(bundle4, material_dl, 2.0, g), pol,
                             weight=2.0, alpha=1.0)
        assert cert.converged
        assert weighted_norm(u) <= cert.constants["radius"]
        assert cert.theoretical_bound < 1.0

    def test_decay_weight_needs_K_linear(self, bundle4, material_dl):
        grid = TimeGrid(-1.0, 1.0 / 32.0, 256)
        g = WeightedSignal(grid, -0.05, np.zeros((grid.n_samples, bundle4.n_state)))
        with pytest.raises(NotCertified, match="K_linear") as info:
            ball_solve(LinearProblem(bundle4, material_dl, -0.05, g), self.quad_pol(grid),
                       weight=-0.05, alpha=1.0)
        assert info.value.nu == 0.05

    def test_large_data_escapes(self, bundle4, material_dl, rng):
        grid = TimeGrid(-1.0, 1.0 / 32.0, 512)
        prof = smooth_pulse(grid.times, 0.0, 1.5)
        g = WeightedSignal(grid, 2.0,
                           500.0 * prof[:, None] * rng.standard_normal(bundle4.n_state)[None, :])
        pol = self.quad_pol(grid)
        with pytest.raises(BallEscape):
            ball_solve(LinearProblem(bundle4, material_dl, 2.0, g), pol,
                       weight=2.0, alpha=1.0)


def reference_fixed_point(op, g, nonlinearity, tol, max_iter, radius=None, iterates=None):
    """The driver as it stood before one data spectrum per solve: every step
    solves the whole data g - (N, 0) through op.apply, and the gap is
    weighted_norm(u_next - u).  The step outputs go to iterates."""
    if g.rho != op.rho:
        g = WeightedSignal(g.grid, op.rho, g.values, g.wrap_tol)
    g.check_wraparound()
    ne = op.bundle.n_edges

    def step(u):
        N = nonlinearity(u._with_fresh(u.values[:, :ne])).values
        rhs = np.array(g.values, dtype=np.result_type(g.values, N), order="F")
        rhs[:, :ne] -= N
        iterates.append(op.apply(WeightedSignal._adopt(g.grid, g.rho, rhs, g.wrap_tol)))
        return iterates[-1]

    def inside_ball(u):
        norm_u = weighted_norm(u)
        if norm_u > radius:
            raise BallEscape(len(gaps), norm_u, radius)
        return norm_u

    u = op.apply(g)
    scale = max(weighted_norm(u) if radius is None else radius, 1e-300)
    gaps, ratios, trace = [], [], []
    for _ in range(max_iter):
        if radius is not None:
            trace.append(inside_ball(u))
        u_next = step(u)
        gap = weighted_norm(u_next - u)
        if gaps:
            ratios.append(gap / max(gaps[-1], 1e-300))
        gaps.append(gap)
        u = u_next
        if gap <= tol * scale:
            break
        if radius is None and len(ratios) >= 3 and all(r > 2.0 for r in ratios[-3:]):
            raise MaxIterExceeded(len(gaps), gaps)
    else:
        raise MaxIterExceeded(len(gaps), gaps)
    if radius is not None:
        inside_ball(u)
    return u, {"empirical_ratio": max(ratios) if ratios else 0.0, "gaps": gaps,
               "iterations": len(gaps), "converged": True,
               "final_residual": weighted_norm(step(u) - u)}, trace


class Opaque:
    """A polarization the fixed-point driver sees through its call alone."""

    def __init__(self, pol):
        self.pol = pol

    def __call__(self, E):
        return self.pol(E)

    def lip_bound(self, rho):
        return self.pol.lip_bound(rho)

    loc_lip_constant = lip_bound


class TestFixedPointBits:
    """A Picard step forms its memory term on the solve's line, transforms
    only the edge columns back and reads its gap off the spectra: every
    iterate and the final u stay within 1e-11 (weighted, relative) of the
    whole-data step through op.apply, the gaps and final residual within
    1e-14 |u0|, the gap ratios within 1e-8 while the gaps stand above
    round-off and the measured rate within 1e-4, and the iteration counts
    and bounds are those of the reference.  A step whose wrap bound trips takes the time-domain
    convolution and matches the reference to round-off."""

    GRID = TimeGrid(-1.0, 1.0 / 32.0, 512)

    def pol(self, phase):
        spec = KernelSpec.from_dl(DrudeLorentzParams(1.0, [(0.8, 1.5, 3.0)]),
                                  TimeGrid(0.0, self.GRID.dt, self.GRID.n_samples))
        if phase != 1.0:   # a complex kernel: N(E) is complex on real data
            spec = KernelSpec.from_samples(
                SampledKernel(spec.kappa.grid, phase * spec.kappa.values),
                SampledKernel(spec.kappa.grid, phase * spec.kappa_prime.values))
        return DtPolarization(spec, SaturableNonlinearity(3, 1.0))

    @staticmethod
    def solve(solver, problem, pol):
        if solver == "picard":
            return picard_solve(problem, pol)
        return ball_solve(problem, pol, weight=problem.rho, radius_policy=64.0)

    def run_both(self, solver, n_cells, imag, phase, faces, material_dl, rng, monkeypatch,
                 wrap_tol=signals.DEFAULT_WRAP_TOL, opaque=False):
        """(the driver's step outputs, u and certificate; the reference's),
        with opaque through a polarization the driver sees as a call alone."""
        bundle = build_curl_pair(YeeGrid((1.0, 1.0, 1.0), n_cells, 3, 2))
        vec = rng.standard_normal(bundle.n_state) + imag * 1j * rng.standard_normal(bundle.n_state)
        vec[bundle.n_edges:] *= faces
        g = WeightedSignal(self.GRID, 2.0,
                           0.5 * smooth_pulse(self.GRID.times, 0.0, 1.5)[:, None] * vec, wrap_tol)
        problem, pol = LinearProblem(bundle, material_dl, 2.0, g), self.pol(phase)
        if opaque:
            pol = Opaque(pol)

        spectra, u0, solve_line = [], [], SolutionOperator._solve_line

        def recording(op, W, collect, out=None):   # each step's iterate u0 - w
            solve_line(op, W, collect, out)
            if out is None:   # u0, solved in place (again on the full line when N widens it)
                u0[:] = [W.copy(order="F")]
            else:
                spectra.append(np.asfortranarray(u0[0] - out))

        with monkeypatch.context() as m:
            m.setattr(SolutionOperator, "_solve_line", recording)
            u, cert = self.solve(solver, problem, pol)
        half = self.GRID.n_samples // 2 + 1
        iterates = [signals._from_line(W, g, W.shape[0] == half) for W in spectra]
        expected = []
        with monkeypatch.context() as m:
            m.setattr(nonlinear, "_fixed_point",
                      lambda *a, **k: reference_fixed_point(*a, **k, iterates=expected))
            u_ref, cert_ref = self.solve(solver, problem, pol)
        assert cert.iterations >= 2 and len(iterates) == len(expected) == cert.iterations + 1
        return iterates, u, cert, expected, u_ref, cert_ref

    @pytest.mark.parametrize("solver", ["picard", "ball"])
    @pytest.mark.parametrize("n_cells", [(4, 4, 4), (3, 4, 5)])
    # real data steps on the half line; complex data on the full line; a complex
    # kernel, even a faintly complex one, moves real data's steps to the full line
    @pytest.mark.parametrize("imag, phase, faces", [
        (0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (0.0, 1.0 + 0.5j, 1.0), (0.0, 1.0 + 1e-11j, 100.0)],
        ids=["real", "complex", "real-complex-kernel", "real-faint-kernel"])
    @pytest.mark.parametrize("split", [False, True], ids=["one-block", "split-edges"])
    def test_iterates_and_certificate(self, solver, n_cells, imag, phase, faces, split,
                                      material_dl, rng, monkeypatch):
        if split:   # the edge columns fall in two column blocks
            monkeypatch.setattr(signals, "LINE_BLOCK_BYTES",
                                8 * self.GRID.n_samples * (n_cells[0] * n_cells[1] * 3 // 2))
        iterates, u, cert, expected, u_ref, cert_ref = self.run_both(
            solver, n_cells, imag, phase, faces, material_dl, rng, monkeypatch)
        assert cert.line_steps == cert.iterations + 1 and cert.time_steps == 0
        assert 0.0 < cert.max_alias_bound
        for a, b in (*zip(iterates, expected), (u, u_ref)):
            if b.values.dtype == np.float64:   # the reference dropped a faint imaginary part
                a = a.with_values(a.values.real)
            assert weighted_norm(a - b) <= 1e-11 * weighted_norm(b)
        # the norms are read off the spectra: gaps, final residual and ball
        # trace move by round-off, against |u0|
        delta = 1e-14 * weighted_norm(u_ref)
        traces = [c.constants.pop("ball_trace", [0.0]) for c in (cert, cert_ref)]
        for a, b in ((cert.gaps, cert_ref.gaps), (cert.final_residual, cert_ref.final_residual),
                     traces):
            assert np.abs(np.subtract(a, b)).max() <= delta
        # a gap ratio moves by the gaps' round-off over the smaller gap: within
        # 1e-8 while both gaps are at least 1e-6 |u0|; the measured rate, often
        # set by a last gap near 1e-12 |u0|, within 1e-4 (measured: 3.2e-5)
        gaps, ref = np.array(cert.gaps), np.array(cert_ref.gaps)
        above = ref[1:] >= 1e-6 * weighted_norm(u_ref)
        assert above.any()
        np.testing.assert_allclose((gaps[1:] / gaps[:-1])[above], (ref[1:] / ref[:-1])[above],
                                   rtol=1e-8, atol=0.0)
        assert cert.empirical_ratio == pytest.approx(cert_ref.empirical_ratio, rel=1e-4)
        for key in ("iterations", "converged", "theoretical_bound", "constants"):
            assert getattr(cert, key) == getattr(cert_ref, key)

    @pytest.mark.parametrize("solver", ["picard", "ball"])
    @pytest.mark.parametrize("imag, phase", [(0.0, 1.0), (1.0, 1.0), (0.0, 1.0 + 0.5j)],
                             ids=["real", "complex", "real-complex-kernel"])
    # a wraparound tolerance no wrap bound meets, or a polarization seen as a
    # call alone (whose complex N on real data widens the half line mid-run):
    # every step forms N(E) in time
    @pytest.mark.parametrize("opaque", [False, True], ids=["gate", "opaque"])
    def test_gated_steps_convolve_in_time(self, solver, imag, phase, opaque, material_dl, rng,
                                          monkeypatch):
        iterates, u, cert, expected, u_ref, cert_ref = self.run_both(
            solver, (4, 4, 4), imag, phase, 1.0, material_dl, rng, monkeypatch,
            wrap_tol=signals.DEFAULT_WRAP_TOL if opaque else 1e-300, opaque=opaque)
        assert cert.time_steps == cert.iterations + 1 and cert.line_steps == 0
        assert (cert.max_alias_bound is None) == opaque
        for a, b in (*zip(iterates, expected), (u, u_ref)):
            assert weighted_norm(a - b) <= 1e-13 * weighted_norm(b)
        assert cert.iterations == cert_ref.iterations


class TestPicardLineBlocks:
    """The fixed_point benchmark's Picard jobs at n = 4: a half line of 257
    bins by 348 dofs fits one block of LINE_BLOCK_BYTES, so each line solve
    (u0's and every step's) is one _solve_block call, 10 or 11 of them per
    job; two 1 MiB blocks made it two calls per line."""

    BENCH = Path(__file__).resolve().parents[1] / "bench"

    @pytest.mark.parametrize("seed", [1, 2])
    def test_one_block_per_line(self, seed, monkeypatch):
        monkeypatch.syspath_prepend(str(self.BENCH))
        workloads = importlib.import_module("workloads")
        calls = {"_solve_line": 0, "_solve_block": 0}

        def counted(name):
            method = getattr(SolutionOperator, name)

            def call(self, *args):
                calls[name] += 1
                return method(self, *args)
            return call

        for name in calls:
            monkeypatch.setattr(SolutionOperator, name, counted(name))
        bench = workloads.FixedPoint()
        ctx, ledger = bench.setup(seed), workloads.Ledger()
        for job in range(2):
            calls.update(dict.fromkeys(calls, 0))
            bench.job(ctx, bench.make_input(ctx, job), ledger)
            assert calls["_solve_block"] == calls["_solve_line"] >= 10
        assert [op["ok"] for op in ledger.ops] == [True, True]
        assert all(passed == total for passed, total in ledger.checks.values())


class TestLineMultiplier:
    """kappa(0+) + DFT(weighted_taps) times the line transform of x is
    dt_convolve's d/dt (kappa * x) up to the wrap of the circular product,
    which the bound B = sum_{j>=1} |taps_j| max_{m>=n-j} x_m caps per sample."""

    GRID = TimeGrid(-2.0, 1.0 / 32.0, 512)

    def check(self, spec, rho, rng):
        g = self.GRID
        x = WeightedSignal(g, rho, SaturableNonlinearity(3, 1.0)(
            3.0 * smooth_pulse(g.times, 0.0, 2.0)[:, None] * rng.standard_normal(6)))
        w = np.exp(-rho * g.times)[:, None]
        taps = spec.weighted_taps(g, rho)
        K = spec.kappa_at_0plus.real + np.fft.rfft(taps.real)
        line = np.fft.irfft(K[:, None] * np.fft.rfft(x.values * w, axis=0), g.n_samples, axis=0)
        diff = np.abs(line - spec.dt_convolve(x) * w).max()
        peaks = np.maximum.accumulate((np.abs(x.values).max(axis=1) * w[:, 0])[::-1])
        bound = (np.abs(taps[1:]) * peaks[:-1]).sum()
        # round-off of the transforms: a few ulps of the largest term
        assert diff <= bound + 1e-14 * peaks[-1] * (abs(spec.kappa_at_0plus) + np.abs(taps).sum())
        return diff, bound

    @pytest.mark.parametrize("rho", [4.0, 2.0, 1.0, 0.5, 0.1])
    def test_bench_kernel(self, rho, rng):
        spec = KernelSpec.from_dl(DrudeLorentzParams(1.0, [(0.8, 1.5, 3.0)]),
                                  TimeGrid(0.0, self.GRID.dt, 512), scale=4.0)
        diff, bound = self.check(spec, rho, rng)
        if rho <= 0.5:   # the wrap is real here, and B caps it
            assert diff > 1e-12

    def test_kernel_longer_than_the_window(self, rng):
        lag = TimeGrid(0.0, self.GRID.dt, 3 * self.GRID.n_samples)
        spec = KernelSpec.from_samples(SampledKernel(lag, 1.0 - np.exp(-0.1 * lag.times)),
                                       SampledKernel(lag, 0.1 * np.exp(-0.1 * lag.times)))
        assert spec.weighted_taps(self.GRID, 0.5).size == self.GRID.n_samples
        self.check(spec, 0.5, rng)

    def test_single_sample_kernel(self, rng):
        # one nonzero sample: a pointwise multiplier, no trapezoid half weight
        lag = TimeGrid(0.0, self.GRID.dt, 8)
        spike = np.zeros(8)
        spike[0] = 2.0
        spec = KernelSpec.from_samples(SampledKernel(lag, np.ones(8)), SampledKernel(lag, spike))
        taps = spec.weighted_taps(self.GRID, 1.0)
        assert taps[0] == 2.0 * self.GRID.dt and not taps[1:].any()
        assert self.check(spec, 1.0, rng)[1] == 0.0

    def test_decay_weight_ball_convolves_in_time(self, bundle4, material_dl, rng):
        # at a decay weight the weighted q(E) does not decay: every step's
        # wrap bound trips and the certificate counts time-domain steps
        grid = TimeGrid(-1.0, 1.0 / 32.0, 256)
        g = WeightedSignal(grid, -0.05, 1e-3 * smooth_pulse(grid.times, 0.0, 1.5)[:, None]
                           * rng.standard_normal(bundle4.n_state)[None, :])
        spec = KernelSpec.from_dl(DrudeLorentzParams(1.0, [(0.8, 1.5, 3.0)]),
                                  TimeGrid(0.0, grid.dt, grid.n_samples))
        pol = DtPolarization(spec, SaturableNonlinearity(3, 1.0))
        u, cert = ball_solve(LinearProblem(bundle4, material_dl, -0.05, g), pol,
                             weight=-0.05, radius_policy=1.0, K_linear=10.0)
        assert cert.converged and cert.line_steps == 0
        assert cert.time_steps == cert.iterations + 1
        assert cert.max_alias_bound > 0.0


def test_lipschitz_bound_below_rho_kappa(rng):
    # below rho_kappa the L1 norm of kappa' e^{-rho s} exceeds L_kappa: the
    # constant at the weight bounds the measured ratio, L_kappa's does not
    grid = TimeGrid(-1.0, 1.0 / 32.0, 512)
    lag = TimeGrid(0.0, grid.dt, 512)
    spec = KernelSpec.from_samples(SampledKernel(lag, 1.0 - np.exp(-lag.times)),
                                   SampledKernel(lag, np.exp(-lag.times)), rho_kappa=0.0)
    pol = DtPolarization(spec, SaturableNonlinearity(2, 1.0))
    rho = -0.5
    slow = smooth_pulse(grid.times, 0.0, 15.0)[:, None] * np.exp(rho * grid.times)[:, None]
    v = WeightedSignal(grid, rho, 1e6 * slow * np.ones(3))
    u = WeightedSignal(grid, rho, v.values + 1e-3 * slow * rng.uniform(1.0, 2.0, 3))
    ratio = weighted_norm(pol(u) - pol(v)) / weighted_norm(u - v)
    assert pol.lip_bound(spec.rho_kappa) < ratio <= pol.loc_lip_constant(rho)
    # at or above rho_kappa the constant is L_kappa's
    assert pol.lip_bound(2.0) == pol.lip_bound(spec.rho_kappa) == pol.q.lip_bound * spec.L_kappa
