"""History conversion: jump smoothing, data assembly, reconstruction."""

import numpy as np
import pytest

from memax import (
    BumpSpec,
    HistorySpec,
    LinearProblem,
    OracleStepper,
    TimeGrid,
    WeightedSignal,
    build_g_phi,
    build_maxwell_inhomogeneity,
    delta_spike_metric,
    history_from_solution,
    reconstruct_solution,
    smooth_jump,
    smooth_pulse,
    solve_linear,
    stack_rhs,
)

DT = 1.0 / 64.0
N = 1024
MASTER = TimeGrid(-6.0, DT, N)  # [-6, 10)
K0 = MASTER.index_of(0.0)


def generated_history(bundle4, material_dl, rng, n_derivatives=5):
    """A compatible history: the t <= 0 part of a whole-line solve driven by
    a divergence-free pulse acting in [-5.5, -3]."""
    vec = np.concatenate([
        bundle4.C @ rng.standard_normal(bundle4.n_faces),
        bundle4.C0 @ rng.standard_normal(bundle4.n_edges),
    ])
    prof = smooth_pulse(MASTER.times, -5.5, -3.0)
    g = WeightedSignal(MASTER, 1.0, prof[:, None] * vec[None, :])
    u_full, _ = solve_linear(LinearProblem(bundle4, material_dl, 1.0, g))
    hist = history_from_solution(u_full, n_derivatives=n_derivatives)
    return hist, u_full


def raw_history(bundle4, rng):
    """A generic (incompatible) smooth history."""
    ht = MASTER.times[: K0 + 1] - MASTER.times[K0]
    env = np.exp(0.8 * ht)
    vals = np.concatenate([
        np.outer(env * np.cos(1.3 * ht), rng.standard_normal(bundle4.n_edges)),
        np.outer(env * np.sin(0.9 * ht), rng.standard_normal(bundle4.n_faces)),
    ], axis=1)
    return HistorySpec(ht, vals)


class TestBump:
    def test_endpoint_conditions(self):
        for b in (BumpSpec(0.5), BumpSpec(1.0, n_derivatives=4, flatness=5),
                  BumpSpec(2.0, n_derivatives=5, flatness=6, power=6)):
            assert b.check_endpoints()

    def test_taylor_matching_orders(self):
        import math

        # beta_j(t) = t^j/j! + O(t^{j+q}) near zero
        b = BumpSpec(1.0, n_derivatives=3, flatness=4)
        eps = 1e-4
        t = np.array([eps])
        for j in range(4):
            val = b.beta(j, t)[0]
            assert abs(val - eps ** j / math.factorial(j)) < 1e-3 * max(eps ** j, 1e-16)


class TestSmoothJump:
    def test_zero_history(self, bundle4):
        ht = MASTER.times[: K0 + 1] - MASTER.times[K0]
        h = HistorySpec(ht, np.zeros((len(ht), bundle4.n_state)))
        pp = smooth_jump(h, BumpSpec(0.5), MASTER, 1.0)
        assert not pp.values.any()

    def test_constant_history_value_match(self, bundle4):
        ht = MASTER.times[: K0 + 1] - MASTER.times[K0]
        c = np.linspace(1.0, 2.0, bundle4.n_state)
        h = HistorySpec(ht, np.tile(c, (len(ht), 1)))
        pp = smooth_jump(h, BumpSpec(0.5), MASTER, 1.0)
        # phi^+(0^+) extrapolates to phi(0^-); first positive sample is close
        k = K0 + 1
        assert np.abs(pp.values[k].real - c).max() < 5e-3 * np.abs(c).max()
        assert np.all(pp.values[MASTER.times <= 0.0] == 0.0)

    def test_derivative_match_with_gamma(self, bundle4, material_dl, rng):
        hist, _ = generated_history(bundle4, material_dl, rng, n_derivatives=1)
        b = BumpSpec(0.5)
        pp = smooth_jump(hist, b, MASTER, 1.0)
        # finite-difference slope at 0+ approximates dphi(0-)
        k = K0
        slope = (pp.values[k + 2] - pp.values[k + 1]).real / DT
        expect = hist.dphi().real
        scale = max(np.abs(expect).max(), 1.0)
        assert np.abs(slope - expect).max() < 0.1 * scale


class TestBuildGPhi:
    def test_zero_history_zero_rhs(self, bundle4, material_dl, dl_params, dl_params_b):
        ht = MASTER.times[: K0 + 1] - MASTER.times[K0]
        h = HistorySpec(ht, np.zeros((len(ht), bundle4.n_state)))
        conv = build_g_phi(h, BumpSpec(0.5), bundle4, material_dl,
                           dl_params, dl_params_b, MASTER, 1.0)
        assert not conv.g_phi.values.any()
        assert conv.compatibility_residual == 0.0

    def test_support_in_positive_times(self, bundle4, material_dl, dl_params,
                                       dl_params_b, rng):
        h = raw_history(bundle4, rng)
        conv = build_g_phi(h, BumpSpec(0.5), bundle4, material_dl,
                           dl_params, dl_params_b, MASTER, 1.0)
        assert np.all(conv.g_phi.values[MASTER.times <= 0.0] == 0.0)
        assert np.all(conv.Phi.values[MASTER.times <= 0.0] == 0.0)
        assert np.all(conv.Psi.values[MASTER.times <= 0.0] == 0.0)

    def test_compatibility_stationary_vs_generic(self, bundle4, material_dl,
                                                 dl_params, dl_params_b, rng):
        # a generated true-solution history is compatible to high accuracy;
        # a generic one is O(1) incompatible
        hist, _ = generated_history(bundle4, material_dl, rng)
        conv = build_g_phi(hist, BumpSpec(2.0, n_derivatives=5, flatness=6, power=6),
                           bundle4, material_dl, dl_params, dl_params_b, MASTER, 1.0,
                           conv_method="spectral")
        assert conv.compatibility_residual < 1e-6
        bad = raw_history(bundle4, rng)
        conv_bad = build_g_phi(bad, BumpSpec(0.5), bundle4, material_dl,
                               dl_params, dl_params_b, MASTER, 1.0)
        assert conv_bad.compatibility_residual > 1e-2

    def test_no_delta_spike(self, bundle4, material_dl, dl_params, dl_params_b, rng):
        hist, _ = generated_history(bundle4, material_dl, rng)
        conv = build_g_phi(hist, BumpSpec(2.0, n_derivatives=5, flatness=6, power=6),
                           bundle4, material_dl, dl_params, dl_params_b, MASTER, 1.0,
                           conv_method="spectral")
        assert delta_spike_metric(conv.g_phi) < 10.0
        # the detector itself fires on a synthetic delta contamination
        vals = np.array(conv.g_phi.values)
        vals[K0 + 1] += 100.0 / DT * np.abs(vals).max()
        spiked = conv.g_phi.with_values(vals)
        assert delta_spike_metric(spiked) > 10.0

    def test_trapezoid_and_spectral_methods_agree(self, bundle4, material_dl,
                                                  dl_params, dl_params_b, rng):
        hist, _ = generated_history(bundle4, material_dl, rng, n_derivatives=1)
        b = BumpSpec(0.5)
        c1 = build_g_phi(hist, b, bundle4, material_dl, dl_params, dl_params_b,
                         MASTER, 1.0, conv_method="trapezoid")
        c2 = build_g_phi(hist, b, bundle4, material_dl, dl_params, dl_params_b,
                         MASTER, 1.0, conv_method="spectral")
        scale = np.abs(c1.g_phi.values).max()
        gap = np.abs(c1.g_phi.values - c2.g_phi.values).max()
        assert gap < 1e-3 * scale  # same object, two quadratures


    def test_shifted_modified_law_needs_spectral_path(self, bundle4, material_dl, rng):
        from memax import DrudeLorentzParams, MemaxError, ModDLParams

        # the time-domain expansion covers z0 = 0 only; the spectral path
        # evaluates mod_dl_eval, which takes any z0
        shifted = ModDLParams(DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)]), 4.0, z0=0.5)
        h = raw_history(bundle4, rng)
        with pytest.raises(MemaxError, match="z0"):
            build_g_phi(h, BumpSpec(0.5), bundle4, material_dl, shifted, None,
                        MASTER, 1.0, conv_method="trapezoid")
        conv = build_g_phi(h, BumpSpec(0.5), bundle4, material_dl, shifted, None,
                           MASTER, 1.0, conv_method="spectral")
        assert np.all(np.isfinite(conv.g_phi.values))


class TestMaxwellInhomogeneity:
    def test_zero_history(self, bundle4, material_dl, dl_params, dl_params_b):
        ht = MASTER.times[: K0 + 1] - MASTER.times[K0]
        h = HistorySpec(ht, np.zeros((len(ht), bundle4.n_state)))
        Phi, Psi, conv = build_maxwell_inhomogeneity(
            h, BumpSpec(0.5), bundle4, material_dl, dl_params, dl_params_b,
            MASTER, 1.0)
        assert not Phi.values.any() and not Psi.values.any()

    def test_H_history_enters_only_via_final_value(self, bundle4, material_dl,
                                                   dl_params, dl_params_b, rng):
        h = raw_history(bundle4, rng)
        ne = bundle4.n_edges
        # perturb the H history strictly before t = 0
        vals = np.array(h.values)
        vals[:-1, ne:] += rng.standard_normal(vals[:-1, ne:].shape)
        h_pert = HistorySpec(h.times, vals, dphi_at_0minus=h.dphi())
        b = BumpSpec(0.5)
        _, Psi1, _ = build_maxwell_inhomogeneity(h, b, bundle4, material_dl,
                                                 dl_params, dl_params_b, MASTER, 1.0)
        _, Psi2, _ = build_maxwell_inhomogeneity(h_pert, b, bundle4, material_dl,
                                                 dl_params, dl_params_b, MASTER, 1.0)
        assert np.array_equal(Psi1.values, Psi2.values)

    def test_block_consistency_with_g_phi(self, bundle4, material_dl,
                                          dl_params, dl_params_b, rng):
        # linear case: (Phi, Psi) are exactly the E/H rows of g_phi
        h = raw_history(bundle4, rng)
        b = BumpSpec(0.5)
        conv = build_g_phi(h, b, bundle4, material_dl, dl_params, dl_params_b,
                           MASTER, 1.0)
        Phi, Psi, _ = build_maxwell_inhomogeneity(h, b, bundle4, material_dl,
                                                  dl_params, dl_params_b, MASTER, 1.0)
        ne = bundle4.n_edges
        assert np.array_equal(Phi.values, conv.g_phi.values[:, :ne])
        assert np.array_equal(Psi.values, conv.g_phi.values[:, ne:])

    def test_nonlinearity_shift_zeroes_map_at_zero(self, bundle4, material_dl,
                                                   dl_params, dl_params_b, rng):
        from memax import DrudeLorentzParams, KernelSpec, SaturableNonlinearity

        h = raw_history(bundle4, rng)
        b = BumpSpec(0.5)
        spec = KernelSpec.from_dl(DrudeLorentzParams(1.0, [(0.5, 1.5, 3.0)]),
                                  TimeGrid(0.0, DT, N))
        q = SaturableNonlinearity(3, 1.0)
        Phi, Psi, conv = build_maxwell_inhomogeneity(
            h, b, bundle4, material_dl, dl_params, dl_params_b, MASTER, 1.0,
            nl_spec=spec, q=q)
        assert conv.nonlinearity_shift is not None
        # the shifted downstream map at E~ = 0: dP(E0+) - shift = 0
        from memax import apply_dt_P_nl

        Ep = conv.phi_plus.with_values(conv.phi_plus.values[:, : bundle4.n_edges])
        at_zero = apply_dt_P_nl(spec, q, Ep).values - conv.nonlinearity_shift.values
        assert np.abs(at_zero).max() < 1e-14 * max(np.abs(conv.nonlinearity_shift.values).max(), 1e-30)


class TestReconstruction:
    def test_full_pipeline(self, bundle4, material_dl, dl_params, dl_params_b, rng):
        hist, u_full = generated_history(bundle4, material_dl, rng)
        bump = BumpSpec(2.0, n_derivatives=5, flatness=6, power=6)
        conv = build_g_phi(hist, bump, bundle4, material_dl, dl_params,
                           dl_params_b, MASTER, 1.0, conv_method="spectral")
        u_t, _ = solve_linear(LinearProblem(bundle4, material_dl, 1.0, conv.g_phi))

        # u~ vanishes on t <= 0
        mags = np.abs(u_t.values).max(axis=1)
        assert mags[MASTER.times <= 0.0].max() < 1e-8 * mags.max()

        U = reconstruct_solution(u_t, hist, conv.phi_plus)
        # bit-exact history on t <= 0
        assert np.array_equal(U.values[MASTER.times <= 0.0],
                              hist.embed(MASTER)[MASTER.times <= 0.0])
        # closes the loop against the direct whole-line solve
        cut = K0 + int(0.75 * (N - K0))
        rel = np.linalg.norm(U.values[K0:cut] - u_full.values[K0:cut]) \
            / np.linalg.norm(u_full.values[K0:cut])
        assert rel < 1e-4

    def test_oracle_stepper_match(self, bundle4, material_dl, dl_params,
                                  dl_params_b, rng):
        hist, _ = generated_history(bundle4, material_dl, rng)
        bump = BumpSpec(2.0, n_derivatives=5, flatness=6, power=6)
        conv = build_g_phi(hist, bump, bundle4, material_dl, dl_params,
                           dl_params_b, MASTER, 1.0, conv_method="spectral")
        u_t, _ = solve_linear(LinearProblem(bundle4, material_dl, 1.0, conv.g_phi))
        U = reconstruct_solution(u_t, hist, conv.phi_plus)

        refine = 8
        stp = OracleStepper(bundle4, material_dl, dl_params, dl_params_b, DT / refine)
        ne = bundle4.n_edges
        state = stp.state_from_history(hist.times, hist.values[:, :ne].real,
                                       hist.values[:, ne:].real)
        times, E, H = stp.run(state, None, None, (N - 1 - K0) * refine)
        Uo = np.concatenate([E, H], axis=1)[::refine]
        Us = U.values[K0:].real
        cut = int(0.75 * len(Uo))
        rel = np.linalg.norm(Uo[:cut] - Us[:cut]) / np.linalg.norm(Uo[:cut])
        assert rel < 1e-3


class TestCheckCompatibility:
    def test_function_surface(self, bundle4, material_dl, dl_params, dl_params_b, rng):
        from memax import check_compatibility

        hist, _ = generated_history(bundle4, material_dl, rng, n_derivatives=1)
        res = check_compatibility(hist, bundle4, material_dl, dl_params,
                                  dl_params_b, MASTER)
        assert res < 1e-2
        bad = raw_history(bundle4, rng)
        res_bad = check_compatibility(bad, bundle4, material_dl, dl_params,
                                      dl_params_b, MASTER)
        assert res_bad > 10 * res
