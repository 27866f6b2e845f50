"""Time-domain reference integrator: conservation, convergence, recursion."""

import re

import numpy as np
import pytest
from scipy import sparse

import memax
from memax import (
    DrudeLorentzParams,
    LinearProblem,
    OracleStepper,
    PiecewiseMaterial,
    StepperState,
    TimeGrid,
    WeightedSignal,
    YeeGrid,
    build_curl_pair,
    dl_law,
    smooth_pulse,
    solve_linear,
)
from memax.stepper import LinearSolveFailure


def test_linear_solve_failure_is_the_package_error():
    # defined with the other typed errors, exported, and still importable from the stepper
    assert LinearSolveFailure is memax.LinearSolveFailure
    assert issubclass(memax.LinearSolveFailure, memax.MemaxError)


def energy_series(E_traj, H_traj, eps_inf, mu, dof_volume):
    """Quadratic energy eps_inf|E|^2 + mu|H|^2 per recorded step."""
    return dof_volume * ((E_traj ** 2 * eps_inf).sum(axis=1)
                         + (H_traj ** 2 * mu).sum(axis=1))


@pytest.fixture(scope="module")
def lossless_material():
    tiny = DrudeLorentzParams(1.0, [(1e-30, 1.0, 2.0)])
    return PiecewiseMaterial(dl_law(tiny), dl_law(tiny), 1.0, 1.0)


class TestStep:
    def test_zero_stays_zero(self, bundle4, lossless_material):
        stp = OracleStepper(bundle4, lossless_material, None, None, 0.01)
        state = stp.initial_state()
        times, E, H = stp.run(state, None, None, 50)
        assert not E.any() and not H.any()

    def test_energy_conserved_lossless(self, bundle4, lossless_material, rng):
        # implicit midpoint conserves the quadratic energy of the skew system
        stp = OracleStepper(bundle4, lossless_material, None, None, 0.01)
        state = stp.initial_state(rng.standard_normal(bundle4.n_edges),
                                  rng.standard_normal(bundle4.n_faces))
        times, E, H = stp.run(state, None, None, 400)
        en = energy_series(E, H, stp.eps_inf, stp.mu, 1.0)
        assert np.abs(en - en[0]).max() < 1e-12 * en[0]

    def test_accumulator_matches_direct_sum(self, bundle4, material_dl,
                                            dl_params, dl_params_b, rng):
        # run() spot-checks the recursion against the direct convolution sum
        # every checkpoint; drive it hard and rely on the internal assert
        stp = OracleStepper(bundle4, material_dl, dl_params, dl_params_b, 0.02,
                            checkpoint_every=50)
        vec = rng.standard_normal(bundle4.n_edges)

        def phi(t):
            return smooth_pulse(np.array([t]), 0.0, 1.0)[0] * vec

        state = stp.initial_state()
        times, E, H = stp.run(state, phi, None, 300)
        assert np.isfinite(E).all()

    def test_matches_spectral_solver(self, bundle4, material_dl, dl_params,
                                     dl_params_b, rng):
        n, dt = 1024, 1e-3
        grid = TimeGrid(-0.2, dt, n)
        rho = 22.0
        vecE = rng.standard_normal(bundle4.n_edges)
        vecH = rng.standard_normal(bundle4.n_faces)
        prof = smooth_pulse(grid.times, 0.05, 0.35)
        g = WeightedSignal(grid, rho,
                           prof[:, None] * np.concatenate([vecE, vecH])[None, :])
        u, _ = solve_linear(LinearProblem(bundle4, material_dl, rho, g))

        stp = OracleStepper(bundle4, material_dl, dl_params, dl_params_b, dt)

        def phi(t):
            return smooth_pulse(np.array([t]), 0.05, 0.35)[0] * vecE

        def psi(t):
            return smooth_pulse(np.array([t]), 0.05, 0.35)[0] * vecH

        k0 = grid.index_of(0.0)
        times, E, H = stp.run(stp.initial_state(), phi, psi, n - 1 - k0)
        gap = np.linalg.norm(np.concatenate([E, H], axis=1) - u.values[k0:].real)
        rel = gap / np.linalg.norm(u.values[k0:].real)
        assert rel < 1e-3

    def test_second_order_convergence(self, bundle4, material_dl, dl_params,
                                      dl_params_b, rng):
        # halving dt shrinks the gap to the spectral solution by ~4
        rho = 22.0
        vecE = rng.standard_normal(bundle4.n_edges)
        vecH = rng.standard_normal(bundle4.n_faces)

        def gap_at(dt, n):
            grid = TimeGrid(-0.2, dt, n)
            prof = smooth_pulse(grid.times, 0.05, 0.35)
            g = WeightedSignal(grid, rho,
                               prof[:, None] * np.concatenate([vecE, vecH])[None, :])
            u, _ = solve_linear(LinearProblem(bundle4, material_dl, rho, g))
            stp = OracleStepper(bundle4, material_dl, dl_params, dl_params_b, dt)

            def phi(t):
                return smooth_pulse(np.array([t]), 0.05, 0.35)[0] * vecE

            def psi(t):
                return smooth_pulse(np.array([t]), 0.05, 0.35)[0] * vecH

            k0 = grid.index_of(0.0)
            times, E, H = stp.run(stp.initial_state(), phi, psi, n - 1 - k0)
            num = np.linalg.norm(np.concatenate([E, H], axis=1) - u.values[k0:].real)
            return num / np.linalg.norm(u.values[k0:].real)

        g1 = gap_at(2e-3, 512)
        g2 = gap_at(1e-3, 1024)
        assert 2.5 < g1 / g2 < 7.0

    def test_history_seeding(self, bundle4, material_dl, dl_params, dl_params_b, rng):
        # seeding from a sampled history then free-running keeps accumulators
        # on the direct-sum track (checkpoint assert) and fields finite
        dt = 0.02
        h_t = np.arange(-128, 1) * dt
        env = np.exp(1.0 * h_t)
        E_h = np.outer(env * np.cos(2.0 * h_t), rng.standard_normal(bundle4.n_edges))
        H_h = np.outer(env * np.sin(1.5 * h_t), rng.standard_normal(bundle4.n_faces))
        stp = OracleStepper(bundle4, material_dl, dl_params, dl_params_b, dt,
                            checkpoint_every=64)
        state = stp.state_from_history(h_t, E_h, H_h)
        times, E, H = stp.run(state, None, None, 256)
        assert np.isfinite(E).all() and np.isfinite(H).all()


def _history(bundle, rng, dt):
    """A smooth sampled history on [-128 dt, 0]."""
    h_t = np.arange(-128, 1) * dt
    env = np.exp(1.0 * h_t)
    E_h = np.outer(env * np.cos(2.0 * h_t), rng.standard_normal(bundle.n_edges))
    H_h = np.outer(env * np.sin(1.5 * h_t), rng.standard_normal(bundle.n_faces))
    return h_t, E_h, H_h


def _assembled_residual(stp, state, phi, psi):
    """Relative residual of one step in the full (E, H) midpoint system
    [[D_e, -C/2], [C0/2, mu/dt]], assembled here from the bundle, the
    per-term zero-lag values and the accumulator recursion."""
    b, dt = stp.bundle, stp.dt
    zero_lag, J_old, J_known = (np.zeros(b.n_edges) for _ in range(3))
    start = 0
    for term in stp.terms:
        idx = np.flatnonzero(term.mask)
        q = state.Q[start:start + len(idx)]
        start += len(idx)
        zero_lag[idx] += term.coeff.imag
        J_old[idx] += np.imag(term.coeff * q)
        J_known[idx] += np.imag(term.coeff * np.exp(term.lam * dt)
                                * (q + 0.5 * dt * state.E[idx]))
    d_e = stp.eps_inf / dt + 0.5 * zero_lag + 0.5 * stp.sigma_edges
    system = sparse.bmat([[sparse.diags(d_e), -0.5 * b.C],
                          [0.5 * b.C0, sparse.diags(stp.mu / dt)]], format="csr")
    rhs = np.concatenate([
        (stp.eps_inf / dt - 0.5 * stp.sigma_edges) * state.E + 0.5 * (b.C @ state.H)
        - (J_known - J_old) / dt + phi,
        (stp.mu / dt) * state.H - 0.5 * (b.C0 @ state.E) + psi,
    ])
    new = stp.step(state, phi, psi)
    x = np.concatenate([new.E, new.H])
    return np.abs(system @ x - rhs).max() / np.abs(rhs).max()


class TestEliminatedStep:
    @pytest.mark.parametrize("shape, axis", [((4, 4, 4), 3), ((3, 4, 5), 1),
                                             ((3, 4, 5), 2), ((3, 4, 5), 3)])
    def test_step_solves_full_midpoint_system(self, shape, axis, dl_params,
                                              dl_params_b, rng):
        bundle = build_curl_pair(YeeGrid((1.0, 1.2, 0.9), shape, axis,
                                         shape[axis - 1] // 2))
        material = PiecewiseMaterial(dl_law(dl_params), dl_law(dl_params_b), 1.0, 2.0)
        stp = OracleStepper(bundle, material, dl_params, dl_params_b, 0.02,
                            sigma_edges=rng.uniform(0.0, 1.0, bundle.n_edges))
        state = stp.initial_state(rng.standard_normal(bundle.n_edges),
                                  rng.standard_normal(bundle.n_faces))
        state.Q = rng.standard_normal(len(state.Q)) + 1j * rng.standard_normal(len(state.Q))
        rel = _assembled_residual(stp, state, rng.standard_normal(bundle.n_edges),
                                  rng.standard_normal(bundle.n_faces))
        assert rel <= 1e-12

    def test_indefinite_edge_system_raises(self, bundle4, material_dl, dl_params,
                                           dl_params_b):
        with pytest.raises(LinearSolveFailure, match="not positive definite"):
            OracleStepper(bundle4, material_dl, dl_params, dl_params_b, 0.02,
                          sigma_edges=np.full(bundle4.n_edges, -1e3))


class TestRegionConductivity:
    """A region law's sigma acts on the region's edges, as the sigma-free law
    plus sigma_edges does; given both, the stepper refuses to count it twice."""

    def test_law_sigma_matches_sigma_edges(self, bundle4, material_dl, dl_params,
                                           dl_params_b, rng):
        E0 = rng.standard_normal(bundle4.n_edges)
        conductive = memax.conductivity_law(dl_law(dl_params_b), 0.5)
        sigma_edges = np.where(bundle4.edge_region_mask(), 0.0, 0.5)
        runs = []
        for law2, sigma in ((conductive, None), (dl_params_b, sigma_edges), (dl_params_b, None)):
            stp = OracleStepper(bundle4, material_dl, dl_params, law2, 0.02, sigma_edges=sigma)
            _, E, H = stp.run(stp.initial_state(E0), None, None, 50)
            runs.append(E.tobytes() + H.tobytes())
        assert runs[0] == runs[1] != runs[2]

    def test_law_sigma_and_sigma_edges_raise(self, bundle4, material_dl, dl_params,
                                             dl_params_b):
        conductive = memax.conductivity_law(dl_law(dl_params_b), 0.5)
        with pytest.raises(memax.ConfigError, match="region 2"):
            OracleStepper(bundle4, material_dl, dl_params, conductive, 0.02,
                          sigma_edges=np.zeros(bundle4.n_edges))


class TestAccumulatorCheck:
    @pytest.mark.parametrize("start", ["fresh", "history"])
    def test_corrupted_accumulator_caught(self, start, bundle4, material_dl,
                                          dl_params, dl_params_b, rng):
        dt = 0.02
        stp = OracleStepper(bundle4, material_dl, dl_params, dl_params_b, dt,
                            checkpoint_every=50)
        if start == "fresh":
            state = stp.initial_state(rng.standard_normal(bundle4.n_edges),
                                      rng.standard_normal(bundle4.n_faces))
        else:
            state = stp.state_from_history(*_history(bundle4, rng, dt))
        clean_step = stp.step
        taken = []

        def corrupting_step(state, phi, psi):
            new = clean_step(state, phi, psi)
            if new.step_index == 30:
                new.Q[0] += 1e-6 * np.abs(new.Q).max()
            taken.append(new.step_index)
            return new

        stp.step = corrupting_step
        with pytest.raises(LinearSolveFailure, match="drifted from the direct sum"):
            stp.run(state, None, None, 200)
        assert taken[-1] == 50

    @pytest.mark.parametrize("perturb_at", [0, 60])
    def test_perturbed_decay_caught_at_a_checkpoint(self, perturb_at, bundle4, material_dl,
                                                     dl_params, dl_params_b, rng):
        # a recursion factor off by 1e-6 relative, from construction or from
        # step 60 on: the checkpoint at step 100 carries the direct sum of the
        # one at step 50 and must catch it before the run's final re-sum
        stp = OracleStepper(bundle4, material_dl, dl_params, dl_params_b, 0.02,
                            checkpoint_every=50)
        state = stp.initial_state(rng.standard_normal(bundle4.n_edges),
                                  rng.standard_normal(bundle4.n_faces))
        clean_step = stp.step
        taken = []

        def perturbing_step(state, phi, psi):
            if state.step_index == perturb_at:
                stp._decay = stp._decay * (1.0 + 1e-6)
            new = clean_step(state, phi, psi)
            taken.append(new.step_index)
            return new

        stp.step = perturbing_step
        with pytest.raises(LinearSolveFailure, match="drifted from the direct sum"):
            stp.run(state, None, None, 400)
        assert taken[-1] == (50 if perturb_at == 0 else 100)

    def test_checkpoints_carry_forward_and_the_last_resums(self, bundle4, material_dl,
                                                           dl_params, dl_params_b, rng):
        stp = OracleStepper(bundle4, material_dl, dl_params, dl_params_b, 0.02,
                            checkpoint_every=50)
        clean_check = stp._check_accumulators
        windows = []

        def recording_check(state, before, times, E_traj):
            windows.append((state.step_index, len(times)))
            return clean_check(state, before, times, E_traj)

        stp._check_accumulators = recording_check
        stp.run(stp.state_from_history(*_history(bundle4, rng, 0.02)), None, None, 220)
        # 51 samples since each earlier checkpoint; all 221 at the final step
        assert windows == [(50, 51), (100, 51), (150, 51), (200, 51), (220, 221)]

    def test_tail_after_the_last_checkpoint_is_checked(self, bundle4, material_dl,
                                                       dl_params, dl_params_b, rng):
        # a recursion factor off by 1e-6 relative from step 60 of a 90-step
        # run: no checkpoint falls after it, the final step's re-sum does
        stp = OracleStepper(bundle4, material_dl, dl_params, dl_params_b, 0.02,
                            checkpoint_every=50)
        state = stp.initial_state(rng.standard_normal(bundle4.n_edges),
                                  rng.standard_normal(bundle4.n_faces))
        clean_step = stp.step

        def perturbing_step(state, phi, psi):
            if state.step_index == 60:
                stp._decay = stp._decay * (1.0 + 1e-6)
            return clean_step(state, phi, psi)

        stp.step = perturbing_step
        with pytest.raises(LinearSolveFailure, match="drifted from the direct sum"):
            stp.run(state, None, None, 90)

    def test_check_follows_the_state_each_run_starts_from(self, bundle4, material_dl,
                                                          dl_params, dl_params_b, rng):
        # a history seed, then a fresh start on the same stepper, then a
        # state already stepped: each run checks against its own start
        dt = 0.02
        stp = OracleStepper(bundle4, material_dl, dl_params, dl_params_b, dt,
                            checkpoint_every=50)
        stp.run(stp.state_from_history(*_history(bundle4, rng, dt)), None, None, 100)
        state = stp.initial_state(rng.standard_normal(bundle4.n_edges),
                                  rng.standard_normal(bundle4.n_faces))
        stp.run(state, None, None, 100)
        zeros_e, zeros_h = np.zeros(bundle4.n_edges), np.zeros(bundle4.n_faces)
        for _ in range(30):
            state = stp.step(state, zeros_e, zeros_h)
        times, E, H = stp.run(state, None, None, 100)
        assert times[0] == pytest.approx(30 * dt)
        assert np.isfinite(E).all() and np.isfinite(H).all()


class TestOneKernel:
    """run() and repeated step() calls are one kernel, bit for bit."""

    @pytest.fixture()
    def interface_stepper(self, dl_params, dl_params_b, rng):
        bundle = build_curl_pair(YeeGrid((1.0, 1.2, 0.9), (3, 4, 5), 2, 2))
        material = PiecewiseMaterial(dl_law(dl_params), dl_law(dl_params_b), 1.0, 2.0)
        return OracleStepper(bundle, material, dl_params, dl_params_b, 0.02,
                             sigma_edges=rng.uniform(0.0, 1.0, bundle.n_edges))

    @pytest.mark.parametrize("start", ["fresh", "history"])
    def test_run_equals_repeated_steps(self, start, interface_stepper, rng):
        stp = interface_stepper
        b = stp.bundle
        if start == "fresh":
            state = stp.initial_state(rng.standard_normal(b.n_edges),
                                      rng.standard_normal(b.n_faces))
        else:
            state = stp.state_from_history(*_history(b, rng, stp.dt))
        vec_e, vec_h = rng.standard_normal(b.n_edges), rng.standard_normal(b.n_faces)

        def phi(t):
            return smooth_pulse(np.array([t]), 0.0, 1.0)[0] * vec_e

        def psi(t):
            return smooth_pulse(np.array([t]), 0.0, 1.0)[0] * vec_h

        kernel = stp.step
        last = []

        def recording_step(state, phi_mid, psi_mid):
            last[:] = [kernel(state, phi_mid, psi_mid)]
            return last[0]

        stp.step = recording_step
        times, E, H = stp.run(state, phi, psi, 120)
        del stp.step

        st = state
        for n in range(120):
            t_mid = st.t + 0.5 * stp.dt
            st = stp.step(st, phi(t_mid), psi(t_mid))
            assert st.t == times[n + 1]
            assert np.array_equal(st.E, E[n + 1]) and np.array_equal(st.H, H[n + 1])
        assert np.array_equal(st.Q, last[0].Q)

    def test_hand_built_state_steps_to_the_same_bits(self, interface_stepper, rng):
        # a step reuses C0 E of the E it returned last; a state equal in value
        # but built by hand, or an older stepped state, must give the same bits
        stp = interface_stepper
        b = stp.bundle
        phi, psi = rng.standard_normal(b.n_edges), rng.standard_normal(b.n_faces)
        state = stp.initial_state(rng.standard_normal(b.n_edges),
                                  rng.standard_normal(b.n_faces))
        for _ in range(3):
            state = stp.step(state, phi, psi)
        hand = StepperState(state.t, state.E.copy(), state.H.copy(), state.Q.copy(),
                            state.step_index)
        cached = stp.step(state, phi, psi)
        fresh = stp.step(hand, phi, psi)
        again = stp.step(state, phi, psi)
        assert not cached.E.flags.writeable
        for new in (fresh, again):
            assert new.t == cached.t and new.step_index == cached.step_index
            for name in ("E", "H", "Q"):
                assert np.array_equal(getattr(new, name), getattr(cached, name))

    def test_non_finite_source_raises_at_its_step(self, bundle4, material_dl, dl_params,
                                                  dl_params_b, rng):
        dt, k = 0.02, 37
        stp = OracleStepper(bundle4, material_dl, dl_params, dl_params_b, dt)
        vec = rng.standard_normal(bundle4.n_edges)

        def phi(t):
            # finite up to step k, whose midpoint is (k + 1/2) dt
            return vec * (np.nan if t > k * dt else 1.0)

        with pytest.raises(LinearSolveFailure,
                           match=re.escape(f"non-finite step solution at t = {(k + 1) * dt:.6g}")):
            stp.run(stp.initial_state(), phi, None, 100)
