"""Acceptance gate: one test per criterion, each printing its own verdict.

Every tolerance is pinned here, in the test, from the project's contract;
nothing defers to later calibration.  Grids stay at or under 8^3 cells and
1024 time samples, so the whole gate runs in minutes.
"""

import numpy as np
import pytest

from memax import (
    BallEscape,
    BilinearNonlinearity,
    BumpSpec,
    DrudeLorentzParams,
    DtPolarization,
    KernelSpec,
    LinearProblem,
    ModDLParams,
    NotCertified,
    OracleStepper,
    PiecewiseMaterial,
    QuadDtPolarization,
    QuadKernelSpec,
    SampledKernel,
    SaturableNonlinearity,
    SolutionOperator,
    TimeGrid,
    WeightedSignal,
    YeeGrid,
    apply_P2,
    apply_cutoff,
    ball_solve,
    build_curl_pair,
    build_g_phi,
    capability_matrix,
    certify_decay_rate,
    conductivity_law,
    cutoff_loc_lip_bound,
    dl_law,
    eval_dl,
    helmholtz_projections,
    history_from_solution,
    make_divergence_free_data,
    mod_dl_g,
    mod_dl_law,
    picard_solve,
    poincare_constant,
    projection_invertibility_check,
    re_zM_closed_form,
    reconstruct_solution,
    schur_accretivity_check,
    simulate_decay,
    smooth_pulse,
    solve_linear,
    stack_rhs,
    suggest_rho,
    verify_causality,
    verify_rho_independence,
    weighted_norm,
)
from memax.materials import hermitian_min

pytestmark = pytest.mark.acceptance

RNG = np.random.default_rng(808)


def verdict(num, ok, text):
    print(f"\nACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def lab():
    bundle = build_curl_pair(YeeGrid((1.0, 1.0, 1.0), (4, 4, 4), 3, 2))
    basis = helmholtz_projections(bundle)
    p1 = DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)])
    p2 = DrudeLorentzParams(1.0, [(0.5, 1.2, 2.5)])
    material = PiecewiseMaterial(dl_law(p1), dl_law(p2), 1.0, 1.0)
    return bundle, basis, p1, p2, material


def test_01_skew_adjointness(lab):
    bundle4 = lab[0]
    bundle8 = build_curl_pair(YeeGrid((1.0, 1.0, 1.0), (8, 8, 8), 3, 4))
    norms = []
    for b in (bundle4, bundle8):
        s = b.A + b.A.T
        norms.append(0.0 if s.nnz == 0 else float(np.abs(s.data).max()))
    ok = norms[0] == 0.0 and norms[1] == 0.0
    verdict(1, ok, f"|A + A^T| = {norms} exactly zero on 4^3 and 8^3 PEC grids")


def test_02_closed_forms():
    worst = 0.0
    for trial in range(5):
        n_terms = int(RNG.integers(1, 4))
        p = DrudeLorentzParams(
            float(RNG.uniform(0.5, 3.0)),
            [(RNG.uniform(0.2, 3.0), RNG.uniform(0.3, 2.0), RNG.uniform(0.5, 4.0))
             for _ in range(n_terms)],
        )
        nu = RNG.standard_normal(10_000) * 2.0
        t = RNG.standard_normal(10_000) * 10.0
        direct = np.real((nu + 1j * t) * eval_dl(nu + 1j * t, p))
        closed = np.array([re_zM_closed_form(a, b, p) for a, b in zip(nu, t)])
        scale = np.maximum(np.abs(direct), 1.0)
        worst = max(worst, float((np.abs(direct - closed) / scale).max()))
    mp = ModDLParams(DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)]), 4.0)
    lim_err = max(abs(mod_dl_g(nu, 1e6, mp) - 1.0 / 4.0) for nu in (0.0, 0.1, -0.02))
    ok = worst < 1e-12 and lim_err < 1e-6
    verdict(2, ok, f"closed-form agreement {worst:.2e} (<1e-12); "
                   f"mod-DL limit error {lim_err:.2e} (<1e-6)")


GRID = TimeGrid(-2.0, 1.0 / 32.0, 512)


def _pulse(bundle, grid, rho, rng, t_on=0.0, t_off=2.0, div_free=False, amp=1.0):
    if div_free:
        vec = np.concatenate([
            bundle.C @ rng.standard_normal(bundle.n_faces),
            bundle.C0 @ rng.standard_normal(bundle.n_edges),
        ])
    else:
        vec = rng.standard_normal(bundle.n_state)
    vec *= amp / np.linalg.norm(vec)
    prof = smooth_pulse(grid.times, t_on, t_off)
    return WeightedSignal(grid, rho, prof[:, None] * vec[None, :])


def test_03_picard_bound(lab):
    bundle, _, _, _, material = lab
    rho = 2.0
    op = SolutionOperator(bundle, material, rho, GRID)
    worst = 0.0
    for _ in range(50):
        g = _pulse(bundle, GRID, rho, RNG,
                   t_on=RNG.uniform(-0.5, 0.5), t_off=RNG.uniform(1.0, 4.0))
        u = op.apply(g)
        worst = max(worst, weighted_norm(u) / weighted_norm(g))
    bound = (1.0 + 0.02) / op.c_min
    ok = worst <= bound
    verdict(3, ok, f"max |S g|/|g| = {worst:.4f} <= 1/c_min + 2% = {bound:.4f} "
                   f"(c_min = {op.c_min:.4f} from the line scan)")


def test_04_causality(lab):
    bundle, _, _, _, material = lab
    margins = []
    for a in (0.5, 1.0, 2.0):
        g = _pulse(bundle, GRID, 2.0, RNG, t_on=a, t_off=a + 1.0)
        margins.append(verify_causality(LinearProblem(bundle, material, 2.0, g), a))
    ok = max(margins) < 1e-8
    verdict(4, ok, f"impulse pre-support mass {max(margins):.2e} < 1e-8")


def test_05_rho_independence(lab):
    bundle, _, _, _, material = lab
    g = _pulse(bundle, GRID, 2.0, RNG)
    gap = verify_rho_independence(LinearProblem(bundle, material, 2.0, g), 1.0, 2.0)
    ok = gap < 1e-6
    verdict(5, ok, f"solutions at rho in {{1,2}} differ by {gap:.2e} < 1e-6 "
                   "on the common window")


def test_06_oracle_equivalence(lab):
    bundle, _, p1, p2, material = lab
    rho = 22.0
    vecE = RNG.standard_normal(bundle.n_edges)
    vecH = RNG.standard_normal(bundle.n_faces)

    def gap_at(dt, n):
        grid = TimeGrid(-0.2, dt, n)
        prof = smooth_pulse(grid.times, 0.05, 0.35)
        g = WeightedSignal(grid, rho,
                           prof[:, None] * np.concatenate([vecE, vecH])[None, :])
        u, _ = solve_linear(LinearProblem(bundle, material, rho, g))
        stp = OracleStepper(bundle, material, p1, p2, dt)

        def phi(t):
            return smooth_pulse(np.array([t]), 0.05, 0.35)[0] * vecE

        def psi(t):
            return smooth_pulse(np.array([t]), 0.05, 0.35)[0] * vecH

        k0 = grid.index_of(0.0)
        _, E, H = stp.run(stp.initial_state(), phi, psi, n - 1 - k0)
        num = np.linalg.norm(np.concatenate([E, H], axis=1) - u.values[k0:].real)
        return num / np.linalg.norm(u.values[k0:].real)

    fine = gap_at(1e-3, 1024)
    coarse = gap_at(2e-3, 512)
    ratio = coarse / fine
    ok = fine < 1e-3 and 2.5 < ratio < 7.0
    verdict(6, ok, f"spectral vs oracle gap {fine:.2e} < 1e-3 at dt=1e-3; "
                   f"halving dt shrinks it {ratio:.2f}x (O(dt^2))")


def test_07_contraction_certificate(lab):
    bundle, _, _, _, material = lab
    grid = TimeGrid(-1.0, 1.0 / 32.0, 512)
    prof = smooth_pulse(grid.times, 0.0, 2.0)
    g = WeightedSignal(grid, 1.0,
                       0.5 * prof[:, None] * RNG.standard_normal(bundle.n_state)[None, :])
    spec = KernelSpec.from_dl(DrudeLorentzParams(1.0, [(0.8, 1.5, 3.0)]),
                              TimeGrid(0.0, grid.dt, grid.n_samples))
    pol = DtPolarization(spec, SaturableNonlinearity(3, 1.0))
    prob = LinearProblem(bundle, material, 1.0, g)
    rho_half = suggest_rho(prob, pol.lip_bound(spec.rho_kappa), target=0.5)
    u, cert = picard_solve(prob, pol, rho=rho_half)
    ok = (cert.converged
          and abs(cert.theoretical_bound - 0.5) < 1e-6
          and cert.empirical_ratio <= cert.theoretical_bound + 0.05)
    verdict(7, ok, f"Picard at rho={rho_half:.3f}: bound "
                   f"{cert.theoretical_bound:.3f}, measured rate "
                   f"{cert.empirical_ratio:.4f} <= bound + 5%, "
                   f"{cert.iterations} iterations")


def test_08_cutoff_local_lipschitz():
    T, rho = 0.75, 1.0
    lag = TimeGrid(0.0, 1.0 / 64.0, 256)
    a = np.where(lag.times >= 0, np.exp(-2.0 * lag.times) * lag.times, 0.0)
    b = np.where(lag.times >= 0, np.exp(-3.0 * lag.times) * lag.times ** 2, 0.0)
    quad = apply_cutoff(QuadKernelSpec.from_factors(
        [SampledKernel(lag, a)], [SampledKernel(lag, b)]), T)
    q2 = BilinearNonlinearity(1.0)
    coeff = cutoff_loc_lip_bound(quad, rho, q2.C_q)
    grid = TimeGrid(-1.0, 1.0 / 64.0, 512)
    worst = 0.0
    for _ in range(100):
        prof = smooth_pulse(grid.times, 0.0, 1.5)
        u = WeightedSignal(grid, rho, RNG.uniform(0.2, 2.0) * prof[:, None]
                           * RNG.standard_normal((4,))[None, :])
        v = WeightedSignal(grid, rho, RNG.uniform(0.2, 2.0) * prof[:, None]
                           * RNG.standard_normal((4,))[None, :])
        num = weighted_norm(apply_P2(quad, q2, u) - apply_P2(quad, q2, v))
        den = coeff * (weighted_norm(u) + weighted_norm(v)) * weighted_norm(u - v)
        worst = max(worst, num / den)
    ok = worst <= 1.0 + 1e-9
    verdict(8, ok, f"cutoff local-Lipschitz ratio <= sqrt(T) e^(rho T) C_q "
                   f"sqrt(d_K L_K) (|u|+|v|): worst fraction {worst:.3f}")


def test_09_schur_lemma():
    d = 0.4
    deficit = 0.0
    for _ in range(200):
        n = int(RNG.integers(4, 12))
        split = int(RNG.integers(1, n))
        T = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
        T = T + (d - hermitian_min(T)) * np.eye(n)
        m11, ms = schur_accretivity_check(T, split)
        deficit = max(deficit, d - m11, d - ms)
    ok = deficit < 1e-10
    verdict(9, ok, f"200 random matrices: Schur margins >= d with deficit "
                   f"{deficit:.2e} < 1e-10")


def test_10_discrete_poincare(lab):
    bundle, basis, *_ = lab
    c = poincare_constant(bundle, basis)
    sigma_min = 1.0 / c
    s = np.linalg.svd(bundle.C0.toarray(), compute_uv=False)
    oracle = s[s > 1e-10 * s[0]].min()
    gap = abs(sigma_min - oracle) / oracle
    ok = sigma_min > 0 and gap < 1e-8
    verdict(10, ok, f"sigma_min = {sigma_min:.6f} > 0, dense SVD oracle gap "
                    f"{gap:.2e} < 1e-8")


def test_11_stability_and_capability(lab):
    bundle, basis, p1, _, _ = lab
    mp = ModDLParams(p1, 4.0)
    assert mp.accretivity_margin() > 0  # 2 gamma r - omega0^2 > 0
    law_mod = mod_dl_law(mp)
    law_dl = dl_law(p1)
    s2 = projection_invertibility_check(bundle, basis, np.ones(bundle.n_faces))
    cert_mod = certify_decay_rate([law_mod], [1.0], float(np.sqrt(s2)))
    cert_dl = certify_decay_rate([law_dl], [1.0], float(np.sqrt(s2)))

    material = PiecewiseMaterial(law_mod, law_mod, 1.0, 1.0)
    nu_run = 0.5 * cert_mod.nu0
    dec = TimeGrid(-4.0, 0.25, 1024)
    Phi, Psi = make_divergence_free_data(bundle, dec, -nu_run, 11, 0.0, 2.0)
    fit = simulate_decay(bundle, material, cert_mod, Phi, Psi, [nu_run], 2.0)[0]

    refused = False
    try:
        simulate_decay(bundle, PiecewiseMaterial(law_dl, law_dl, 1.0, 1.0),
                       cert_dl, Phi, Psi, [nu_run], 2.0)
    except NotCertified:
        refused = True

    sig = conductivity_law(law_dl, 0.5)
    configs = [
        ("dl", PiecewiseMaterial(law_dl, law_dl, 1.0, 1.0), [law_dl], [1.0]),
        ("mod_dl", material, [law_mod], [1.0]),
        ("dl_sigma", PiecewiseMaterial(law_dl, law_dl, 1.0, 1.0,
                                       sigma1=0.5, sigma2=0.5), [sig], [1.0]),
    ]
    rows = capability_matrix(bundle, basis, configs,
                             TimeGrid(-2.0, 1.0 / 32.0, 512), dec, seed=5)
    by = {r.model: (r.wp0, r.es0) for r in rows}
    pattern_ok = by["dl"] == (True, False) and by["mod_dl"] == (True, True) \
        and by["dl_sigma"] == (True, True)

    ok = (cert_mod.certified and cert_mod.nu0 > 0
          and fit.nu_hat >= 0.8 * nu_run and fit.r_squared > 0.99
          and not cert_dl.certified and refused and pattern_ok)
    verdict(11, ok, f"mod-DL nu0={cert_mod.nu0:.4f}, fitted nu_hat={fit.nu_hat:.4f} "
                    f">= 0.8*nu_run={0.8 * nu_run:.4f}, R^2={fit.r_squared:.5f}; "
                    f"plain DL refused={refused}; capability pattern={by}")


def test_12_divergence_conservation(lab):
    bundle, _, _, _, material = lab
    rho = 2.0
    # window sized so e^{rho t} amplification of per-frequency roundoff stays
    # below the 1e-8 target (rho * (t_end - t_peak) < ln 1e7)
    grid = TimeGrid(-1.0, 1.0 / 32.0, 256)
    Phi, Psi = make_divergence_free_data(bundle, grid, rho, 21, 0.0, 2.0)
    g = stack_rhs(bundle, Phi, Psi)
    u, _ = solve_linear(LinearProblem(bundle, material, rho, g))
    H = u.values[:, bundle.n_edges:].real
    mu = np.ones(bundle.n_faces)
    from memax import divergence_diagnostics

    dev = divergence_diagnostics(bundle, H, mu,
                                 B0=np.zeros(bundle.n_faces))
    h_norm = np.linalg.norm(H, axis=1).max()
    ok = dev.max() <= 1e-8 * h_norm
    verdict(12, ok, f"max_t |Div(mu H)(t)| = {dev.max():.2e} <= 1e-8 |H| "
                    f"({1e-8 * h_norm:.2e})")


def test_13_history_pipeline(lab):
    bundle, _, p1, p2, material = lab
    dt, n = 1.0 / 64.0, 1024
    master = TimeGrid(-6.0, dt, n)
    k0 = master.index_of(0.0)
    vec = np.concatenate([
        bundle.C @ RNG.standard_normal(bundle.n_faces),
        bundle.C0 @ RNG.standard_normal(bundle.n_edges),
    ])
    prof = smooth_pulse(master.times, -5.5, -3.0)
    g_src = WeightedSignal(master, 1.0, prof[:, None] * vec[None, :])
    u_full, _ = solve_linear(LinearProblem(bundle, material, 1.0, g_src))
    hist = history_from_solution(u_full, n_derivatives=5)
    bump = BumpSpec(support=2.0, n_derivatives=5, flatness=6, power=6)
    conv = build_g_phi(hist, bump, bundle, material, p1, p2, master, 1.0,
                       conv_method="spectral")
    u_t, _ = solve_linear(LinearProblem(bundle, material, 1.0, conv.g_phi))

    mags = np.abs(u_t.values).max(axis=1)
    pre = mags[master.times <= 0.0].max() / mags.max()

    U = reconstruct_solution(u_t, hist, conv.phi_plus)
    bit_exact = np.array_equal(U.values[master.times <= 0.0],
                               hist.embed(master)[master.times <= 0.0])

    refine = 8
    stp = OracleStepper(bundle, material, p1, p2, dt / refine)
    ne = bundle.n_edges
    state = stp.state_from_history(hist.times, hist.values[:, :ne].real,
                                   hist.values[:, ne:].real)
    _, E, H = stp.run(state, None, None, (n - 1 - k0) * refine)
    Uo = np.concatenate([E, H], axis=1)[::refine]
    cut = int(0.75 * len(Uo))
    rel = np.linalg.norm(Uo[:cut] - U.values[k0:].real[:cut]) / np.linalg.norm(Uo[:cut])

    ok = bit_exact and pre < 1e-8 and rel < 1e-3
    verdict(13, ok, f"history bit-exact={bit_exact}; u~ pre-support {pre:.2e} < 1e-8; "
                    f"pipeline vs oracle {rel:.2e} < 1e-3")


def test_14_small_ball_stability(lab):
    bundle, basis, p1, _, _ = lab
    law_mod = mod_dl_law(ModDLParams(p1, 4.0))
    material = PiecewiseMaterial(law_mod, law_mod, 1.0, 1.0)
    s2 = projection_invertibility_check(bundle, basis, np.ones(bundle.n_faces))
    cert = certify_decay_rate([law_mod], [1.0], float(np.sqrt(s2)))
    nu = 0.5 * cert.nu0
    grid = TimeGrid(-2.0, 0.25, 512)

    # linear stability constant K from divergence-free probes
    K = 0.0
    for seed in range(3):
        Phi, Psi = make_divergence_free_data(bundle, grid, -nu, seed, 0.0, 2.0)
        g = stack_rhs(bundle, Phi, Psi)
        u, _ = solve_linear(LinearProblem(bundle, material, -nu, g),
                            certificate_required=False)
        K = max(K, weighted_norm(u) / weighted_norm(g))
    K *= 3.0  # headroom over the probe estimate

    lag = TimeGrid(0.0, grid.dt, 128)
    a = np.where(lag.times >= 0, np.exp(-2.0 * lag.times) * lag.times, 0.0)
    quad = apply_cutoff(QuadKernelSpec.from_factors(
        [SampledKernel(lag, a)], [SampledKernel(lag, a)]), 8.0)
    pol = QuadDtPolarization(quad, BilinearNonlinearity(1.0))
    C_loc = pol.loc_lip_constant(-nu)
    radius = 1.0 / (4.0 * K * C_loc)

    Phi, Psi = make_divergence_free_data(bundle, grid, -nu, 33, 0.0, 2.0)
    g = stack_rhs(bundle, Phi, Psi)
    # scale data below the admissibility threshold c0*eps = radius/(4K)
    target = radius / (4.0 * K)
    g_small = g * (0.5 * target / weighted_norm(g))

    u, cert_ball = ball_solve(LinearProblem(bundle, material, -nu, g_small), pol,
                              weight=-nu, alpha=1.0, K_linear=K)
    confined = (cert_ball.converged
                and weighted_norm(u) <= cert_ball.constants["radius"]
                and max(cert_ball.constants["ball_trace"]) <= cert_ball.constants["radius"])

    escaped = False
    try:
        ball_solve(LinearProblem(bundle, material, -nu, g_small * 100.0), pol,
                   weight=-nu, alpha=1.0, K_linear=K)
    except BallEscape:
        escaped = True

    ok = confined and escaped
    verdict(14, ok, f"small data: converged in-ball (radius {radius:.3e}, "
                    f"{cert_ball.iterations} iters); 100x data escapes={escaped}")
