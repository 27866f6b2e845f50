"""Material laws: closed forms, kernels, scans, Schur complements."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memax import (
    BlockSingular,
    DrudeLorentzParams,
    ModDLParams,
    OverdampedUnsupported,
    PoleHit,
    TimeGrid,
    accretivity_scan,
    conductivity_law,
    dl_law,
    dl_time_kernel,
    eval_chi_dl,
    eval_dl,
    mod_dl_eval,
    mod_dl_g,
    mod_dl_law,
    re_zM_closed_form,
    schur_effective_law,
)
from memax.materials import hermitian_min


def random_dl(rng) -> DrudeLorentzParams:
    n_terms = rng.integers(1, 4)
    terms = [(rng.uniform(0.2, 3.0), rng.uniform(0.3, 2.0), rng.uniform(0.5, 4.0))
             for _ in range(n_terms)]
    return DrudeLorentzParams(rng.uniform(0.5, 3.0), terms)


class TestChiEval:
    def test_value_at_zero(self):
        p = DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)])
        assert eval_chi_dl(0.0, p) == pytest.approx(0.25, abs=1e-15)

    def test_pole_locations(self):
        p = DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)])
        poles = p.poles()
        expect = np.array([-1 + 1j * np.sqrt(3), -1 - 1j * np.sqrt(3)])
        assert np.abs(np.sort_complex(poles) - np.sort_complex(expect)).max() < 1e-14
        # all poles strictly left of the axis for every gamma > 0
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = random_dl(rng)
            assert np.all(q.poles().real < 0)

    def test_conjugate_symmetry(self, rng):
        p = random_dl(rng)
        z = rng.standard_normal(200) + 1j * rng.standard_normal(200) * 5
        assert np.abs(eval_chi_dl(np.conj(z), p) - np.conj(eval_chi_dl(z, p))).max() < 1e-14

    def test_pole_hit_raises(self):
        p = DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)])
        with pytest.raises(PoleHit):
            eval_chi_dl(-1.0 + 1j * np.sqrt(3.0), p)


class TestTimeKernel:
    def test_zero_at_zero_lag(self):
        p = DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)])
        kern = dl_time_kernel(p, TimeGrid(0.0, 0.01, 256))
        assert kern.values[0] == 0.0
        assert abs(kern.values[1]) < 0.05  # continuous ramp from zero

    def test_hand_coefficients(self):
        # gamma=1, omega0=2: b = sqrt(3), a = alpha/sqrt(3)
        p = DrudeLorentzParams(1.0, [(1.5, 1.0, 2.0)])
        g = TimeGrid(0.0, 1e-4, 64)
        kern = dl_time_kernel(p, g)
        t = g.times[1:5]
        expect = (1.5 / np.sqrt(3.0)) * np.exp(-t) * np.sin(np.sqrt(3.0) * t)
        assert np.abs(kern.values[1:5].real - expect).max() < 1e-12

    def test_overdamped_rejected(self, bundle4, material_dl):
        from memax import (BumpSpec, HistorySpec, KernelSpec, OracleStepper,
                           build_g_phi, build_maxwell_inhomogeneity)

        p = DrudeLorentzParams(1.0, [(1.0, 2.0, 1.0)])
        with pytest.raises(OverdampedUnsupported):
            dl_time_kernel(p, TimeGrid(0.0, 0.01, 64))
        # z-domain evaluation still works for the overdamped branch
        assert np.isfinite(eval_chi_dl(1.0 + 1j, p))

        # every other time-domain entry point, on a law with one overdamped term
        mixed = DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0), (0.5, 2.0, 1.0)])
        grid = TimeGrid(-1.0, 1.0 / 32.0, 64)
        with pytest.raises(OverdampedUnsupported):
            KernelSpec.from_dl(mixed, TimeGrid(0.0, grid.dt, grid.n_samples))
        with pytest.raises(OverdampedUnsupported):
            OracleStepper(bundle4, material_dl, None, mixed, grid.dt)
        k0 = grid.index_of(0.0)
        ht = grid.times[: k0 + 1] - grid.times[k0]
        h = HistorySpec(ht, np.outer(np.exp(ht), np.ones(bundle4.n_state)))
        with pytest.raises(OverdampedUnsupported):
            build_maxwell_inhomogeneity(h, BumpSpec(0.5), bundle4, material_dl, mixed,
                                        None, grid, 1.0)
        # the spectral path evaluates the law in z and never expands it in time
        conv = build_g_phi(h, BumpSpec(0.5), bundle4, material_dl, mixed, None, grid, 1.0,
                           conv_method="spectral")
        assert np.all(np.isfinite(conv.g_phi.values))
        assert np.isfinite(conv.compatibility_residual)

    def test_transform_match(self):
        from memax import fourier_laplace, WeightedSignal

        p = DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)])
        mp = ModDLParams(p, 4.0)
        g = TimeGrid(0.0, 1e-3, 2 ** 14)
        for law, chi in ((p, lambda z: eval_chi_dl(z, p)),
                         (mp, lambda z: mod_dl_eval(z, mp) - mp.base.eps0)):
            vals = np.array(dl_time_kernel(law, g).values)
            # the DFT is a rectangle rule; halving the t = 0 sample makes it
            # the trapezoid rule on [0, T].  The plain kernel vanishes there,
            # the modified one jumps to alpha/r.
            vals[0] *= 0.5
            u = WeightedSignal(g, 2.0, vals)
            U = fourier_laplace(u, check=False)
            band = np.abs(U.xi) < 40
            lhs = np.sqrt(2 * np.pi) * U.values[band, 0]
            rhs = chi(U.z[band])
            assert np.abs(lhs - rhs).max() < 1e-6


TWO_TERM = DrudeLorentzParams(1.3, [(1.0, 1.0, 2.0), (0.6, 0.4, 3.1)])


def hand_kernel(p, t):
    """Sum over terms of (a/b) e^{-gt} sin bt, plus (a/r) e^{-gt}(cos bt -
    (g/b) sin bt) for the modified law, and the t-derivative of that sum."""
    base, r = (p.base, p.r) if isinstance(p, ModDLParams) else (p, None)
    k = np.zeros_like(t)
    kp = np.zeros_like(t)
    for a, g, w in base.terms:
        b = np.sqrt(w * w - g * g)
        e, s, c = np.exp(-g * t), np.sin(b * t), np.cos(b * t)
        k += (a / b) * e * s
        kp += (a / b) * e * (b * c - g * s)
        if r is not None:
            k += (a / r) * e * (c - (g / b) * s)
            kp += (a / r) * e * (-2.0 * g * c - (b - g * g / b) * s)
    return k, kp


class TestOneExpansion:
    """Every time-domain consumer samples the same (lam, c) expansion."""

    @pytest.mark.parametrize("law", [TWO_TERM, ModDLParams(TWO_TERM, 4.0)],
                             ids=["dl", "mod_dl"])
    def test_callers_match_hand_formulas(self, law, bundle4, material_dl):
        from memax import KernelSpec, OracleStepper
        from memax.history import MaterialKernels

        grid = TimeGrid(0.0, 1.0 / 64.0, 512)
        k, kp = hand_kernel(law, grid.times)
        tol, tol_p = 1e-14 * np.abs(k).max(), 1e-14 * np.abs(kp).max()

        assert np.abs(dl_time_kernel(law, grid).values - k).max() <= tol
        spec = KernelSpec.from_dl(law, grid)
        assert np.abs(spec.kappa.values - k).max() <= tol
        assert np.abs(spec.kappa_prime.values - kp).max() <= tol_p
        mk = MaterialKernels.from_params(law, None, grid)
        assert np.abs(mk.kernel1.values - k).max() <= tol
        assert np.abs(mk.kernel1_prime.values - kp).max() <= tol_p
        assert mk.kernel2 is None and mk.kernel2_prime is None

        stp = OracleStepper(bundle4, material_dl, law, None, grid.dt)
        emask1 = bundle4.edge_region_mask()
        assert all(np.array_equal(term.mask, emask1) for term in stp.terms)
        k_stp = sum(np.imag(term.coeff * np.exp(term.lam * grid.times)) for term in stp.terms)
        assert np.abs(k_stp - k).max() <= tol
        assert np.array_equal(stp.eps_inf, np.where(emask1, 1.3, 1.0))

    def test_shifted_modified_law_raises_everywhere(self, bundle4, material_dl):
        from memax import KernelSpec, MemaxError, OracleStepper

        shifted = ModDLParams(TWO_TERM, 4.0, z0=0.5)
        kgrid = TimeGrid(0.0, 1.0 / 32.0, 64)
        for build in (lambda: dl_time_kernel(shifted, kgrid),
                      lambda: KernelSpec.from_dl(shifted, kgrid),
                      lambda: OracleStepper(bundle4, material_dl, shifted, None, kgrid.dt)):
            with pytest.raises(MemaxError, match="z0"):
                build()


class TestClosedForm:
    def test_hand_value_at_resonance(self):
        # nu=0, t=omega0: value = alpha/(2 gamma)
        p = DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)])
        assert re_zM_closed_form(0.0, 2.0, p) == pytest.approx(0.5, abs=1e-14)

    def test_on_axis_positive_and_vanishing(self):
        p = DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)])
        ts = np.geomspace(0.1, 1e5, 50)
        vals = np.array([re_zM_closed_form(0.0, t, p) for t in ts])
        assert np.all(vals >= 0)
        assert vals[-1] < 1e-8

    def test_agrees_with_complex_evaluation(self, rng):
        for _ in range(5):
            p = random_dl(rng)
            nu = rng.standard_normal(1000) * 2
            t = rng.standard_normal(1000) * 10
            direct = np.real((nu + 1j * t) * eval_dl(nu + 1j * t, p))
            closed = np.array([re_zM_closed_form(a, b, p) for a, b in zip(nu, t)])
            denom = np.maximum(np.abs(direct), 1.0)
            assert np.abs(direct - closed).max() / denom.max() < 1e-12


class TestModDL:
    def test_large_r_recovers_plain(self, rng):
        p = DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)])
        z = 0.3 + 2.1j
        for r in (1e6, 1e9):
            mp = ModDLParams(p, r)
            gap = abs(mod_dl_eval(z, mp) - eval_dl(z, p))
            assert gap < 10 * abs(z) / r

    def test_g_closed_form_oracle(self, rng):
        # symbolic-form oracle coded here, independently of the library path
        alpha, gamma, w0, r = 1.0, 1.0, 2.0, 4.0
        mp = ModDLParams(DrudeLorentzParams(1.0, [(alpha, gamma, w0)]), r)

        def g_oracle(nu, t):
            num = (nu * w0 ** 2 * r + (2 * gamma * r + w0 ** 2) * nu ** 2
                   + (r + 2 * gamma) * nu ** 3
                   + ((r + 2 * gamma) * nu + 2 * nu ** 2 + 2 * gamma * r - w0 ** 2) * t ** 2
                   + nu ** 4 + t ** 4)
            den = (w0 ** 2 + nu ** 2 - t ** 2 + 2 * gamma * nu) ** 2 \
                + (2 * nu + 2 * gamma) ** 2 * t ** 2
            return alpha / r * num / den

        for _ in range(400):
            nu = rng.uniform(-0.4, 3.0)
            t = rng.uniform(-20, 20)
            direct = np.real((nu + 1j * t) * mod_dl_eval(nu + 1j * t, mp)) - 1.0 * nu
            assert abs(direct - mod_dl_g(nu, t, mp)) < 1e-12 * max(1.0, abs(direct))
            assert abs(direct - g_oracle(nu, t)) < 1e-12 * max(1.0, abs(direct))

    def test_limit_alpha_over_r(self):
        mp = ModDLParams(DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)]), 4.0)
        for nu in (0.0, 0.1, -0.05):
            assert abs(mod_dl_g(nu, 1e6, mp) - 0.25) < 1e-6


class TestScans:
    def test_plain_dl_no_strict_accretivity(self, dl_params):
        law = dl_law(dl_params)
        scan = accretivity_scan(law, nu=0.0, delta_exclusion=0.1, t_max=1e3)
        # on-axis values tend to zero: c_min approaches 0 from above, and the
        # appended tail limit pins it at eps0 * 0 = 0
        assert scan.c_min <= 1e-6
        assert not scan.certified
        scan_neg = accretivity_scan(law, nu=0.2, delta_exclusion=0.1)
        assert scan_neg.c_min < 0
        assert scan_neg.tail_limit == pytest.approx(-0.2)

    def test_mod_dl_certificate_exists(self, mod_params):
        assert mod_params.accretivity_margin() > 0
        law = mod_dl_law(mod_params)
        scan = accretivity_scan(law, nu=0.02, delta_exclusion=1.0)
        assert scan.certified and scan.c_min > 0

    def test_picard_strip(self, dl_params):
        # on Re z > rho0 > 0: c_min >= eps0 * rho0 (Re z M >= c Re z behavior)
        law = dl_law(dl_params)
        for rho0 in (0.5, 1.0, 2.0):
            scan = accretivity_scan(law, nu=-rho0, nu_hi=20.0,
                                    condition_id="PicardStrip")
            assert scan.c_min >= dl_params.eps0 * rho0 - 1e-12

    def test_refinement_monotone(self, mod_params):
        law = mod_dl_law(mod_params)
        coarse = accretivity_scan(law, nu=0.02, delta_exclusion=1.0, n_nu=7, n_t=60)
        fine = accretivity_scan(law, nu=0.02, delta_exclusion=1.0, n_nu=21, n_t=400)
        # the scan minimum never increases when the grid is refined (superset)
        assert fine.c_min <= coarse.c_min + 1e-12

    def test_scan_json(self, mod_params):
        import json

        law = mod_dl_law(mod_params)
        scan = accretivity_scan(law, nu=0.02, delta_exclusion=1.0)
        payload = json.loads(scan.to_json())
        assert payload["condition_id"] == "M2"
        assert payload["c_min"] == scan.c_min


class TestConductivity:
    def test_sigma_zero_is_base(self, dl_params):
        law = dl_law(dl_params)
        assert conductivity_law(law, 0.0) is law

    def test_imaginary_axis_identity(self, dl_params):
        # at z = it: Re z M(z) = Re(z eps(z)) + sigma
        law = dl_law(dl_params)
        sig = conductivity_law(law, 0.7)
        for t in (0.5, 2.0, 17.0):
            z = 1j * t
            lhs = np.real(z * sig(z))
            rhs = np.real(z * law(z)) + 0.7
            assert abs(lhs - rhs) < 1e-13

    def test_scan_with_sigma_certifies(self):
        p = DrudeLorentzParams(1.0, [(0.2, 1.0, 2.0)])
        sig = conductivity_law(dl_law(p), 0.5)
        scan = accretivity_scan(sig, nu=0.1, delta_exclusion=0.0, condition_id="M4")
        assert scan.certified and scan.c_min > 0


class TestSchurLaw:
    def test_block_diagonal_is_top_block(self, rng):
        A = rng.standard_normal((3, 3))

        def blocks(z):
            out = np.zeros((6, 6), dtype=complex)
            out[:3, :3] = A * (1 + z)
            out[3:, 3:] = np.eye(3) * (2 + z)
            return out

        eff = schur_effective_law(blocks, split=3)
        z = 0.3 + 0.8j
        assert np.abs(eff(z) - A * (1 + z)).max() < 1e-14

    def test_accretivity_inheritance(self, rng):
        # Re(z B(z)) >= c on a grid implies the same for the Schur complement
        R = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))

        def blocks(z):
            base = R + z * np.eye(6)
            shift = -hermitian_min(base) + 0.8
            return base + shift * np.eye(6)

        eff = schur_effective_law(blocks, split=3)
        for z in (0.1 + 1j, 2.0 - 3j, 0.01):
            c = hermitian_min(z * blocks(z)) if False else None
            herm_full = hermitian_min(blocks(z))
            herm_schur = hermitian_min(eff(z))
            assert herm_schur >= herm_full - 1e-10

    def test_random_matrices_dense_eigen_oracle(self, rng):
        for _ in range(50):
            T = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            d = 0.5
            T = T + (d - hermitian_min(T)) * np.eye(6)

            eff = schur_effective_law(lambda z: T, split=3)
            herm = 0.5 * (eff(1.0) + eff(1.0).conj().T)
            assert np.linalg.eigvalsh(herm)[0] >= d - 1e-10

    def test_singular_block_raises(self):
        def blocks(z):
            out = np.zeros((4, 4), dtype=complex)
            out[:2, :2] = np.eye(2)
            out[2:, 2:] = np.array([[1.0, 1.0], [1.0, 1.0]])  # singular
            return out

        eff = schur_effective_law(blocks, split=2)
        with pytest.raises(BlockSingular):
            eff(1.0)


class TestMaterialInvariants:
    @settings(max_examples=20, deadline=None)
    @given(alpha=st.floats(0.1, 3.0), gamma=st.floats(0.2, 2.0),
           omega0=st.floats(0.3, 4.0), nu=st.floats(-0.1, 2.0),
           t=st.floats(-30.0, 30.0))
    def test_closed_form_everywhere(self, alpha, gamma, omega0, nu, t):
        p = DrudeLorentzParams(1.0, [(alpha, gamma, omega0)])
        try:
            closed = re_zM_closed_form(nu, t, p)
        except PoleHit:
            return
        direct = np.real((nu + 1j * t) * eval_dl(nu + 1j * t, p))
        assert abs(closed - direct) <= 1e-11 * max(1.0, abs(direct))

    def test_hermitian_part_positive_at_real_positive(self, rng):
        for _ in range(10):
            p = random_dl(rng)
            x = rng.uniform(0.1, 5.0)
            assert np.real(eval_dl(x, p)) > 0


# (alpha, gamma, omega0 - gamma): oscillatory terms only, omega0 > gamma
OSCILLATORS = st.lists(st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 2.0), st.floats(0.05, 3.0)),
                       min_size=1, max_size=3)


class TestKernelTermsProperty:
    """kernel_terms() and the z-domain laws are two hand-kept derivations of
    one law: the Laplace transform of sum_j Im(c_j e^{lam_j t}) must be chi(z)
    for the plain law and M_r(z) - eps0 for the modified one (z0 = 0)."""

    @staticmethod
    def transform(terms, z):
        """sum_j (c_j/(z - lam_j) - conj(c_j)/(z - conj(lam_j))) / 2i."""
        return sum((c / (z - lam) - c.conjugate() / (z - lam.conjugate())) / 2j
                   for lam, c in terms)

    @settings(max_examples=80, deadline=None)
    @given(eps0=st.floats(0.5, 3.0), oscillators=OSCILLATORS,
           r=st.one_of(st.none(), st.floats(2.5, 8.0)),
           right_of_poles=st.floats(0.01, 6.0), xi=st.floats(-20.0, 20.0))
    def test_transform_matches_z_domain_law(self, eps0, oscillators, r, right_of_poles, xi):
        # r > max gamma keeps the zero z = -r of (1 + z/r) left of the line
        p = DrudeLorentzParams(eps0, [(a, g, g + dw) for a, g, dw in oscillators])
        z = complex(-min(g for _, g, _ in p.terms) + right_of_poles, xi)
        if r is None:
            terms, law = p.kernel_terms(), eval_chi_dl(z, p)
        else:
            mod = ModDLParams(p, r)
            terms, law = mod.kernel_terms(), mod_dl_eval(z, mod) - eps0
        assert abs(self.transform(terms, z) - law) <= 1e-12 * abs(law)
