"""Material laws: closed forms, kernels, scans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memax import (
    DrudeLorentzParams,
    KernelSpec,
    MemaxError,
    ModDLParams,
    PiecewiseMaterial,
    PoleHit,
    RunConfig,
    ScalarLaw,
    TimeGrid,
    accretivity_scan,
    conductivity_law,
    default_config_dict,
    dl_law,
    eval_chi_dl,
    eval_dl,
    mod_dl_eval,
    mod_dl_g,
    mod_dl_law,
    re_zM_closed_form,
)
from oracles import dense_boundary


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
        poles = p.poles
        expect = np.array([-1 + 1j * np.sqrt(3), -1 - 1j * np.sqrt(3)])
        assert np.abs(np.sort_complex(poles) - np.sort_complex(expect)).max() < 1e-14
        # all poles strictly left of the axis for every gamma > 0
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = random_dl(rng)
            assert np.all(q.poles.real < 0)

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
        kern = KernelSpec.from_dl(p, TimeGrid(0.0, 0.01, 256)).kappa
        assert kern.values[0] == 0.0
        assert abs(kern.values[1]) < 0.05  # continuous ramp from zero

    def test_hand_coefficients(self):
        # gamma=1, omega0=2: b = sqrt(3), a = alpha/sqrt(3)
        p = DrudeLorentzParams(1.0, [(1.5, 1.0, 2.0)])
        g = TimeGrid(0.0, 1e-4, 64)
        kern = KernelSpec.from_dl(p, g).kappa
        t = g.times[1:5]
        expect = (1.5 / np.sqrt(3.0)) * np.exp(-t) * np.sin(np.sqrt(3.0) * t)
        assert np.abs(kern.values[1:5].real - expect).max() < 1e-12

    def test_overdamped_expands_in_time(self, bundle4, material_dl):
        from memax import (BumpSpec, HistorySpec, OracleStepper, build_g_phi,
                           build_maxwell_inhomogeneity)

        # alpha / ((z - lam+)(z - lam-)) on the real roots lam+- = -2 +- sqrt(3)
        p = DrudeLorentzParams(1.0, [(1.0, 2.0, 1.0)])
        assert np.isfinite(eval_chi_dl(1.0 + 1j, p))
        assert [lam.imag for lam, _ in p.kernel_terms()] == [0.0, 0.0]
        g = TimeGrid(0.0, 0.01, 64)
        kern = KernelSpec.from_dl(p, g).kappa
        s3 = np.sqrt(3.0)
        expect = (np.exp((-2.0 + s3) * g.times) - np.exp((-2.0 - s3) * g.times)) / (2.0 * s3)
        assert np.abs(kern.values - expect).max() <= 1e-14 * np.abs(expect).max()

        # every other time-domain entry point, on a law with one overdamped term
        mixed = DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0), (0.5, 2.0, 1.0)])
        grid = TimeGrid(-1.0, 1.0 / 32.0, 64)
        spec = KernelSpec.from_dl(mixed, TimeGrid(0.0, grid.dt, grid.n_samples))
        assert np.all(np.isfinite(spec.kappa.values))
        stp = OracleStepper(bundle4, material_dl, None, mixed, grid.dt)
        assert len(stp.terms) == 3
        k0 = grid.index_of(0.0)
        ht = grid.times[: k0 + 1] - grid.times[k0]
        h = HistorySpec(ht, np.outer(np.exp(ht), np.ones(bundle4.n_state)))
        Phi, Psi, _ = build_maxwell_inhomogeneity(h, BumpSpec(0.5), bundle4, material_dl,
                                                  mixed, None, grid, 1.0)
        assert np.all(np.isfinite(Phi.values)) and np.all(np.isfinite(Psi.values))
        # the spectral path evaluates the law in z and never expands it in time
        conv = build_g_phi(h, BumpSpec(0.5), bundle4, material_dl, mixed, None, grid, 1.0,
                           conv_method="spectral")
        assert np.all(np.isfinite(conv.g_phi.values))
        assert np.isfinite(conv.compatibility_residual)

        # a critical term, omega0 == gamma, has a double pole and no expansion
        critical = DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0), (0.7, 1.5, 1.5)])
        assert np.array_equal(critical.poles[2:], [-1.5, -1.5])
        for build in (lambda: KernelSpec.from_dl(critical, g),
                      lambda: OracleStepper(bundle4, material_dl, critical, None, g.dt)):
            with pytest.raises(MemaxError, match=r"alpha=0\.7, gamma=1\.5, omega0=1\.5"):
                build()

    def test_transform_match(self):
        from memax import fourier_laplace, WeightedSignal

        p = DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)])
        mp = ModDLParams(p, 4.0)
        g = TimeGrid(0.0, 1e-3, 2 ** 14)
        for law, chi in ((p, lambda z: eval_chi_dl(z, p)),
                         (mp, lambda z: mod_dl_eval(z, mp) - mp.eps0)):
            vals = np.array(KernelSpec.from_dl(law, g).kappa.values)
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
    r = p.r
    k = np.zeros_like(t)
    kp = np.zeros_like(t)
    for a, g, w in p.terms:
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
        from memax import OracleStepper

        grid = TimeGrid(0.0, 1.0 / 64.0, 512)
        k, kp = hand_kernel(law, grid.times)
        tol, tol_p = 1e-14 * np.abs(k).max(), 1e-14 * np.abs(kp).max()

        spec = KernelSpec.from_dl(law, grid)
        assert np.abs(spec.kappa.values - k).max() <= tol
        assert np.abs(spec.kappa_prime.values - kp).max() <= tol_p

        stp = OracleStepper(bundle4, material_dl, law, None, grid.dt)
        emask1 = bundle4.edge_region_mask()
        assert all(np.array_equal(term.mask, emask1) for term in stp.terms)
        k_stp = sum(np.imag(term.coeff * np.exp(term.lam * grid.times)) for term in stp.terms)
        assert np.abs(k_stp - k).max() <= tol
        assert np.array_equal(stp.eps_inf, np.where(emask1, 1.3, 1.0))

    @pytest.mark.parametrize("z0", [0.5, -1.0])
    def test_shifted_modified_law_expands_everywhere(self, z0, bundle4, material_dl):
        from memax import OracleStepper

        # (1 + (z - z0)/r) chi = (1 - z0/r) chi + (z/r) chi: the kernel of a
        # real shift is the z0 = 0 kernel less z0/r times the plain one
        shifted = ModDLParams(TWO_TERM, 4.0, z0=z0)
        grid = TimeGrid(0.0, 1.0 / 64.0, 512)
        k_mod, kp_mod = hand_kernel(ModDLParams(TWO_TERM, 4.0), grid.times)
        k_dl, kp_dl = hand_kernel(TWO_TERM, grid.times)
        k, kp = k_mod - (z0 / 4.0) * k_dl, kp_mod - (z0 / 4.0) * kp_dl
        spec = KernelSpec.from_dl(shifted, grid)
        assert np.abs(spec.kappa.values - k).max() <= 1e-14 * np.abs(k).max()
        assert np.abs(spec.kappa_prime.values - kp).max() <= 1e-14 * np.abs(kp).max()
        stp = OracleStepper(bundle4, material_dl, shifted, None, grid.dt)
        k_stp = sum(np.imag(term.coeff * np.exp(term.lam * grid.times)) for term in stp.terms)
        assert np.abs(k_stp - k).max() <= 1e-14 * np.abs(k).max()

    def test_non_real_shift_raises_everywhere(self, bundle4, material_dl):
        from memax import OracleStepper

        shifted = ModDLParams(TWO_TERM, 4.0, z0=0.5 + 0.25j)
        kgrid = TimeGrid(0.0, 1.0 / 32.0, 64)
        for build in (lambda: KernelSpec.from_dl(shifted, kgrid),
                      lambda: OracleStepper(bundle4, material_dl, shifted, None, kgrid.dt)):
            with pytest.raises(MemaxError, match="z0"):
                build()

    def test_oscillatory_terms_keep_their_bits(self):
        # the hand formulas of the oscillatory branch, evaluated inline
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = random_dl(rng)
            p = DrudeLorentzParams(p.eps0, [(a, g, g + w) for a, g, w in p.terms])
            r = rng.uniform(0.5, 8.0)
            plain, mod, poles = [], [], []
            for a, g, w in p.terms:
                b = np.sqrt(w * w - g * g)
                plain.append((complex(-g, b), complex(a / b)))
                mod.append((complex(-g, b), complex(a / b - (a / r) * (g / b), a / r)))
                poles += [-g + 1j * np.sqrt(w * w - g * g), -g - 1j * np.sqrt(w * w - g * g)]
            assert p.kernel_terms() == plain
            assert ModDLParams(p, r).kernel_terms() == mod
            assert np.array_equal(p.poles, np.asarray(poles, dtype=np.complex128))


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
            scan = accretivity_scan(law, nu=-rho0, condition_id="PicardStrip")
            assert scan.c_min >= dl_params.eps0 * rho0 - 1e-12

    def test_refinement_monotone(self, mod_params):
        law = mod_dl_law(mod_params)
        coarse = accretivity_scan(law, nu=0.02, delta_exclusion=1.0, n_t=60)
        fine = accretivity_scan(law, nu=0.02, delta_exclusion=1.0, n_t=400)
        # the scan minimum never increases when the grid is refined (superset)
        assert fine.c_min <= coarse.c_min + 1e-12

    def test_margin_is_the_dense_boundary_minimum(self, mod_params):
        # the minimum sits on the corner where the line Re z = -nu meets |z| = delta
        scan = accretivity_scan(mod_dl_law(mod_params), nu=0.02, delta_exclusion=1.0)
        Z = dense_boundary(0.02, 1.0, 2e4)
        oracle = float(np.min(np.real(Z * mod_params(Z))))
        assert Z.size >= 200_000
        assert scan.c_min == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_region_with_a_pole_is_refused(self):
        # poles -1 +- 1.732i lie inside Re z >= -3: the infimum is -inf and
        # the scan says so without evaluating the law
        scan = accretivity_scan(ScalarLaw(1.0, [(8.0, 1.0, 2.0)], r=0.5), nu=3.0)
        assert scan.c_min == -np.inf and not scan.certified
        assert scan.argmin.real == pytest.approx(-1.0, abs=1e-12)
        assert abs(scan.argmin.imag) == pytest.approx(np.sqrt(3.0), abs=1e-12)
        assert scan.n_grid == 0 and scan.tail_limit is None

    def test_scan_json(self, mod_params):
        import json

        law = mod_dl_law(mod_params)
        scan = accretivity_scan(law, nu=0.02, delta_exclusion=1.0)
        payload = scan.to_dict()
        assert payload["condition_id"] == "M2"
        assert payload["c_min"] == scan.c_min
        assert json.loads(json.dumps(payload)) == payload


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

    def test_pole_at_zero_cancels_in_z_M(self):
        # sigma/z and a Drude term's alpha/(z (z + 2 gamma)) have no pole in z M
        for law in (conductivity_law(dl_law(DrudeLorentzParams(1.0, [(0.2, 1.0, 2.0)])), 0.5),
                    ScalarLaw(1.0, [(0.8, 2.0, 0.0)], r=4.0)):
            scan = accretivity_scan(law, nu=0.0, delta_exclusion=0.0, condition_id="M4")
            assert np.isfinite(scan.c_min) and scan.n_grid > 0

    def test_scan_rejects_other_laws(self):
        # a ScalarLaw, or herm_min_vec for Re(z M(z)); nothing else
        from memax import md_from_scalar_law

        law = dl_law(DrudeLorentzParams(1.0, [(0.2, 1.0, 2.0)]))
        with pytest.raises(TypeError, match="function"):
            accretivity_scan(lambda z: 1.0 + 0.0 * z, nu=0.1)
        with pytest.raises(TypeError, match="MdSystem"):
            accretivity_scan(md_from_scalar_law(law, 1.0, 3.0, 0.05), nu=0.1, scan_re_M=True)


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
# overdamped terms, omega0 = f gamma with f in [0, 0.95]: f = 0 is a Drude term
DAMPING = st.lists(st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 2.0),
                             st.one_of(st.just(0.0), st.floats(0.0, 0.95))), max_size=2)


class TestKernelTermsProperty:
    """kernel_terms() and the z-domain laws are two derivations of one law:
    the Laplace transform of sum_j Im(c_j e^{lam_j t}) must be chi(z) for the
    plain law and M_r(z) - eps0 for the modified one, for oscillatory,
    overdamped and Drude terms and any real z0."""

    @staticmethod
    def transform(terms, z):
        """sum_j (c_j/(z - lam_j) - conj(c_j)/(z - conj(lam_j))) / 2i."""
        return sum((c / (z - lam) - c.conjugate() / (z - lam.conjugate())) / 2j
                   for lam, c in terms)

    @settings(max_examples=80, deadline=None)
    @given(eps0=st.floats(0.5, 3.0), oscillators=OSCILLATORS, damping=DAMPING,
           r=st.one_of(st.none(), st.floats(3.5, 8.0)), z0=st.floats(-1.0, 1.0),
           right_of_poles=st.floats(0.01, 6.0), xi=st.floats(-20.0, 20.0))
    def test_transform_matches_z_domain_law(self, eps0, oscillators, damping, r, z0,
                                            right_of_poles, xi):
        # r - z0 > 2 > max gamma keeps the zero z = z0 - r of (1 + (z - z0)/r)
        # left of the line, which passes right of the rightmost pole
        p = DrudeLorentzParams(eps0, [(a, g, g + dw) for a, g, dw in oscillators]
                               + [(a, g, f * g) for a, g, f in damping])
        z = complex(max(z.real for z in p.poles) + right_of_poles, xi)
        if r is None:
            terms, law = p.kernel_terms(), eval_chi_dl(z, p)
        else:
            mod = ModDLParams(p, r, z0)
            terms, law = mod.kernel_terms(), mod_dl_eval(z, mod) - eps0
        assert abs(self.transform(terms, z) - law) <= 1e-12 * abs(law)


def closure_law(p, sigma: float) -> tuple:
    """(value, poles, name, re_zM_limit, re_M_limit) of the dl or mod_dl law
    of p plus z^{-1} sigma, written out as closures: the reference that
    conductivity_law(p, sigma) must match bit for bit."""
    if p.r is not None:
        alpha_over_r = sum(a / p.r for a, _, _ in p.terms)
        value, poles, name = (lambda z: mod_dl_eval(z, p)), p.poles, "mod_dl"
        re_zm = lambda nu: p.eps0 * nu + alpha_over_r            # noqa: E731
        re_m = lambda nu: p.eps0                                 # noqa: E731
    else:
        value, poles, name = (lambda z: eval_dl(z, p)), p.poles, "dl"
        re_zm = lambda nu: p.eps0 * nu                           # noqa: E731
        re_m = lambda nu: p.eps0                                 # noqa: E731
    if sigma > 0:
        eps, eps_zm = value, re_zm
        value = lambda z: (eps(np.asarray(z, dtype=np.complex128))     # noqa: E731
                           + sigma / np.asarray(z, dtype=np.complex128))
        poles = np.concatenate([poles, [0.0 + 0.0j]])
        name += "_sigma"
        re_zm = lambda nu: eps_zm(nu) + sigma                   # noqa: E731
    return value, poles, name, re_zm, re_m


_P = DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)])
NON_FINITE_BUILDS = {
    "eps0": lambda v: DrudeLorentzParams(v, [(1.0, 1.0, 2.0)]),
    "r": lambda v: ModDLParams(_P, v),
    "z0": lambda v: ModDLParams(_P, 4.0, v),
    "sigma": lambda v: conductivity_law(dl_law(_P), v),
    "sigma1": lambda v: PiecewiseMaterial(dl_law(_P), dl_law(_P), 1.0, 1.0, sigma1=v),
    "sigma2": lambda v: PiecewiseMaterial(dl_law(_P), dl_law(_P), 1.0, 1.0, sigma2=v),
    "mu1": lambda v: PiecewiseMaterial(dl_law(_P), dl_law(_P), v, 1.0),
    "mu2": lambda v: PiecewiseMaterial(dl_law(_P), dl_law(_P), 1.0, v),
}


def same_bits(a, b) -> bool:
    return type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestLawRecord:
    """ScalarLaw reads its value, poles, name, base and limits off the
    (eps0, terms, r, z0, sigma) record with the closure laws' own expressions,
    bit for bit, for oscillatory, overdamped and Drude terms, any real z0,
    with and without a conductivity, at scalar and array z."""

    @settings(max_examples=100, deadline=None)
    @given(eps0=st.floats(0.5, 3.0), oscillators=OSCILLATORS, damping=DAMPING,
           r=st.one_of(st.none(), st.floats(0.5, 8.0)), z0=st.floats(-1.0, 1.0),
           sigma=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
           points=st.lists(st.tuples(st.floats(0.01, 6.0), st.floats(-50.0, 50.0)),
                           min_size=1, max_size=4),
           scalar=st.booleans(), nus=st.lists(st.floats(-2.0, 20.0), min_size=1, max_size=3))
    def test_record_matches_closures(self, eps0, oscillators, damping, r, z0, sigma, points,
                                     scalar, nus):
        p = DrudeLorentzParams(eps0, [(a, g, g + dw) for a, g, dw in oscillators]
                               + [(a, g, f * g) for a, g, f in damping])
        params = p if r is None else ModDLParams(p, r, z0)
        law = conductivity_law(dl_law(p) if r is None else mod_dl_law(params), sigma)
        value, poles, name, re_zm, re_m = closure_law(params, sigma)
        # right of every pole and of z = 0, where a conductive law has its own pole
        right = max(0.0, max(z.real for z in p.poles))
        zs = np.array([complex(right + a, b) for a, b in points])
        for z in ([complex(zs[0]), zs[0]] if scalar else [zs]):
            assert same_bits(law(z), value(z))
        assert same_bits(law.poles, poles) and law.name == name
        assert law.base == (params if sigma > 0 else None)
        for nu in nus:
            assert same_bits(law.re_zM_limit(nu), re_zm(nu))
            assert same_bits(law.re_M_limit(nu), re_m(nu))
        assert law == ScalarLaw(params.eps0, params.terms, params.r, params.z0, sigma)
        assert PiecewiseMaterial(params, law, 1.0, 1.0,
                                 sigma1=sigma).eps_laws() == (law, law)

    def test_zero_conductivity_is_the_law(self, dl_params):
        for law in (dl_law(dl_params), conductivity_law(dl_law(dl_params), 0.5)):
            assert conductivity_law(law, 0.0) is law

    def test_conductivity_adds_to_the_law_own(self, dl_params):
        law = conductivity_law(conductivity_law(dl_law(dl_params), 0.5), 0.25)
        assert law == ScalarLaw(dl_params.eps0, dl_params.terms, sigma=0.75)
        assert law.base == dl_law(dl_params)
        with pytest.raises(ValueError, match="sigma must be nonnegative"):
            conductivity_law(dl_law(dl_params), -0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", list(NON_FINITE_BUILDS))
    def test_non_finite_parameter_is_refused(self, field, value):
        # a nan or inf parameter would build a law that names itself one
        # thing and evaluates as another (or as nan)
        with pytest.raises(ValueError, match=rf"^{field} must be .*finite, got {value}$"):
            NON_FINITE_BUILDS[field](value)

    def test_twice_modified_law_is_refused(self, mod_params):
        with pytest.raises(ValueError, match="already a modified law"):
            ModDLParams(mod_params, 2.0)

    def test_references_refuse_the_other_kind(self, dl_params, mod_params):
        # a plain reference handed a modified law would drop its factor
        for call in (lambda: eval_dl(0.5 + 1j, mod_params),
                     lambda: re_zM_closed_form(0.5, 1.0, mod_params),
                     lambda: mod_dl_eval(0.5 + 1j, dl_params),
                     lambda: mod_dl_g(0.5, 1.0, dl_params),
                     dl_params.accretivity_margin):
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize("material", [
        {},
        {"model": "dl", "r": None},
        {"model": "dl_sigma", "sigma": 0.5, "r": None,
         "region2": {"model": "dl_sigma", "sigma": 0.3, "eps0": 1.5}},
        {"region2": {"model": "dl_sigma", "sigma": 0.3,
                     "terms": [{"alpha": 0.8, "gamma": 2.0, "omega0": 0.0}]}},
        {"model": "dl_sigma", "sigma": 0.5, "r": None, "region2": {"model": "mod_dl", "r": 3.0}},
    ], ids=["mod_dl", "dl", "dl_sigma_pair", "mod_dl_drude_sigma", "dl_sigma_mod_dl"])
    def test_config_laws_are_the_material_laws(self, material):
        raw = default_config_dict()
        raw["material"].update(material)
        raw["material"] = {k: v for k, v in raw["material"].items() if v is not None}
        mat, params1, params2, laws, eps_infs = RunConfig.from_dict(raw).material()
        assert tuple(laws) == mat.eps_laws()
        assert [law.base or law for law in laws] == [params1, params2] == [mat.law1, mat.law2]
        assert [law.sigma for law in laws] == [mat.sigma1, mat.sigma2]
        assert eps_infs == [params1.eps_inf, params2.eps_inf]


OVERDAMPED = DrudeLorentzParams(1.0, [(0.8, 2.0, 1.2)])     # poles -0.4 and -3.6


class TestOverdampedEndToEnd:
    """An overdamped region-2 law beside a mod_dl region 1 goes through the
    oracle stepper, the decay certificate and a Picard solve."""

    def test_stepper_matches_spectral_solve(self, bundle4):
        from memax import (LinearProblem, OracleStepper, PiecewiseMaterial, WeightedSignal,
                           smooth_pulse, solve_linear)

        # acceptance test 06's set-up with region 2 overdamped
        p1 = ModDLParams(DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)]), 4.0)
        material = PiecewiseMaterial(mod_dl_law(p1), dl_law(OVERDAMPED), 1.0, 1.0)
        rng = np.random.default_rng(808)
        vecE, vecH = rng.standard_normal(bundle4.n_edges), rng.standard_normal(bundle4.n_faces)
        rho = 22.0

        def gap_at(dt, n):
            grid = TimeGrid(-0.2, dt, n)
            prof = smooth_pulse(grid.times, 0.05, 0.35)
            g = WeightedSignal(grid, rho, prof[:, None] * np.concatenate([vecE, vecH])[None, :])
            u, _ = solve_linear(LinearProblem(bundle4, material, rho, g))
            stp = OracleStepper(bundle4, material, p1, OVERDAMPED, dt)
            k0 = grid.index_of(0.0)
            _, E, H = stp.run(stp.initial_state(),
                              lambda t: smooth_pulse(np.array([t]), 0.05, 0.35)[0] * vecE,
                              lambda t: smooth_pulse(np.array([t]), 0.05, 0.35)[0] * vecH,
                              n - 1 - k0)
            ref = u.values[k0:].real
            return np.linalg.norm(np.concatenate([E, H], axis=1) - ref) / np.linalg.norm(ref)

        fine = gap_at(1e-3, 1024)
        assert fine < 1e-3
        assert 2.5 < gap_at(2e-3, 512) / fine < 7.0

    def test_decay_certificate(self, bundle4, basis4):
        from memax import certify_decay_rate, projection_invertibility_check

        sigma = np.sqrt(projection_invertibility_check(bundle4, basis4, np.ones(bundle4.n_faces)))
        cert = certify_decay_rate([mod_dl_law(ModDLParams(OVERDAMPED, 4.0))], [1.0], sigma)
        assert cert.certified and 0.0 < cert.nu0 < 0.4

    @pytest.mark.parametrize("law", [OVERDAMPED, DrudeLorentzParams(1.0, [(0.8, 2.0, 0.0)])],
                             ids=["overdamped", "drude"])
    def test_picard_kernel(self, law, bundle4):
        from memax import (DtPolarization, LinearProblem, PiecewiseMaterial,
                           SaturableNonlinearity, WeightedSignal, picard_solve, smooth_pulse)

        grid = TimeGrid(-2.0, 1.0 / 32.0, 512)
        p1 = ModDLParams(DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)]), 4.0)
        p2 = DrudeLorentzParams(1.0, [(0.5, 1.2, 2.5)])
        material = PiecewiseMaterial(mod_dl_law(p1), dl_law(p2), 1.0, 1.0, sigma2=0.5)
        spec = KernelSpec.from_dl(law, TimeGrid(0.0, grid.dt, grid.n_samples), scale=4.0)
        pol = DtPolarization(spec, SaturableNonlinearity(3, 1.0))
        rng = np.random.default_rng(1)
        vec = np.concatenate([bundle4.C @ rng.standard_normal(bundle4.n_faces),
                              bundle4.C0 @ rng.standard_normal(bundle4.n_edges)])
        g = WeightedSignal(grid, 2.0, smooth_pulse(grid.times, 0.0, 2.0)[:, None]
                           * (200.0 / np.linalg.norm(vec) * vec)[None, :])
        u, cert = picard_solve(LinearProblem(bundle4, material, 2.0, g), pol, tol=1e-10)
        assert cert.converged and np.all(np.isfinite(u.values))
        assert cert.empirical_ratio <= 1.05 * cert.theoretical_bound
