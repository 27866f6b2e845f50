"""Stability machinery: M_d reduction, Schur checks, decay fits, batteries."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import memax.materials as materials
import memax.stability as stability
from memax import (
    DrudeLorentzParams,
    LinearProblem,
    ModDLParams,
    NotCertified,
    PiecewiseMaterial,
    TimeGrid,
    WeightedSignal,
    YeeGrid,
    build_curl_pair,
    capability_matrix,
    certify_decay_rate,
    conductivity_law,
    dl_law,
    fit_decay_rate,
    helmholtz_projections,
    make_divergence_free_data,
    md_from_scalar_law,
    mod_dl_law,
    poincare_constant,
    projection_invertibility_check,
    render_capability_table,
    schur_accretivity_check,
    simulate_decay,
    smooth_pulse,
    solve_linear,
    spectral_derivative,
    stack_rhs,
    weighted_norm,
)
from memax.errors import MemaxError
from memax.materials import accretivity_scan, hermitian_min
from memax.stability import StabilityCertificate
from oracles import cumulative_trapezoid, dense_boundary


@pytest.fixture(scope="module")
def sigma_min_B(bundle4_module, basis4_module):
    s2 = projection_invertibility_check(bundle4_module, basis4_module,
                                        np.ones(bundle4_module.n_faces))
    return float(np.sqrt(s2))


@pytest.fixture(scope="module")
def bundle4_module():
    from memax import YeeGrid, build_curl_pair

    return build_curl_pair(YeeGrid((1.0, 1.0, 1.0), (4, 4, 4), 3, 2))


@pytest.fixture(scope="module")
def basis4_module(bundle4_module):
    from memax import helmholtz_projections

    return helmholtz_projections(bundle4_module)


@pytest.fixture(scope="module")
def mod_cert(sigma_min_B):
    law = mod_dl_law(ModDLParams(DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)]), 4.0))
    return certify_decay_rate([law], [1.0], sigma_min_B)


class TestMd:
    def test_d_zero_is_block_diag(self):
        law = mod_dl_law(ModDLParams(DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)]), 4.0))
        md = md_from_scalar_law(law, 1.0, 2.0, d=0.0)
        z = 0.4 + 1.3j
        M = md(z)
        assert abs(M[0, 0] - law(z)) < 1e-12
        assert abs(M[1, 1] - 1.0) < 1e-12
        assert M[0, 1] == 0.0 and M[1, 0] == 0.0

    def test_small_d_inherits_margin(self, sigma_min_B):
        law = mod_dl_law(ModDLParams(DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)]), 4.0))
        nu = 0.02
        base = accretivity_scan(law, nu=nu, delta_exclusion=1.0)
        assert base.c_min > 0
        md = md_from_scalar_law(law, 1.0, sigma_min_B, d=1.5 * nu)
        scan = accretivity_scan(md, nu=nu, delta_exclusion=1.0, t_max=1e3, n_t=150,
                                condition_id="Md")
        assert scan.c_min > 0
        assert scan.c_min <= base.c_min + 1e-9  # inherited, not improved

    def test_vectorized_herm_min_matches_dense(self):
        law = mod_dl_law(ModDLParams(DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)]), 4.0))
        md = md_from_scalar_law(law, 1.0, 3.0, d=0.05)
        rng = np.random.default_rng(0)
        zs = rng.standard_normal(50) * 2 + 1j * rng.standard_normal(50) * 5
        zs = zs[np.abs(zs) > 0.2]
        fast = md.herm_min_vec(zs)
        slow = np.array([hermitian_min(z * md(z)) for z in zs])
        assert np.abs(fast - slow).max() < 1e-10

    def test_m1_must_vanish_at_zero(self):
        # M1(z) = z chi(z) -> 0 exactly when the law has no pole at z = 0:
        # a Drude term is refused by name, a law with chi(0) = 11 is split
        with pytest.raises(MemaxError, match="law 'mod_dl' has a pole at z = 0"):
            md_from_scalar_law(_DRUDE, 1.0, 1.0, 0.1)
        md = md_from_scalar_law(_LOW_OMEGA0, 1.0, 1.0, 0.1)
        assert abs(_LOW_OMEGA0(1e-3) - 1.0) > 10.0
        assert abs(md.M1(np.asarray([1e-9]))[0]) < 1e-7


class TestSchurCheck:
    def test_scaled_identity(self):
        m11, ms = schur_accretivity_check(0.7 * np.eye(6), 3)
        assert m11 == pytest.approx(0.7, abs=1e-14)
        assert ms == pytest.approx(0.7, abs=1e-14)

    def test_block_diagonal_reduces_to_T00(self, rng):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        A = A + (1.0 - hermitian_min(A)) * np.eye(3)
        T = np.zeros((6, 6), dtype=complex)
        T[:3, :3] = A
        T[3:, 3:] = 2.0 * np.eye(3)
        _, ms = schur_accretivity_check(T, 3)
        assert ms == pytest.approx(hermitian_min(A), abs=1e-12)

    def test_random_batch_200(self, rng):
        # acceptance-grade batch: Hermitian part >= d implies both margins
        d = 0.4
        for _ in range(200):
            n = rng.integers(4, 10)
            split = rng.integers(1, n)
            T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            T = T + (d - hermitian_min(T)) * np.eye(n)
            m11, ms = schur_accretivity_check(T, split)
            assert m11 >= d - 1e-10
            assert ms >= d - 1e-10


class TestProjectionInvertibility:
    def test_identity_weight_matches_poincare(self, bundle4_module, basis4_module):
        s2 = projection_invertibility_check(bundle4_module, basis4_module,
                                            np.ones(bundle4_module.n_faces))
        sigma = 1.0 / poincare_constant(bundle4_module, basis4_module)
        assert s2 == pytest.approx(sigma ** 2, rel=1e-10)

    def test_scaling(self, bundle4_module, basis4_module):
        s2 = projection_invertibility_check(bundle4_module, basis4_module,
                                            np.ones(bundle4_module.n_faces))
        s2x4 = projection_invertibility_check(bundle4_module, basis4_module,
                                              4.0 * np.ones(bundle4_module.n_faces))
        assert s2x4 == pytest.approx(4.0 * s2, rel=1e-10)

    def test_indefinite_weight_rejected(self, bundle4_module, basis4_module):
        w = np.ones(bundle4_module.n_faces)
        w[0] = -1.0
        with pytest.raises(ValueError, match="positive"):
            projection_invertibility_check(bundle4_module, basis4_module, w)

    def test_weight_varying_within_layer_rejected(self, bundle4_module, basis4_module):
        # a per-mode route needs weights that commute with the mode basis
        w = np.ones(bundle4_module.n_faces)
        w[7] = 2.0
        with pytest.raises(ValueError, match="face 7 "):
            projection_invertibility_check(bundle4_module, basis4_module, w)

    @pytest.mark.parametrize("axis", [1, 2, 3])
    @pytest.mark.parametrize("n", [(4, 4, 4), (3, 4, 5)])
    def test_piecewise_weight_matches_dense(self, n, axis):
        # smallest nonzero eigenvalue of C0^T diag(1/mu) C0, computed densely
        b = build_curl_pair(YeeGrid((1.0, 1.3, 0.8), n, axis, 1))
        basis = helmholtz_projections(b)
        w = 1.0 / np.where(b.face_region_mask(), 1.0, 2.5)
        C0 = b.C0.toarray()
        s = np.linalg.svd(C0, compute_uv=False)
        dim_ker = b.n_edges - int(np.count_nonzero(s > 1e-10 * s[0]))
        ref = np.linalg.eigvalsh(C0.T @ (w[:, None] * C0))[dim_ker]
        s2 = projection_invertibility_check(b, basis, w)
        assert abs(s2 - ref) <= 1e-12 * ref


class TestCertification:
    def test_plain_dl_refused(self, sigma_min_B):
        law = dl_law(DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)]))
        cert = certify_decay_rate([law], [1.0], sigma_min_B)
        assert not cert.certified
        assert cert.nu0 == 0.0
        assert "no strict accretivity" in cert.reason

    def test_mod_dl_certified(self, mod_cert):
        assert mod_cert.certified
        assert mod_cert.nu0 > 0.01
        assert mod_cert.c > 0 and mod_cert.c1 > 0
        assert mod_cert.nu0 < mod_cert.d0  # identity block needs d > nu
        assert mod_cert.disk_sup < mod_cert.sigma_min_B

    def test_margin_requirement(self, mod_cert):
        # 2 gamma r - omega0^2 > 0 is the analytic prerequisite
        assert ModDLParams(DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)]), 4.0).accretivity_margin() > 0

    def test_conductivity_route(self, sigma_min_B):
        law = conductivity_law(dl_law(DrudeLorentzParams(1.0, [(0.2, 1.0, 2.0)])), 0.5)
        cert = certify_decay_rate([law], [1.0], sigma_min_B)
        assert cert.certified
        assert cert.nu0 > 0.05
        assert any(k.startswith("M4") for k in cert.scans)

    def test_certificate_serializes(self, mod_cert):
        d = mod_cert.to_dict()
        assert d["certified"] is True
        assert "M2_law0" in d["scans"]
        assert d["scans"]["M2_law0"] == mod_cert.scans["M2_law0"].to_dict()


def reference_certificate(laws, eps_infs, sigma_min_B, delta=1.0, bisect_iters=25):
    """certify_decay_rate with one accretivity_scan per law and condition on
    either route, one per damping value and law on the disk route, and one
    2x2 norm per point of the disk's boundary (materials._boundary's arc and
    chord)."""
    if any(law.base is not None for law in laws):
        return _reference_strict(laws, sigma_min_B, bisect_iters)
    eps_max = max(eps_infs)

    def m2(nu):
        return min(accretivity_scan(law, nu=nu, delta_exclusion=delta, n_t=250,
                                    condition_id="M2").c_min for law in laws)

    def md_margin(d, nu):
        return float(min(
            accretivity_scan(md_from_scalar_law(law, e, sigma_min_B, d), nu=nu,
                             delta_exclusion=delta, t_max=1e4, n_t=200,
                             condition_id="Md").c_min
            for law, e in zip(laws, eps_infs)))

    def damping(nu, c, n_grid):
        d_lo, d_hi = 1.02 * nu, c / eps_max
        if d_hi <= d_lo:
            return 0.0, -np.inf
        ds = np.linspace(d_lo, d_hi, n_grid)
        margins = np.array([md_margin(d, nu) for d in ds])
        best = margins.max()
        if best <= 0:
            return 0.0, float(best)
        i = np.nonzero(margins >= 0.5 * best)[0][-1]
        return float(ds[i]), float(margins[i])

    c_axis = m2(1e-6)
    if c_axis <= 0:
        return StabilityCertificate(
            nu0=0.0, c=c_axis, c1=0.0, delta=delta, d0=0.0, disk_sup=np.inf,
            sigma_min_B=sigma_min_B, certified=False,
            reason="no strict accretivity on any right neighborhood "
                   "(Re z M(z) tail limit nonpositive)")

    def feasible(nu):
        c = m2(nu)
        return c > 1.02 * eps_max * nu and damping(nu, c, 6)[1] > 0

    nu_hi = 0.9 * min(-float(np.max(law.poles.real)) for law in laws)
    nu0 = 0.8 * stability._largest_feasible_nu(feasible, nu_hi, bisect_iters)
    scans, c_vals, c1_vals = {}, [], []
    for i, law in enumerate(laws):
        scans[f"M2_law{i}"] = accretivity_scan(law, nu=nu0, delta_exclusion=delta, n_t=250,
                                               condition_id="M2")
        scans[f"M3_law{i}"] = accretivity_scan(law, nu=nu0, delta_exclusion=0.0, n_t=250,
                                               condition_id="M3", scan_re_M=True)
        c_vals.append(scans[f"M2_law{i}"].c_min)
        c1_vals.append(scans[f"M3_law{i}"].c_min)
    c, c1 = min(c_vals), min(c1_vals)
    d0, _ = damping(nu0, c, 12)
    disk_sup = 0.0
    _, arc, chord = materials._boundary(nu0, delta, delta, 0)
    for law, e in zip(laws, eps_infs):
        md = md_from_scalar_law(law, e, sigma_min_B, d0 if d0 > 0 else 1.0)
        for z in np.concatenate([arc, chord]):
            disk_sup = max(disk_sup, float(np.linalg.norm(z * md(z), 2)))
    certified = c > 0 and c1 > 0 and d0 > 0 and disk_sup < sigma_min_B
    return StabilityCertificate(
        nu0=nu0, c=c, c1=c1, delta=delta, d0=d0, disk_sup=disk_sup,
        sigma_min_B=sigma_min_B, certified=certified, scans=scans,
        reason="" if certified else "margin failure (see scans)")


def _reference_strict(laws, sigma_min_B, bisect_iters):
    """The strict route: M4 and M4_reM scans on the whole half-plane."""
    def pair(nu):
        return [(accretivity_scan(law, nu=nu, delta_exclusion=0.0, n_t=250, condition_id="M4"),
                 accretivity_scan(law.base or law, nu=nu, delta_exclusion=0.0, n_t=250,
                                  condition_id="M4_reM", scan_re_M=True))
                for law in laws]

    def margins(ss):
        return min(s.c_min for s, _ in ss), min(t.c_min for _, t in ss)

    c_axis, c1_axis = margins(pair(1e-6))
    if min(c_axis, c1_axis) <= 0:
        return StabilityCertificate(
            nu0=0.0, c=c_axis, c1=c1_axis, delta=0.0, d0=0.0, disk_sup=0.0,
            sigma_min_B=sigma_min_B, certified=False,
            reason="conductivity route: no strict accretivity near the axis")
    nu_hi = 0.9 * min(-p.real for law in laws for p in law.poles if p.real < 0)
    nu0 = 0.8 * stability._largest_feasible_nu(lambda nu: min(margins(pair(nu))) > 0,
                                               nu_hi, bisect_iters)
    final = pair(nu0)
    scans = {}
    for i, (s, t) in enumerate(final):
        scans[f"M4_law{i}"], scans[f"M4_reM_law{i}"] = s, t
    c, c1 = margins(final)
    certified = c > 0 and c1 > 0
    return StabilityCertificate(
        nu0=nu0, c=c, c1=c1, delta=0.0, d0=0.0, disk_sup=0.0, sigma_min_B=sigma_min_B,
        certified=certified, scans=scans, reason="" if certified else "margin failure (see scans)")


def _mod(alpha=1.0, gamma=1.0, omega0=2.0, r=4.0, eps0=1.0):
    return mod_dl_law(ModDLParams(DrudeLorentzParams(eps0, [(alpha, gamma, omega0)]), r))


_DL = dl_law(DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)]))
_DRUDE_P = DrudeLorentzParams(1.0, [(0.8, 2.0, 0.0)])     # omega0 = 0: a pole at z = 0
_DRUDE = mod_dl_law(ModDLParams(_DRUDE_P, 4.0))
_LOW_OMEGA0 = _mod(omega0=0.3)      # chi(0) = alpha / omega0^2 = 11: M1(1e-3) is not small
BATTERY = {
    "dl": ([_DL], [1.0]),
    "mod_dl": ([_mod()], [1.0]),
    "dl_sigma": ([conductivity_law(_DL, 0.5)], [1.0]),
    "readme_pair": ([_mod(), _mod()], [1.0, 1.0]),
    "mod_dl_interface": ([_mod(), _mod(0.7, 1.3, 1.8, 3.0, 1.5)], [1.0, 1.5]),
    # one conductive law sends the whole set down the strict route, where the
    # mod_dl law's Re(z M) -> 0 at the origin refuses it near the axis
    "mod_dl_with_dl_sigma": ([_mod(), conductivity_law(_DL, 0.5)], [1.0, 1.0]),
    "overdamped_mod_dl": ([_mod(0.8, 2.0, 1.2)], [1.0]),
    # a large but finite chi(0) keeps z chi(z) -> 0: the disk route certifies
    "low_omega0_mod_dl": ([_LOW_OMEGA0], [1.0]),
}
UNCERTIFIED = {"dl", "mod_dl_with_dl_sigma"}
SIGMA_MIN_B8 = 4.414390068527091    # reduced curl sigma_min of the unit n=8 box


@pytest.mark.parametrize("laws", [[_mod(), _DRUDE], [dl_law(_DRUDE_P)]],
                         ids=["mod_dl_pair", "plain_dl"])
def test_drude_term_refused(laws):
    # a pole at z = 0 keeps z (M(z) - eps_inf) away from 0, outside the damped
    # reduction: the disk route refuses the set and names the pole
    cert = certify_decay_rate(laws, [1.0] * len(laws), SIGMA_MIN_B8)
    assert not cert.certified and cert.nu0 == 0.0 and cert.scans == {}
    assert f"law {len(laws) - 1} has a pole at z = 0" in cert.reason


def test_no_feasible_weight_refused():
    # the damped reduction of this pair has no admissible d at any weight:
    # the bisection never leaves its floor 1e-6, which fails too
    laws = [_mod(), _mod(0.8, 2.0, 1.2)]
    calls = []
    largest = stability._largest_feasible_nu

    def traced(feasible, nu_hi, iters):
        return largest(lambda nu: calls.append(nu) or feasible(nu), nu_hi, iters)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "_largest_feasible_nu", traced)
        cert = certify_decay_rate(laws, [1.0, 2.0], SIGMA_MIN_B8)
    assert calls[-1] == 1e-6 and 1e-6 not in calls[:-1]
    assert not cert.certified and cert.nu0 == 0.0 and cert.scans == {}
    assert cert.d0 == 0.0 and cert.disk_sup == np.inf
    assert "no weight in [1e-6, 0.36] is feasible" in cert.reason


class TestBatchedCertificate:
    """One law evaluation per scan grid: the damping sweep reads one M0(Z),
    M1(Z) for every d and the disk bound is one stacked norm, with the
    reductions in the same order, so certificates stay bit for bit."""

    @pytest.mark.parametrize("case", sorted(BATTERY))
    def test_matches_per_point_reference(self, case):
        laws, eps_infs = BATTERY[case]
        cert = certify_decay_rate(laws, eps_infs, SIGMA_MIN_B8)
        assert cert.to_dict() == reference_certificate(laws, eps_infs, SIGMA_MIN_B8).to_dict()
        assert cert.certified == (case not in UNCERTIFIED)

    @settings(max_examples=60, deadline=None)
    @given(re=st.floats(-3.0, 3.0), im=st.floats(-30.0, 30.0),
           d=st.floats(0.0, 2.0), C=st.floats(0.1, 10.0))
    def test_block_stack_equals_call(self, re, im, d, C):
        z = complex(re, im)
        assume(abs(z) >= 1e-6)     # the scans and the disk bound keep |z| >= 1e-3
        md = md_from_scalar_law(_mod(), 1.0, C, d)
        Z = np.array([z, 2.5 * z, z.conjugate(), 0.5j + z])
        stacked = stability._md_blocks(Z, *md._parts(Z), C, d)
        for k, zk in enumerate(Z):
            assert stacked[k].tobytes() == md(zk).tobytes()
        # the rounding of the formula in scalar complex arithmetic
        m0 = complex(md.M0(np.asarray([z]))[0])
        m1 = complex(md.M1(np.asarray([z]))[0])
        top = [m0 + m1 / z - d / z * m0, d / z * (m1 - d * m0) / C]
        scalar = np.array([top, [0.0, 1.0 + d / z]], dtype=np.complex128)
        assert md(z).tobytes() == scalar.tobytes()

    def test_law_evaluations_per_certificate(self, monkeypatch):
        sizes = []
        points = []
        eval_chi_dl = materials.eval_chi_dl

        def counted(z, p):
            sizes.append(np.size(z))
            if np.size(z) == 1:
                points.append(complex(np.ravel(z)[0]))
            return eval_chi_dl(z, p)

        monkeypatch.setattr(materials, "eval_chi_dl", counted)
        cert = certify_decay_rate([_mod()], [1.0], SIGMA_MIN_B8)
        assert cert.certified
        assert len(sizes) <= 100
        # no one-point evaluations: M1 -> 0 is read off the pole set
        assert points == []


def z_md(law, eps_inf, C, d, Z):
    """z M_d(z) = [[z M0 + M1 - d M0, d (M1 - d M0) / C], [0, z + d]] at every
    point of Z, with M0 = eps_inf and M1 = z (M(z) - eps_inf)."""
    M1 = Z * (law(Z) - eps_inf)
    out = np.zeros(Z.shape + (2, 2), dtype=np.complex128)
    out[:, 0, 0] = Z * eps_inf + M1 - d * eps_inf
    out[:, 0, 1] = d * (M1 - d * eps_inf) / C
    out[:, 1, 1] = Z + d
    return out


class TestDenseBoundaryOracle:
    """The damped margin and the disk bound against a dense sample of their
    regions' boundaries (over 2e5 points) at the certificate's own weight
    and damping: each is on the safe side of the oracle."""

    def test_disk_bound_is_the_dense_maximum(self):
        # the maximum sits at the middle of the chord Re z = -nu0
        cert = certify_decay_rate([_LOW_OMEGA0], [1.0], SIGMA_MIN_B8)
        Z = dense_boundary(cert.nu0, 1.0, 0.0, disk=True)
        oracle = np.linalg.norm(z_md(_LOW_OMEGA0, 1.0, SIGMA_MIN_B8, cert.d0, Z), 2,
                                axis=(1, 2)).max()
        assert Z.size >= 200_000
        assert cert.disk_sup >= oracle * (1.0 - 1e-12)

    def test_damped_margin_is_the_dense_minimum(self):
        # the minimum sits near the corner of the line and the circle
        cert = certify_decay_rate([_mod()], [1.0], SIGMA_MIN_B8)
        mds = [md_from_scalar_law(_mod(), 1.0, SIGMA_MIN_B8, 0.0)]
        d0, margin = stability._select_damping(mds, 1.0, cert.nu0, 1.0, cert.c, 12)
        assert d0 == cert.d0 and margin > 0
        Z = dense_boundary(cert.nu0, 1.0, 1e4)
        B = z_md(_mod(), 1.0, SIGMA_MIN_B8, d0, Z)
        oracle = np.linalg.eigvalsh(0.5 * (B + B.conj().transpose(0, 2, 1)))[:, 0].min()
        assert Z.size >= 200_000
        assert margin <= oracle * (1.0 + 1e-12)


DEC_GRID = TimeGrid(-4.0, 0.25, 1024)


class TestDecay:
    def test_divergence_free_data_exact(self, bundle4_module, basis4_module, rng):
        Phi, Psi = make_divergence_free_data(bundle4_module, DEC_GRID, -0.02,
                                             seed=3, t_on=0.0, t_off=2.0)
        # E-side divergence: dual gradient pairing vanishes mimetically
        div_e = (bundle4_module.G0.T @ Phi.values.T)
        assert np.abs(div_e).max() < 1e-12
        div_h = (bundle4_module.D @ Psi.values.T)
        assert np.abs(div_h).max() < 1e-12
        # kernel projections vanish
        assert np.abs(basis4_module.pi0(Phi.values)).max() < 1e-10
        assert np.abs(basis4_module.pi1(Psi.values)).max() < 1e-10

    def test_decay_fit_and_rate(self, bundle4_module, material_mod, mod_cert):
        nu_run = 0.5 * mod_cert.nu0
        Phi, Psi = make_divergence_free_data(bundle4_module, DEC_GRID, -nu_run,
                                             seed=11, t_on=0.0, t_off=2.0)
        fits = simulate_decay(bundle4_module, material_mod, mod_cert, Phi, Psi,
                              [nu_run], 2.0)
        f = fits[0]
        assert f.nu_hat >= 0.8 * nu_run
        assert f.r_squared > 0.99
        assert f.nu_hat >= mod_cert.nu0 * 0.9  # true rate at least the certificate

    def test_decades_move_the_window_end(self, bundle4_module, material_mod, mod_cert):
        nu_run = 0.5 * mod_cert.nu0
        Phi, Psi = make_divergence_free_data(bundle4_module, DEC_GRID, -nu_run,
                                             seed=11, t_on=0.0, t_off=2.0)
        default, four, two = (
            simulate_decay(bundle4_module, material_mod, mod_cert, Phi, Psi, [nu_run], 2.0,
                           **kw)[0] for kw in ({}, {"decades": 4.0}, {"decades": 2.0}))
        assert four.to_dict() == default.to_dict()
        assert two.t_lo == four.t_lo and two.t_hi < four.t_hi
        assert two.r_squared > 0.99

    def test_refuses_without_certificate(self, bundle4_module, material_dl, sigma_min_B):
        law = dl_law(DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)]))
        cert = certify_decay_rate([law], [1.0], sigma_min_B)
        Phi, Psi = make_divergence_free_data(bundle4_module, DEC_GRID, -0.02,
                                             seed=3, t_on=0.0, t_off=2.0)
        with pytest.raises(NotCertified):
            simulate_decay(bundle4_module, material_dl, cert, Phi, Psi, [0.02], 2.0)

    def test_refuses_above_certified_rate(self, bundle4_module, material_mod, mod_cert):
        Phi, Psi = make_divergence_free_data(bundle4_module, DEC_GRID,
                                             -2 * mod_cert.nu0, seed=3,
                                             t_on=0.0, t_off=2.0)
        with pytest.raises(NotCertified):
            simulate_decay(bundle4_module, material_mod, mod_cert, Phi, Psi,
                           [2.0 * mod_cert.nu0], 2.0)

    def test_fit_recomputable_from_series(self, bundle4_module, material_mod, mod_cert):
        nu_run = 0.5 * mod_cert.nu0
        Phi, Psi = make_divergence_free_data(bundle4_module, DEC_GRID, -nu_run,
                                             seed=11, t_on=0.0, t_off=2.0)
        f = simulate_decay(bundle4_module, material_mod, mod_cert, Phi, Psi,
                           [nu_run], 2.0)[0]
        nu_again, r2_again, _, amp = fit_decay_rate(f.times, f.energy, f.t_lo)
        assert nu_again == pytest.approx(f.nu_hat, rel=1e-12)
        assert r2_again == pytest.approx(f.r_squared, rel=1e-12)
        assert amp == pytest.approx(f.amplitude, rel=1e-12)
        # series dominated by the fitted envelope over the window
        keep = (f.times >= f.t_lo) & (f.times <= f.t_hi)
        envelope = 3.0 * f.amplitude * np.exp(-f.nu_hat * f.times[keep])
        assert np.all(f.energy[keep] <= envelope)

    def test_dt_refinement_stable(self, bundle4_module, material_mod, mod_cert):
        nu_run = 0.5 * mod_cert.nu0
        rates = []
        for dt, n in ((0.25, 1024), (0.125, 2048)):
            grid = TimeGrid(-4.0, dt, n)
            Phi, Psi = make_divergence_free_data(bundle4_module, grid, -nu_run,
                                                 seed=11, t_on=0.0, t_off=2.0)
            f = simulate_decay(bundle4_module, material_mod, mod_cert, Phi, Psi,
                               [nu_run], 2.0)[0]
            rates.append(f.nu_hat)
        assert abs(rates[0] - rates[1]) < 0.05 * rates[1]


def verify_first_order_estimates(bundle, basis, material, u, Phi, Psi, nu):
    """Ratios of the four decay estimates (left norm / right norm) at weight -nu.

    g = dPhi/dt + C mu^{-1} Psi, h = Pi0 (antiderivative of Phi),
    w = Pi1 (antiderivative of Psi); ratios are reported, not asserted to a
    universal constant.
    """
    ne = bundle.n_edges
    E = u.with_values(u.values[:, :ne])
    H = u.with_values(u.values[:, ne:])
    du = spectral_derivative(u, check=False)
    dE = du.with_values(du.values[:, :ne])
    dH = du.with_values(du.values[:, ne:])

    fmask = bundle.face_region_mask()
    mu = np.where(fmask, material.mu1, material.mu2)
    dPhi = spectral_derivative(Phi, check=False)
    g = dPhi.with_values(dPhi.values + (bundle.C @ (Psi.values / mu[None, :]).T).T)

    h_vals = basis.pi0(cumulative_trapezoid(Phi.values, Phi.grid.dt))
    w_vals = basis.pi1(cumulative_trapezoid(Psi.values, Psi.grid.dt))
    h = Phi.with_values(h_vals)
    w = Psi.with_values(w_vals)

    n = {
        "E": weighted_norm(E), "H": weighted_norm(H),
        "dE": weighted_norm(dE), "dH": weighted_norm(dH),
        "g": weighted_norm(g), "h": weighted_norm(h), "w": weighted_norm(w),
        "Phi": weighted_norm(Phi), "Psi": weighted_norm(Psi),
    }
    eps = 1e-300
    return {
        "E_over_g_h": n["E"] / max(n["g"] + n["h"], eps),
        "H_over_g_Phi_w": n["H"] / max(n["g"] + n["Phi"] + n["w"], eps),
        "dE_over_g_Phi": n["dE"] / max(n["g"] + n["Phi"], eps),
        "dH_over_g_Psi": n["dH"] / max(n["g"] + n["Psi"], eps),
        "norms": n,
    }


class TestFirstOrderEstimates:
    def test_zero_data(self, bundle4_module, basis4_module, material_mod):
        z = WeightedSignal(DEC_GRID, -0.01, np.zeros((DEC_GRID.n_samples, bundle4_module.n_edges)))
        zf = WeightedSignal(DEC_GRID, -0.01, np.zeros((DEC_GRID.n_samples, bundle4_module.n_faces)))
        u = WeightedSignal(DEC_GRID, -0.01, np.zeros((DEC_GRID.n_samples, bundle4_module.n_state)))
        out = verify_first_order_estimates(bundle4_module, basis4_module,
                                           material_mod, u, z, zf, 0.01)
        assert all(v == 0.0 for k, v in out.items() if k != "norms")

    def test_batch_ratios_finite(self, bundle4_module, basis4_module,
                                 material_mod, mod_cert):
        nu = 0.5 * mod_cert.nu0
        worst = {}
        for seed in range(8):
            Phi, Psi = make_divergence_free_data(bundle4_module, DEC_GRID, -nu,
                                                 seed=seed, t_on=0.0, t_off=2.0)
            g = stack_rhs(bundle4_module, Phi, Psi)
            u, _ = solve_linear(LinearProblem(bundle4_module, material_mod, -nu, g),
                                certificate_required=False)
            out = verify_first_order_estimates(bundle4_module, basis4_module,
                                               material_mod, u, Phi, Psi, nu)
            for k, v in out.items():
                if k == "norms":
                    continue
                worst[k] = max(worst.get(k, 0.0), v)
        assert all(np.isfinite(v) and v < 1e3 for v in worst.values())
        # divergence-free data has vanishing h and w obstructions
        assert out["norms"]["h"] < 1e-8
        assert out["norms"]["w"] < 1e-8


class TestCapabilityMatrix:
    def test_reproduces_table_pattern(self, bundle4_module, basis4_module):
        p = DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)])
        mp = ModDLParams(p, 4.0)
        law_dl = dl_law(p)
        law_mod = mod_dl_law(mp)
        sig = conductivity_law(law_dl, 0.5)
        configs = [
            ("dl", PiecewiseMaterial(law_dl, law_dl, 1.0, 1.0), [law_dl], [1.0]),
            ("mod_dl", PiecewiseMaterial(law_mod, law_mod, 1.0, 1.0), [law_mod], [1.0]),
            ("dl_sigma", PiecewiseMaterial(law_dl, law_dl, 1.0, 1.0,
                                           sigma1=0.5, sigma2=0.5), [sig], [1.0]),
        ]
        fwd = TimeGrid(-2.0, 1.0 / 32.0, 512)
        rows = capability_matrix(bundle4_module, basis4_module, configs,
                                 fwd, DEC_GRID, seed=5)
        by_name = {r.model: r for r in rows}
        assert by_name["dl"].wp0 and not by_name["dl"].es0
        assert not by_name["dl"].detail["certified"]
        assert by_name["mod_dl"].wp0 and by_name["mod_dl"].es0
        assert by_name["dl_sigma"].wp0 and by_name["dl_sigma"].es0
        table = render_capability_table(rows)
        assert "no-cert" in table

    def test_deterministic(self, bundle4_module, basis4_module):
        p = DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)])
        law_dl = dl_law(p)
        configs = [("dl", PiecewiseMaterial(law_dl, law_dl, 1.0, 1.0), [law_dl], [1.0])]
        fwd = TimeGrid(-2.0, 1.0 / 32.0, 512)
        r1 = capability_matrix(bundle4_module, basis4_module, configs, fwd,
                               DEC_GRID, seed=9)
        r2 = capability_matrix(bundle4_module, basis4_module, configs, fwd,
                               DEC_GRID, seed=9)
        assert r1[0].detail == r2[0].detail


class TestNegativeControl:
    def test_ratios_blow_up_past_true_rate(self, bundle4_module, basis4_module,
                                           material_mod, mod_cert):
        # the true solution fails to belong to the -nu space once nu exceeds
        # the actual decay rate: measuring its norms there inflates the
        # estimate ratios by orders of magnitude
        grid = TimeGrid(-2.0, 0.25, 256)
        nu_ok = 0.5 * mod_cert.nu0
        Phi, Psi = make_divergence_free_data(bundle4_module, grid, -nu_ok,
                                             seed=2, t_on=0.0, t_off=2.0)
        g = stack_rhs(bundle4_module, Phi, Psi)
        u, _ = solve_linear(LinearProblem(bundle4_module, material_mod, -nu_ok, g),
                            certificate_required=False)
        good = verify_first_order_estimates(bundle4_module, basis4_module,
                                            material_mod, u, Phi, Psi,
                                            nu_ok)["E_over_g_h"]
        nu_bad = 0.5
        u_bad = WeightedSignal(grid, -nu_bad, u.values)
        Phi_b = WeightedSignal(grid, -nu_bad, Phi.values)
        Psi_b = WeightedSignal(grid, -nu_bad, Psi.values)
        bad = verify_first_order_estimates(bundle4_module, basis4_module,
                                           material_mod, u_bad, Phi_b, Psi_b,
                                           nu_bad)["E_over_g_h"]
        assert bad > 50 * good
