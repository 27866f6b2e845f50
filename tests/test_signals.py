"""Weighted signals: norms, transforms, convolution, storage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memax import (
    KernelSpec,
    NonCausalKernel,
    SampledKernel,
    TimeGrid,
    WeightedSignal,
    WraparoundExceeded,
    causal_convolve,
    eval_chi_dl,
    fourier_laplace,
    inverse_fourier_laplace,
    smooth_pulse,
    spectral_derivative,
    weighted_norm,
)
import memax.signals as signals
from memax import DrudeLorentzParams, SolutionOperator, YeeGrid, build_curl_pair
from memax.signals import (_from_line, _to_line, _wraparound_and_norm, read_signal,
                           write_signal)
from oracles import cumulative_trapezoid, plain_laplace


def antiderivative(u):
    """Causal antiderivative: cumulative trapezoid from the left window edge,
    standing in for integration from -infinity (norm at most 1/rho)."""
    return u.with_values(cumulative_trapezoid(u.values, u.grid.dt))


def delta_kernel(dt):
    """Single-sample kernel of unit mass: convolution with it is the identity."""
    return SampledKernel(TimeGrid(0.0, dt, 2), np.array([1.0 / dt, 0.0]))


def plancherel_mass(U):
    """sum |U|^2 dxi; equals weighted_norm(u)^2 up to endpoint terms."""
    return float(np.sum(np.abs(U.values) ** 2) * U.grid.d_xi)


def make_signal(rng, n=512, dt=0.01, t_start=-1.0, rho=0.7, dim=3, center=1.5, width=0.3):
    g = TimeGrid(t_start, dt, n)
    prof = np.exp(-(((g.times - center) / width) ** 2))
    vals = prof[:, None] * rng.standard_normal((n, dim))
    return WeightedSignal(g, rho, vals)


class TestWeightedNorm:
    def test_zero_signal(self):
        g = TimeGrid(0.0, 0.1, 16)
        u = WeightedSignal(g, 1.0, np.zeros((16, 2)))
        assert weighted_norm(u) == 0.0

    def test_indicator_closed_form(self):
        # integral_0^1 e^{-2t} dt = (1 - e^{-2})/2, evaluated by hand
        g = TimeGrid(-2.0, 1e-3, 6000)
        vals = ((g.times >= 0) & (g.times <= 1.0)).astype(float)
        u = WeightedSignal(g, 1.0, vals)
        exact = np.sqrt((1.0 - np.exp(-2.0)) / 2.0)
        # trapezoid at the jump costs O(dt); tolerance sized accordingly
        assert abs(weighted_norm(u) - exact) < 2e-3 * exact
        assert abs(weighted_norm(u) - exact) > 0  # quadrature, not magic

    def test_matches_dense_summation_oracle(self, rng):
        u = make_signal(rng)
        # independent direct-sum oracle, coded from the definition
        w = np.exp(-2.0 * u.rho * u.times)
        sq = (np.abs(u.values) ** 2).sum(axis=1) * w
        direct = np.sqrt(np.trapezoid(sq, dx=u.grid.dt))
        assert abs(weighted_norm(u) - direct) <= 1e-12 * max(direct, 1.0)

    def test_mixing_weights_raises(self, rng):
        u = make_signal(rng, rho=0.5)
        v = make_signal(rng, rho=0.7)
        with pytest.raises(ValueError, match="different weights"):
            _ = u + v


class TestFourierLaplace:
    def test_delta_flat_spectrum(self):
        g = TimeGrid(-0.5, 0.01, 256)
        vals = np.zeros(256)
        vals[g.index_of(0.0)] = 1.0 / g.dt
        u = WeightedSignal(g, 0.0, vals, wrap_tol=1.0)
        U = fourier_laplace(u, check=False)
        mags = np.abs(U.values[:, 0])
        assert mags.std() / mags.mean() < 1e-12

    def test_dl_kernel_matches_closed_form(self):
        # plain Laplace of the damped-sine kernel equals the rational law
        p = DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)])
        g = TimeGrid(0.0, 1e-3, 2 ** 15)  # gamma*T = 32
        kern = KernelSpec.from_dl(p, g).kappa
        u = WeightedSignal(g, 2.0, kern.values)
        U = fourier_laplace(u, check=False)
        lhs = np.sqrt(2.0 * np.pi) * U.values[:, 0]
        rhs = eval_chi_dl(U.z, p)
        band = np.abs(U.xi) < 50.0
        assert np.abs(lhs[band] - rhs[band]).max() < 1e-6
        # off-band the aliasing floor stays small in absolute terms
        assert np.abs(lhs - rhs).max() < 1e-5

    def test_plancherel(self, rng):
        u = make_signal(rng)
        U = fourier_laplace(u)
        n2 = weighted_norm(u) ** 2
        assert abs(plancherel_mass(U) - n2) <= 1e-10 * n2

    def test_wraparound_gate(self, rng):
        g = TimeGrid(0.0, 0.01, 128)
        vals = np.ones((128, 1))
        u = WeightedSignal(g, 0.0, vals)
        with pytest.raises(WraparoundExceeded):
            fourier_laplace(u)


    @pytest.mark.parametrize("n, m", [(512, 300), (511, 17), (1024, 5)])
    def test_in_place_transform_bit_identical(self, n, m, rng):
        # the in-place transform rounds exactly as the out-of-place formula
        g = TimeGrid(-2.01, 1.0 / 32.0, n)
        u = WeightedSignal(g, 0.7, rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
        spec = np.fft.fft(u.values * np.exp(-u.rho * g.times)[:, None], axis=0)
        ref = spec * np.exp(-1j * g.xi * g.t_start)[:, None] * (g.dt / np.sqrt(2.0 * np.pi))
        assert np.array_equal(fourier_laplace(u, check=False).values, ref)


class TestInverse:
    def test_round_trip_both_ways(self, rng):
        u = make_signal(rng)
        U = fourier_laplace(u)
        back = inverse_fourier_laplace(U)
        assert np.abs(back.values - u.values).max() < 1e-12 * np.abs(u.values).max()
        again = fourier_laplace(back)
        assert np.abs(again.values - U.values).max() < 1e-12 * np.abs(U.values).max()

    def test_linearity(self, rng):
        u = make_signal(rng)
        v = make_signal(rng)
        a, b = 1.7, -0.3 + 0.2j
        lhs = fourier_laplace(u * a + v * b, check=False)
        rhs = fourier_laplace(u, check=False).values * a + fourier_laplace(v, check=False).values * b
        assert np.abs(lhs.values - rhs).max() < 1e-12 * np.abs(rhs).max()


class TestAntiderivative:
    def test_indicator_gives_ramp(self):
        g = TimeGrid(-1.0, 1e-3, 4000)
        vals = ((g.times >= 0) & (g.times <= 1.0)).astype(float)
        u = WeightedSignal(g, 1.0, vals)
        ramp = antiderivative(u)
        expect = np.clip(g.times, 0.0, 1.0)
        assert np.abs(ramp.values[:, 0] - expect).max() < 2e-3

    def test_norm_bound_one_over_rho(self, rng):
        # |d/dt^{-1}| <= 1/rho within 2% across a batch
        rho = 1.3
        worst = 0.0
        for _ in range(100):
            u = make_signal(rng, n=1024, dt=0.02, t_start=-2.0, rho=rho,
                            dim=1, center=rng.uniform(0.5, 3.0), width=rng.uniform(0.2, 1.0))
            r = weighted_norm(antiderivative(u)) / weighted_norm(u)
            worst = max(worst, r)
        assert worst <= (1.0 / rho) * 1.02

    def test_differentiate_then_integrate(self, rng):
        g = TimeGrid(-1.0, 0.005, 2048)
        prof = smooth_pulse(g.times, 0.0, 2.0)
        u = WeightedSignal(g, 1.0, prof[:, None])
        du = np.gradient(u.values[:, 0], g.dt)  # finite-difference oracle
        v = antiderivative(u.with_values(du[:, None]))
        err = np.abs(v.values[:, 0] - u.values[:, 0]).max()
        assert err < 5.0 * g.dt ** 2 / g.dt  # O(dt^2) per step, O(dt) accumulated at edges
        # refine: halving dt must shrink the error
        g2 = TimeGrid(-1.0, 0.0025, 4096)
        prof2 = smooth_pulse(g2.times, 0.0, 2.0)
        u2 = WeightedSignal(g2, 1.0, prof2[:, None])
        du2 = np.gradient(u2.values[:, 0], g2.dt)
        v2 = antiderivative(u2.with_values(du2[:, None]))
        err2 = np.abs(v2.values[:, 0] - u2.values[:, 0]).max()
        assert err2 < 0.6 * err


class TestCausalConvolve:
    def test_delta_identity(self, rng):
        u = make_signal(rng)
        out = causal_convolve(delta_kernel(u.grid.dt), u)
        assert np.abs(out.values - u.values).max() < 1e-14 * np.abs(u.values).max()

    def test_indicator_matches_antiderivative(self, rng):
        g = TimeGrid(-1.0, 0.01, 512)
        prof = smooth_pulse(g.times, 0.0, 2.0)
        u = WeightedSignal(g, 1.0, prof[:, None] * rng.standard_normal((1,))[None, :])
        kern = SampledKernel(TimeGrid(0.0, g.dt, g.n_samples), np.ones(g.n_samples))
        conv = causal_convolve(kern, u)
        ad = antiderivative(u)
        scale = np.abs(ad.values).max()
        assert np.abs(conv.values - ad.values).max() < 1e-12 * scale

    def test_exact_causality(self, rng):
        g = TimeGrid(0.0, 0.05, 256)
        vals = (g.times > 4.0).astype(float) * np.sin(g.times)
        u = WeightedSignal(g, 1.0, vals)
        kern = SampledKernel(TimeGrid(0.0, 0.05, 64), np.exp(-g.times[:64]))
        out = causal_convolve(kern, u)
        assert np.all(out.values[g.times <= 4.0] == 0.0)

    def test_spectral_identity(self, rng):
        # L(kappa * u) = sqrt(2 pi) L(kappa) L(u) to quadrature tolerance
        g = TimeGrid(-4.0, 0.005, 4096)
        prof = smooth_pulse(g.times, 0.0, 2.0)
        u = WeightedSignal(g, 1.5, prof[:, None] * rng.standard_normal((2,))[None, :])
        lag = TimeGrid(0.0, g.dt, 2048)
        kern = SampledKernel(lag, np.exp(-2.0 * lag.times) * np.sin(3.0 * lag.times))
        conv = causal_convolve(kern, u)
        C = fourier_laplace(conv, check=False)
        U = fourier_laplace(u, check=False)
        K = plain_laplace(kern, U.z)
        err = np.abs(C.values - K[:, None] * U.values).max()
        assert err < 5e-5 * np.abs(C.values).max()

    def test_real_inputs_exactly_real(self, rng):
        # long enough for an FFT convolution, whose complex form leaves
        # round-off in the imaginary part of real data
        g = TimeGrid(-1.0, 1.0 / 32.0, 512)
        u = WeightedSignal(g, 1.0, smooth_pulse(g.times, 0.0, 2.0)[:, None]
                           * rng.standard_normal((3,))[None, :])
        lag = TimeGrid(0.0, g.dt, 512)
        kern = SampledKernel(lag, np.exp(-lag.times) * np.sin(3.0 * lag.times))
        assert not causal_convolve(kern, u).values.imag.any()

    def test_noncausal_kernel_rejected(self):
        lag = TimeGrid(-0.5, 0.01, 128)
        kern = SampledKernel(lag, np.ones(128))
        with pytest.raises(NonCausalKernel):
            kern.check_causal()


def direct_convolution(kern: SampledKernel, u: WeightedSignal) -> np.ndarray:
    """O(n^2) trapezoid sum dt sum_j c_j kappa(l_j) u(t - l_j) over the lags
    l_j >= 0; c_j is 1/2 at both ends unless only one sample is nonzero."""
    dt, n = u.grid.dt, u.grid.n_samples
    keep = kern.lags > -0.5 * dt
    k = kern.values[keep]
    shift = int(round(kern.lags[keep][0] / dt))
    c = np.ones(k.size)
    if np.count_nonzero(k) > 1:
        c[0] = c[-1] = 0.5
    out = np.zeros((n, u.state_dim), dtype=complex)
    for i in range(n):
        for j in range(k.size):
            if 0 <= i - shift - j < n:
                out[i] += dt * c[j] * k[j] * u.values[i - shift - j]
    return out


class TestConvolveBenchShape:
    @pytest.mark.parametrize("path", ["real", "complex"])
    def test_matches_per_column_direct_sum(self, path, rng):
        # 512 samples x 108 columns against a 512-lag damped sine, data
        # supported on samples a .. b-1: the shapes of the Picard iterates
        n, dim, a, b = 512, 108, 130, 400
        g = TimeGrid(-1.0, 1.0 / 32.0, n)
        lag = TimeGrid(0.0, g.dt, n)
        k = np.exp(-0.8 * lag.times) * np.sin(2.5 * lag.times)
        x = rng.standard_normal((n, dim))
        if path == "complex":
            k = k * np.exp(0.7j * lag.times)
            x = x + 1j * rng.standard_normal((n, dim))
        x[:a] = 0.0
        x[b:] = 0.0
        out = causal_convolve(SampledKernel(lag, k), WeightedSignal(g, 1.0, x)).values
        kw = k.copy()
        kw[[0, -1]] *= 0.5
        ref = np.stack([g.dt * np.convolve(x[:, j], kw)[:n] for j in range(dim)], axis=1)
        scale = g.dt * np.abs(k).sum() * np.abs(x).max()
        assert np.abs(out - ref).max() <= 1e-12 * scale
        assert not out[: a + 1].any()        # k(0) = 0: support starts one lag after a
        assert out.imag.any() == (path == "complex")


class TestConvolveProperty:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 40), m=st.integers(2, 24), offset=st.integers(-5, 6),
           dim=st.integers(1, 3), complex_kernel=st.booleans(), complex_signal=st.booleans(),
           single=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_direct_sum(self, n, m, offset, dim, complex_kernel, complex_signal,
                                single, seed):
        rng = np.random.default_rng(seed)
        dt = 0.1
        offset = max(offset, 1 - m)      # at least one lag >= 0
        k = rng.standard_normal(m) + (1j * rng.standard_normal(m) if complex_kernel else 0.0)
        k[: max(-offset, 0)] = 0.0       # no mass at negative lags
        if single:                       # one nonzero sample: a pointwise multiplier
            j = rng.integers(max(-offset, 0), m)
            k[np.arange(m) != j] = 0.0
        x = rng.standard_normal((n, dim)) + (1j * rng.standard_normal((n, dim))
                                             if complex_signal else 0.0)
        a, b = sorted(rng.integers(0, n + 1, 2))
        x[:a] = 0.0                      # data supported on samples a .. b-1
        x[b:] = 0.0
        kern = SampledKernel(TimeGrid(offset * dt, dt, m), k)
        u = WeightedSignal(TimeGrid(-1.0, dt, n), 0.5, x)
        out = causal_convolve(kern, u).values
        ref = direct_convolution(kern, u)
        scale = dt * np.abs(k).sum() * np.abs(x).max(initial=0.0)
        assert np.abs(out - ref).max() <= 1e-12 * scale
        if not (complex_kernel or complex_signal):
            assert not out.imag.any()    # real arithmetic on the real path
        elif complex_kernel and np.abs(ref.imag).max() > 1e-12 * scale:
            assert out.imag.any()        # a complex kernel keeps the complex path


class TestSpectralDerivative:
    def test_matches_finite_differences(self, rng):
        g = TimeGrid(-2.0, 0.005, 2048)
        prof = smooth_pulse(g.times, 0.0, 2.0)
        u = WeightedSignal(g, 1.0, prof[:, None])
        du = spectral_derivative(u)
        fd = np.gradient(u.values[:, 0].real, g.dt)
        interior = slice(10, -10)
        err = np.abs(du.values[interior, 0].real - fd[interior]).max()
        assert err < 1e-3

    @pytest.mark.parametrize("n", [511, 512])
    @pytest.mark.parametrize("order", [1, 2])
    def test_real_data_gives_float64(self, n, order, rng):
        # the real part of the full-line route, to round-off
        u = make_signal(rng, n=n)
        du = spectral_derivative(u, order=order)
        U = fourier_laplace(u)
        ref = inverse_fourier_laplace(U.with_values(U.values * (U.z ** order)[:, None]))
        ref = ref.with_values(ref.values.real)
        assert du.values.dtype == np.float64 and du.values.flags.f_contiguous
        assert weighted_norm(du - ref) <= 1e-13 * weighted_norm(ref)


class TestLinePair:
    """_to_line and _from_line, the one weighted transform to the line and
    back, and its real-data rule."""

    @pytest.mark.parametrize("n", [2, 3, 512])
    @pytest.mark.parametrize("imag, real", [(0.0, True), (1e-14, True), (1e-10, False),
                                            (1.0, False)])
    def test_round_trip(self, n, imag, real, rng):
        # at n = 2 both lines have two rows: the choice is carried, not read off W
        g = TimeGrid(-0.5, 0.01, n)
        values = rng.standard_normal((n, 3)) + imag * 1j * rng.standard_normal((n, 3))
        u = WeightedSignal(g, 0.7, values, wrap_tol=1e-6)
        W, z, is_real = _to_line(u)
        rows = n // 2 + 1 if real else n
        assert is_real == real and W.shape == (rows, 3)
        assert np.array_equal(z, (0.7 + 1j * g.xi)[:rows])
        back = _from_line(W, u, is_real)
        assert back.values.dtype == (np.float64 if real else np.complex128)
        assert (back.grid, back.rho, back.wrap_tol) == (g, 0.7, 1e-6)
        ref = values.real if real else values
        assert np.abs(back.values - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_half_line_is_the_rfft_of_the_weighted_samples(self, rng):
        u = make_signal(rng, n=64)
        W, _, _ = _to_line(u)
        w = u.values * np.exp(-u.rho * u.times)[:, None]
        assert np.array_equal(W, np.fft.rfft(w, axis=0))


class TestColumnBlocks:
    """Every pass over a signal's columns runs in blocks of LINE_BLOCK_BYTES:
    one column, three columns and the whole signal give the bytes of the
    unblocked numpy formulas, for real and complex data, one column and many.
    At one column the in-place irfft's output overlaps its input the most."""

    @staticmethod
    def budgets(column_bytes):
        return (1, 3 * column_bytes, 1 << 40)

    @staticmethod
    def signal(n, dim, imag, rng):
        g = TimeGrid(-0.5, 0.01, n)
        values = rng.standard_normal((n, dim)) * np.exp(-4.0 * rng.random(dim))
        return WeightedSignal(g, 0.7, values + imag * 1j * rng.standard_normal((n, dim)),
                              wrap_tol=1.0)

    CASES = [(n, dim, imag) for n in (64, 65) for dim in (1, 40) for imag in (0.0, 1e-14, 1.0)]

    @pytest.mark.parametrize("n, dim, imag", CASES)
    def test_line_pair(self, n, dim, imag, rng, monkeypatch):
        u = self.signal(n, dim, imag, rng)
        w = u.values * np.exp(-u.rho * u.times)[:, None]
        real = imag < 1e-12
        spectrum = np.fft.rfft(w.real, axis=0) if real else np.fft.fft(w, axis=0)
        back = (np.fft.irfft(spectrum, n, axis=0) if real else np.fft.ifft(spectrum, axis=0)) \
            * np.exp(u.rho * u.times)[:, None]
        for budget in self.budgets(8 * n):
            monkeypatch.setattr(signals, "LINE_BLOCK_BYTES", budget)
            W, _, is_real = _to_line(u)
            assert is_real == real and W.flags.f_contiguous
            assert W.tobytes() == spectrum.tobytes()
            v = _from_line(W, u, is_real).values
            assert v.flags.f_contiguous and v.tobytes() == back.tobytes()

    @pytest.mark.parametrize("n, dim, imag", CASES)
    def test_norms(self, n, dim, imag, rng, monkeypatch):
        u = self.signal(n, dim, imag, rng)
        mags = np.abs(u.values)
        env = mags.max(axis=1) * np.exp(-u.rho * u.times)
        wrap = max(env[0], env[-1]) / env.max()
        squares = np.sum(np.square(mags), axis=1) * np.exp(-2.0 * u.rho * u.times)
        norm = float(np.sqrt(np.trapezoid(squares, dx=u.grid.dt)))
        for budget in self.budgets(8 * n):
            monkeypatch.setattr(signals, "LINE_BLOCK_BYTES", budget)
            assert u.weighted_envelope().tobytes() == env.tobytes()
            assert u.wraparound_measure() == wrap and weighted_norm(u) == norm
            assert _wraparound_and_norm(u) == (wrap, norm)

    @pytest.mark.parametrize("n, dim, imag", CASES)
    def test_one_part_sweeps(self, n, dim, imag, rng, monkeypatch):
        # weighted_norm sweeps only the squares and wraparound_measure only the
        # peaks; both read the bytes of the one sweep that apply() takes
        u = self.signal(n, dim, imag, rng)
        for budget in self.budgets(8 * n):
            monkeypatch.setattr(signals, "LINE_BLOCK_BYTES", budget)
            peak, squares = signals._magnitudes(u)
            peak_only, none_sq = signals._magnitudes(u, squares=False)
            none_peak, squares_only = signals._magnitudes(u, peaks=False)
            assert none_sq is None and none_peak is None
            assert peak_only.tobytes() == peak.tobytes()
            assert squares_only.tobytes() == squares.tobytes()
            assert (u.wraparound_measure(), weighted_norm(u)) == _wraparound_and_norm(u)

    @pytest.mark.parametrize("n, dim, imag", CASES)
    def test_gap_norm(self, n, dim, imag, rng, monkeypatch):
        # the Picard gap is read off the two spectra: weighted_norm(a - b) to
        # round-off, a real minus a complex signal too (the real one's full
        # line taken by fft)
        a, b = self.signal(n, dim, imag, rng), self.signal(n, dim, imag, rng)
        real = self.signal(n, dim, 0.0, rng)
        for budget in self.budgets(8 * n):
            monkeypatch.setattr(signals, "LINE_BLOCK_BYTES", budget)
            for x, y in ((a, b), (real, b), (b, real)):
                (X, _, rx), (Y, _, ry) = _to_line(x), _to_line(y)
                if rx != ry:
                    X, Y = (np.fft.fft(s.values * np.exp(-s.rho * s.times)[:, None], axis=0)
                            if r else S for s, S, r in ((x, X, rx), (y, Y, ry)))
                gap = signals._line_norm(X - Y, x.grid, rx and ry)
                assert gap == pytest.approx(weighted_norm(x - y), rel=1e-13)

    @pytest.mark.parametrize("n", [64, 65])
    def test_line_norm_reads_the_half_line_as_irfft(self, n, rng):
        # a solved half-line spectrum may carry an imaginary part in its
        # self-mirrored rows (0, and n/2 for even n), which irfft drops: the
        # norm is that of the signal _from_line returns
        x = self.signal(n, 5, 0.0, rng)
        W, _, real = _to_line(x)
        W[[0, -1]] += 3j * rng.standard_normal((2, 5))
        norm = signals._line_norm(W, x.grid, real)
        assert norm == pytest.approx(weighted_norm(signals._from_line(W, x, real)), rel=1e-13)

    @pytest.mark.parametrize("n", [64, 65])
    @pytest.mark.parametrize("real", [True, False], ids=["half", "full"])
    @pytest.mark.parametrize("dim", [1, 40])
    def test_line_norm_is_the_returned_signals_norm(self, n, real, dim, rng):
        # any spectrum, imaginary parts in rows 0 and n/2 too (irfft drops
        # them), C-ordered as well as Fortran-ordered: the weighted norm of
        # the signal _from_line makes of it
        like = self.signal(n, dim, 0.0, rng)
        rows = n // 2 + 1 if real else n
        W = rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
        W *= np.exp(-3.0 * rng.random(dim))
        expected = weighted_norm(signals._from_line(W.copy(order="F"), like, real))
        for spectrum in (np.asfortranarray(W), np.ascontiguousarray(W)):
            assert signals._line_norm(spectrum, like.grid, real) == pytest.approx(expected, rel=1e-13)

    def test_line_choice_by_columns(self, rng):
        # _to_line picks its line on all columns at once: faint imaginary
        # parts beside large real columns take the half line, alone the full
        n = 64
        grid = TimeGrid(-0.5, 0.01, n)
        small = rng.standard_normal((n, 3)) + 1e-11j * rng.standard_normal((n, 3))
        large = 1e3 * rng.standard_normal((n, 5)) + 0j
        rough = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        for head, tail, real in ((small, large, True), (large + 1e-11j, rough, False)):
            assert _to_line(WeightedSignal(grid, 0.7, np.hstack([head, tail])))[2] is real
            assert _to_line(WeightedSignal(grid, 0.7, head))[2] is not real

    @pytest.mark.parametrize("n, dim, imag", CASES)
    def test_causal_convolve(self, n, dim, imag, rng, monkeypatch):
        u = self.signal(n, dim, imag, rng)
        lag = TimeGrid(0.0, u.grid.dt, 30)
        kern = SampledKernel(lag, np.exp(-lag.times) * np.sin(3.0 * lag.times))
        runs = []
        for budget in self.budgets(16 * 128):   # 128 padded samples
            monkeypatch.setattr(signals, "LINE_BLOCK_BYTES", budget)
            runs.append(causal_convolve(kern, u).values.tobytes())
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("imag", [0.0, 1.0])
    def test_apply(self, imag, material_dl, rng, monkeypatch):
        b = build_curl_pair(YeeGrid((1.0, 1.3, 0.8), (3, 4, 5), 1, 2))
        grid = TimeGrid(-2.0, 1.0 / 8.0, 128)
        vec = rng.standard_normal(b.n_state) + imag * 1j * rng.standard_normal(b.n_state)
        g = WeightedSignal(grid, 2.0, smooth_pulse(grid.times, 0.0, 2.0)[:, None] * vec)
        runs = []
        for budget in self.budgets(8 * grid.n_samples):
            monkeypatch.setattr(signals, "LINE_BLOCK_BYTES", budget)
            runs.append(SolutionOperator(b, material_dl, 2.0, grid).apply(g).values.tobytes())
        assert runs[0] == runs[1] == runs[2]


class TestSmoothPulse:
    @staticmethod
    def masked(times, t0, t1, power):
        """The bump as it was written with a support mask."""
        t = np.asarray(times)
        x = (t - t0) * (t1 - t) * (4.0 / (t1 - t0) ** 2)
        return np.where((t > t0) & (t < t1), np.maximum(x, 0.0) ** power, 0.0)

    @pytest.mark.parametrize("t0, t1", [(0.0, 2.0), (-0.0, 1.5), (-1.0, -0.0), (-1.0, 0.0),
                                        (-3.0, 7.0), (0.0, 1e-150)])
    def test_bytes_of_the_masked_formula(self, t0, t1):
        # the endpoints exactly and one step either side, +-inf, NaN, signed
        # zeros and subnormals, in a long array and one at a time (numpy's
        # fmax keeps or drops a -0.0 by position, which odd powers would show)
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308, t0, t1,
                    *(np.nextafter(t, s) for t in (t0, t1) for s in (-np.inf, np.inf))]
        grids = [np.concatenate([np.linspace(t0 - 1.0, t1 + 1.0, 100001), specials]),
                 np.full(17, -0.0), np.array(-0.0), *(np.array([s]) for s in specials)]
        with np.errstate(all="ignore"):
            for times in grids:
                for power in range(1, 10):
                    assert (smooth_pulse(times, t0, t1, power).tobytes()
                            == self.masked(times, t0, t1, power).tobytes())

    @pytest.mark.parametrize("t0, t1", [(2.0, 0.0), (1.5, -0.0), (1.0, 1.0), (-0.0, 0.0),
                                        (0.0, np.nan)])
    def test_empty_interval_refused(self, t0, t1):
        # a reversed interval once gave a bump on [t1, t0], an equal one a bare ZeroDivisionError
        with pytest.raises(ValueError, match="t0 < t1") as info:
            smooth_pulse(np.linspace(-1.0, 3.0, 9), t0, t1)
        assert f"t0 = {t0!r}, t1 = {t1!r}" in str(info.value)


class TestContainer:
    def test_round_trip_float32_payload(self, rng, tmp_path):
        u = make_signal(rng, n=64, dim=2)
        path = str(tmp_path / "sig.bin")
        write_signal(u, path)
        v = read_signal(path)
        assert v.grid == u.grid
        assert v.rho == u.rho
        # payload is complex64 by format, so round trip at single precision
        assert np.abs(v.values - u.values).max() < 1e-6 * np.abs(u.values).max()


class TestStorage:
    """Construction stores exactly real data as float64 and anything else as
    complex128, Fortran-ordered (time contiguous) and read-only."""

    @pytest.mark.parametrize("values, dtype", [
        (np.arange(12.0).reshape(6, 2), np.float64),
        (np.arange(12).reshape(6, 2), np.float64),
        (np.arange(12.0).reshape(6, 2).astype(np.float32), np.float64),
        (np.arange(12.0).reshape(6, 2) + 0j, np.float64),
        (np.arange(12.0).reshape(6, 2) - 0j * np.ones((6, 2)), np.float64),
        (np.arange(12.0).reshape(6, 2) + 1e-300j, np.complex128),
        (np.arange(12.0).reshape(6, 2).astype(np.complex64) * 1j, np.complex128),
    ])
    def test_dtype_rule_and_layout(self, values, dtype):
        u = WeightedSignal(TimeGrid(0.0, 0.1, 6), 1.0, values)
        assert u.values.dtype == dtype
        assert u.values.flags.f_contiguous and not u.values.flags.writeable
        assert np.array_equal(u.values, values)

    def test_real_and_complex_mix_to_complex(self, rng):
        grid = TimeGrid(0.0, 0.1, 8)
        x = WeightedSignal(grid, 1.0, rng.standard_normal((8, 3)))
        z = WeightedSignal(grid, 1.0, rng.standard_normal((8, 3)) * 1j)
        for w in (x + z, z + x, x - z, z - x, x * 1j):
            assert w.values.dtype == np.complex128 and w.values.flags.f_contiguous
        assert (x + x).values.dtype == np.float64 and (-x).values.dtype == np.float64

    def test_difference_is_not_copied(self, rng):
        import tracemalloc

        grid = TimeGrid(0.0, 0.01, 512)
        u, v = (WeightedSignal(grid, 1.0, rng.standard_normal((512, 64))) for _ in range(2))
        tracemalloc.start()
        try:
            w = u - v
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * u.values.nbytes
        assert w.values.dtype == np.float64 and w.values.flags.f_contiguous
        assert not w.values.flags.writeable
        assert np.array_equal(w.values, u.values - v.values)

    def test_real_polarization_current_stays_real(self, rng):
        # kappa(0+) q(E) with a real kernel: the bits of the complex product's
        # real part, stored float64 without a complex intermediate
        from memax import ModDLParams, SaturableNonlinearity, apply_dt_P_nl

        grid = TimeGrid(-1.0, 1.0 / 32.0, 256)
        spec = KernelSpec.from_dl(ModDLParams(DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)]), 4.0),
                                  TimeGrid(0.0, grid.dt, grid.n_samples))
        q = SaturableNonlinearity(3, 1.0)
        E = WeightedSignal(grid, 1.0, smooth_pulse(grid.times, 0.0, 2.0)[:, None]
                           * rng.standard_normal((1, 5)))
        out = apply_dt_P_nl(spec, q, E).values
        qE = q(E.values)
        ref = causal_convolve(spec.kappa_prime, E.with_values(qE)).values \
            + complex(spec.kappa_at_0plus) * qE
        assert spec.kappa_at_0plus != 0 and not ref.imag.any()
        assert out.dtype == np.float64 and out.flags.f_contiguous
        assert np.array_equal(out, ref.real)

    @pytest.mark.parametrize("imag", [0.0, 1.0])
    def test_container_round_trip(self, imag, rng, tmp_path):
        u = make_signal(rng, n=64, dim=3)
        u = u.with_values(u.values + imag * 1j * u.values[::-1])
        first, second = str(tmp_path / "a.sig"), str(tmp_path / "b.sig")
        write_signal(u, first)
        v = read_signal(first)
        assert v.values.dtype == u.values.dtype and v.values.flags.f_contiguous
        assert np.array_equal(v.values, u.values.astype(np.complex64))
        assert np.array_equal(read_signal(first).values, v.values)
        write_signal(v, second)
        assert open(first, "rb").read() == open(second, "rb").read()

    def test_apply_real_data_gives_float64_fortran(self, bundle4, material_dl, rng):
        grid = TimeGrid(-2.0, 1.0 / 8.0, 128)
        g = WeightedSignal(grid, 2.0, smooth_pulse(grid.times, 0.0, 2.0)[:, None]
                           * rng.standard_normal(bundle4.n_state)[None, :])
        u = SolutionOperator(bundle4, material_dl, 2.0, grid).apply(g)
        assert u.values.dtype == np.float64 and u.values.flags.f_contiguous

    def test_apply_spectral_layout_independent(self, bundle4, material_dl, rng):
        grid = TimeGrid(-2.0, 1.0 / 8.0, 128)
        w = smooth_pulse(grid.times, 0.0, 2.0)[:, None] * rng.standard_normal(bundle4.n_state)
        half = np.fft.rfft(w * np.exp(-2.0 * grid.times)[:, None], axis=0)
        op = SolutionOperator(bundle4, material_dl, 2.0, grid)
        c, f = np.ascontiguousarray(half), np.asfortranarray(half)
        assert np.array_equal(op.apply_spectral(c), op.apply_spectral(f))
