"""Exponentially weighted time signals and their frequency-line transforms.

A signal u lives on a uniform time window and carries a weight rho; it stands
in for an element of the weighted space L2_rho, whose norm integrates
|u(t)|^2 e^{-2 rho t}.  The transform maps the window to the frequency line
Re z = rho,

    (L_rho u)(xi) = (2 pi)^{-1/2} integral u(t) e^{-(i xi + rho) t} dt,

realized as a DFT of the weighted samples.  With the dual xi grid and the
normalization used here the map is unitary up to the window-edge terms, so
Plancherel holds to the wraparound tolerance and the inverse is the exact
adjoint.  All quadrature is trapezoidal (second order); the windowed DFT is
only trusted when the weighted signal has decayed at both window ends, which
every transform call checks.

Convolution convention: for a causal kernel kappa the plain Laplace symbol

    hat(kappa)(z) = integral_0^inf kappa(t) e^{-z t} dt

is the frequency multiplier of u -> kappa * u, i.e.
L_rho(kappa * u) = hat(kappa)(rho + i xi) . L_rho(u)
                 = sqrt(2 pi) . (L_rho kappa) . (L_rho u).
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .errors import NonCausalKernel, NonPositiveWeight, WraparoundExceeded

DEFAULT_WRAP_TOL = 1e-8

_CONTAINER_MAGIC = b"MXSG"
_CONTAINER_VERSION = 1


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling t_k = t_start + k*dt, k = 0..n_samples-1."""

    t_start: float
    dt: float
    n_samples: int

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_samples < 2:
            raise ValueError(f"need at least 2 samples, got {self.n_samples}")

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_samples)

    @property
    def t_end(self) -> float:
        return self.t_start + self.dt * (self.n_samples - 1)

    @property
    def xi(self) -> np.ndarray:
        """DFT-dual angular frequencies, in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_samples, d=self.dt)

    @property
    def d_xi(self) -> float:
        return 2.0 * np.pi / (self.n_samples * self.dt)

    def index_of(self, t: float) -> int:
        """Index of the closest sample to t."""
        k = int(round((t - self.t_start) / self.dt))
        return min(max(k, 0), self.n_samples - 1)


def _as_2d(values: np.ndarray) -> np.ndarray:
    a = np.asarray(values)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"signal values must be 1-d or 2-d, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class WeightedSignal:
    """Time samples of a state trajectory with an exponential weight attached.

    values has shape (n_samples, state_dim) and is frozen after construction;
    operations return new signals.  Signals with different weights or grids
    never mix silently: arithmetic raises instead of reweighting.
    """

    grid: TimeGrid
    rho: float
    values: np.ndarray
    wrap_tol: float = DEFAULT_WRAP_TOL

    def __post_init__(self):
        a = _as_2d(self.values).astype(np.complex128, copy=True)
        if a.shape[0] != self.grid.n_samples:
            raise ValueError(
                f"values rows {a.shape[0]} != grid n_samples {self.grid.n_samples}"
            )
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

    @classmethod
    def _adopt(cls, grid: TimeGrid, rho: float, values: np.ndarray,
               wrap_tol: float = DEFAULT_WRAP_TOL) -> "WeightedSignal":
        """A signal over values, a fresh complex128 (n_samples, state_dim)
        array that the caller hands over: frozen in place, not copied."""
        sig = object.__new__(cls)
        values.setflags(write=False)
        for name, value in (("grid", grid), ("rho", rho), ("values", values), ("wrap_tol", wrap_tol)):
            object.__setattr__(sig, name, value)
        return sig

    # -- basic structure ---------------------------------------------------

    @property
    def state_dim(self) -> int:
        return self.values.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def with_values(self, values: np.ndarray) -> "WeightedSignal":
        return WeightedSignal(self.grid, self.rho, values, self.wrap_tol)

    def _check_compatible(self, other: "WeightedSignal"):
        if self.grid != other.grid:
            raise ValueError("signals live on different time grids")
        if self.rho != other.rho:
            raise ValueError(
                f"signals carry different weights ({self.rho} vs {other.rho}); "
                "reweight explicitly instead of mixing"
            )

    def __add__(self, other: "WeightedSignal") -> "WeightedSignal":
        self._check_compatible(other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other: "WeightedSignal") -> "WeightedSignal":
        self._check_compatible(other)
        return self.with_values(self.values - other.values)

    def __mul__(self, scalar) -> "WeightedSignal":
        return self.with_values(self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "WeightedSignal":
        return self.with_values(-self.values)

    # -- diagnostics ---------------------------------------------------------

    def weighted_envelope(self) -> np.ndarray:
        """max_j |u_j(t)| e^{-rho t} per sample."""
        mags = np.abs(self.values).max(axis=1)
        return mags * np.exp(-self.rho * self.times)

    def wraparound_measure(self) -> float:
        """Weighted endpoint magnitude relative to the weighted peak."""
        env = self.weighted_envelope()
        peak = env.max()
        if peak == 0.0:
            return 0.0
        return max(env[0], env[-1]) / peak

    def check_wraparound(self):
        m = self.wraparound_measure()
        if m > self.wrap_tol:
            raise WraparoundExceeded(m, self.wrap_tol)


@dataclass(frozen=True)
class SpectralSignal:
    """Samples of L_rho u on the frequency line Re z = rho.

    xi is stored in FFT order; grid is kept so the inverse transform can
    restore the exact time window (the phase depends on t_start).
    """

    grid: TimeGrid
    rho: float
    values: np.ndarray
    wrap_tol: float = DEFAULT_WRAP_TOL

    def __post_init__(self):
        a = _as_2d(self.values).astype(np.complex128, copy=True)
        if a.shape[0] != self.grid.n_samples:
            raise ValueError("spectral values rows must match grid n_samples")
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

    @property
    def xi(self) -> np.ndarray:
        return self.grid.xi

    @property
    def z(self) -> np.ndarray:
        """Complex frequencies rho + i*xi visited on the line."""
        return self.rho + 1j * self.xi

    @property
    def state_dim(self) -> int:
        return self.values.shape[1]

    def with_values(self, values: np.ndarray) -> "SpectralSignal":
        return SpectralSignal(self.grid, self.rho, values, self.wrap_tol)

    def plancherel_mass(self) -> float:
        """sum |U|^2 dxi; equals weighted_norm(u)^2 up to endpoint terms."""
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.d_xi)


@dataclass(frozen=True)
class SampledKernel:
    """A causal kernel sampled on a uniform lag grid.

    values has shape (m,) for scalar kernels.  Lags start at grid.t_start,
    which must not reach below zero by more than the causality tolerance.
    """

    grid: TimeGrid
    values: np.ndarray
    causal_tol: float = 1e-12

    def __post_init__(self):
        a = np.asarray(self.values, dtype=np.complex128).copy()
        if a.ndim != 1:
            raise ValueError("kernel values must be 1-d (scalar kernel)")
        if a.shape[0] != self.grid.n_samples:
            raise ValueError("kernel values length must match grid")
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

    @property
    def lags(self) -> np.ndarray:
        return self.grid.times

    def check_causal(self):
        neg = self.lags < -0.5 * self.grid.dt
        if not neg.any():
            return
        scale = np.abs(self.values).max() or 1.0
        mass = np.abs(self.values[neg]).max()
        if mass > self.causal_tol * scale:
            raise NonCausalKernel(
                f"kernel mass {mass:.3e} at negative lags exceeds "
                f"{self.causal_tol:.1e} x peak"
            )

    def at_zero_plus(self) -> complex:
        """Kernel value at lag 0+ (first nonnegative-lag sample)."""
        k = int(np.argmin(np.abs(self.lags)))
        return complex(self.values[k])


def delta_kernel(dt: float) -> SampledKernel:
    """Single-sample kernel of unit mass: convolution with it is the identity."""
    return SampledKernel(TimeGrid(0.0, dt, 2), np.array([1.0 / dt, 0.0]))


# ---------------------------------------------------------------------------
# construction helpers


def smooth_pulse(times: np.ndarray, t0: float, t1: float, power: int = 8) -> np.ndarray:
    """C^{power-1} bump supported on [t0, t1], normalized to unit peak.

    Smoothness keeps the spectral floor low, which matters whenever values
    near the right window edge are reconstructed in unweighted terms (the
    e^{rho t} unweighting amplifies any floor by the weight's dynamic range).
    """
    t = np.asarray(times)
    x = (t - t0) * (t1 - t) * (4.0 / (t1 - t0) ** 2)
    out = np.where((t > t0) & (t < t1), np.maximum(x, 0.0) ** power, 0.0)
    return out


# ---------------------------------------------------------------------------
# operations


def weighted_norm(u: WeightedSignal) -> float:
    """Trapezoid approximation of (integral |u(t)|^2 e^{-2 rho t} dt)^(1/2)."""
    w = np.sum(np.abs(u.values) ** 2, axis=1) * np.exp(-2.0 * u.rho * u.times)
    return float(np.sqrt(np.trapezoid(w, dx=u.grid.dt)))


def fourier_laplace(u: WeightedSignal, check: bool = True) -> SpectralSignal:
    """Transform to the frequency line Re z = rho.

    Multiplies by e^{-rho t}, applies the DFT with the (2 pi)^{-1/2}
    normalization, and accounts for the window offset so that the result
    samples the continuous transform at xi = 2 pi k/(n dt).
    """
    if check:
        u.check_wraparound()
    g = u.grid
    w = u.values * np.exp(-u.rho * g.times)[:, None]
    np.fft.fft(w, axis=0, out=w)
    w *= np.exp(-1j * g.xi * g.t_start)[:, None]
    w *= g.dt / np.sqrt(2.0 * np.pi)
    return SpectralSignal(g, u.rho, w, u.wrap_tol)


def inverse_fourier_laplace(U: SpectralSignal) -> WeightedSignal:
    """Exact inverse of fourier_laplace on its range."""
    g = U.grid
    phase = np.exp(1j * g.xi * g.t_start)
    w = U.values * phase[:, None]
    np.fft.ifft(w, axis=0, out=w)
    w *= np.sqrt(2.0 * np.pi) / g.dt
    w *= np.exp(U.rho * g.times)[:, None]
    return WeightedSignal(g, U.rho, w, U.wrap_tol)


def spectral_derivative(u: WeightedSignal, order: int = 1, check: bool = True) -> WeightedSignal:
    """d/dt realized as multiplication by z = rho + i xi on the line."""
    U = fourier_laplace(u, check=check)
    zpow = (U.z ** order)[:, None]
    return inverse_fourier_laplace(U.with_values(U.values * zpow))


def antiderivative(u: WeightedSignal) -> WeightedSignal:
    """Causal antiderivative: cumulative trapezoid from the left window edge.

    Stands in for integration from -infinity; requires rho > 0 for the causal
    interpretation (the inverse of d/dt is only causal on forward-weighted
    spaces, with operator norm at most 1/rho).
    """
    if u.rho <= 0:
        raise NonPositiveWeight(f"causal antiderivative needs rho > 0, got {u.rho}")
    return u.with_values(_cumulative_trapezoid(u.values, u.grid.dt))


def _cumulative_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoid integral along axis 0, zero at the first sample."""
    mids = 0.5 * dt * (values[1:] + values[:-1])
    out = np.zeros_like(values)
    np.cumsum(mids, axis=0, out=out[1:])
    return out


def truncate_after(u: WeightedSignal, a: float) -> WeightedSignal:
    """theta_a^+: zero all samples with t <= a.  Idempotent."""
    mask = (u.times > a).astype(float)
    return u.with_values(u.values * mask[:, None])


def causal_convolve(kernel: SampledKernel, u: WeightedSignal) -> WeightedSignal:
    """Discrete causal convolution (kappa * u)(t) = integral kappa(t-s) u(s) ds.

    Trapezoid in the lag variable over the kernel support; a single-sample
    kernel acts as a pointwise multiplier (delta-like).  The linear
    convolution is an FFT product zero-padded to a power of two
    nfft >= n + m - 1, so no term wraps (Stockham 1966); an exactly real
    kernel and signal use rfft/irfft, so the result is exactly real.  Output
    support is clipped to support(u) + support(kernel) exactly, so causality
    holds on the grid bit-for-bit.
    """
    kernel.check_causal()
    if abs(kernel.grid.dt - u.grid.dt) > 1e-12 * u.grid.dt:
        raise ValueError("kernel and signal must share dt")
    keep = kernel.lags > -0.5 * kernel.grid.dt
    kvals = kernel.values[keep]
    lag0_offset = int(round(kernel.lags[keep][0] / u.grid.dt))
    m = kvals.shape[0]
    weights = np.ones(m)
    if np.count_nonzero(kvals) > 1:
        weights[[0, -1]] = 0.5
    kw = kvals * weights

    n = u.grid.n_samples
    out = np.zeros((n, u.state_dim), dtype=np.complex128)
    nz_u = np.nonzero(np.abs(u.values).sum(axis=1))[0]
    nz_k = np.nonzero(np.abs(kw))[0]
    if nz_u.size and nz_k.size:
        x, fft, ifft = u.values, np.fft.fft, np.fft.ifft
        if not (kw.imag.any() or x.imag.any()):
            x, kw, fft, ifft = x.real, kw.real, np.fft.rfft, np.fft.irfft
        nfft = 1 << (n + m - 2).bit_length()
        full = ifft(fft(x, nfft, axis=0) * fft(kw, nfft)[:, None], nfft, axis=0)
        # clip to window and to the exact support sum
        first = max(nz_u[0] + nz_k[0] + lag0_offset, 0)
        last = min(nz_u[-1] + nz_k[-1] + lag0_offset, n - 1)
        if last >= first:
            out[first:last + 1] = full[first - lag0_offset:last + 1 - lag0_offset]
        out *= u.grid.dt
    return u.with_values(out)


def plain_laplace(kernel: SampledKernel, z: np.ndarray) -> np.ndarray:
    """hat(kappa)(z) = integral kappa(t) e^{-z t} dt by trapezoid on the lag grid.

    This is the frequency multiplier of u -> kappa * u (no 2 pi factor).
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    t = kernel.lags
    w = np.ones(len(t))
    w[0] = 0.5
    w[-1] = 0.5
    integ = (kernel.values * w)[None, :] * np.exp(-np.outer(z, t))
    return integ.sum(axis=1) * kernel.grid.dt


# ---------------------------------------------------------------------------
# serialization: column-oriented binary container and CSV for small cases

_HEADER = struct.Struct("<4sIddqdqd")  # magic, version, dt, t_start, n, rho, state_dim, wrap_tol


def write_signal(u: WeightedSignal, path: str):
    """Binary container: little-endian header + complex64 payload, column order."""
    with open(path, "wb") as f:
        f.write(_HEADER.pack(_CONTAINER_MAGIC, _CONTAINER_VERSION,
                             u.grid.dt, u.grid.t_start, u.grid.n_samples,
                             u.rho, u.state_dim, u.wrap_tol))
        payload = np.ascontiguousarray(u.values.T, dtype="<c8")
        f.write(payload.tobytes())


def read_signal(path: str) -> WeightedSignal:
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        magic, version, dt, t_start, n, rho, state_dim, wrap_tol = _HEADER.unpack(head)
        if magic != _CONTAINER_MAGIC:
            raise ValueError(f"{path}: not a signal container")
        if version != _CONTAINER_VERSION:
            raise ValueError(f"{path}: unsupported container version {version}")
        payload = np.frombuffer(f.read(), dtype="<c8").reshape(state_dim, n)
    grid = TimeGrid(t_start, dt, n)
    return WeightedSignal(grid, rho, payload.T.astype(np.complex128), wrap_tol)


def write_signal_csv(u: WeightedSignal, path: str):
    """CSV for small cases: t, then re/im per state column."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        header = ["t"]
        for j in range(u.state_dim):
            header += [f"re_{j}", f"im_{j}"]
        w.writerow(["# rho", u.rho])
        w.writerow(header)
        for k, t in enumerate(u.times):
            row = [repr(float(t))]
            for j in range(u.state_dim):
                row += [repr(float(u.values[k, j].real)), repr(float(u.values[k, j].imag))]
            w.writerow(row)
