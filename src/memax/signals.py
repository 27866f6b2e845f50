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

Storage: WeightedSignal construction is the one conversion point.  Exactly
real samples are stored as float64 and anything else as complex128, always
in Fortran order, so every time-axis transform and convolution reads
contiguous columns and a real signal holds half the bytes.  No other module
re-checks a signal's dtype; the operations here keep real data real.

_to_line and _from_line are the working transform to the line and back;
_to_line alone tells real data (the rfft half line) from complex (the fft
full line).  They drop the unit phase e^{-i xi t_start} and the constant
dt / sqrt(2 pi), which the inverse undoes and no per-bin multiplier or
solve sees (fourier_laplace keeps both); _line_norm is weighted_norm on W.

Working bytes: a real signal's trip to the line and back is one buffer, its
Fortran-ordered half spectrum, which _to_line fills, a solve may overwrite
and _from_line transforms back in place.  Every pass over a signal's
columns (these transforms, the norms and causal_convolve) runs in ascending
column blocks of at most LINE_BLOCK_BYTES, bit for bit as one whole-array
call: each column's FFT is unchanged, and |u_j|^2 is summed over columns
left to right from a running total, numpy's order for axis 1 of a
Fortran-ordered array.

Convolution convention: for a causal kernel kappa the plain Laplace symbol

    hat(kappa)(z) = integral_0^inf kappa(t) e^{-z t} dt

is the frequency multiplier of u -> kappa * u, i.e.
L_rho(kappa * u) = hat(kappa)(rho + i xi) . L_rho(u)
                 = sqrt(2 pi) . (L_rho kappa) . (L_rho u).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import MemaxError, NonCausalKernel, WraparoundExceeded

DEFAULT_WRAP_TOL = 1e-8
LINE_BLOCK_BYTES = 3 << 19      # bytes of one working array of a block (1.5 MiB): columns of a signal, bins of a line

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

    Construction is the one place that picks the storage: exactly real data
    (a real dtype, or complex with every imaginary part zero) is copied to
    float64, anything else to complex128, in Fortran order either way, so
    each state column is contiguous in time.  Arithmetic between a real and
    a complex signal gives a complex one.
    """

    grid: TimeGrid
    rho: float
    values: np.ndarray
    wrap_tol: float = DEFAULT_WRAP_TOL

    def __post_init__(self):
        a = _as_2d(self.values)
        real = not np.iscomplexobj(a) or not a.imag.any()
        a = np.array(a.real if real else a, dtype=np.float64 if real else np.complex128,
                     order="F")
        if a.shape[0] != self.grid.n_samples:
            raise ValueError(
                f"values rows {a.shape[0]} != grid n_samples {self.grid.n_samples}"
            )
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

    @classmethod
    def _adopt(cls, grid: TimeGrid, rho: float, values: np.ndarray,
               wrap_tol: float = DEFAULT_WRAP_TOL) -> "WeightedSignal":
        """A signal over values, a fresh (n_samples, state_dim) array in
        Fortran order that the caller hands over, float64 or complex128 as
        construction would store it: frozen in place, not copied."""
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

    def _with_fresh(self, values: np.ndarray) -> "WeightedSignal":
        """with_values for an array no one else writes (a fresh result, or a
        view of frozen storage): float64 in Fortran order is adopted, anything
        else goes through construction."""
        if values.dtype == np.float64 and values.flags.f_contiguous:
            return WeightedSignal._adopt(self.grid, self.rho, values, self.wrap_tol)
        return self.with_values(values)

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
        return self._with_fresh(self.values + other.values)

    def __sub__(self, other: "WeightedSignal") -> "WeightedSignal":
        self._check_compatible(other)
        return self._with_fresh(self.values - other.values)

    def __mul__(self, scalar) -> "WeightedSignal":
        return self.with_values(self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "WeightedSignal":
        return self.with_values(-self.values)

    # -- diagnostics ---------------------------------------------------------

    def weighted_envelope(self) -> np.ndarray:
        """max_j |u_j(t)| e^{-rho t} per sample."""
        return _magnitudes(self, squares=False)[0] * np.exp(-self.rho * self.times)

    def wraparound_measure(self) -> float:
        """Weighted endpoint magnitude relative to the weighted peak."""
        return _wraparound_and_norm(self, squares=False)[0]

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


# ---------------------------------------------------------------------------
# construction helpers


def smooth_pulse(times: np.ndarray, t0: float, t1: float, power: int = 8) -> np.ndarray:
    """C^{power-1} bump supported on [t0, t1], normalized to unit peak.

    Smoothness keeps the spectral floor low, which matters whenever values
    near the right window edge are reconstructed in unweighted terms (the
    e^{rho t} unweighting amplifies any floor by the weight's dynamic range).
    An empty interval (t1 <= t0, or a NaN end) raises ValueError.
    """
    if not t0 < t1:
        raise ValueError(f"smooth_pulse needs t0 < t1, got t0 = {t0!r}, t1 = {t1!r}")
    t = np.asarray(times)
    x = (t - t0) * (t1 - t) * (4.0 / (t1 - t0) ** 2)
    return np.fmax(x, 0.0) ** power + 0.0   # + 0.0: an odd power keeps a -0.0 that fmax passed


# ---------------------------------------------------------------------------
# operations


def _column_blocks(rows: int, cols: int, itemsize: int = 8) -> list:
    """Ascending [a, b) ranges over cols columns of rows items of itemsize
    bytes: as many columns as LINE_BLOCK_BYTES holds, one at least."""
    step = max(1, LINE_BLOCK_BYTES // (itemsize * rows))
    return [(a, min(a + step, cols)) for a in range(0, cols, step)]


def _magnitudes(u: WeightedSignal, peaks: bool = True, squares: bool = True) -> tuple:
    """(max_j |u_j|, sum_j |u_j|^2) per sample in column blocks, or None for
    a part not asked for.  A block's squares sit behind the running sum (the
    buffer's first column): the columns fold left to right as np.sum does.
    Without peaks a real block is squared as it is: x^2 = |x|^2, bit for bit."""
    n, dim = u.values.shape
    blocks = _column_blocks(n, dim)
    buf = np.zeros((n, blocks[0][1] + 1), order="F")
    peak = np.zeros(n) if peaks else None
    for a, b in blocks:
        mags = buf[:, 1:b - a + 1]
        x = u.values[:, a:b]
        if peaks or x.dtype != np.float64:
            x = np.abs(x, out=mags)
        if peaks:
            np.maximum(peak, mags.max(axis=1), out=peak)
        if squares:
            np.square(x, out=mags)
            buf[:, 0] = buf[:, :b - a + 1].sum(axis=1)
    return peak, buf[:, 0] if squares else None


def weighted_norm(u: WeightedSignal) -> float:
    """Trapezoid approximation of (integral |u(t)|^2 e^{-2 rho t} dt)^(1/2)."""
    return _wraparound_and_norm(u, peaks=False)[1]


def _wraparound_and_norm(u: WeightedSignal, peaks: bool = True, squares: bool = True) -> tuple:
    """(u.wraparound_measure(), weighted_norm(u)) in one sweep; None for a
    part not asked for."""
    peak, sq = _magnitudes(u, peaks, squares)
    norm = None if sq is None else float(np.sqrt(np.trapezoid(
        sq * np.exp(-2.0 * u.rho * u.times), dx=u.grid.dt)))
    if peak is None:
        return None, norm
    env = peak * np.exp(-u.rho * u.times)
    top = env.max()
    return (max(env[0], env[-1]) / top if top != 0.0 else 0.0), norm


def fourier_laplace(u: WeightedSignal, check: bool = True) -> SpectralSignal:
    """Transform to the frequency line Re z = rho.

    Multiplies by e^{-rho t}, applies the DFT with the (2 pi)^{-1/2}
    normalization, and accounts for the window offset so that the result
    samples the continuous transform at xi = 2 pi k/(n dt).
    """
    if check:
        u.check_wraparound()
    g = u.grid
    w = np.multiply(u.values, np.exp(-u.rho * g.times)[:, None], dtype=np.complex128)
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


def _to_line(u: WeightedSignal) -> tuple:
    """(W, z, real): the fresh plain DFT along time of w = u e^{-rho t}, the
    z = rho + i xi of its rows, and whether W is the rfft half line (bins
    0 .. n//2, Nyquist with the full line's z), taken when u is float64 or
    |Im w| <= 1e-12 max |w| (the half line then takes Re w), or the fft
    full line.  real is carried, since at n = 2 both lines have two rows.
    W is Fortran-ordered; see _line_columns."""
    g = u.grid
    z = u.rho + 1j * g.xi
    y, weight, real = u.values, np.exp(-u.rho * g.times)[:, None], True
    if np.iscomplexobj(y):
        y = y * weight
        real = bool(np.abs(y.imag).max() <= 1e-12 * np.abs(y).max())
        y, weight = (y.real, 1.0) if real else (y, None)
    return _line_columns(y, weight, real), (z[:g.n_samples // 2 + 1] if real else z), real


def _line_columns(y: np.ndarray, weight, real: bool) -> np.ndarray:
    """The plain DFT along time of the columns of y times weight (None: y
    is weighted already), fresh and Fortran-ordered: the fft full line, in
    y itself when weight is None, or the rfft half line, filled in column
    blocks, each weighted into a block buffer and rfft'd into its columns."""
    if not real:
        x = y if weight is None else np.multiply(y, weight, dtype=np.complex128)
        return np.fft.fft(x, axis=0, out=x)
    n, dim = y.shape
    out = np.empty((n // 2 + 1, dim), dtype=np.complex128, order="F")
    blocks = _column_blocks(n, dim)
    buf = np.empty((n, blocks[0][1]), order="F")
    for a, b in blocks:
        np.fft.rfft(np.multiply(y[:, a:b], weight, out=buf[:, :b - a]), axis=0, out=out[:, a:b])
    return out


def _from_line(W: np.ndarray, like: WeightedSignal, real: bool) -> WeightedSignal:
    """The signal with _to_line spectrum W and like's grid, weight and
    wrap_tol, computed in W's own bytes, which it takes over: float64 by
    irfft from the half line (the self-mirrored rows count by their real
    part), or by ifft in place in W.

    On the half line, W (Fortran-ordered, as _to_line made it) is viewed as
    floats; in ascending column blocks, block [a, b) is irfft'd into the
    floats [n a, n b), which end before spectrum column b, and unweighted
    there.  numpy copies a block's input, which its output overlaps, so the
    blocks bound that copy.  The signal adopts the first n dim floats."""
    g = like.grid
    weight = np.exp(like.rho * g.times)[:, None]
    if real:
        n, dim = g.n_samples, W.shape[1]
        w = W.reshape(-1, order="F").view(np.float64)[:n * dim].reshape((n, dim), order="F")
        for a, b in _column_blocks(n, dim):
            np.fft.irfft(W[:, a:b], n, axis=0, out=w[:, a:b])
            w[:, a:b] *= weight
    else:
        w = np.fft.ifft(W, axis=0, out=W)
        w *= weight
    return WeightedSignal._adopt(g, like.rho, w, like.wrap_tol)


def _line_norm(W: np.ndarray, grid: TimeGrid, real: bool) -> float:
    """weighted_norm of the signal with _to_line spectrum W, read off W in one
    pass over its float view: Parseval's weighted sum of squares less the
    trapezoid's half weights on the two endpoint samples, each an
    inverse-DFT row taken as a BLAS product.  The half line is read as
    irfft reads it: each row for two but row 0 (and n/2, n even), whose
    imaginary parts weigh nothing."""
    n, rows = grid.n_samples, W.shape[0]
    c = np.full(rows, 1.0 / n)
    if real:
        c[1:(n + 1) // 2] = 2.0 / n
    r = np.stack((c, c * np.exp(-2j * np.pi * np.arange(rows) / n))).conj()   # samples 0, n-1
    ends = (r if real else np.concatenate((r, 1j * r))).view(np.float64)   # Re (and Im) of each endpoint
    weights = np.repeat(c, 2)
    if real:
        for a in (weights, ends):   # the imaginary parts of rows 0 and n/2
            a[..., 1::2][..., [0, -1] if n % 2 == 0 else [0]] = 0.0
    f = np.asfortranarray(W).T.view(np.float64)
    power = np.einsum("ji,ji->i", f, f) @ weights - 0.5 * np.square(f @ ends.T).sum()
    return float(np.sqrt(grid.dt * max(power, 0.0)))


def spectral_derivative(u: WeightedSignal, order: int = 1, check: bool = True) -> WeightedSignal:
    """d/dt realized as multiplication by z = rho + i xi on the line; real
    data gives a float64 signal."""
    if check:
        u.check_wraparound()
    W, z, real = _to_line(u)
    W *= (z ** order)[:, None]
    return _from_line(W, u, real)


def causal_convolve(kernel: SampledKernel, u: WeightedSignal) -> WeightedSignal:
    """Discrete causal convolution (kappa * u)(t) = integral kappa(t-s) u(s) ds.

    Trapezoid in the lag variable over the kernel support; a single-sample
    kernel acts as a pointwise multiplier (delta-like).  The linear
    convolution is an FFT product zero-padded to a power of two
    nfft >= n + m - 1, so no term wraps (Stockham 1966); an exactly real
    kernel and signal use rfft/irfft, so the result is exactly real.  Output
    support is clipped to support(u) + support(kernel) exactly, so causality
    holds on the grid bit-for-bit.  The kernel is transformed once and the
    signal's columns in blocks of LINE_BLOCK_BYTES of padded samples.
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
    x, fft, ifft = u.values, np.fft.fft, np.fft.ifft
    if not (kw.imag.any() or np.iscomplexobj(x)):
        kw, fft, ifft = kw.real, np.fft.rfft, np.fft.irfft
    out = np.zeros((n, u.state_dim), dtype=np.result_type(x, kw), order="F")
    nz_u = np.flatnonzero(np.any(x, axis=1))
    nz_k = np.flatnonzero(kw)
    if nz_u.size and nz_k.size:
        nfft = 1 << (n + m - 2).bit_length()
        kf = fft(kw, nfft)[:, None]
        # clip to window and to the exact support sum
        first = max(nz_u[0] + nz_k[0] + lag0_offset, 0)
        last = min(nz_u[-1] + nz_k[-1] + lag0_offset, n - 1)
        if last >= first:
            for a, b in _column_blocks(nfft, u.state_dim, out.itemsize):
                full = ifft(fft(x[:, a:b], nfft, axis=0) * kf, nfft, axis=0)
                out[first:last + 1, a:b] = full[first - lag0_offset:last + 1 - lag0_offset]
        out *= u.grid.dt
    return u._with_fresh(out)


# ---------------------------------------------------------------------------
# serialization: column-oriented binary container

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
    """The signal write_signal stored at path; a file that is not such a
    container, whose size disagrees with its header, or that cannot be read
    raises MemaxError."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise MemaxError(f"{path}: {exc.strerror}") from exc
    if len(data) < _HEADER.size:
        raise MemaxError(f"{path}: {len(data)} bytes, fewer than the "
                         f"{_HEADER.size}-byte signal container header")
    magic, version, dt, t_start, n, rho, state_dim, wrap_tol = _HEADER.unpack_from(data)
    if magic != _CONTAINER_MAGIC:
        raise MemaxError(f"{path}: not a signal container: its first 4 bytes are {magic!r}, "
                         f"expected {_CONTAINER_MAGIC!r}")
    if version != _CONTAINER_VERSION:
        raise MemaxError(f"{path}: container version {version}, expected {_CONTAINER_VERSION}")
    size = _HEADER.size + 8 * n * state_dim
    if n < 2 or state_dim < 1 or len(data) != size:
        raise MemaxError(f"{path}: {len(data)} bytes, expected {size}: the header declares "
                         f"{n} samples x {state_dim} states of 8 bytes after {_HEADER.size}")
    payload = np.frombuffer(data, dtype="<c8", offset=_HEADER.size).reshape(state_dim, n)
    return WeightedSignal(TimeGrid(t_start, dt, n), rho, payload.T, wrap_tol)
