"""Quadrature oracles that more than one test file checks memax against:
the plain Laplace symbol of a sampled kernel by direct summation, and the
running trapezoid integral."""

import numpy as np


def plain_laplace(kernel, z: np.ndarray) -> np.ndarray:
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


def cumulative_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoid integral along axis 0, zero at the first sample."""
    mids = 0.5 * dt * (values[1:] + values[:-1])
    out = np.zeros_like(values)
    np.cumsum(mids, axis=0, out=out[1:])
    return out
