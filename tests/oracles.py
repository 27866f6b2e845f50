"""Oracles that more than one test file checks memax against: the plain
Laplace symbol of a sampled kernel by direct summation, the running
trapezoid integral, and a dense sample of a certificate region's boundary."""

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


def dense_boundary(nu: float, delta: float, t_max: float, n: int = 50_000,
                   disk: bool = False) -> np.ndarray:
    """Dense samples of the boundary of {Re z >= -nu} \\ B[0, delta]: the arc
    |z| = delta right of the line Re z = -nu (2n + 1 points, the corners its
    ends) and the line outside the disk up to |Im z| = t_max (n points per
    side linear over ten radii past the corner, n more logarithmic beyond);
    with disk=True, the arc and the chord of the line inside the disk
    (2n + 1 points) instead, the boundary of the disk part right of the line.
    """
    theta0 = np.pi - np.arccos(np.clip(nu / delta, -1.0, 1.0))
    arc = delta * np.exp(1j * np.linspace(-theta0, theta0, 2 * n + 1))
    h = np.sqrt(max(delta * delta - nu * nu, 0.0))
    if disk:
        return np.concatenate([arc, -nu + 1j * np.linspace(-h, h, 2 * n + 1)])
    t = np.concatenate([np.linspace(h, h + 10.0 * delta, n),
                        np.geomspace(h + 10.0 * delta, t_max, n)])
    line = -nu + 1j * np.concatenate([-t, t])
    return np.concatenate([arc, line[np.abs(line) >= delta]])
