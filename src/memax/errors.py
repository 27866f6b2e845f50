"""Exception types raised across the package.

Every failure mode that a caller can meaningfully react to gets its own
class; generic misuse (bad shapes, mismatched grids) raises ValueError.
"""


class MemaxError(Exception):
    """Base class for package-specific errors."""


class WraparoundExceeded(MemaxError):
    """A weighted signal has not decayed at the window ends.

    The windowed DFT stands in for a transform on the whole line; it is only
    trustworthy when the weighted signal is negligible at both window edges.
    """

    def __init__(self, measure: float, tolerance: float):
        self.measure = measure
        self.tolerance = tolerance
        super().__init__(
            f"weighted endpoint magnitude {measure:.3e} exceeds the declared "
            f"wraparound tolerance {tolerance:.3e}"
        )


class NonCausalKernel(MemaxError):
    """A convolution kernel carries mass at negative lags."""


class PoleHit(MemaxError):
    """A material law was evaluated too close to a pole of its denominator."""

    def __init__(self, z: complex, distance: float):
        self.z = z
        self.distance = distance
        super().__init__(f"evaluation at z={z} within {distance:.3e} of a pole")


class RankAmbiguous(MemaxError):
    """Singular values straddle the rank threshold too closely to trust."""


class LinearSolveFailure(MemaxError):
    """The oracle stepper's edge system is not positive definite, a step's
    solve failed or went non-finite, or a memory accumulator drifted."""


class FrequencySingular(MemaxError):
    """A per-frequency system solve hit a (near-)singular matrix."""

    def __init__(self, z: complex, cond: float):
        self.z = z
        self.cond = cond
        super().__init__(f"system singular at z={z} (condition estimate {cond:.3e})")


class NotAContraction(MemaxError):
    """The certified fixed-point bound is >= 1 at the requested weight."""

    def __init__(self, rho: float, bound: float, rho_suggestion: float | None = None):
        self.rho = rho
        self.bound = bound
        self.rho_suggestion = rho_suggestion
        hint = ""
        if rho_suggestion is not None:
            hint = f"; smallest certified weight is about rho={rho_suggestion:.4g}"
        super().__init__(f"contraction bound {bound:.4g} >= 1 at rho={rho}{hint}")


class MaxIterExceeded(MemaxError):
    """Fixed-point iteration did not converge within the iteration budget,
    or was stopped early because its step gaps grew (runaway_ratios)."""

    def __init__(self, iterations: int, residual_trace, runaway_ratios=None):
        self.iterations = iterations
        self.residual_trace = list(residual_trace)
        last = f"last residual {self.residual_trace[-1]:.3e}"
        if runaway_ratios is None:
            super().__init__(f"no convergence after {iterations} iterations ({last})")
        else:
            grew = ", ".join(f"{r:.3g}" for r in runaway_ratios)
            super().__init__(f"runaway after {iterations} iterations: the step gaps grew "
                             f"by ratios {grew} ({last})")


class BallEscape(MemaxError):
    """A ball-confined iteration left the admissible ball: data too large."""

    def __init__(self, iteration: int, norm: float, radius: float):
        self.iteration = iteration
        self.norm = norm
        self.radius = radius
        super().__init__(
            f"iterate {iteration} escaped the ball: |u| = {norm:.4g} > r = {radius:.4g}"
        )


class NotCertified(MemaxError):
    """A stability run was requested at a weight without a certificate."""

    def __init__(self, nu: float, reason: str = ""):
        self.nu = nu
        super().__init__(f"no accretivity certificate at weight -{nu}" + (f": {reason}" if reason else ""))


class UncertifiedLine(MemaxError):
    """A solve was requested on a line Re z = rho without an accretivity certificate."""

    def __init__(self, rho: float, c_min: float):
        self.rho = rho
        self.c_min = c_min
        super().__init__(f"no accretivity certificate on the line Re z = {rho} "
                         f"(c_min = {c_min:.3e}); pass certificate_required=False to override")


class KernelRankTooHigh(MemaxError):
    """A two-variable kernel exceeds the configured low-rank budget."""


class ConfigError(MemaxError):
    """A run configuration failed schema validation."""
