"""Independent time-domain reference solver.

Implicit midpoint on the instantaneous part of the first-order system plus a
trapezoid memory convolution carried by exponential recursions: one complex
accumulator per kernel pair (lam_j, c_j) and masked edge, lam_j = -gamma + i b
for an oscillatory term and real for an overdamped or Drude one,

    Q_j(t) = integral_{-inf}^t e^{lam_j (t-s)} x(s) ds,
    Q_j(t+dt) = e^{lam_j dt} (Q_j(t) + (dt/2) x(t)) + (dt/2) x(t+dt),

so that the memory current Im(c_j Q_j) reproduces the trapezoid convolution
with Im(c_j e^{lam_j t}) exactly.  The newest-sample contribution is linear
and diagonal in the unknown, (dt/2) Im(c_j) x(t+dt), which is the kernel's
zero-lag value; it is folded into the constant edge diagonal D_e.

Each step solves the midpoint system [[D_e, -C/2], [C0/2, D_h]] (E, H) = rhs
with H eliminated: since C = C0^T (an invariant of the operator bundle), E
solves the symmetric positive-definite edge system

    S E = rhs_e + (1/2) C D_h^{-1} rhs_h,   S = D_e + (1/4) C D_h^{-1} C0,

and H = D_h^{-1} (rhs_h - (1/2) C0 E).  S is ordered once by reverse
Cuthill-McKee and factored once by banded Cholesky, so every step is two
banded triangular solves.

A step folds the two C products of the elimination into one.  With
a_e = eps_inf/dt - sigma/2, 1/D_h and the memory weights
c_j (e^{lam_j dt} - 1)/dt and c_j e^{lam_j dt}/2 fixed at construction,

    dJ    = (J_known - J_old)/dt, one bincount over the accumulator entries
            of Im(c_j (e^{lam_j dt} - 1)/dt Q_j) + Im(c_j e^{lam_j dt})/2 E,
    u     = rhs_h / D_h = H - D_h^{-1} (C0 E)/2 + D_h^{-1} psi,
    rhs_s = a_e E - dJ + phi + (1/2) C (H + u),
    E'    = S^{-1} rhs_s           (LAPACK dpbtrs on the stored factor),
    H'    = u - D_h^{-1} (C0 E')/2.

The sparse products are C0 E, C (H + u) and C0 E'.  C0 E' is kept, keyed
on the E' array the step returns (made read-only), and is the next step's
C0 E, so a run takes two products per step.  Temporaries live in scratch
buffers owned by the stepper; the E, H and Q of each returned state are
fresh arrays.

The (lam_j, c_j) pairs are the region laws' kernel_terms(), the one
time-domain expansion of the laws.  This module exists to be an oracle: it
shares no machinery with the spectral solver (which evaluates the laws in z)
beyond the operator bundle, and the recursion is spot-checked against the
direct convolution sum during runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ConfigError, LinearSolveFailure
from .materials import PiecewiseMaterial
from .operators import OperatorBundle


@dataclass
class _KernelTerm:
    """One oscillator kernel Im(coeff e^{lam t}) acting on a dof mask."""

    lam: complex
    coeff: complex
    mask: np.ndarray


@dataclass
class StepperState:
    t: float
    E: np.ndarray
    H: np.ndarray
    Q: np.ndarray              # memory accumulators, all terms' masked edges stacked
    step_index: int = 0


def _banded_upper(S: sparse.spmatrix) -> np.ndarray:
    """Upper band of a symmetric sparse matrix in LAPACK 'ab' storage."""
    S = S.tocoo()
    upper = S.row <= S.col
    row, col, val = S.row[upper], S.col[upper], S.data[upper]
    u = int((col - row).max())
    ab = np.zeros((u + 1, S.shape[0]))
    ab[u + row - col, col] = val
    return ab


class OracleStepper:
    """Implicit-midpoint reference integrator on an operator bundle.

    dl_params1/2 are the region laws, expanded by their kernel_terms() (None
    means no memory and eps_inf = 1), each law's sigma on its region's edges
    unless sigma_edges, an optional per-edge conductivity, is given; then a
    law with sigma > 0 raises ConfigError, since it would count twice.
    Every checkpoint_every steps and at its last step, run() compares the
    accumulators with the direct trapezoid sums over the samples it
    recorded: a checkpoint sums the samples since the one before and
    propagates that one's sum exactly, and the last step re-sums every
    sample, so no run ends unchecked.  step() works in
    scratch buffers owned by the stepper, so one stepper serves one thread.
    """

    def __init__(self, bundle: OperatorBundle, material: PiecewiseMaterial,
                 dl_params1, dl_params2, dt: float, sigma_edges=None,
                 checkpoint_every: int = 100):
        self.bundle = bundle
        self.material = material
        self.dt = dt
        emask1 = bundle.edge_region_mask()
        fmask1 = bundle.face_region_mask()
        regions = ((dl_params1, emask1), (dl_params2, ~emask1))
        self.eps_inf = np.where(emask1, *(1.0 if p is None else p.eps_inf for p, _ in regions))
        self.mu = np.where(fmask1, material.mu1, material.mu2)
        self.terms = [_KernelTerm(lam, coeff, mask) for p, mask in regions if p is not None
                      for lam, coeff in p.kernel_terms()]
        sigmas = [0.0 if p is None else p.sigma for p, _ in regions]
        if any(sigmas) and sigma_edges is not None:
            raise ConfigError(f"region {1 if sigmas[0] else 2}'s law has sigma > 0 and "
                              "sigma_edges is given too: pass the conductivity once")
        if any(sigmas):
            sigma_edges = np.where(emask1, *sigmas)
        self.sigma_edges = None if sigma_edges is None else np.asarray(sigma_edges, dtype=float)
        self.checkpoint_every = checkpoint_every

        # stacked accumulator layout: term j owns entries _slices[j], one per
        # masked edge; _term and _edge map each entry back
        sizes = [int(term.mask.sum()) for term in self.terms]
        bounds = np.cumsum([0] + sizes)
        self._slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self._term = np.repeat(np.arange(len(self.terms)), sizes)
        self._edge = np.concatenate([np.flatnonzero(term.mask) for term in self.terms]
                                    + [np.zeros(0, dtype=np.intp)])
        self._lam = np.array([term.lam for term in self.terms], dtype=np.complex128)
        coeff = np.array([term.coeff for term in self.terms], dtype=np.complex128)
        self._coeff = coeff[self._term]
        self._decay = np.exp(self._lam * dt)[self._term]

        # zero-lag kernel currents enter the implicit diagonal
        zero_lag = np.bincount(self._edge, weights=np.imag(self._coeff),
                               minlength=bundle.n_edges)
        d_e = self.eps_inf / dt + 0.5 * zero_lag
        if self.sigma_edges is not None:
            d_e = d_e + 0.5 * self.sigma_edges
        d_h = self.mu / dt
        # the stepper's own SciPy subpackages load here, not with `import memax`
        from scipy.linalg import cholesky_banded, lapack
        from scipy.sparse.csgraph import reverse_cuthill_mckee
        self._dpbtrs = lapack.dpbtrs
        S = sparse.diags(d_e) + 0.25 * (bundle.C @ sparse.diags(1.0 / d_h) @ bundle.C0)
        self._perm = reverse_cuthill_mckee(sparse.csr_matrix(S), symmetric_mode=True)
        self._iperm = np.argsort(self._perm)
        try:
            self._chol = cholesky_banded(_banded_upper(S[self._perm][:, self._perm]))
        except np.linalg.LinAlgError as exc:
            raise LinearSolveFailure(
                f"edge system D_e + C D_h^-1 C0 / 4 is not positive definite ({exc})"
            ) from exc

        # per-step constants: the explicit edge diagonal, 1/D_h, and the
        # weights of (J_known - J_old)/dt in the old Q and the old E
        self._a_e = self.eps_inf / dt
        if self.sigma_edges is not None:
            self._a_e = self._a_e - 0.5 * self.sigma_edges
        self._inv_d_h = 1.0 / d_h
        self._half_inv_d_h = 0.5 * self._inv_d_h
        self._dj_q = self._coeff * (self._decay - 1.0) / dt
        self._dj_e = np.imag(self._coeff * self._decay) / 2
        # C0 E of the last E that step() returned, keyed on that (read-only) array
        self._c0e_of = None
        self._c0e = None
        # scratch: two per edge, two per face, three per accumulator entry
        nq = len(self._edge)
        self._e, self._e_perm = np.empty(bundle.n_edges), np.empty(bundle.n_edges)
        self._h, self._u = np.empty(bundle.n_faces), np.empty(bundle.n_faces)
        self._q_e, self._q_r = np.empty(nq), np.empty(nq)
        self._q_c = np.empty(nq, dtype=np.complex128)

    # -- state construction ----------------------------------------------------

    def initial_state(self, E0=None, H0=None) -> StepperState:
        ne, nf = self.bundle.n_edges, self.bundle.n_faces
        E = np.zeros(ne) if E0 is None else np.asarray(E0, dtype=float).copy()
        H = np.zeros(nf) if H0 is None else np.asarray(H0, dtype=float).copy()
        return StepperState(t=0.0, E=E, H=H, Q=np.zeros(len(self._edge), dtype=np.complex128))

    def state_from_history(self, times: np.ndarray, E_hist: np.ndarray,
                           H_hist: np.ndarray) -> StepperState:
        """Seed the accumulators by direct trapezoid sums over a history that
        ends at t = 0; the run continues from (E, H)(0-)."""
        times = np.asarray(times, dtype=float)
        if abs(times[-1]) > 1e-12:
            raise ValueError("history must end at t = 0")
        st = self.initial_state(np.real(E_hist[-1]), np.real(H_hist[-1]))
        st.Q = self._direct_sums(0.0, times, np.real(E_hist), times[1] - times[0])
        return st

    # -- memory bookkeeping ------------------------------------------------------

    def _direct_sums(self, t: float, times: np.ndarray, E_samples: np.ndarray,
                     dt: float) -> np.ndarray:
        """Trapezoid sums dt * sum_k w_k e^{lam_j (t - t_k)} E(t_k) for every
        stacked accumulator entry, as one real GEMM over all edges."""
        w = np.ones(len(times))
        w[0] = 0.5
        w[-1] = 0.5
        phase = w * np.exp(np.outer(self._lam, t - times))
        sums = np.concatenate([phase.real, phase.imag]) @ E_samples
        n_terms = len(self.terms)
        return (sums[self._term, self._edge]
                + 1j * sums[n_terms + self._term, self._edge]) * dt

    def step(self, state: StepperState, phi_mid: np.ndarray, psi_mid: np.ndarray) -> StepperState:
        """One implicit-midpoint step with midpoint source samples."""
        C, C0, edge, half_dt = self.bundle.C, self.bundle.C0, self._edge, 0.5 * self.dt
        E, H, Q = state.E, state.H, state.Q
        E_q = np.take(E, edge, out=self._q_e, mode="clip")
        # (J_known - J_old)/dt as one reduction over the accumulator entries
        w = np.multiply(self._dj_q, Q, out=self._q_c).imag
        w += np.multiply(self._dj_e, E_q, out=self._q_r)
        dJ = np.bincount(edge, weights=w, minlength=self.bundle.n_edges)
        c0e = self._c0e if E is self._c0e_of else C0 @ E

        # u = rhs_h / D_h, and rhs_s = rhs_e + C u / 2 = a_e E - dJ + phi + C (H + u) / 2
        u = np.subtract(H, np.multiply(self._half_inv_d_h, c0e, out=self._h), out=self._u)
        u += np.multiply(self._inv_d_h, psi_mid, out=self._h)
        rhs = np.multiply(self._a_e, E, out=self._e)
        rhs -= dJ
        rhs += phi_mid
        rhs += 0.5 * (C @ np.add(H, u, out=self._h))
        rhs = np.take(rhs, self._perm, out=self._e_perm, mode="clip")
        x, info = self._dpbtrs(self._chol, rhs, lower=0, overwrite_b=1)
        if info != 0:
            raise LinearSolveFailure(f"banded solve failed at t = {state.t + self.dt:.6g} "
                                     f"(dpbtrs info {info})")
        E_new = x[self._iperm]
        c0e_new = C0 @ E_new
        H_new = u - np.multiply(self._half_inv_d_h, c0e_new, out=self._h)
        if not (np.isfinite(E_new).all() and np.isfinite(H_new).all()):
            raise LinearSolveFailure(f"non-finite step solution at t = {state.t + self.dt:.6g}")

        # accumulators: e^{lam dt}(Q + dt/2 x_old) + dt/2 x_new
        E_q *= half_dt
        q_known = np.add(Q, E_q, out=self._q_c)
        q_known *= self._decay
        Q_new = q_known + np.multiply(half_dt, E_new[edge], out=self._q_r)
        E_new.flags.writeable = False
        self._c0e_of, self._c0e = E_new, c0e_new
        return StepperState(state.t + self.dt, E_new, H_new, Q_new, state.step_index + 1)

    def run(self, state: StepperState, phi_of_t, psi_of_t, n_steps: int):
        """March n_steps from state; returns (times, E_traj, H_traj)."""
        ne, nf = self.bundle.n_edges, self.bundle.n_faces
        times = np.empty(n_steps + 1)
        E_traj = np.empty((n_steps + 1, ne))
        H_traj = np.empty((n_steps + 1, nf))
        times[0] = state.t
        E_traj[0] = state.E
        H_traj[0] = state.H
        Q_start, direct, first = state.Q, state.Q, 0    # direct sum at times[first]
        zeros_e, zeros_h = np.zeros(ne), np.zeros(nf)
        for n in range(n_steps):
            t_mid = state.t + 0.5 * self.dt
            phi = phi_of_t(t_mid) if phi_of_t is not None else None
            psi = psi_of_t(t_mid) if psi_of_t is not None else None
            phi = zeros_e if phi is None else np.asarray(phi)
            psi = zeros_h if psi is None else np.asarray(psi)
            state = self.step(state, phi, psi)
            times[n + 1] = state.t
            E_traj[n + 1] = state.E
            H_traj[n + 1] = state.H
            last = n + 1 == n_steps
            if self.checkpoint_every and (last or (n + 1) % self.checkpoint_every == 0):
                if last:                                # re-sum from the start
                    direct, first = Q_start, 0
                direct = self._check_accumulators(state, direct, times[first:n + 2],
                                                  E_traj[first:n + 2])
                first = n + 1
        return times, E_traj, H_traj

    def _check_accumulators(self, state: StepperState, before: np.ndarray,
                            times: np.ndarray, E_traj: np.ndarray, tol: float = 1e-10):
        """Recursion vs the direct trapezoid sum over the recorded samples plus
        the exactly-propagated direct sum `before` at their first time (the
        accumulators the run began from, or the last checkpoint's sum);
        returns the direct sum at state.t for the next checkpoint to carry."""
        # the shared first sample keeps its half-weights from both trapezoid rules
        direct = self._direct_sums(state.t, times, E_traj, self.dt) \
            + np.exp(self._lam[self._term] * (state.t - times[0])) * before
        for j, sl in enumerate(self._slices):
            scale = max(np.abs(state.Q[sl]).max(), np.abs(direct[sl]).max(), 1e-300)
            gap = np.abs(direct[sl] - state.Q[sl]).max() / scale
            if gap > tol:
                raise LinearSolveFailure(
                    f"memory accumulator of term {j} drifted from the direct sum "
                    f"at t = {state.t:.6g} (rel {gap:.2e})"
                )
        return direct
