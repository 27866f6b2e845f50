"""Independent time-domain reference solver.

Implicit midpoint on the instantaneous part of the first-order system plus a
trapezoid memory convolution carried by exponential recursions: one complex
accumulator per damped-oscillator kernel term,

    Q_j(t) = integral_{-inf}^t e^{lam_j (t-s)} x(s) ds,   lam_j = -gamma + i b,
    Q_j(t+dt) = e^{lam_j dt} (Q_j(t) + (dt/2) x(t)) + (dt/2) x(t+dt),

so that the memory current Im(c_j Q_j) reproduces the trapezoid convolution
with Im(c_j e^{lam_j t}) exactly.  The newest-sample contribution is linear
and diagonal in the unknown, (dt/2) Im(c_j) x(t+dt), which is the kernel's
zero-lag value; it is folded into the constant implicit matrix, so the whole
run reuses a single sparse factorization.

The (lam_j, c_j) pairs are the parameter records' kernel_terms(), the one
time-domain expansion of the laws.  This module exists to be an oracle: it
shares no machinery with the spectral solver (which evaluates the laws in z)
beyond the operator bundle, and the recursion is spot-checked against the
direct convolution sum during runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import MemaxError
from .materials import PiecewiseMaterial
from .operators import OperatorBundle


class LinearSolveFailure(MemaxError):
    pass


@dataclass
class _KernelTerm:
    """One oscillator kernel Im(coeff e^{lam t}) acting on a dof mask."""

    lam: complex
    coeff: complex
    mask: np.ndarray

    @property
    def zero_lag(self) -> float:
        """Kernel value at t = 0+ (the instantaneous-current coefficient)."""
        return float(np.imag(self.coeff))


@dataclass
class StepperState:
    t: float
    E: np.ndarray
    H: np.ndarray
    Q: list                    # linear-memory accumulators (masked dofs)
    Qnl: list                  # nonlinear-memory accumulators
    step_index: int = 0


class OracleStepper:
    """Implicit-midpoint reference integrator on an operator bundle.

    dl_params1/2 are the per-region permittivity records (plain or modified
    oscillator laws, expanded by their kernel_terms(); None means no memory
    and eps_inf = 1); an optional nonlinear polarization kappa * q(E) is
    supported for oscillator-form kappa with zero value at zero lag, applied
    through q_fn acting row-wise on E samples.
    """

    def __init__(self, bundle: OperatorBundle, material: PiecewiseMaterial,
                 dl_params1, dl_params2, dt: float,
                 nl_kernel_terms=None, q_fn=None, sigma_edges=None,
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
        self.nl_terms = list(nl_kernel_terms or [])
        self.q_fn = q_fn
        for term in self.nl_terms:
            if abs(term.zero_lag) > 1e-14:
                raise MemaxError("nonlinear kernel must vanish at zero lag")
        self.sigma_edges = None if sigma_edges is None else np.asarray(sigma_edges, dtype=float)
        self.checkpoint_every = checkpoint_every
        self._Q_at_zero = None

        # zero-lag kernel currents enter the implicit diagonal
        zero_lag = np.zeros(bundle.n_edges)
        for term in self.terms:
            zero_lag[term.mask] += term.zero_lag
        diag = self.eps_inf / dt + 0.5 * zero_lag
        if self.sigma_edges is not None:
            diag = diag + 0.5 * self.sigma_edges
        system = sparse.bmat(
            [[sparse.diags(diag), -0.5 * bundle.C],
             [0.5 * bundle.C0, sparse.diags(self.mu / dt)]],
            format="csc",
        )
        try:
            self._lu = splu(system)
        except RuntimeError as exc:
            raise LinearSolveFailure(str(exc)) from exc

    # -- state construction ----------------------------------------------------

    def initial_state(self, E0=None, H0=None) -> StepperState:
        ne, nf = self.bundle.n_edges, self.bundle.n_faces
        E = np.zeros(ne) if E0 is None else np.asarray(E0, dtype=float).copy()
        H = np.zeros(nf) if H0 is None else np.asarray(H0, dtype=float).copy()
        Q = [np.zeros(int(t.mask.sum()), dtype=np.complex128) for t in self.terms]
        Qnl = [np.zeros(int(t.mask.sum()), dtype=np.complex128) for t in self.nl_terms]
        return StepperState(t=0.0, E=E, H=H, Q=Q, Qnl=Qnl)

    def state_from_history(self, times: np.ndarray, E_hist: np.ndarray,
                           H_hist: np.ndarray) -> StepperState:
        """Seed the accumulators by direct trapezoid sums over a history that
        ends at t = 0; the run continues from (E, H)(0-)."""
        times = np.asarray(times, dtype=float)
        if abs(times[-1]) > 1e-12:
            raise ValueError("history must end at t = 0")
        st = self.initial_state(np.real(E_hist[-1]), np.real(H_hist[-1]))
        w = np.ones(len(times))
        w[0] = 0.5
        w[-1] = 0.5
        dt_h = times[1] - times[0]
        E_hist = np.real(E_hist)
        qE = self.q_fn(E_hist) if self.q_fn is not None else None
        for i, term in enumerate(self.terms):
            phase = np.exp(term.lam * (0.0 - times))[:, None]
            st.Q[i] = (w[:, None] * phase * E_hist[:, term.mask]).sum(axis=0) * dt_h
        for i, term in enumerate(self.nl_terms):
            phase = np.exp(term.lam * (0.0 - times))[:, None]
            st.Qnl[i] = (w[:, None] * phase * qE[:, term.mask]).sum(axis=0) * dt_h
        self._Q_at_zero = ([q.copy() for q in st.Q], [q.copy() for q in st.Qnl])
        return st

    # -- memory bookkeeping ------------------------------------------------------

    def _memory_current(self, Q, Qnl) -> np.ndarray:
        out = np.zeros(self.bundle.n_edges)
        for term, q in zip(self.terms, Q):
            out[term.mask] += np.imag(term.coeff * q)
        for term, q in zip(self.nl_terms, Qnl):
            out[term.mask] += np.imag(term.coeff * q)
        return out

    def step(self, state: StepperState, phi_mid: np.ndarray, psi_mid: np.ndarray) -> StepperState:
        """One implicit-midpoint step with midpoint source samples."""
        dt = self.dt
        J_old = self._memory_current(state.Q, state.Qnl)

        # accumulator known parts: e^{lam dt}(Q + dt/2 x_old)
        qE_old = self.q_fn(state.E[None, :])[0] if self.q_fn is not None else None
        Q_known = []
        for term, q in zip(self.terms, state.Q):
            Q_known.append(np.exp(term.lam * dt) * (q + 0.5 * dt * state.E[term.mask]))
        Qnl_known = []
        for term, q in zip(self.nl_terms, state.Qnl):
            Qnl_known.append(np.exp(term.lam * dt) * (q + 0.5 * dt * qE_old[term.mask]))
        J_known = self._memory_current(Q_known, Qnl_known)

        rhs_e = (self.eps_inf / dt) * state.E + 0.5 * (self.bundle.C @ state.H) \
            - (J_known - J_old) / dt + phi_mid
        if self.sigma_edges is not None:
            rhs_e = rhs_e - 0.5 * self.sigma_edges * state.E
        rhs_h = (self.mu / dt) * state.H - 0.5 * (self.bundle.C0 @ state.E) + psi_mid
        sol = self._lu.solve(np.concatenate([rhs_e, rhs_h]))
        if not np.all(np.isfinite(sol)):
            raise LinearSolveFailure("non-finite step solution")
        E_new = sol[: self.bundle.n_edges].real
        H_new = sol[self.bundle.n_edges:].real

        Q_new = [qk + 0.5 * dt * E_new[t.mask] for t, qk in zip(self.terms, Q_known)]
        if self.q_fn is not None:
            qE_new = self.q_fn(E_new[None, :])[0]
            Qnl_new = [qk + 0.5 * dt * qE_new[t.mask]
                       for t, qk in zip(self.nl_terms, Qnl_known)]
        else:
            Qnl_new = Qnl_known
        return StepperState(state.t + dt, E_new, H_new, Q_new, Qnl_new,
                            state.step_index + 1)

    def run(self, state: StepperState, phi_of_t, psi_of_t, n_steps: int):
        """March n_steps from state; returns (times, E_traj, H_traj)."""
        ne, nf = self.bundle.n_edges, self.bundle.n_faces
        times = np.empty(n_steps + 1)
        E_traj = np.empty((n_steps + 1, ne))
        H_traj = np.empty((n_steps + 1, nf))
        times[0] = state.t
        E_traj[0] = state.E
        H_traj[0] = state.H
        for n in range(n_steps):
            t_mid = state.t + 0.5 * self.dt
            phi = phi_of_t(t_mid) if phi_of_t is not None else None
            psi = psi_of_t(t_mid) if psi_of_t is not None else None
            phi = np.zeros(ne) if phi is None else np.asarray(phi)
            psi = np.zeros(nf) if psi is None else np.asarray(psi)
            state = self.step(state, phi, psi)
            times[n + 1] = state.t
            E_traj[n + 1] = state.E
            H_traj[n + 1] = state.H
            if self.checkpoint_every and (n + 1) % self.checkpoint_every == 0:
                self._check_accumulators(state, times[: n + 2], E_traj[: n + 2])
        return times, E_traj, H_traj

    def _check_accumulators(self, state: StepperState, times: np.ndarray,
                            E_traj: np.ndarray, tol: float = 1e-10):
        """Recursion vs direct trapezoid sum over the recorded run samples
        (plus the exactly-propagated history seed, when present)."""
        w = np.ones(len(times))
        w[0] = 0.5
        w[-1] = 0.5
        for i, term in enumerate(self.terms):
            phase = np.exp(term.lam * (state.t - times))[:, None]
            direct = (w[:, None] * phase * E_traj[:, term.mask]).sum(axis=0) * self.dt
            if self._Q_at_zero is not None:
                # seeded part decays by e^{lam t}; the shared t=0 sample keeps
                # its half-weights from both trapezoid rules
                direct = direct + np.exp(term.lam * (state.t - times[0])) * self._Q_at_zero[0][i]
            scale = max(np.abs(state.Q[i]).max(), np.abs(direct).max(), 1e-300)
            gap = np.abs(direct - state.Q[i]).max() / scale
            if gap > tol:
                raise LinearSolveFailure(
                    f"memory accumulator drifted from the direct sum (rel {gap:.2e})"
                )


def energy_series(E_traj: np.ndarray, H_traj: np.ndarray, eps_inf: np.ndarray,
                  mu: np.ndarray, dof_volume: float) -> np.ndarray:
    """Quadratic energy eps_inf|E|^2 + mu|H|^2 per recorded step."""
    return dof_volume * ((E_traj ** 2 * eps_inf).sum(axis=1)
                         + (H_traj ** 2 * mu).sum(axis=1))
