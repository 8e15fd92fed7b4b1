"""Adaptive BDF2 solver for 1D conservative flows via per-step minimization.

Each step minimizes

    J(x) = (1+2r)/(2 tau (1+r)) (rho0, |x - xhat|^2)_h
         + E_h(x) + (tau/2) (|D_h(x - x^n)|^2, 1)_h

over strictly increasing trajectories, where xhat is the ratio-weighted
extrapolation of the two history levels (the first step, from the history
at rest, has r = 0: xhat = x^0 and backward Euler).  The density is then
recovered by pushforward, which conserves mass identically.  The shared
damped-Newton core (``newton``) does the minimization with the analytic
tridiagonal Hessian; its fraction-to-the-boundary rule keeps every cell at
least 10% of the currently narrowest one, and backtracking only ever accepts
objective decreases (up to the core's rounding allowance).

The terms of J that do not depend on the iterate (xhat's midpoints, the
cell inertia weights, the viscosity reference and the constant part of the
Hessian) are built once per step, and the cell state of an iterate (widths,
densities, admissibility) is computed once and shared by its objective,
gradient and Hessian.  Newton starts from the linear predictor
x^n + r (x^n - x^{n-1}) when it is admissible and J there is no larger than
J(x^n), and from x^n otherwise.  Since backtracking only lowers J,
J(x^{n+1}) <= J(start) <= J(x^n) for any step ratio, which is exactly the
property the discrete energy estimate needs.  Keller-Segel steps always
start from x^n: the lagged interaction makes J nonconvex, so the start
chooses among local minima, and on ``ks-blowup-1d`` at mx = 400 the
predictor reached a higher one and brought the collapse forward.  The
porous-medium and Fokker-Planck objectives are convex (for a convex
potential), so there the start changes the cost of a step, not its result.

Dirichlet runs pin both endpoints to the reference.  Free-boundary runs
(moving support, e.g. waiting-time experiments) treat the endpoint positions
as unknowns of the same minimization; the natural boundary condition then
emerges from the variation.

Keller-Segel runs lag the interaction partner at the previous level, so the
per-step objective keeps the entropy's convexity; the Hessian of the lagged
interaction is still tridiagonal and can be indefinite.  When the unshifted
Newton direction then fails to descend, the system is shifted by the
smallest eigenvalue of the tridiagonal Hessian plus a tenth of its size
(a modified Newton step, Nocedal & Wright, *Numerical Optimization*, 2006,
sec. 3.4), so one shifted solve gives a descent direction; the core's
growing shifts remain the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, solve_banded

from .errors import AdmissibilityError
from .grids import Grid1D, Trajectory1D, inner_product, pushforward_density_1d
from .models import (EnergyModel, KellerSegel1D, discrete_energy_1d,
                     discrete_energy_grad_1d, discrete_energy_hess_1d)
from .newton import fraction_to_boundary, newton_solve

__all__ = ["Wgf1dProblem", "extrapolate_hat", "wgf1d_residual", "wgf1d_step",
           "wgf1d_first_step", "wgf1d_augmented_energy", "wgf1d_energy", "RATIO_BOUND_1D"]

NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 60

RATIO_BOUND_1D = 0.5 * (3.0 + np.sqrt(17.0))


@dataclass(frozen=True)
class Wgf1dProblem:
    grid: Grid1D
    model: EnergyModel
    rho0: np.ndarray
    visc_weight: float = 1.0
    pinned: bool = True

    def __post_init__(self):
        rho0 = np.ascontiguousarray(self.rho0, dtype=float)
        if rho0.shape != (self.grid.m_x,):
            raise ValueError(f"rho0 must be a midpoint field of length {self.grid.m_x}")
        if np.any(rho0 <= 0.0):
            raise ValueError("conservative runs need strictly positive cell densities")
        rho0.flags.writeable = False
        object.__setattr__(self, "rho0", rho0)

    def lag_state(self, x):
        """Partner data (positions, cell densities) for the lagged interaction."""
        if isinstance(self.model, KellerSegel1D):
            return np.asarray(x), self.rho0 * self.grid.h / np.diff(x)
        return None, None


def extrapolate_hat(x_curr, x_prev, r: float) -> np.ndarray:
    """xhat = ((1+r)^2 x^n - r^2 x^{n-1}) / (1+2r)."""
    x_curr = np.asarray(x_curr)
    x_prev = np.asarray(x_prev)
    return ((1.0 + r) ** 2 * x_curr - r * r * x_prev) / (1.0 + 2.0 * r)


@dataclass(slots=True)
class _Cells:
    """Cell state of one iterate (``key`` is its bytes), and J there once computed."""

    key: bytes
    widths: np.ndarray
    s: np.ndarray        # rho0 h / widths
    offset: np.ndarray   # midpoints minus xhat's midpoints
    incr: np.ndarray     # widths of x - x_visc_ref
    value: float | None = None


class _StepTerms:
    """The step objective's constants, and a one-entry memo of the cell state.

    The constants (xhat's midpoints and the inertia and viscosity weights)
    are built once per step.  ``at(x)`` returns the cell state of x,
    computed (with the admissibility check) only for a new iterate: the memo
    is keyed by the bytes of x, so an array changed in place is never
    answered from it.  Every term keeps the operation order of the textbook
    formulas, so a run gives the same bits as evaluating them afresh.
    """

    def __init__(self, p: Wgf1dProblem, x_hat, x_visc_ref, lag_x, lag_rho, coeff, tau):
        h = p.grid.h
        self.p = p
        self.lag_x = lag_x
        self.lag_rho = lag_rho
        self.coeff = coeff
        self.x_visc_ref = x_visc_ref
        self.masses = p.rho0 * h
        self.hat_mid = 0.5 * (x_hat[:-1] + x_hat[1:])
        self.inertia_w = coeff * h * p.rho0
        self.inertia_curv = 0.5 * coeff * h * p.rho0
        self.visc_half = 0.5 * p.visc_weight * tau / h
        self.visc_w = p.visc_weight * tau / h
        self.last = None

    def at(self, x) -> _Cells:
        key = x.tobytes()
        last = self.last
        if last is not None and last.key == key:
            return last
        widths = x[1:] - x[:-1]
        if widths.min() <= 0.0:
            raise AdmissibilityError("trajectory nodes are not strictly increasing")
        moved = x - self.x_visc_ref
        self.last = _Cells(key, widths, self.masses / widths,
                           0.5 * (x[:-1] + x[1:]) - self.hat_mid, moved[1:] - moved[:-1])
        return self.last


def _bdf2_terms(p: Wgf1dProblem, traj: Trajectory1D, tau: float) -> _StepTerms:
    r = tau / traj.tau_prev
    x_hat = extrapolate_hat(traj.curr, traj.prev, r)
    coeff = (1.0 + 2.0 * r) / (2.0 * tau * (1.0 + r))
    lag_x, lag_rho = p.lag_state(traj.curr)
    return _StepTerms(p, x_hat, traj.curr, lag_x, lag_rho, coeff, tau)


def _objective(t: _StepTerms, x) -> float:
    c = t.at(x)
    p = t.p
    inertia = t.coeff * float(p.grid.h * np.dot(p.rho0 * c.offset, c.offset))
    visc = t.visc_half * float(np.dot(c.incr, c.incr))
    energy = discrete_energy_1d(p.model, x, p.rho0, p.grid, t.lag_x, t.lag_rho,
                                cells=(c.widths, c.s))
    c.value = inertia + visc + energy
    return c.value


def _gradient(t: _StepTerms, x) -> np.ndarray:
    c = t.at(x)
    p = t.p
    cell = t.inertia_w * c.offset
    visc = t.visc_w * c.incr
    g = np.zeros_like(x)
    g[:-1] += cell
    g[1:] += cell
    g[:-1] -= visc
    g[1:] += visc
    g += discrete_energy_grad_1d(p.model, x, p.rho0, p.grid, pinned=False, lagged_x=t.lag_x,
                                 lagged_rho=t.lag_rho, cells=(c.widths, c.s))
    return g


def _hessian_tridiag(t: _StepTerms, x):
    c = t.at(x)
    p = t.p
    diag, off = discrete_energy_hess_1d(p.model, x, p.rho0, p.grid, t.lag_x, t.lag_rho,
                                        cells=(c.widths, c.s))
    # both arrays are fresh, so they are updated in place
    diag[:-1] += t.inertia_curv
    diag[1:] += t.inertia_curv
    off += t.inertia_curv
    diag[:-1] += t.visc_w
    diag[1:] += t.visc_w
    off -= t.visc_w
    return diag, off


def wgf1d_residual(p: Wgf1dProblem, traj: Trajectory1D, x_candidate, tau: float) -> np.ndarray:
    """First-order-condition residual of the step objective at the free nodes."""
    g = _gradient(_bdf2_terms(p, traj, tau), np.asarray(x_candidate, dtype=float))
    return g[1:-1] if p.pinned else g


def _eigen_shift(d, o) -> float:
    """First diagonal shift for the symmetric tridiagonal (diagonal d,
    off-diagonal o): the floor max(1e-8, 1e-8 max|d|) if its smallest
    eigenvalue lam is nonnegative, else -lam + max(floor, |lam|/10), which
    leaves the shifted matrix positive definite."""
    floor = max(1e-8, np.abs(d).max() * 1e-8)
    lam = eigvalsh_tridiagonal(d, o, select="i", select_range=(0, 0))[0]
    return floor if lam >= 0.0 else -lam + max(floor, -0.1 * lam)


def _start(t: _StepTerms, x_curr, x_pred):
    """x_pred if it is admissible and J(x_pred) <= J(x_curr), else x_curr.

    The chosen start's cell state and value are left in the memo, so the
    Newton solve does not evaluate J there again.
    """
    j_curr = _objective(t, x_curr)
    at_curr = t.last
    try:
        if _objective(t, x_pred) <= j_curr:
            return x_pred
    except AdmissibilityError:
        pass
    t.last = at_curr
    return x_curr


def _minimize(t: _StepTerms, x_start):
    """Newton minimization of the step objective from x_start (see ``newton``)."""
    free = slice(1, -1) if t.p.pinned else slice(None)

    def objective(x):
        value = t.at(x).value
        return _objective(t, x) if value is None else value

    def gradient(x):
        return _gradient(t, x)[free]

    def linearize(x):
        diag, off = _hessian_tridiag(t, x)
        d = diag[free]
        o = off[free]

        def solve(rhs, shift):
            ab = np.empty((3, d.shape[0]))
            ab[0, 0] = ab[2, -1] = 0.0
            ab[0, 1:] = o
            np.add(d, shift, out=ab[1])
            ab[2, :-1] = o
            return solve_banded((1, 1), ab, rhs, overwrite_ab=True)
        return solve, lambda: _eigen_shift(d, o)

    return newton_solve(x_start, gradient, linearize, objective=objective, free=free,
                        tol=NEWTON_TOL, stall_tol=1e2 * NEWTON_TOL, max_iter=NEWTON_MAX_ITER,
                        max_backtracks=50, step_bound=fraction_to_boundary)


def wgf1d_step(p: Wgf1dProblem, traj: Trajectory1D, tau_next: float):
    """One adaptive BDF2 step; returns the new trajectory and recovered density."""
    if tau_next <= 0.0:
        raise ValueError("tau_next must be positive")
    t = _bdf2_terms(p, traj, tau_next)
    if isinstance(p.model, KellerSegel1D):
        x_start = traj.curr  # nonconvex J: the start would choose the local minimum
    else:
        r = tau_next / traj.tau_prev
        x_start = _start(t, traj.curr, traj.curr + r * (traj.curr - traj.prev))
    x_new = _minimize(t, x_start)
    new_traj = Trajectory1D(traj.curr, x_new, tau_next, traj.time + tau_next,
                            traj.step_index + 1, p.grid, pinned=p.pinned)
    return new_traj, pushforward_density_1d(p.rho0, x_new, p.grid)


def wgf1d_first_step(p: Wgf1dProblem, tau1: float):
    """First-order startup: the BDF2 step from the history at rest."""
    return wgf1d_step(p, Trajectory1D.at_rest(p.grid, p.pinned), tau1)


def wgf1d_energy(p: Wgf1dProblem, x) -> float:
    """Reported discrete energy of a state (self-consistent interaction)."""
    return discrete_energy_1d(p.model, x, p.rho0, p.grid)


def wgf1d_augmented_energy(p: Wgf1dProblem, x_prev, x_curr, tau: float,
                           r_max: float = RATIO_BOUND_1D) -> float:
    """E_h plus the ratio-weighted inertia of the last increment."""
    dx = np.asarray(x_curr) - np.asarray(x_prev)
    dxm = 0.5 * (dx[:-1] + dx[1:])
    inertia = inner_product("midpoint", p.rho0 * dxm, dxm, p.grid)
    return wgf1d_energy(p, x_curr) + r_max / (2.0 * tau * (1.0 + r_max)) * inertia
