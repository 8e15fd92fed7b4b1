"""Adaptive BDF2 solver for the 1D phase-field trajectory equation.

The unknown is the node trajectory; density values never change (they are
transported with the nodes), which is what makes the maximum bound
principle exact.  The per-midpoint equation combines

  * a mobility-weighted inertia term with the averaged slope factor
    (D_h x^{n+1})^{-1} + (D_h x^n)^{-1},
  * an optional logarithmic mesh regularization of strength eta that
    penalizes sign changes of d_h x,
  * a BDF2 history term with the averaged slope factor
    (D_h x^{n-1})^{-1/2} + (D_h x^n)^{-1/2}, the form for which the discrete
    energy inequality goes through; it vanishes at step ratio r = 0,
  * the phase-field force given by differences of the squared gradient
    reconstruction and of the double well.

Node residuals are the hat-function weighted averages of the two adjacent
midpoint equations, so testing the residual against node increments
reproduces the midpoint quadrature identities behind the energy estimate.
The shared damped-Newton core (``newton``) solves it with ||F||_2 as the
merit and the analytic Jacobian, which is pentadiagonal: the inertia and
history terms of a midpoint equation couple its two end nodes, which fills
the three centre bands, and the log
regularization and the energy force act through d_h x at node j, which
couples nodes j-1 and j+1 and so adds the two outer bands.  The first step
is the step from the history at rest, where r = 0 makes it backward Euler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .errors import AdmissibilityError
from .grids import DensityField1D, Grid1D, Trajectory1D, inner_product, node_diff
from .initial import InitialCondition1D
from .models import GinzburgLandau, ac_discrete_energy, check_mobility_positive, double_well
from .newton import fraction_to_boundary, newton_solve

__all__ = ["AcProblem", "ac_residual", "ac_step", "ac_first_step", "ac_modified_energy",
           "ac_energy", "RATIO_BOUND_AC"]

NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 50

RATIO_BOUND_AC = 1.5  # step ratios up to which the modified energy decays


@dataclass(frozen=True)
class AcProblem:
    """Grid, initial data and scheme parameters for one phase-field run.

    Density values ride with the nodes, so the friction weight (rho0')^2 / M
    per midpoint and the double well F(rho0) per node are fixed for the run.
    """

    grid: Grid1D
    model: GinzburgLandau
    rho0_mid: np.ndarray = field(init=False, repr=False)
    rho0_prime_mid: np.ndarray = field(init=False, repr=False)
    rho0_nodes: np.ndarray = field(init=False, repr=False)
    rho0_prime_nodes: np.ndarray = field(init=False, repr=False)
    mobility_mid: np.ndarray = field(init=False, repr=False)
    friction_mid: np.ndarray = field(init=False, repr=False)
    well_nodes: np.ndarray = field(init=False, repr=False)
    initial: InitialCondition1D = None
    eta: float = 0.0

    def __post_init__(self):
        if self.eta < 0.0:
            raise ValueError("eta must be nonnegative")
        mids = self.grid.midpoints
        nodes = self.grid.nodes
        rho0_mid = np.asarray(self.initial.density(mids), dtype=float)
        rho0_nodes = np.asarray(self.initial.density(nodes), dtype=float)
        mob = self.model.mobility(rho0_mid)
        check_mobility_positive(self.model.mobility, rho0_mid)
        object.__setattr__(self, "rho0_mid", rho0_mid)
        object.__setattr__(self, "rho0_nodes", rho0_nodes)
        object.__setattr__(self, "rho0_prime_mid", self.initial.derivative_on(mids, self.grid))
        object.__setattr__(self, "rho0_prime_nodes", self.initial.derivative_on(nodes, self.grid))
        object.__setattr__(self, "mobility_mid", np.asarray(mob, dtype=float))
        object.__setattr__(self, "friction_mid", self.rho0_prime_mid ** 2 / self.mobility_mid)
        object.__setattr__(self, "well_nodes", double_well(rho0_nodes))

    @property
    def eps(self) -> float:
        return self.model.eps


def _inertia_coeff(tau, r):
    """BDF2 inertia coefficient (2r+1)/(2 tau (r+1)); backward Euler's 1/(2 tau) at r = 0."""
    return (2.0 * r + 1.0) / (2.0 * tau * (r + 1.0))


def _history(p: AcProblem, x_prev, slope_curr):
    """Slope factor of the BDF2 history term and the midpoints of x^{n-1}."""
    slope_prev = np.diff(x_prev) / p.grid.h
    hist = slope_prev ** -0.5 + slope_curr ** -0.5
    return hist, 0.5 * (x_prev[:-1] + x_prev[1:])


def _midpoint_equation(p: AcProblem, x_prev, x_curr, x_next, tau, r):
    """Inertia, log-regularization and history terms of the scheme, per midpoint."""
    h = p.grid.h
    slope_next = np.diff(x_next) / h
    slope_curr = np.diff(x_curr) / h
    xm_next = 0.5 * (x_next[:-1] + x_next[1:])
    xm_curr = 0.5 * (x_curr[:-1] + x_curr[1:])
    w = p.friction_mid
    c1 = _inertia_coeff(tau, r)
    eq = c1 * w * (1.0 / slope_next + 1.0 / slope_curr) * (xm_next - xm_curr)

    if p.eta > 0.0:
        logdiff = np.log(node_diff(x_next, p.grid)) - np.log(node_diff(x_curr, p.grid))
        eq = eq - p.eta * tau * np.diff(logdiff) / h

    if r > 0.0:
        hist, xm_prev = _history(p, x_prev, slope_curr)
        lead = (1.0 + 0.5 / r) * slope_curr ** -0.5 - (0.5 / r) * slope_next ** -0.5
        eq = eq - (r * r) * w / (2.0 * tau * (r + 1.0)) * lead * hist * (xm_curr - xm_prev)
    return eq


def _energy_force(p: AcProblem, x):
    """Gradient of the discrete phase-field energy with respect to the nodes.

    In the interior this reproduces the averaged difference form
    (eps^2/4)(G_{j+1}^2 - G_{j-1}^2) - (F_{j+1} - F_{j-1})/2 of the pointwise
    scheme; at the two boundary-adjacent rows it is the variational pairing
    induced by the one-sided d_h used in the energy, which keeps second-order
    accuracy and makes the dissipation estimate exact.
    """
    h = p.grid.h
    dh = node_diff(x, p.grid)
    # dE/d(d_h x)_j per quadrature weight: -(eps^2/2) (rho0')^2 / dh^2 + F(rho0)
    q = -(0.5 * p.eps ** 2) * (p.rho0_prime_nodes / dh) ** 2 + p.well_nodes
    t = np.full_like(x, h)
    t[0] = t[-1] = 0.5 * h
    t = t * q
    g = np.zeros_like(x)
    g[2:] += t[1:-1] / (2.0 * h)
    g[:-2] -= t[1:-1] / (2.0 * h)
    g[1] += t[0] / h
    g[0] -= t[0] / h
    g[-1] += t[-1] / h
    g[-2] -= t[-1] / h
    return g


def ac_residual(p: AcProblem, x_prev, x_curr, x_next, tau: float, r: float) -> np.ndarray:
    """Weak-form residual at interior nodes.

    The inertia/history terms are hat-function tests of the per-midpoint
    scheme; the phase-field force enters as the analytic gradient of the
    discrete energy.
    """
    x_next = np.asarray(x_next)
    if np.any(np.diff(x_next) <= 0.0):
        raise AdmissibilityError("candidate trajectory is not strictly increasing")
    eq = _midpoint_equation(p, np.asarray(x_prev), np.asarray(x_curr), x_next, tau, r)
    force = _energy_force(p, x_next)
    return 0.5 * p.grid.h * (eq[:-1] + eq[1:]) + force[1:-1]


def _banded_jacobian(p, x_prev, x_curr, x_next, tau, r):
    """Jacobian of ``ac_residual`` in x_next, in ``solve_banded((2, 2), ...)`` layout.

    Midpoint equation c depends on x_next only through its end nodes c and
    c + 1.  With ``left``/``right`` its derivatives in them (times h/2), row k
    gets left_{k-1}, right_{k-1} + left_k and right_k in columns k-1, k, k+1.

    The energy force and the log regularization enter row k as
    Phi_{k-1} - Phi_{k+1}, where Phi_j is a function of (d_h x)_j alone and
    (d_h x)_j = c_j (x_{j+1} - x_{j-1}), with c_j = 1/(2h) inside and the
    one-sided 1/h at the two ends.  With sigma_j = c_j dPhi_j/d(d_h x)_j, row k
    gets sigma_{k-1} + sigma_{k+1} on the diagonal and -sigma_{k-1},
    -sigma_{k+1} in columns k-2, k+2.
    """
    h = p.grid.h
    slope_next = np.diff(x_next) / h
    slope_curr = np.diff(x_curr) / h
    xm_next = 0.5 * (x_next[:-1] + x_next[1:])
    xm_curr = 0.5 * (x_curr[:-1] + x_curr[1:])
    w = p.friction_mid

    c1 = _inertia_coeff(tau, r)
    # the midpoint term of eq_c is even in its end nodes, the slope term odd
    even = 0.5 * c1 * w * (1.0 / slope_next + 1.0 / slope_curr)
    odd = -c1 * w * (xm_next - xm_curr) / (h * slope_next ** 2)
    if r > 0.0:
        hist, xm_prev = _history(p, x_prev, slope_curr)
        # only the slope_next**-0.5 part of ``lead`` depends on x_next
        odd = odd - r / (8.0 * tau * (r + 1.0)) * w * hist * (xm_curr - xm_prev) \
            * slope_next ** -1.5 / h
    half = 0.5 * h
    left = half * (even - odd)
    right = half * (even + odd)

    dh = node_diff(x_next, p.grid)
    # dPhi_j/d(d_h x)_j; c_j times the quadrature weight of node j is 1/2
    dphi = 0.5 * p.eps ** 2 * p.rho0_prime_nodes ** 2 / dh ** 3
    if p.eta > 0.0:
        dphi = dphi + 0.5 * p.eta * tau / dh
    c = np.full_like(dh, 0.5 / h)
    c[0] = c[-1] = 1.0 / h
    sigma = c * dphi

    n = p.grid.m_x - 1
    ab = np.zeros((5, n))
    ab[0, 2:] = -sigma[2:-2]
    ab[1, 1:] = right[1:-1]
    ab[2] = right[:-1] + left[1:] + sigma[:-2] + sigma[2:]
    ab[3, :-1] = left[1:-1]
    ab[4, :-2] = -sigma[2:-2]
    return ab


def _residual_floor(p: AcProblem, x_curr, tau, r):
    """Rounding floor of the residual: eps times the largest assembled term.

    Extreme step ratios make the inertia/history coefficients huge, so the
    convergence tolerance cannot sit below what cancellation leaves behind.
    """
    h = p.grid.h
    w = p.friction_mid
    slope = np.diff(x_curr) / h
    xmag = max(1.0, np.max(np.abs(x_curr)))
    mag = _inertia_coeff(tau, r) * np.max(w) * 2.0 / slope.min() * xmag
    if r > 0.0:
        c3 = r * r / (2.0 * tau * (r + 1.0)) * (1.0 + 1.0 / r) * 2.0 / slope.min()
        mag += c3 * np.max(w) * xmag
    return 64.0 * np.finfo(float).eps * 0.5 * h * mag


def _solve_step(p: AcProblem, x_prev, x_curr, tau, r):
    """Newton solve of the step equations from x_curr (see ``newton``)."""
    def residual(x):
        return ac_residual(p, x_prev, x_curr, x, tau, r)

    def linearize(x):
        ab = _banded_jacobian(p, x_prev, x_curr, x, tau, r)
        return (lambda rhs, shift: solve_banded((2, 2), ab, rhs)), (lambda: 0.0)

    tol = max(NEWTON_TOL, _residual_floor(p, x_curr, tau, r))
    # one unshifted solve: a shifted Jacobian does not make ||F|| descend
    return newton_solve(x_curr, residual, linearize, free=slice(1, -1), tol=tol,
                        stall_tol=1e2 * tol, max_iter=NEWTON_MAX_ITER, max_backtracks=40,
                        step_bound=fraction_to_boundary, shift_tries=1)


def ac_step(p: AcProblem, traj: Trajectory1D, tau_next: float):
    """Advance one BDF2 step; returns the new trajectory and the transported density."""
    if tau_next <= 0.0:
        raise ValueError("tau_next must be positive")
    r = tau_next / traj.tau_prev
    x_new = _solve_step(p, traj.prev, traj.curr, tau_next, r)
    new_traj = Trajectory1D(traj.curr, x_new, tau_next, traj.time + tau_next,
                            traj.step_index + 1, p.grid, pinned=True)
    return new_traj, DensityField1D(p.rho0_mid.copy(), p.grid)


def ac_first_step(p: AcProblem, tau1: float) -> Trajectory1D:
    """Backward-Euler startup: the BDF2 step from the history at rest."""
    return ac_step(p, Trajectory1D.at_rest(p.grid), tau1)[0]


def ac_energy(p: AcProblem, x) -> float:
    return ac_discrete_energy(x, p.rho0_nodes, p.rho0_prime_nodes, p.grid, p.eps)


def ac_modified_energy(p: AcProblem, x_prev, x_curr, tau: float,
                       r_max: float = RATIO_BOUND_AC) -> float:
    """Lyapunov value E_h plus the ratio-weighted inertia of the last step."""
    slope_curr = np.diff(x_curr) / p.grid.h
    slope_prev = np.diff(x_prev) / p.grid.h
    if np.any(slope_curr <= 0.0) or np.any(slope_prev <= 0.0):
        raise AdmissibilityError("trajectories must be admissible")
    dxm = 0.5 * ((x_curr[:-1] + x_curr[1:]) - (x_prev[:-1] + x_prev[1:]))
    inertia = inner_product("midpoint", p.friction_mid * (1.0 / slope_curr + 1.0 / slope_prev)
                            * dxm, dxm, p.grid)
    return ac_energy(p, x_curr) + r_max / (2.0 * tau * (r_max + 1.0)) * inertia
