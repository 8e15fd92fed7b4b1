"""Adaptive BDF2 solver for the 1D phase-field trajectory equation.

The unknown is the node trajectory; density values never change (they are
transported with the nodes), which is what makes the maximum bound
principle exact.  They are phase values, so they may be negative (the
double well has its minima at -1 and 1); they only have to be finite.  The
per-midpoint equation combines

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
the three centre bands, and the log regularization and the energy force act
through d_h x at node j, which couples nodes j-1 and j+1 and so adds the two
outer bands.  The solve stops at the core's rounding-level rule, with the row
sums of |J| over the five bands.  The first step is the step from the
history at rest, where r = 0 makes it backward Euler.

Newton starts from the BDF2 predictor when r > 0 and every cell of it has
positive width, and from x^n otherwise.  The predictor is the usual start for
an implicit multistep corrector (Hairer, Norsett & Wanner, *Solving ODEs I*,
sec. III.7; the DASSL predictor of Brenan, Campbell & Petzold): the
extrapolation polynomial through the last three levels, x^{n-2}, x^{n-1} and
x^n, which the trajectory holds after its second step (``before``), and the
linear predictor x^n + r (x^n - x^{n-1}) through the last two before that.
Unlike ``wgf1d``, whose energy estimate needs J(start) <= J(x^n), there is no
test of the residual at the start: the maximum bound principle holds for any
admissible iterate and the modified-energy estimate is a property of the
step's solution, so the start moves that solution only within Newton's
tolerance and changes how many iterations reach it (on ``ac-interface``,
722 against 1,217 from the linear predictor and 1,629 from x^n).

The cell state of an iterate (its widths, with the admissibility check and
the narrowest width, slopes and their reciprocals, midpoints, d_h x, with
the log regularization log d_h x, and, once a history term needs it,
(D_h x)^{-1/2}) is computed once and shared by its residual, its Jacobian
and the fraction-to-the-boundary bound (``newton.cell_fraction_to_boundary``,
the rule ``wgf1d`` uses too): the Newton core builds it once per trial
(``_cells`` is its ``prepare``) and hands it to the callbacks at that
iterate, and ``_start`` builds the start's.  The accepted iterate's state
rides on the trajectory the step returns, as its ``cells``: the step
record's energy reads its d_h x, and the next step of the same problem reads
x^n's slopes, midpoints, (D_h x^n)^{-1/2} and log d_h x^n from it, so that
step's first residual, at x^n, builds nothing.  That step hands the state on
as its trajectory's ``prev_cells``, from which the step after reads
x^{n-1}'s (D_h x)^{-1/2} and midpoints, so the history weights take no power
and no difference of their own, and the first step's record reads the
energy at rest from it.  The terms that depend only on (x^{n-1}, x^n, tau,
r) (the inertia and history weights) are built once per step, and those
that depend only on the problem (the end weights of d_h, the force's
quadrature weights and the constant factor of its Jacobian) once per
problem.  Every term keeps the operation order of the textbook formula, so a
run has the same bits as evaluating each term afresh.  The banded solve goes straight to LAPACK (``banded``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .banded import solve_banded
from .errors import AdmissibilityError
from .grids import (DensityField1D, Grid1D, Trajectory1D, carried_state, cell_widths,
                    inner_product, node_diff)
from .initial import InitialCondition1D
from .models import GinzburgLandau, ac_discrete_energy, check_mobility_positive, double_well
from .newton import cell_fraction_to_boundary, newton_solve

__all__ = ["AcProblem", "ac_residual", "ac_step", "ac_first_step", "ac_modified_energy",
           "ac_energy", "RATIO_BOUND_AC"]

NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 50

RATIO_BOUND_AC = 1.5  # step ratios up to which the modified energy decays


@dataclass(frozen=True)
class AcProblem:
    """Grid, initial data and scheme parameters for one phase-field run.

    Density values ride with the nodes, so the density field every step
    returns, the friction weight (rho0')^2 / M per midpoint and the double
    well F(rho0) per node are fixed for the run, and so are the end weights
    c_j of d_h, the force's quadrature weights and the numerator of its
    Jacobian.
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
    end_weights: np.ndarray = field(init=False, repr=False)
    quad_weights: np.ndarray = field(init=False, repr=False)
    dphi_num: np.ndarray = field(init=False, repr=False)
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
        h = self.grid.h
        # c_j of (d_h x)_j = c_j (x_{j+1} - x_{j-1}): 1/(2h) inside, one-sided 1/h at the ends
        c = np.full(self.grid.m_x + 1, 0.5 / h)
        c[0] = c[-1] = 1.0 / h
        object.__setattr__(self, "end_weights", c)
        # the node quadrature's weights: h inside, h/2 at the ends
        weights = np.full(self.grid.m_x + 1, h)
        weights[0] = weights[-1] = 0.5 * h
        object.__setattr__(self, "quad_weights", weights)
        # the numerator of dPhi_j/d(d_h x)_j
        object.__setattr__(self, "dphi_num", 0.5 * self.eps ** 2 * self.rho0_prime_nodes ** 2)

    @property
    def eps(self) -> float:
        return self.model.eps

    @cached_property
    def density(self) -> DensityField1D:
        """The transported density, which every step returns; built by the
        first step, which is where non-finite values are refused.  Phase
        values may be negative (the double well has its minima at -1 and 1)."""
        if not np.isfinite(self.rho0_mid).all():
            raise ValueError("phase-field values must be finite")
        return DensityField1D._checked_by_caller(self.rho0_mid.copy(), self.grid)


def _inertia_coeff(tau, r):
    """BDF2 inertia coefficient (2r+1)/(2 tau (r+1)); backward Euler's 1/(2 tau) at r = 0."""
    return (2.0 * r + 1.0) / (2.0 * tau * (r + 1.0))


@dataclass(slots=True)
class _Cells:
    """Cell state of one iterate of a step of ``p``, shared by everything
    evaluated there."""

    p: AcProblem
    widths: np.ndarray
    min_width: float
    slope: np.ndarray      # D_h x = widths / h
    inv_slope: np.ndarray  # 1 / slope
    xm: np.ndarray         # midpoints
    dhx: np.ndarray        # d_h x at every node
    log_dhx: np.ndarray | None  # log d_h x, with the log regularization only
    rsqrt: np.ndarray | None = None  # slope ** -0.5 once a history term needed it


def _rsqrt(c: _Cells) -> np.ndarray:
    """(D_h x)^(-1/2) of the cell state c, computed once."""
    if c.rsqrt is None:
        c.rsqrt = c.slope ** -0.5
    return c.rsqrt


def _cells(p: AcProblem, x) -> _Cells:
    """The cell state of the node array x, after the admissibility check."""
    widths, min_width = cell_widths(x)
    slope = widths / p.grid.h
    dhx = node_diff(x, p.grid)
    return _Cells(p, widths, min_width, slope, 1.0 / slope, 0.5 * (x[:-1] + x[1:]), dhx,
                  np.log(dhx) if p.eta > 0.0 else None)


class _StepTerms:
    """The step equations' terms that depend only on (x^{n-1}, x^n, tau, r),
    and x^n's cell state ``curr``.

    Built once per step, so a residual or Jacobian evaluation does only the
    work that depends on the iterate.  ``curr`` and ``prev`` are the cell
    states of x^n and x^{n-1} that the history carries, if given, else built
    here (x^{n-1}'s only when r > 0, where the history term reads its slopes
    and midpoints).  Each precomputed product is a leading factor of the
    expression it came from (``c1 * w`` of ``c1 * w * (...)``), so every term
    keeps its evaluation order and the bits of evaluating the textbook
    formulas afresh.
    """

    def __init__(self, p: AcProblem, x_prev, x_curr, tau, r, curr: _Cells | None = None,
                 prev: _Cells | None = None):
        w = p.friction_mid
        c1 = _inertia_coeff(tau, r)
        self.p = p
        self.tau = tau
        self.r = r
        if curr is None:
            curr = _cells(p, np.asarray(x_curr))
        self.curr = curr
        self.inv_slope_curr = curr.inv_slope
        self.xm_curr = curr.xm
        self.c1w = c1 * w
        self.half_c1w = 0.5 * c1 * w
        self.neg_c1w = -c1 * w
        if r > 0.0:
            if prev is None:
                prev = _cells(p, np.asarray(x_prev))
            rsqrt_curr = _rsqrt(curr)
            self.hist = _rsqrt(prev) + rsqrt_curr
            self.dxm = self.xm_curr - prev.xm
            # ``lead`` of the history term is lead_curr - (0.5/r) slope_next**-0.5
            self.lead_curr = (1.0 + 0.5 / r) * rsqrt_curr
            self.hist_w = (r * r) * w / (2.0 * tau * (r + 1.0))
            self.jac_hist = r / (8.0 * tau * (r + 1.0)) * w * self.hist * self.dxm
        self.log_dh_curr = curr.log_dhx


def _midpoint_equation(t: _StepTerms, c: _Cells):
    """Inertia, log-regularization and history terms of the scheme at the
    iterate with cell state c, per midpoint."""
    p = t.p
    eq = t.c1w * (c.inv_slope + t.inv_slope_curr) * (c.xm - t.xm_curr)

    if p.eta > 0.0:
        logdiff = c.log_dhx - t.log_dh_curr
        eq = eq - p.eta * t.tau * np.diff(logdiff) / p.grid.h

    r = t.r
    if r > 0.0:
        lead = t.lead_curr - (0.5 / r) * _rsqrt(c)
        eq = eq - t.hist_w * lead * t.hist * t.dxm
    return eq


def _energy_force(p: AcProblem, dhx):
    """Gradient of the discrete phase-field energy with respect to the nodes,
    from the iterate's d_h x.

    In the interior this reproduces the averaged difference form
    (eps^2/4)(G_{j+1}^2 - G_{j-1}^2) - (F_{j+1} - F_{j-1})/2 of the pointwise
    scheme; at the two boundary-adjacent rows it is the variational pairing
    induced by the one-sided d_h used in the energy, which keeps second-order
    accuracy and makes the dissipation estimate exact.
    """
    h = p.grid.h
    # dE/d(d_h x)_j per quadrature weight: -(eps^2/2) (rho0')^2 / dh^2 + F(rho0)
    q = -(0.5 * p.eps ** 2) * (p.rho0_prime_nodes / dhx) ** 2 + p.well_nodes
    t = p.quad_weights * q
    inner = t[1:-1] / (2.0 * h)
    g = np.zeros(dhx.shape, dhx.dtype)
    g[2:] += inner
    g[:-2] -= inner
    g[1] += t[0] / h
    g[0] -= t[0] / h
    g[-1] += t[-1] / h
    g[-2] -= t[-1] / h
    return g


def ac_residual(p: AcProblem, x_prev, x_curr, x_next, tau: float, r: float,
                terms: _StepTerms | None = None, cells: _Cells | None = None) -> np.ndarray:
    """Weak-form residual at interior nodes.

    The inertia/history terms are hat-function tests of the per-midpoint
    scheme; the phase-field force enters as the analytic gradient of the
    discrete energy.  ``terms``, the step's constants, is built from
    (x_prev, x_curr, tau, r) when not given, and ``cells``, x_next's cell
    state, from x_next.
    """
    t = _StepTerms(p, x_prev, x_curr, tau, r) if terms is None else terms
    c = _cells(p, np.asarray(x_next)) if cells is None else cells
    eq = _midpoint_equation(t, c)
    force = _energy_force(p, c.dhx)
    return 0.5 * p.grid.h * (eq[:-1] + eq[1:]) + force[1:-1]


def _banded_jacobian(p, x_prev, x_curr, x_next, tau, r, terms=None, cells=None):
    """Jacobian of ``ac_residual`` in x_next, in ``solve_banded((2, 2), ...)`` layout.

    Midpoint equation c depends on x_next only through its end nodes c and
    c + 1.  With ``left``/``right`` its derivatives in them (times h/2), row k
    gets left_{k-1}, right_{k-1} + left_k and right_k in columns k-1, k, k+1.

    The energy force and the log regularization enter row k as
    Phi_{k-1} - Phi_{k+1}, where Phi_j is a function of (d_h x)_j alone and
    (d_h x)_j = c_j (x_{j+1} - x_{j-1}), with c_j = 1/(2h) inside and the
    one-sided 1/h at the two ends.  With sigma_j = c_j dPhi_j/d(d_h x)_j, row k
    gets sigma_{k-1} + sigma_{k+1} on the diagonal and -sigma_{k-1},
    -sigma_{k+1} in columns k-2, k+2.  ``terms`` and ``cells`` are as in
    ``ac_residual``.
    """
    t = _StepTerms(p, x_prev, x_curr, tau, r) if terms is None else terms
    c = _cells(p, np.asarray(x_next)) if cells is None else cells
    h = p.grid.h

    # the midpoint term of eq_c is even in its end nodes, the slope term odd
    even = t.half_c1w * (c.inv_slope + t.inv_slope_curr)
    odd = t.neg_c1w * (c.xm - t.xm_curr) / (h * c.slope ** 2)
    if t.r > 0.0:
        # only the slope_next**-0.5 part of ``lead`` depends on x_next
        odd = odd - t.jac_hist * c.slope ** -1.5 / h
    half = 0.5 * h
    left = half * (even - odd)
    right = half * (even + odd)

    # dPhi_j/d(d_h x)_j; c_j times the quadrature weight of node j is 1/2
    dphi = p.dphi_num / c.dhx ** 3
    if p.eta > 0.0:
        dphi = dphi + 0.5 * p.eta * t.tau / c.dhx
    sigma = p.end_weights * dphi

    n = p.grid.m_x - 1
    ab = np.zeros((5, n))
    np.negative(sigma[2:-2], out=ab[0, 2:])
    ab[1, 1:] = right[1:-1]
    ab[2] = right[:-1] + left[1:] + sigma[:-2] + sigma[2:]
    ab[3, :-1] = left[1:-1]
    ab[4, :-2] = ab[0, 2:]
    return ab


def _row_sums(ab):
    """sum_j |A_ij| of the pentadiagonal A stored in ``ab``: band k holds
    A_{i, i+2-k} in column i+2-k."""
    a = np.abs(ab)
    rows = a[2]
    rows[:-2] += a[0, 2:]
    rows[:-1] += a[1, 1:]
    rows[1:] += a[3, :-1]
    rows[2:] += a[4, :-2]
    return rows


def _start(t: _StepTerms, traj: Trajectory1D):
    """Newton's start for the step with ratio r = t.r from ``traj`` and its
    cell state: x^n at r = 0 or when the predictor folds a cell, else the
    predictor.

    The predictor is x^n + r d, d = x^n - x^{n-1}, through the last two
    levels, plus, when ``traj`` holds x^{n-2} behind a finite tau_{n-1}
    (``before``), the correction c (d - q (x^{n-1} - x^{n-2})) with
    q = tau_n / tau_{n-1} and c = r (r + 1) q / (1 + q), which makes it the
    quadratic through the last three.  Pinned end nodes, whose differences
    are 0, keep x^n's bits.
    """
    x_prev, x_curr = traj.prev, traj.curr
    r = t.r
    if r > 0.0:
        d = x_curr - x_prev
        x_pred = x_curr + r * d
        if traj.before is not None and math.isfinite(traj.before[1]):
            x_back, tau_back = traj.before
            q = traj.tau_prev / tau_back
            c = r * (r + 1.0) * q / (1.0 + q)
            x_pred = x_pred + c * (d - q * (x_prev - x_back))
        try:
            return x_pred, _cells(t.p, x_pred)
        except AdmissibilityError:
            pass
    return x_curr, t.curr


def _solve_step(t: _StepTerms, traj: Trajectory1D):
    """Newton solve of the step of ``t`` from ``traj`` from the BDF2
    predictor (``_start``; see ``newton``); returns the solution and its
    cell state."""
    p, tau, r = t.p, t.tau, t.r
    x_prev, x_curr = traj.prev, traj.curr

    def prepare(x):
        return _cells(p, x)

    def residual(x, c):
        return ac_residual(p, x_prev, x_curr, x, tau, r, terms=t, cells=c)

    def linearize(x, c):
        ab = _banded_jacobian(p, x_prev, x_curr, x, tau, r, terms=t, cells=c)
        return (lambda rhs, shift: solve_banded((2, 2), ab, rhs)), None, _row_sums(ab)

    x_start, c_start = _start(t, traj)
    return newton_solve(x_start, residual, linearize, prepare=prepare, state=c_start,
                        free=slice(1, -1), tol=NEWTON_TOL, stall_tol=1e2 * NEWTON_TOL,
                        max_iter=NEWTON_MAX_ITER, max_backtracks=40,
                        step_bound=cell_fraction_to_boundary)


def ac_step(p: AcProblem, traj: Trajectory1D, tau_next: float):
    """Advance one BDF2 step; returns the new trajectory, built from and
    carrying the solution's checked cell state and x^n's, and the
    transported density."""
    if tau_next <= 0.0:
        raise ValueError("tau_next must be positive")
    t = _StepTerms(p, traj.prev, traj.curr, tau_next, tau_next / traj.tau_prev,
                   carried_state(traj.cells, p), carried_state(traj.prev_cells, p))
    x_new, c = _solve_step(t, traj)
    return Trajectory1D._after_step(traj, x_new, tau_next, c, t.curr), p.density


def ac_first_step(p: AcProblem, tau1: float) -> Trajectory1D:
    """Backward-Euler startup: the BDF2 step from the history at rest."""
    return ac_step(p, Trajectory1D.at_rest(p.grid), tau1)[0]


def ac_energy(p: AcProblem, x, cells=None) -> float:
    """E_h of x, with the problem's F(rho0); the d_h x comes from ``cells``
    if it is x's cell state from a step of ``p`` (a trajectory's ``cells``).

    Such a d_h x needs no second scan for a non-positive entry: every entry
    is at least min_width / (2h) in floating point (rounding is monotone),
    so that one positive number proves them all positive.
    """
    known = carried_state(cells, p)
    if known is not None and not known.min_width / (2.0 * p.grid.h) > 0.0:
        known = None
    return ac_discrete_energy(np.asarray(x, dtype=float), p.rho0_nodes, p.rho0_prime_nodes,
                              p.grid, p.eps, dhx=None if known is None else known.dhx,
                              well=p.well_nodes)


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
