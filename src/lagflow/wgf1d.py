"""Adaptive BDF2 solver for 1D conservative flows via per-step minimization.

Each step minimizes

    J(x) = (1+2r)/(2 tau (1+r)) (rho0, |x - xhat|^2)_h
         + E_h(x) + (tau/2) (|D_h(x - x^n)|^2, 1)_h

over strictly increasing trajectories, where xhat is the ratio-weighted
extrapolation of the two history levels (the first step, from the history
at rest, has r = 0: xhat = x^0 and backward Euler).  The density is then
recovered by pushforward, which conserves mass identically.  The shared
damped-Newton core (``newton``) does the minimization with the analytic
tridiagonal Hessian; its fraction-to-the-boundary rule
(``newton.cell_fraction_to_boundary``, shared with ``allen_cahn``) keeps
every cell at least 10% of the currently narrowest one, and backtracking
only ever accepts objective decreases (up to the core's rounding
allowance).  It stops at the core's rounding-level rule, with the row sums
of the tridiagonal |H|.

The terms of J that do not depend on the iterate (xhat's midpoints, the
cell inertia weights, the viscosity reference and the constant part of the
Hessian) are built once per step.  The cell state of an iterate (widths and
the narrowest of them, which is the admissibility check, densities,
midpoint offsets from xhat and increments) is computed once and shared by
its objective, gradient, Hessian, |H| row sums and fraction-to-the-boundary
bound, and E_h and J there are computed at most once: the Newton core
builds it once per trial (``_cells`` is its ``prepare``) and hands it to the
callbacks at that iterate, and ``_start`` hands it the start's, with J
there.  The accepted iterate's state rides on the trajectory the step
returns, as its ``cells``; its widths give the recovered density
rho0 / (w / h), the bits of ``pushforward_density_1d``, with no second scan
of the nodes, and the next step of the same problem builds x^n's state from
it: the carried widths, densities and E_h with that step's midpoint offsets
and increments.  For porous-medium and Fokker-Planck runs it also holds the
E_h(x^{n+1}) inside J: the energy the step record reports and the E_h(x^n)
of the next step's J(x^n), bit for bit E_h evaluated afresh.  A Keller-Segel
state holds no energy: J's has the lagged interaction partner, a different
number from the reported self-consistent energy.  The step's state of x^n
rides on as the trajectory's ``prev_cells``, from which the first step's
record reads the energy at rest.  The cell masses rho0 h are the problem's,
built once.

Newton starts from the linear predictor x^n + r (x^n - x^{n-1}) when it is
admissible and J there is no larger than J(x^n), and from x^n otherwise.
Since backtracking only lowers J, J(x^{n+1}) <= J(start) <= J(x^n) for any
step ratio, which is exactly the property the discrete energy estimate
needs.  Keller-Segel steps always start from x^n: the lagged interaction
makes J nonconvex, so the start chooses among local minima, and on
``ks-blowup-1d`` at mx = 400 the predictor reached a higher one and brought
the collapse forward.  The porous-medium and Fokker-Planck objectives are
convex (for a convex potential), so there the start changes the cost of a
step, not its result.

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

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .banded import solve_banded
from .errors import AdmissibilityError
# pushforward_density_1d stays importable here: perfbench/tracer.py patches it by name
from .grids import (DensityField1D, Grid1D, Trajectory1D, carried_state,  # noqa: F401
                    cell_widths, inner_product, pushforward_density_1d)
from .models import (EnergyModel, KellerSegel1D, KsPartner1D, discrete_energy_1d,
                     discrete_energy_grad_1d, discrete_energy_hess_1d)
from .newton import cell_fraction_to_boundary, newton_solve

__all__ = ["Wgf1dProblem", "extrapolate_hat", "wgf1d_step", "wgf1d_first_step",
           "wgf1d_augmented_energy", "wgf1d_energy", "RATIO_BOUND_1D"]

NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 60

RATIO_BOUND_1D = 0.5 * (3.0 + np.sqrt(17.0))


@dataclass(frozen=True)
class Wgf1dProblem:
    """Grid, model, initial cell densities and scheme settings of one
    conservative 1D run; ``masses`` are the cell masses rho0 h."""

    grid: Grid1D
    model: EnergyModel
    rho0: np.ndarray
    visc_weight: float = 1.0
    pinned: bool = True
    masses: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rho0 = np.ascontiguousarray(self.rho0, dtype=float)
        if rho0.shape != (self.grid.m_x,):
            raise ValueError(f"rho0 must be a midpoint field of length {self.grid.m_x}")
        if not np.isfinite(rho0).all():
            raise ValueError("rho0 must be finite")
        if np.any(rho0 <= 0.0):
            raise ValueError("conservative runs need strictly positive cell densities")
        rho0.flags.writeable = False
        object.__setattr__(self, "rho0", rho0)
        masses = rho0 * self.grid.h
        masses.flags.writeable = False
        object.__setattr__(self, "masses", masses)

    def lag_state(self, x):
        """Partner data (positions, cell densities) for the lagged interaction."""
        if isinstance(self.model, KellerSegel1D):
            return np.asarray(x), self.masses / np.diff(x)
        return None, None


def extrapolate_hat(x_curr, x_prev, r: float) -> np.ndarray:
    """xhat = ((1+r)^2 x^n - r^2 x^{n-1}) / (1+2r)."""
    x_curr = np.asarray(x_curr)
    x_prev = np.asarray(x_prev)
    return ((1.0 + r) ** 2 * x_curr - r * r * x_prev) / (1.0 + 2.0 * r)


@dataclass(slots=True)
class _Cells:
    """Cell state of one iterate of a step of ``p``, and the E_h term of J
    there once computed."""

    p: Wgf1dProblem
    widths: np.ndarray
    min_width: float
    s: np.ndarray        # rho0 h / widths
    offset: np.ndarray   # midpoints minus xhat's midpoints
    incr: np.ndarray     # widths of x - x_visc_ref
    energy: float | None = None


class _StepTerms:
    """The step objective's constants (xhat's midpoints, the inertia and
    viscosity weights and the lagged interaction partner), built once per
    step.  Every term keeps the operation order of the textbook formulas, so
    a run gives the same bits as evaluating them afresh."""

    def __init__(self, p: Wgf1dProblem, x_hat, x_visc_ref, lag_x, lag_rho, coeff, tau):
        h = p.grid.h
        self.p = p
        self.partner = None if lag_x is None else KsPartner1D(lag_x, lag_rho)
        self.coeff = coeff
        self.x_visc_ref = x_visc_ref
        self.masses = p.masses
        self.hat_mid = 0.5 * (x_hat[:-1] + x_hat[1:])
        self.inertia_w = coeff * h * p.rho0
        self.inertia_curv = 0.5 * coeff * h * p.rho0
        self.visc_half = 0.5 * p.visc_weight * tau / h
        self.visc_w = p.visc_weight * tau / h


def _cells(t: _StepTerms, x, known: _Cells | None = None) -> _Cells:
    """The cell state of the node array x in the step of ``t``, after the
    admissibility check; ``known``, x's state from the step that accepted
    it, supplies the widths, densities and E_h."""
    if known is None:
        widths, min_width = cell_widths(x)
        s = t.masses / widths
        energy = None
    else:
        widths, min_width, s, energy = known.widths, known.min_width, known.s, known.energy
    offset = x[:-1] + x[1:]
    offset *= 0.5
    offset -= t.hat_mid
    moved = x - t.x_visc_ref
    return _Cells(t.p, widths, min_width, s, offset, moved[1:] - moved[:-1], energy)


def _bdf2_terms(p: Wgf1dProblem, traj: Trajectory1D, tau: float) -> _StepTerms:
    r = tau / traj.tau_prev
    x_hat = extrapolate_hat(traj.curr, traj.prev, r)
    coeff = (1.0 + 2.0 * r) / (2.0 * tau * (1.0 + r))
    lag_x, lag_rho = p.lag_state(traj.curr)
    return _StepTerms(p, x_hat, traj.curr, lag_x, lag_rho, coeff, tau)


def _objective(t: _StepTerms, x, cells: _Cells | None = None):
    """(J at x, x's cell state), the state keeping the E_h computed here.
    The state is built when not given, so at a node array that is not
    strictly increasing J is an AdmissibilityError."""
    c = _cells(t, x) if cells is None else cells
    p = t.p
    inertia = t.coeff * float(p.grid.h * np.dot(p.rho0 * c.offset, c.offset))
    visc = t.visc_half * float(np.dot(c.incr, c.incr))
    if c.energy is None:
        c.energy = discrete_energy_1d(p.model, x, p.rho0, p.grid, cells=(c.widths, c.s),
                                      partner=t.partner)
    return inertia + visc + c.energy, c


def _gradient(t: _StepTerms, x, cells: _Cells | None = None) -> np.ndarray:
    c = _cells(t, x) if cells is None else cells
    p = t.p
    cell = t.inertia_w * c.offset
    visc = t.visc_w * c.incr
    # node j gets ((cell_j + cell_{j-1}) - visc_j) + visc_{j-1}, an end node
    # the terms of its one cell, then dE_h/dx_j: the order of adding them one
    # at a time into zeros (0 + v is v, up to the sign of a zero), in three
    # passes over the interior
    g = np.empty(x.shape)
    inner = g[1:-1]
    np.add(cell[1:], cell[:-1], out=inner)
    inner -= visc[1:]
    inner += visc[:-1]
    g[0] = cell[0] - visc[0]
    g[-1] = cell[-1] + visc[-1]
    g += discrete_energy_grad_1d(p.model, x, p.rho0, p.grid, pinned=False,
                                 cells=(c.widths, c.s), partner=t.partner)
    return g


def _hessian_tridiag(t: _StepTerms, x, cells: _Cells | None = None):
    c = _cells(t, x) if cells is None else cells
    p = t.p
    diag, off = discrete_energy_hess_1d(p.model, x, p.rho0, p.grid, cells=(c.widths, c.s),
                                        partner=t.partner)
    # both arrays are fresh, so they are updated in place
    diag[:-1] += t.inertia_curv
    diag[1:] += t.inertia_curv
    off += t.inertia_curv
    diag[:-1] += t.visc_w
    diag[1:] += t.visc_w
    off -= t.visc_w
    return diag, off


def _eigen_shift(d, o) -> float:
    """First diagonal shift for the symmetric tridiagonal (diagonal d,
    off-diagonal o): the floor max(1e-8, 1e-8 max|d|) if its smallest
    eigenvalue lam is nonnegative, else -lam + max(floor, |lam|/10), which
    leaves the shifted matrix positive definite."""
    floor = max(1e-8, np.abs(d).max() * 1e-8)
    lam = eigvalsh_tridiagonal(d, o, select="i", select_range=(0, 0))[0]
    return floor if lam >= 0.0 else -lam + max(floor, -0.1 * lam)


def _start(t: _StepTerms, x_curr, curr: _Cells, x_pred):
    """(start, its cell state, J there): x_pred if it is admissible and
    J(x_pred) <= J(x_curr), else x_curr, whose cell state is ``curr``."""
    j_curr, _ = _objective(t, x_curr, curr)
    try:
        j_pred, pred = _objective(t, x_pred)
    except AdmissibilityError:
        return x_curr, curr, j_curr
    if j_pred <= j_curr:
        return x_pred, pred, j_pred
    return x_curr, curr, j_curr


def _minimize(t: _StepTerms, x_start, start: _Cells, j_start=None):
    """Newton minimization of the step objective from x_start (see
    ``newton``), whose cell state is ``start`` and J ``j_start`` if the
    caller has it; returns the minimizer and its cell state."""
    free = slice(1, -1) if t.p.pinned else slice(None)

    def prepare(x):
        return _cells(t, x)

    def objective(x, c):
        return _objective(t, x, c)[0]

    def gradient(x, c):
        return _gradient(t, x, c)[free]

    def linearize(x, c):
        diag, off = _hessian_tridiag(t, x, c)
        rows = np.abs(diag)
        coupling = np.abs(off)
        rows[:-1] += coupling
        rows[1:] += coupling
        d = diag[free]
        o = off[free]

        def solve(rhs, shift):
            # a fresh band per shift, so LAPACK's dgtsv (``banded``) may factor it in place
            ab = np.empty((3, d.shape[0]))
            ab[0, 0] = ab[2, -1] = 0.0
            ab[0, 1:] = o
            np.add(d, shift, out=ab[1])
            ab[2, :-1] = o
            return solve_banded((1, 1), ab, rhs, overwrite_ab=True)
        return solve, lambda: _eigen_shift(d, o), rows[free]

    return newton_solve(x_start, gradient, linearize, prepare=prepare, state=start,
                        objective=objective, value=j_start, free=free, tol=NEWTON_TOL,
                        stall_tol=1e2 * NEWTON_TOL, max_iter=NEWTON_MAX_ITER, max_backtracks=50,
                        step_bound=cell_fraction_to_boundary)


def wgf1d_step(p: Wgf1dProblem, traj: Trajectory1D, tau_next: float):
    """One adaptive BDF2 step; returns the new trajectory and recovered density.

    Both are built from the accepted iterate's checked cell state: the
    trajectory takes its widths and carries it, and the density is
    pushforward_density_1d's rho0 / (D_h x) from them, bit for bit.
    """
    if tau_next <= 0.0:
        raise ValueError("tau_next must be positive")
    t = _bdf2_terms(p, traj, tau_next)
    curr = _cells(t, traj.curr, carried_state(traj.cells, p))
    if isinstance(p.model, KellerSegel1D):
        # nonconvex J: the start would choose the local minimum
        x_new, c = _minimize(t, traj.curr, curr)
        # J's E_h, with the lagged partner, is not the reported one
        c.energy = curr.energy = None
    else:
        r = tau_next / traj.tau_prev
        x_pred = traj.curr + r * (traj.curr - traj.prev)
        x_new, c = _minimize(t, *_start(t, traj.curr, curr, x_pred))
    new_traj = Trajectory1D._after_step(traj, x_new, tau_next, c, curr)
    density = DensityField1D._checked_by_caller(p.rho0 / (c.widths / p.grid.h), p.grid)
    return new_traj, density


def wgf1d_first_step(p: Wgf1dProblem, tau1: float):
    """First-order startup: the BDF2 step from the history at rest."""
    return wgf1d_step(p, Trajectory1D.at_rest(p.grid, p.pinned), tau1)


def wgf1d_energy(p: Wgf1dProblem, x, cells=None) -> float:
    """Reported discrete energy of a state (self-consistent interaction); the
    E_h ``cells`` holds if it is x's cell state from a step of ``p``."""
    known = carried_state(cells, p)
    if known is not None and known.energy is not None:
        return known.energy
    return discrete_energy_1d(p.model, np.asarray(x, dtype=float), p.rho0, p.grid)


def wgf1d_augmented_energy(p: Wgf1dProblem, x_prev, x_curr, tau: float,
                           r_max: float = RATIO_BOUND_1D) -> float:
    """E_h plus the ratio-weighted inertia of the last increment."""
    dx = np.asarray(x_curr) - np.asarray(x_prev)
    dxm = 0.5 * (dx[:-1] + dx[1:])
    inertia = inner_product("midpoint", p.rho0 * dxm, dxm, p.grid)
    return wgf1d_energy(p, x_curr) + r_max / (2.0 * tau * (1.0 + r_max)) * inertia
