"""2D conservative solvers: linear explicit scheme and implicit minimization.

Both schemes advance the node map (x, y) under the variable-step BDF2
difference D_2 and recover the density from the central-difference
deformation determinant; the first step, from the history at rest, has
r = 0 and is backward Euler.  The explicit scheme freezes the energy gradient
at the ratio-extrapolated configuration (1+r) x^n - r x^{n-1}, leaving two
decoupled symmetric positive definite systems that share one matrix; the
implicit scheme minimizes the step functional

    J(x) = E_{h,2}(x) + (1+2r)/(2 tau (1+r)) sum rho0 |x - xhat|^2 hx hy
         + (viscosity quadratic)

with the shared damped-Newton core (``newton``), whose backtracking halves
any trial with a non-positive determinant, warm started from the explicit
output whenever that does not increase J.  It stops at the core's
rounding-level rule, with row sums |H| + inertia + sigma |-Lap_h|.

The explicit step factors its matrix E = diag(c rho0) + s (-Lap_h) once,
and the factors serve both the x and the y right-hand side.  The Newton
matrix of the implicit step is hx hy (E on each component) + H, with the
same c = 2 coeff and s, H the scaled Hessian of the energy.  The implicit
step takes the LU of E-bar, E at (coeff, s) rounded to 21 significant bits
(``_quantized``), from a one-entry memo keyed by the problem (by identity)
and the rounded pair, and makes it only on a miss: with the adaptive
controller near tau_max, consecutive steps differ in tau by about 1e-8, so
one LU serves many steps.  Its warm start solves the exact E by one step of
iterative refinement on that LU (Higham, Accuracy and Stability of
Numerical Algorithms, ch. 12), and an unshifted Newton system is solved by
conjugate gradients preconditioned with it on each component (the
Newton-Krylov practice of Knoll & Keyes, J. Comput. Phys. 193:357, 2004).
CG solves each system only as far as Newton's stopping rule can see
(inexact Newton: Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19:400,
1982; Eisenstat & Walker, SIAM J. Sci. Comput. 17:16, 1996): it stops once
its recursive residual has ||b - K u|| < max(CG_RTOL ||b||, CG_ATOL), with
CG_RTOL = 1e-14 and CG_ATOL = NEWTON_TOL / 100.  The gradient at the next
iterate is -(b - K u) + O(|u|^2), so the linear error adds at most a
hundredth of the tolerance to any row Newton tests; on the porous-medium
presets Newton takes as many iterations as with CG run to CG_RTOL alone.
A system that CG leaves unsolved after CG_MAX_ITER iterations, or with
non-finite values, is factored instead, as is every shifted system the
Newton core tries.

Both D = diag(2 coeff rho0) and K = L_aa - G (see below) are positive
semidefinite, and the rounding moves coeff and s by at most 2^-21
relative, so -2^-21 E <= E - E-bar <= 2^-21 E in the Loewner order, and
one refinement step leaves a relative error of about 2^-42 in E's energy
norm whatever E's condition number.  The memo's LU is a function of the
rounded pair alone, so a step served from the memo has the bits of one
that makes the LU, and the state a history carries has the bits of a fresh
evaluation (see below): a step's bits depend on its inputs alone.  The
explicit scheme does not use the memo.

Both matrices are symmetric, so one sparse LU in SuperLU's symmetric mode
does the work of a Cholesky factorization.  Its pivots prefer the diagonal
down to a tenth of the column's largest entry, which keeps indefinite
Newton matrices accurate (diagonal pivots alone lost three digits on one of
condition number 2.8e3).

Compactly supported data leave most interior nodes massless, and there both
matrices are only the viscosity: sigma (-Lap_h), with sigma = s for the
explicit matrix and s hx hy for the Newton Hessian (per component).  Call
an interior node active if it or one of its four interior neighbours
carries mass, and the rest F.  ``_CondensedSolver`` removes F from every
solve: -Lap_h restricted to F is factored once per grid and mass mask, with
the interface term G = L_af L_ff^{-1} L_fa (nonzero only on the active
nodes that touch F), and each solve works only on the Schur complement
A_aa - sigma G on the active unknowns, then recovers F by back
substitution; CG runs on that system too.  A mask without massless nodes has no F and no G
and goes through the same routine.  A Newton shift is added on the active
unknowns only; for s > 0 the block sigma L_ff is positive definite, so the
full system is positive definite exactly when the shifted Schur complement
is.  With s = 0 the massless nodes are undetermined, and the solve raises
SolverError.

The structure of that Schur complement is fixed per grid, mass mask and
component count (one for the explicit matrix, two for the Newton Hessian),
so ``_plan`` works it out once, from the structure alone: the union of the
diagonal, -Lap_h, G and the Hessian's pattern, a minimum-degree order of it
(George & Liu), and where each term lands in the data vector of the
permuted CSC matrix.  A step only writes its values there, and a direct
solve factors them in that order.  The Hessian itself
(``models.discrete_energy_hess_2d``) stores only the entries that a node
with mass touches, and those all lie in the active block.

The artificial viscosity supports the two scalings that appear in
practice: eps * tau applied to the increment x^{n+1} - x^n (the scheme
statement) and eps * tau^2 applied to x^{n+1} itself (the form the
experiments use); the latter is the default for experiment presets.

A non-positive determinant of either the extrapolated or the computed
configuration raises AdmissibilityError so the step controller can reject
the step and halve.

Every map a step evaluates gets one deformation state (``_Deformation``),
built once: the four central differences, det (checked positive), s =
rho0/det and, once computed, E_h, which the ``models`` energy, gradient and
Hessian take as their ``state``.  The explicit step's extrapolated
configuration has one for its determinant check and its gradient.  In the
implicit step the Newton core builds the state of each trial once, from
views of the stacked iterate (``_stacked`` is its ``prepare``), and hands it
to the objective, gradient and Hessian there; the warm start's state and J,
or those of x^n, go to Newton as its first iterate's.  The accepted map's
state rides on the history the step returns (``Trajectory2D.deformation``,
through ``Trajectory2D._after_step``): its s is the density's interior, the
bits of ``recover_density_2d``, its det gives the record's mass, and its E_h
is the record's energy and the E_h(x^n) of the next step's J(x^n).  The
implicit step's state of x^n rides along as ``prev_deformation``, so the
first step's record reads the energy at rest from it.  Every value keeps
the operation order of a fresh evaluation, so the bits do not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .errors import AdmissibilityError, NewtonError, SolverError
from .grids import (DensityField2D, Grid2D, Trajectory2D, carried_state, embed_interior,
                    jacobian_det_interior)
from .models import (EnergyModel, KellerSegel2D, deformation_energy_grad_2d,
                     deformation_state_2d, discrete_energy_2d, discrete_energy_hess_2d,
                     hess_2d_structure, ks2d_interaction_force, mass_mask)
from .newton import newton_solve
from .wgf1d import extrapolate_hat

__all__ = ["Wgf2dProblem", "VISC_TAU_INCREMENT", "VISC_TAU_SQ_ABSOLUTE",
           "wgf2d_step_explicit", "wgf2d_step_implicit",
           "wgf2d_first_step_explicit", "wgf2d_first_step_implicit",
           "recover_density_2d", "wgf2d_energy", "wgf2d_augmented_energy",
           "RATIO_BOUND_2D"]

VISC_TAU_INCREMENT = "tau-increment"
VISC_TAU_SQ_ABSOLUTE = "tau-sq-absolute"

RATIO_BOUND_2D = 1.25

NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 60
# CG on an unshifted Newton system stops at ||b - K u|| < max(CG_RTOL ||b||,
# CG_ATOL), a hundredth of what Newton's stopping rule can see; one that has
# not got there after CG_MAX_ITER iterations is factored instead
CG_RTOL = 1e-14
CG_ATOL = 1e-2 * NEWTON_TOL
CG_MAX_ITER = 50


@dataclass(frozen=True)
class Wgf2dProblem:
    grid: Grid2D
    model: EnergyModel
    rho0: np.ndarray
    eps_visc: float = 0.0
    visc_scaling: str = VISC_TAU_SQ_ABSOLUTE

    def __post_init__(self):
        rho0 = np.ascontiguousarray(self.rho0, dtype=float)
        if rho0.shape != self.grid.node_shape:
            raise ValueError(f"rho0 must have node shape {self.grid.node_shape}")
        if not np.isfinite(rho0).all():
            raise ValueError("rho0 must be finite")
        if np.any(rho0 < 0.0):
            raise ValueError("rho0 must be nonnegative")
        if self.eps_visc < 0.0:
            raise ValueError("eps_visc must be nonnegative")
        if self.visc_scaling not in (VISC_TAU_INCREMENT, VISC_TAU_SQ_ABSOLUTE):
            raise ValueError(f"unknown viscosity scaling {self.visc_scaling!r}")
        rho0.flags.writeable = False
        object.__setattr__(self, "rho0", rho0)

    def visc_strength(self, tau: float) -> float:
        if self.visc_scaling == VISC_TAU_INCREMENT:
            return self.eps_visc * tau
        return self.eps_visc * tau * tau


@dataclass(slots=True)
class _Deformation:
    """Deformation state of one node map (x, y) of ``p``: the central
    differences, det (checked positive) and s = rho0 / det at the interior
    nodes, and E_h there once computed.  x and y do not change while the
    state is in use."""

    p: Wgf2dProblem
    x: np.ndarray
    y: np.ndarray
    stencil: tuple
    det: np.ndarray
    s: np.ndarray
    energy: float | None = None

    @property
    def state(self) -> tuple:
        """(stencil, det, s): the ``state`` the 2D ``models`` functions take."""
        return self.stencil, self.det, self.s


def _deformation(p: Wgf2dProblem, x, y,
                 failure: str = "non-positive deformation determinant") -> _Deformation:
    """The deformation state of the map (x, y) (``deformation_state_2d``); a
    non-positive determinant raises AdmissibilityError(failure)."""
    return _Deformation(p, x, y, *deformation_state_2d(x, y, p.rho0, p.grid, failure))


def _stacked(p: Wgf2dProblem, z) -> _Deformation:
    """The deformation state of the stacked map z = [x; y], made from views
    of z: the implicit step's ``prepare``."""
    half = z.size // 2
    return _deformation(p, z[:half].reshape(p.grid.node_shape),
                        z[half:].reshape(p.grid.node_shape))


def _current(p: Wgf2dProblem, traj: Trajectory2D) -> _Deformation:
    """x^n's deformation state: the one ``traj`` carries from a step of ``p``,
    or else computed."""
    known = carried_state(traj.deformation, p)
    return _deformation(p, traj.curr_x, traj.curr_y) if known is None else known


def _energy(m: _Deformation) -> float:
    """E_h at the map of ``m``, computed at most once."""
    if m.energy is None:
        p = m.p
        m.energy = discrete_energy_2d(p.model, m.x, m.y, p.rho0, p.grid, m.state)
    return m.energy


def _after_step(p: Wgf2dProblem, traj: Trajectory2D, new: _Deformation, tau: float,
                curr: _Deformation | None = None):
    """The history and density after a step of length tau from ``traj`` to
    the map of ``new``, which the history carries, with ``curr``, the step's
    state of x^n, if it read one; the density's interior is new.s, the bits
    of ``recover_density_2d``."""
    values = np.array(p.rho0)
    values[1:-1, 1:-1] = new.s
    return (Trajectory2D._after_step(traj, new.x, new.y, tau, new, curr),
            DensityField2D._checked_by_caller(values, p.grid))


def _neg_lap_interior(u, grid: Grid2D):
    # 5-point -Laplacian of a full node field, evaluated at interior nodes
    hx2 = grid.h_x ** 2
    hy2 = grid.h_y ** 2
    return (-(u[1:-1, 2:] - 2.0 * u[1:-1, 1:-1] + u[1:-1, :-2]) / hx2
            - (u[2:, 1:-1] - 2.0 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / hy2)


def _scheme_gradient(p: Wgf2dProblem, x, y, deformation: _Deformation | None = None):
    """delta E~ / delta x per node: deformation force plus any interaction
    force; ``deformation`` is the state of (x, y) when the caller has it."""
    state = None if deformation is None else deformation.state
    gx, gy = deformation_energy_grad_2d(p.model, x, y, p.rho0, p.grid, state)
    if isinstance(p.model, KellerSegel2D):
        fx, fy = ks2d_interaction_force(p.model, x, y, p.rho0, p.grid)
        gx = gx + fx
        gy = gy + fy
        gx[0, :] = gx[-1, :] = 0.0
        gx[:, 0] = gx[:, -1] = 0.0
        gy[0, :] = gy[-1, :] = 0.0
        gy[:, 0] = gy[:, -1] = 0.0
    return gx, gy


_LU_OPTIONS = dict(diag_pivot_thresh=0.1, options=dict(SymmetricMode=True))


def _factor(mat: sps.csc_matrix):
    """Sparse LU of a symmetric matrix, with a minimum-degree order on
    A^T + A and threshold pivots that prefer the diagonal."""
    return spla.splu(mat, permc_spec="MMD_AT_PLUS_A", **_LU_OPTIONS)


@lru_cache(maxsize=8)
def _neg_lap_cached(nx: int, ny: int, h_x: float, h_y: float) -> sps.csr_matrix:
    """5-point -Laplacian on the interior nodes (Dirichlet ring), built once per grid."""
    ex = np.ones(nx)
    ey = np.ones(ny)
    lx = sps.diags([2.0 * ex, -ex[:-1], -ex[:-1]], [0, 1, -1]) / h_x ** 2
    ly = sps.diags([2.0 * ey, -ey[:-1], -ey[:-1]], [0, 1, -1]) / h_y ** 2
    lap = (sps.kron(sps.eye(ny), lx) + sps.kron(ly, sps.eye(nx))).tocsr()
    for arr in (lap.data, lap.indices, lap.indptr):
        arr.flags.writeable = False
    return lap


@lru_cache(maxsize=8)
def _newton_grid_cached(nx: int, ny: int, h_x: float, h_y: float):
    """The grid's constants of the implicit Newton solve over the stacked map
    [x; y], built once per grid: sum_j |(-Lap_h)_ij| on the interior nodes of
    both components, and the flat indices of those nodes, the free unknowns.
    The arrays are read-only."""
    size = (ny + 2) * (nx + 2)
    interior = np.arange(size).reshape(ny + 2, nx + 2)[1:-1, 1:-1].ravel()
    lap_rows = np.tile(_abs_row_sums(_neg_lap_cached(nx, ny, h_x, h_y)), 2)
    free = np.concatenate([interior, size + interior])
    lap_rows.flags.writeable = free.flags.writeable = False
    return lap_rows, free


@dataclass(frozen=True)
class _Condensation:
    """-Lap_h on the interior split into active nodes and the massless rest F."""
    active: np.ndarray          # flat interior indices, ascending
    inactive: np.ndarray        # F, flat interior indices, ascending
    lap_af: sps.csr_matrix      # -Lap_h, rows active, columns F
    lap_fa: sps.csr_matrix      # its transpose
    solve_ff: object            # solve function of the LU of -Lap_h on F (None if F is empty)
    g: sps.csc_matrix           # L_af L_ff^{-1} L_fa on the active nodes


@lru_cache(maxsize=8)
def _condensation_cached(nx: int, ny: int, h_x: float, h_y: float,
                         mask) -> _Condensation:
    if mask is None:
        massive = np.ones((ny, nx), dtype=bool)
    else:
        massive = np.frombuffer(mask, dtype=bool).reshape(ny, nx)
    active = massive.copy()
    active[1:, :] |= massive[:-1, :]
    active[:-1, :] |= massive[1:, :]
    active[:, 1:] |= massive[:, :-1]
    active[:, :-1] |= massive[:, 1:]
    a = np.flatnonzero(active)
    f = np.flatnonzero(~active)
    lap = _neg_lap_cached(nx, ny, h_x, h_y)
    lap_af = lap[a][:, f]
    lap_fa = lap_af.T.tocsr()
    solve_ff = None
    g = sps.csc_matrix((a.size, a.size))
    if f.size:
        solve_ff = _factor(lap[f][:, f].tocsc()).solve
        # only the active nodes next to F see the interface term
        edge = np.flatnonzero(lap_af.getnnz(axis=1))
        if edge.size:
            block = lap_af[edge] @ solve_ff(lap_fa[:, edge].toarray())
            block = 0.5 * (block + block.T)
            rows, cols = np.meshgrid(edge, edge, indexing="ij")
            g = sps.csc_matrix((block.ravel(), (rows.ravel(), cols.ravel())),
                               shape=(a.size, a.size))
    cond = _Condensation(a, f, lap_af, lap_fa, solve_ff, g)
    for arr in (a, f, lap_af.data, lap_af.indices, lap_af.indptr, lap_fa.data,
                lap_fa.indices, lap_fa.indptr, g.data, g.indices, g.indptr):
        arr.flags.writeable = False
    return cond


@dataclass(frozen=True)
class _Plan:
    """The fixed structure of the condensed system of one grid, mass mask and
    component count.  Its unknowns are the active nodes of each component in
    turn (``cond.active`` ascending in each); ``order`` is a minimum-degree
    order of them, ``indptr``/``indices`` the CSC pattern of the matrix
    permuted by it, and the rest the positions in that pattern's data vector
    where each term's values go."""
    cond: _Condensation
    order: np.ndarray       # condensed unknown at each position of the permuted system
    indptr: np.ndarray
    indices: np.ndarray
    diag: np.ndarray        # data position of each unknown's diagonal entry
    lap: np.ndarray         # data positions of -Lap_h on the active block, per component
    lap_values: np.ndarray
    g: np.ndarray           # data positions of the interface term G, per component
    g_values: np.ndarray
    hess: np.ndarray        # data position of each stored entry of the mass-masked
                            # Hessian; empty for one component
    hess_indptr: np.ndarray     # the Hessian's CSR pattern (``models.hess_2d_structure``)
    hess_indices: np.ndarray    # that ``hess`` was built from; empty for one component


def _plan(grid: Grid2D, rho0, ncomp: int) -> _Plan:
    return _plan_cached(grid.m_x - 1, grid.m_y - 1, grid.h_x, grid.h_y, mass_mask(rho0),
                        ncomp)


@lru_cache(maxsize=8)
def _plan_cached(nx: int, ny: int, h_x: float, h_y: float, mask, ncomp: int) -> _Plan:
    """Build the plan from the structure alone: the pattern is the union of
    the diagonal, -Lap_h and G on every component's active block and, for two
    components, the Hessian's pattern, whatever values a step stores there.

    The order is the one SuperLU's minimum-degree ordering on A^T + A (with
    its elimination-tree postorder) picks for this pattern, read off one
    incomplete factorization of a diagonally dominant matrix with it.  The
    arrays are read-only.
    """
    cond = _condensation_cached(nx, ny, h_x, h_y, mask)
    n = nx * ny
    a = cond.active
    size = ncomp * a.size
    lap = _neg_lap_cached(nx, ny, h_x, h_y)[a][:, a].tocoo()
    g = cond.g.tocoo()

    def per_component(m):
        # (row, column) of an active-block matrix on every component's diagonal block
        shift = np.repeat(np.arange(ncomp) * a.size, m.nnz)
        return np.tile(m.row, ncomp) + shift, np.tile(m.col, ncomp) + shift

    terms = [(np.arange(size), np.arange(size)), per_component(lap), per_component(g)]
    hess_indptr = hess_indices = np.empty(0, dtype=np.intc)
    if ncomp == 2:
        hess_indptr, hess_indices = hess_2d_structure(ny, nx, mask)
        where = np.full(2 * n, -1)
        where[np.concatenate([a, a + n])] = np.arange(size)
        rows = np.repeat(np.arange(2 * n), np.diff(hess_indptr))
        terms.append((where[rows], where[hess_indices]))
    # one key per stored entry, column-major as CSC stores them
    keys = [col * size + row for row, col in terms]
    pattern = np.sort(np.concatenate(keys))
    pattern = pattern[np.diff(pattern, prepend=-1) > 0]
    col, row = np.divmod(pattern, size)
    count = np.bincount(col, minlength=size)
    perm = np.empty(0, dtype=np.intp)  # perm[i]: position of unknown i in the order
    if size:
        dominant = np.where(row == col, count[col].astype(float), -1.0)
        indptr = np.concatenate([[0], np.cumsum(count)])
        # an incomplete factorization that drops every fill entry runs the same
        # ordering and postorder as ``_factor`` without holding full factors
        perm = spla.spilu(sps.csc_matrix((dominant, row, indptr), shape=(size, size)),
                          drop_tol=1.0, fill_factor=1.0, permc_spec="MMD_AT_PLUS_A",
                          **_LU_OPTIONS).perm_c.astype(np.intp)
    order = np.argsort(perm)
    # the permuted entries in CSC order, and where each entry of ``pattern`` went;
    # the keys reach size^2, past int32 from about 46,341 unknowns
    storage = np.argsort(perm[col] * size + perm[row])
    position = np.empty_like(storage)
    position[storage] = np.arange(storage.size)
    at = [position[np.searchsorted(pattern, k)] for k in keys]
    plan = _Plan(cond, order,
                 indptr=np.concatenate([[0], np.cumsum(count[order])]).astype(np.intc),
                 indices=perm[row][storage].astype(np.intc),
                 diag=at[0], lap=at[1], lap_values=np.tile(lap.data, ncomp),
                 g=at[2], g_values=np.tile(g.data, ncomp),
                 hess=at[3] if ncomp == 2 else np.empty(0, dtype=np.intp),
                 hess_indptr=hess_indptr, hess_indices=hess_indices)
    for value in vars(plan).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return plan


class _CondensedSolver:
    """The interior system

        H + diag(inertia) + sigma (-Lap_h) on each component,

    plus a shift on the active unknowns, with the massless nodes F condensed
    out; calling ``solver(rhs, shift)`` solves it.  ``inertia`` holds one
    value per interior node of each component, zero on F.  ``hess`` is None
    for the one-component explicit matrix, or the scaled mass-masked Hessian
    H of both components as ``models.discrete_energy_hess_2d`` returns it,
    which must be stored in the pattern of ``models.hess_2d_structure``.
    ``rhs`` is a vector or has one column per right-hand side.

    The values are written into the plan's data vector in the order of the
    sums (H + (inertia + sigma (-Lap_h))) - sigma G.  An unshifted solve
    with a one-component ``preconditioner`` (the explicit solver of the
    step's memo) runs preconditioned CG on the condensed system.  An
    explicit solver whose ``near`` is set (to the memo's solver, whose
    matrix is within a factor 1 +- 2^-21 of this one) solves its unshifted
    system by one step of iterative refinement on near's LU (``_refined``).
    Every other solve, and one whose CG fails, factors the matrix (plus the
    shift) in the plan's order.  The explicit matrix is SPD; a Newton
    Hessian that is not fails with a RuntimeError or non-finite solutions,
    which the Newton core answers with a shift.
    """

    def __init__(self, grid: Grid2D, rho0, inertia, sigma: float, hess=None,
                 preconditioner=None):
        ncomp = 1 if hess is None else 2
        plan = _plan(grid, rho0, ncomp)
        if plan.cond.inactive.size and sigma <= 0.0:
            raise SolverError("linear system is singular (zero mass and zero viscosity)")
        n = (grid.m_x - 1) * (grid.m_y - 1)
        a = plan.cond.active
        data = np.zeros(plan.indices.size)
        data[plan.lap] = plan.lap_values * sigma
        data[plan.diag] += inertia.reshape(ncomp, n)[:, a].ravel()
        if hess is not None:
            if not (np.array_equal(hess.indptr, plan.hess_indptr)
                    and np.array_equal(hess.indices, plan.hess_indices)):
                raise ValueError("Hessian is not stored in the pattern of "
                                 "models.hess_2d_structure")
            data[plan.hess] += hess.data
        data[plan.g] -= sigma * plan.g_values
        self.plan, self.ncomp, self.n, self.sigma = plan, ncomp, n, sigma
        self.size = ncomp * a.size
        self.data = data
        self.preconditioner = preconditioner
        self.near = None
        self.cg_failed = False
        self._lu = None

    def _matrix(self, shift=0.0) -> sps.csc_matrix:
        """The condensed matrix plus ``shift``, permuted to the plan's order."""
        values = self.data
        if shift != 0.0:
            values = values.copy()
            values[self.plan.diag] += shift
        return sps.csc_matrix((values, self.plan.indices, self.plan.indptr),
                              shape=(self.size, self.size))

    def factor(self, shift=0.0):
        """The solve function of the LU of the permuted condensed matrix; the
        unshifted one is made once, or is ``_refined`` if ``near`` is set (not
        kept: a bound method held by its own instance would be a reference
        cycle, which leaves near's LU to the cyclic collector)."""
        if shift != 0.0:
            return spla.splu(self._matrix(shift), permc_spec="NATURAL", **_LU_OPTIONS).solve
        if self.near is not None:
            return self._refined
        if self._lu is None:
            self._lu = spla.splu(self._matrix(), permc_spec="NATURAL", **_LU_OPTIONS).solve
        return self._lu

    def _refined(self, u):
        """x = LU(u), then x += LU(u - A x), with near's LU of A-bar and this
        solver's exact matrix A on the same plan: about 2^-42 of relative
        error is left in A's energy norm (see the module docstring)."""
        solve = self.near.factor()
        x = solve(u)
        return x + solve(u - self._matrix() @ x)

    def _cg(self, b):
        """Preconditioned CG on the permuted condensed system for one
        right-hand side, or None when it stops short of its target: a
        recursive residual below max(CG_RTOL ||b||, CG_ATOL).  The result is
        not an exact solve; the residual it leaves is below what Newton's
        stopping rule can see.  Back substitution solves the massless rows
        to rounding, so this is also the residual of the full interior
        system.

        The preconditioner is the explicit matrix E on each component: the
        Newton matrix is hx hy (E on each component) + H, and CG does not see
        the constant factor.  ``at[p, k]`` is the position, in this plan's
        order, of component k's unknown at position p of E's plan order.
        """
        pre = self.preconditioner
        na = pre.size
        position = np.empty(self.size, dtype=np.intp)
        position[self.plan.order] = np.arange(self.size)
        at = position[pre.plan.order[:, None] + na * np.arange(2)]
        solve_e = pre.factor()

        def apply(r):
            z = np.empty_like(r)
            z[at] = solve_e(r[at])
            return z

        m = spla.LinearOperator((self.size, self.size), matvec=apply, dtype=float)
        u, info = spla.cg(self._matrix(), b, M=m, rtol=CG_RTOL, atol=CG_ATOL,
                          maxiter=CG_MAX_ITER)
        # scipy's cg reports success after no iteration at all when maxiter is 0
        if info != 0 or CG_MAX_ITER < 1 or not np.all(np.isfinite(u)):
            return None
        return u

    def _solve_condensed(self, u, shift):
        """Solve the permuted condensed system for the columns of ``u``."""
        if shift == 0.0 and self.preconditioner is not None:
            cols = [self._cg(col) for col in u.T]
            if all(col is not None for col in cols):
                return np.column_stack(cols)
            self.cg_failed = True
        return self.factor(shift)(u)

    def __call__(self, rhs, shift=0.0):
        plan, ncomp, n, size = self.plan, self.ncomp, self.n, self.size
        cond = plan.cond
        a, f = cond.active, cond.inactive
        b = rhs.reshape(ncomp, n, -1)
        k = b.shape[2]

        def by_node(u, rows):
            # (ncomp, rows, k) -> (rows, ncomp k): one column per component and rhs
            return u.transpose(1, 0, 2).reshape(rows, ncomp * k)

        def by_component(u, rows):
            return u.reshape(rows, ncomp, k).transpose(1, 0, 2)

        b_a = b[:, a, :]
        if f.size:
            b_f = by_node(b[:, f, :], f.size)
            b_a = b_a - by_component(cond.lap_af @ cond.solve_ff(b_f), a.size)
        u_a = b_a.reshape(size, k)
        if size:
            u_a[plan.order] = self._solve_condensed(u_a[plan.order], shift)
        u_a = u_a.reshape(ncomp, a.size, k)
        out = np.empty_like(b)
        out[:, a, :] = u_a
        if f.size:
            u_f = cond.solve_ff(b_f / self.sigma - cond.lap_fa @ by_node(u_a, a.size))
            out[:, f, :] = by_component(u_f, f.size)
        return out.reshape(rhs.shape)


def _explicit_solver(p: Wgf2dProblem, cmass, s, near=None) -> _CondensedSolver:
    """The explicit matrix diag(cmass) + s (-Lap_h) on the interior; with
    ``near``, an explicit solver of ``p`` at coefficients within 2^-21, it
    solves by one refinement step on near's LU and makes no LU of its own."""
    grid = p.grid
    coeff = cmass[1:-1, 1:-1].ravel()
    if np.any(coeff + s * (2.0 / grid.h_x ** 2 + 2.0 / grid.h_y ** 2) <= 0.0):
        raise SolverError("linear system is singular (zero mass and zero viscosity)")
    solver = _CondensedSolver(grid, p.rho0, coeff, s)
    solver.near = near
    return solver


def _quantized(v: float) -> float:
    """v rounded to 21 significant bits, to nearest with ties to even:
    relative error at most 2^-21, monotone, 0 stays 0, and rounding twice
    is rounding once."""
    m, e = np.frexp(v)
    return float(np.ldexp(np.round(m * 2.0 ** 21), e - 21))


# (problem, quantized (coeff, s), explicit solver at those coefficients) of
# the last implicit step; one tuple, so a reader never sees a key with
# another key's solver
_explicit_memo = None


def _memo_explicit_solver(p: Wgf2dProblem, coeff: float, s: float) -> _CondensedSolver:
    """The explicit solver of the implicit step's matrix diag(2 coeff rho0) +
    s (-Lap_h) at (coeff, s) rounded by ``_quantized``, kept for the next
    step with the same problem and rounded coefficients; its LU is made
    lazily, once.  The problem is compared by identity: the memo holds it, so
    its id is not reused while the entry lives."""
    global _explicit_memo
    key = (_quantized(coeff), _quantized(s))
    memo = _explicit_memo
    if memo is not None and memo[0] is p and memo[1] == key:
        return memo[2]
    solver = _explicit_solver(p, 2.0 * key[0] * p.rho0, key[1])
    _explicit_memo = (p, key, solver)
    return solver


def _explicit_solve(p: Wgf2dProblem, x_curr, y_curr, rhs_x, rhs_y, solver: _CondensedSolver):
    """Solve the explicit system for [dx dy] = [rhs_x rhs_y] on the interior
    with one factorization, and add the increments to the current map."""
    grid = p.grid
    try:
        sol = solver(np.column_stack([rhs_x.ravel(), rhs_y.ravel()]))
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise SolverError("linear solve produced non-finite values")
    x_new = x_curr + embed_interior(sol[:, 0].reshape(rhs_x.shape), grid)
    y_new = y_curr + embed_interior(sol[:, 1].reshape(rhs_y.shape), grid)
    return x_new, y_new


def _explicit_maps(p: Wgf2dProblem, traj: Trajectory2D, tau_next: float,
                   solver: _CondensedSolver) -> _Deformation:
    """The deformation state of the explicit step's new node map, solved with
    ``solver``, the step's explicit matrix.  The energy gradient is taken at
    the extrapolated configuration, from the state that also checks its
    determinant; a non-positive determinant of that or of the new map raises
    AdmissibilityError."""
    r = tau_next / traj.tau_prev
    x_star = (1.0 + r) * traj.curr_x - r * traj.prev_x
    y_star = (1.0 + r) * traj.curr_y - r * traj.prev_y
    star = _deformation(p, x_star, y_star,
                        "extrapolated configuration has a non-positive determinant")
    gx, gy = _scheme_gradient(p, x_star, y_star, star)
    s = p.visc_strength(tau_next)
    hist = r * r / (tau_next * (1.0 + r))
    rhs_x = (p.rho0 * hist * (traj.curr_x - traj.prev_x))[1:-1, 1:-1] - gx[1:-1, 1:-1]
    rhs_y = (p.rho0 * hist * (traj.curr_y - traj.prev_y))[1:-1, 1:-1] - gy[1:-1, 1:-1]
    if p.visc_scaling == VISC_TAU_SQ_ABSOLUTE:
        rhs_x = rhs_x - s * _neg_lap_interior(traj.curr_x, p.grid)
        rhs_y = rhs_y - s * _neg_lap_interior(traj.curr_y, p.grid)
    x_new, y_new = _explicit_solve(p, traj.curr_x, traj.curr_y, rhs_x, rhs_y, solver)
    x_new.flags.writeable = y_new.flags.writeable = False  # they hold the state
    return _deformation(p, x_new, y_new, "explicit step produced a non-positive determinant")


def wgf2d_step_explicit(p: Wgf2dProblem, traj: Trajectory2D, tau_next: float):
    """Linear scheme with the energy gradient at the extrapolated configuration.

    The new history and the density come from the new map's checked
    deformation state, which the history carries (``_after_step``).
    """
    if tau_next <= 0.0:
        raise ValueError("tau_next must be positive")
    r = tau_next / traj.tau_prev
    c = (1.0 + 2.0 * r) / (tau_next * (1.0 + r))
    solver = _explicit_solver(p, c * p.rho0, p.visc_strength(tau_next))
    return _after_step(p, traj, _explicit_maps(p, traj, tau_next, solver), tau_next)


def wgf2d_first_step_explicit(p: Wgf2dProblem, tau1: float):
    """First-order linear startup with the gradient at the reference map:
    the explicit step from the history at rest."""
    return wgf2d_step_explicit(p, Trajectory2D.at_rest(p.grid), tau1)


# --- implicit minimization --------------------------------------------------

def _objective_2d(p: Wgf2dProblem, x, y, x_hat, y_hat, x_ref, y_ref, coeff, s,
                  deformation: _Deformation | None = None):
    """J at the map (x, y); x_ref is None for the absolute viscosity (see
    ``_visc_ref``), and ``deformation``, the state of (x, y) when the caller
    has it, supplies E_h there and keeps it."""
    area = p.grid.h_x * p.grid.h_y
    if deformation is None:
        val = discrete_energy_2d(p.model, x, y, p.rho0, p.grid)
    else:
        val = _energy(deformation)
    val += coeff * float(np.sum(p.rho0 * ((x - x_hat) ** 2 + (y - y_hat) ** 2))) * area
    if s > 0.0:
        for d in ((x, y) if x_ref is None else (x - x_ref, y - y_ref)):
            gx = np.diff(d, axis=1) / p.grid.h_x
            gy = np.diff(d, axis=0) / p.grid.h_y
            val += 0.5 * s * (float(np.sum(gx * gx)) + float(np.sum(gy * gy))) * area
    return val


def _gradient_2d(p: Wgf2dProblem, m: _Deformation, x_hat, y_hat, x_ref, y_ref, coeff, s):
    """The interior gradient of J at the map of ``m`` (the other arguments as
    in ``_objective_2d``)."""
    area = p.grid.h_x * p.grid.h_y
    x, y = m.x, m.y
    gx, gy = deformation_energy_grad_2d(p.model, x, y, p.rho0, p.grid, m.state)
    gx = gx * area
    gy = gy * area
    gx += 2.0 * coeff * p.rho0 * (x - x_hat) * area
    gy += 2.0 * coeff * p.rho0 * (y - y_hat) * area
    if s > 0.0:
        dx, dy = (x, y) if x_ref is None else (x - x_ref, y - y_ref)
        gx[1:-1, 1:-1] += s * _neg_lap_interior(dx, p.grid) * area
        gy[1:-1, 1:-1] += s * _neg_lap_interior(dy, p.grid) * area
    return gx[1:-1, 1:-1].ravel(), gy[1:-1, 1:-1].ravel()


def _abs_row_sums(mat: sps.csr_matrix) -> np.ndarray:
    """sum_j |M_ij| of a CSR matrix, from its stored entries."""
    starts = mat.indptr[:-1]
    filled = starts < mat.indptr[1:]
    rows = np.zeros(mat.shape[0])
    rows[filled] = np.add.reduceat(np.abs(mat.data), starts[filled])
    return rows


def _visc_ref(p: Wgf2dProblem, x, y):
    """Map the implicit viscosity is measured from: x^n, or None for the
    absolute form, which measures x itself (x - 0 is x, bit for bit)."""
    if p.visc_scaling == VISC_TAU_INCREMENT:
        return x, y
    return None, None


def _implicit_solve(p: Wgf2dProblem, start: _Deformation, j_start, j_ref, x_hat, y_hat,
                    x_ref, y_ref, coeff, s, preconditioner=None) -> _Deformation:
    """Newton minimization (see ``newton``) of the step functional from the
    map of ``start``, its deformation state, where J is ``j_start``, no
    higher than ``j_ref``, its value at x^n; returns the accepted iterate's
    deformation state.  The iterate stacks the full x and y node arrays; the
    interior nodes of both are the unknowns, and its state is ``_stacked``'s.
    ``preconditioner`` is the explicit solver of the step's memo, whose
    matrix is diag(2 coeff rho0) + s (-Lap_h) at (coeff, s) rounded to 21
    significant bits; its LU preconditions CG on the unshifted Newton
    systems until CG fails on one.  Without it every Newton system is
    factored."""
    if j_start > j_ref + 1e-12 * abs(j_ref):
        raise NewtonError("warm start above the feasibility cap")
    grid = p.grid
    area = grid.h_x * grid.h_y
    inertia = np.tile((2.0 * coeff * p.rho0[1:-1, 1:-1] * area).ravel(), 2)
    lap_rows, free = _newton_grid_cached(grid.m_x - 1, grid.m_y - 1, grid.h_x, grid.h_y)

    def prepare(z):
        return _stacked(p, z)

    def objective(z, m):
        return _objective_2d(p, m.x, m.y, x_hat, y_hat, x_ref, y_ref, coeff, s, m)

    def gradient(z, m):
        return np.concatenate(_gradient_2d(p, m, x_hat, y_hat, x_ref, y_ref, coeff, s))

    # the row sums of |inertia + sigma (-Lap_h)|, per component
    fixed_rows = inertia + s * area * lap_rows

    solver = None

    def linearize(z, m):
        nonlocal preconditioner, solver
        if solver is not None and solver.cg_failed:
            # CG failed on one of the step's Newton systems: factor the rest
            preconditioner = None
        hess = discrete_energy_hess_2d(p.model, m.x, m.y, p.rho0, grid, m.state) * area
        solver = _CondensedSolver(grid, p.rho0, inertia, s * area, hess, preconditioner)
        return solver, lambda: 1e-8, _abs_row_sums(hess) + fixed_rows

    z = np.concatenate([start.x.ravel(), start.y.ravel()])
    _, new = newton_solve(z, gradient, linearize, prepare=prepare, state=start,
                          objective=objective, value=j_start, free=free, tol=NEWTON_TOL,
                          stall_tol=1e3 * NEWTON_TOL, max_iter=NEWTON_MAX_ITER,
                          max_backtracks=50, row_sums=fixed_rows)
    return new


def wgf2d_step_implicit(p: Wgf2dProblem, traj: Trajectory2D, tau_next: float):
    """Minimize the step functional over maps with positive determinant.

    J(x^n) takes E_h(x^n) from the state ``traj`` carries, and the chosen
    start hands its state and J to Newton.  The new history and the density
    come from the accepted iterate's state, which the history carries.
    """
    if tau_next <= 0.0:
        raise ValueError("tau_next must be positive")
    if isinstance(p.model, KellerSegel2D):
        # its gradient and Newton matrix hold no interaction term
        raise ValueError("the implicit 2D step does not support Keller-Segel models")
    r = tau_next / traj.tau_prev
    x_hat = extrapolate_hat(traj.curr_x, traj.prev_x, r)
    y_hat = extrapolate_hat(traj.curr_y, traj.prev_y, r)
    coeff = (1.0 + 2.0 * r) / (2.0 * tau_next * (1.0 + r))
    s = p.visc_strength(tau_next)
    x_ref, y_ref = _visc_ref(p, traj.curr_x, traj.curr_y)
    curr = _current(p, traj)
    j_at_curr = _objective_2d(p, curr.x, curr.y, x_hat, y_hat, x_ref, y_ref, coeff, s, curr)
    # warm start from the explicit output when it does not increase J: the
    # exact explicit system, solved by one refinement step on the memo's LU,
    # which also preconditions the Newton systems
    start, j0 = curr, j_at_curr
    cached = None
    try:
        cached = _memo_explicit_solver(p, coeff, s)
        explicit = _explicit_solver(p, 2.0 * coeff * p.rho0, s, cached)
        warm = _explicit_maps(p, traj, tau_next, explicit)
        jw = _objective_2d(p, warm.x, warm.y, x_hat, y_hat, x_ref, y_ref, coeff, s, warm)
        if jw <= j_at_curr:
            start, j0 = warm, jw
    except (SolverError, AdmissibilityError):
        pass
    new = _implicit_solve(p, start, j0, j_at_curr, x_hat, y_hat, x_ref, y_ref, coeff, s,
                          cached)
    return _after_step(p, traj, new, tau_next, curr)


def wgf2d_first_step_implicit(p: Wgf2dProblem, tau1: float):
    """First-order implicit startup (inertia 1/(2 tau), no extrapolation):
    the implicit step from the history at rest."""
    return wgf2d_step_implicit(p, Trajectory2D.at_rest(p.grid), tau1)


def recover_density_2d(x, y, rho0, grid: Grid2D) -> DensityField2D:
    """rho = rho0 / det at interior nodes; the pinned boundary keeps rho0."""
    det = jacobian_det_interior(x, y, grid)
    if not (det > 0.0).all():
        raise AdmissibilityError("non-positive determinant in density recovery")
    values = np.array(rho0, dtype=float)
    values[1:-1, 1:-1] = rho0[1:-1, 1:-1] / det
    return DensityField2D(values, grid)


def wgf2d_energy(p: Wgf2dProblem, x, y, deformation=None) -> float:
    """E_h of the map (x, y); the E_h ``deformation`` holds, computed there at
    most once, if it is x's deformation state from a step of ``p``
    (``Trajectory2D.deformation``)."""
    known = carried_state(deformation, p)
    if known is None:
        return discrete_energy_2d(p.model, x, y, p.rho0, p.grid)
    return _energy(known)


def wgf2d_augmented_energy(p: Wgf2dProblem, traj: Trajectory2D,
                           r_max: float = RATIO_BOUND_2D) -> float:
    """E_{h,2} plus the cubic-ratio-weighted inertia of the last increment."""
    dx = traj.curr_x - traj.prev_x
    dy = traj.curr_y - traj.prev_y
    inertia = float(np.sum(p.rho0 * (dx * dx + dy * dy))) * p.grid.h_x * p.grid.h_y
    weight = r_max ** 3 / (traj.tau_prev * (1.0 + r_max) * (1.0 + 2.0 * r_max))
    return wgf2d_energy(p, traj.curr_x, traj.curr_y, traj.deformation) + weight * inertia
