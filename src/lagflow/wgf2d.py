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

Every linear system is solved directly.  The explicit matrix
diag(c rho0) + s (-Lap_h) is factored once per step and the factors serve
both the x and the y right-hand side; a Newton iteration factors its
Hessian once per diagonal shift it tries.  Both matrices are symmetric, so
one sparse LU in SuperLU's symmetric mode does the work of a Cholesky
factorization.  Its pivots prefer the diagonal down to a tenth of the
column's largest entry, which keeps indefinite Newton matrices accurate
(diagonal pivots alone lost three digits on one of condition number 2.8e3).

Compactly supported data leave most interior nodes massless, and there both
matrices are only the viscosity: sigma (-Lap_h), with sigma = s for the
explicit matrix and s hx hy for the Newton Hessian (per component).  Call
an interior node active if it or one of its four interior neighbours
carries mass, and the rest F.  ``_condensed_solver`` removes F from every
solve: -Lap_h restricted to F is factored once per grid and mass mask, with
the interface term G = L_af L_ff^{-1} L_fa (nonzero only on the active nodes
that touch F), and each step factors only the Schur complement
A_aa - sigma G on the active unknowns, then recovers F by back
substitution.  A mask without massless nodes has no F and no G and goes
through the same routine.  A Newton shift is added on the active unknowns
only; for s > 0 the block sigma L_ff is positive definite, so the full
system is positive definite exactly when the shifted Schur complement is.
With s = 0 the massless nodes are undetermined, and the solve raises
SolverError.

The structure of that Schur complement is fixed per grid, mass mask and
component count (one for the explicit matrix, two for the Newton Hessian),
so ``_plan`` works it out once, from the structure alone: the union of the
diagonal, -Lap_h, G and the Hessian's pattern, a minimum-degree order of it
(George & Liu), and where each term lands in the data vector of the
permuted CSC matrix.  A step only writes its values there and factors them
in that order.  The Hessian itself (``models.discrete_energy_hess_2d``)
stores only the entries that a node with mass touches, and those all lie
in the active block.

The artificial viscosity supports the two scalings that appear in
practice: eps * tau applied to the increment x^{n+1} - x^n (the scheme
statement) and eps * tau^2 applied to x^{n+1} itself (the form the
experiments use); the latter is the default for experiment presets.

A non-positive determinant of either the extrapolated or the computed
configuration raises AdmissibilityError so the step controller can reject
the step and halve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .errors import AdmissibilityError, NewtonError, SolverError
from .grids import (DensityField2D, Grid2D, Trajectory2D, embed_interior,
                    jacobian_det_interior)
from .models import (EnergyModel, KellerSegel2D, deformation_energy_grad_2d,
                     discrete_energy_2d, discrete_energy_hess_2d, hess_2d_structure,
                     ks2d_interaction_force, mass_mask)
from .newton import newton_solve
from .wgf1d import extrapolate_hat

__all__ = ["Wgf2dProblem", "VISC_TAU_INCREMENT", "VISC_TAU_SQ_ABSOLUTE",
           "d2_operator", "wgf2d_step_explicit", "wgf2d_step_implicit",
           "wgf2d_first_step_explicit", "wgf2d_first_step_implicit",
           "recover_density_2d", "wgf2d_energy", "wgf2d_augmented_energy",
           "RATIO_BOUND_2D"]

VISC_TAU_INCREMENT = "tau-increment"
VISC_TAU_SQ_ABSOLUTE = "tau-sq-absolute"

RATIO_BOUND_2D = 1.25

NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 60


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

def d2_operator(a_next, a_curr, a_prev, tau: float, r: float):
    """Variable-step BDF2 difference ((1+2r) a^{n+1} - (1+r)^2 a^n + r^2 a^{n-1}) / (tau (1+r))."""
    a_next = np.asarray(a_next)
    a_curr = np.asarray(a_curr)
    a_prev = np.asarray(a_prev)
    return ((1.0 + 2.0 * r) * a_next - (1.0 + r) ** 2 * a_curr + r * r * a_prev) / (tau * (1.0 + r))


def _neg_lap_interior(u, grid: Grid2D):
    # 5-point -Laplacian of a full node field, evaluated at interior nodes
    hx2 = grid.h_x ** 2
    hy2 = grid.h_y ** 2
    return (-(u[1:-1, 2:] - 2.0 * u[1:-1, 1:-1] + u[1:-1, :-2]) / hx2
            - (u[2:, 1:-1] - 2.0 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / hy2)


def _scheme_gradient(p: Wgf2dProblem, x, y):
    """delta E~ / delta x per node: deformation force plus any interaction force."""
    gx, gy = deformation_energy_grad_2d(p.model, x, y, p.rho0, p.grid)
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


@dataclass(frozen=True)
class _Condensation:
    """-Lap_h on the interior split into active nodes and the massless rest F."""
    active: np.ndarray          # flat interior indices, ascending
    inactive: np.ndarray        # F, flat interior indices, ascending
    lap_af: sps.csr_matrix      # -Lap_h, rows active, columns F
    lap_fa: sps.csr_matrix      # its transpose
    solve_ff: object            # solve function of the LU of -Lap_h on F (None if F is empty)
    g: sps.csc_matrix           # L_af L_ff^{-1} L_fa on the active nodes


def _condensation(grid: Grid2D, rho0) -> _Condensation:
    return _condensation_cached(grid.m_x - 1, grid.m_y - 1, grid.h_x, grid.h_y,
                                mass_mask(rho0))


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


def _condensed_solver(grid: Grid2D, rho0, inertia, sigma: float, hess=None):
    """``solve(rhs, shift)`` for the interior system

        H + diag(inertia) + sigma (-Lap_h) on each component,

    plus ``shift`` on the active unknowns, with the massless nodes F condensed
    out.  ``inertia`` holds one value per interior node of each component,
    zero on F.  ``hess`` is None for the one-component explicit matrix, or the
    scaled mass-masked Hessian H of both components as
    ``models.discrete_energy_hess_2d`` returns it, which must be stored in
    the pattern of ``models.hess_2d_structure``.  ``rhs`` is a vector or has
    one column per right-hand side.

    The values are written into the plan's data vector in the order of the
    sums (H + (inertia + sigma (-Lap_h))) - sigma G, and each ``solve``
    factors it (plus the shift) in the plan's order.  The explicit matrix is
    SPD; a Newton Hessian that is not fails with a RuntimeError or
    non-finite solutions, which the Newton core answers with a shift.
    """
    ncomp = 1 if hess is None else 2
    plan = _plan(grid, rho0, ncomp)
    cond = plan.cond
    a, f = cond.active, cond.inactive
    n = (grid.m_x - 1) * (grid.m_y - 1)
    size = ncomp * a.size
    if f.size and sigma <= 0.0:
        raise SolverError("linear system is singular (zero mass and zero viscosity)")
    data = np.zeros(plan.indices.size)
    data[plan.lap] = plan.lap_values * sigma
    data[plan.diag] += inertia.reshape(ncomp, n)[:, a].ravel()
    if hess is not None:
        if not (np.array_equal(hess.indptr, plan.hess_indptr)
                and np.array_equal(hess.indices, plan.hess_indices)):
            raise ValueError("Hessian is not stored in the pattern of models.hess_2d_structure")
        data[plan.hess] += hess.data
    data[plan.g] -= sigma * plan.g_values

    def factor(shift):
        values = data
        if shift != 0.0:
            values = data.copy()
            values[plan.diag] += shift
        mat = sps.csc_matrix((values, plan.indices, plan.indptr), shape=(size, size))
        return spla.splu(mat, permc_spec="NATURAL", **_LU_OPTIONS).solve

    def solve(rhs, shift=0.0):
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
            u_a[plan.order] = factor(shift)(u_a[plan.order])
        u_a = u_a.reshape(ncomp, a.size, k)
        out = np.empty_like(b)
        out[:, a, :] = u_a
        if f.size:
            u_f = cond.solve_ff(b_f / sigma - cond.lap_fa @ by_node(u_a, a.size))
            out[:, f, :] = by_component(u_f, f.size)
        return out.reshape(rhs.shape)
    return solve


def _explicit_solve(p: Wgf2dProblem, x_curr, y_curr, rhs_x, rhs_y, cmass, s):
    """Solve (diag(cmass) + s (-Lap)) [dx dy] = [rhs_x rhs_y] on the interior
    with one factorization, and add the increments to the current map."""
    grid = p.grid
    coeff = cmass[1:-1, 1:-1].ravel()
    if np.any(coeff + s * (2.0 / grid.h_x ** 2 + 2.0 / grid.h_y ** 2) <= 0.0):
        raise SolverError("linear system is singular (zero mass and zero viscosity)")
    try:
        sol = _condensed_solver(grid, p.rho0, coeff, s)(
            np.column_stack([rhs_x.ravel(), rhs_y.ravel()]))
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise SolverError("linear solve produced non-finite values")
    x_new = x_curr + embed_interior(sol[:, 0].reshape(rhs_x.shape), grid)
    y_new = y_curr + embed_interior(sol[:, 1].reshape(rhs_y.shape), grid)
    det = jacobian_det_interior(x_new, y_new, grid)
    if np.any(det <= 0.0):
        raise AdmissibilityError("explicit step produced a non-positive determinant")
    return x_new, y_new


def wgf2d_step_explicit(p: Wgf2dProblem, traj: Trajectory2D, tau_next: float):
    """Linear scheme with the energy gradient at the extrapolated configuration."""
    if tau_next <= 0.0:
        raise ValueError("tau_next must be positive")
    r = tau_next / traj.tau_prev
    x_star = (1.0 + r) * traj.curr_x - r * traj.prev_x
    y_star = (1.0 + r) * traj.curr_y - r * traj.prev_y
    det_star = jacobian_det_interior(x_star, y_star, p.grid)
    if np.any(det_star <= 0.0):
        raise AdmissibilityError("extrapolated configuration has a non-positive determinant")
    gx, gy = _scheme_gradient(p, x_star, y_star)
    s = p.visc_strength(tau_next)
    c = (1.0 + 2.0 * r) / (tau_next * (1.0 + r))
    cmass = c * p.rho0
    hist = r * r / (tau_next * (1.0 + r))
    rhs_x = (p.rho0 * hist * (traj.curr_x - traj.prev_x))[1:-1, 1:-1] - gx[1:-1, 1:-1]
    rhs_y = (p.rho0 * hist * (traj.curr_y - traj.prev_y))[1:-1, 1:-1] - gy[1:-1, 1:-1]
    if p.visc_scaling == VISC_TAU_SQ_ABSOLUTE:
        rhs_x = rhs_x - s * _neg_lap_interior(traj.curr_x, p.grid)
        rhs_y = rhs_y - s * _neg_lap_interior(traj.curr_y, p.grid)
    x_new, y_new = _explicit_solve(p, traj.curr_x, traj.curr_y, rhs_x, rhs_y, cmass, s)
    new_traj = Trajectory2D(traj.curr_x, traj.curr_y, x_new, y_new, tau_next,
                            traj.time + tau_next, traj.step_index + 1, p.grid)
    return new_traj, recover_density_2d(x_new, y_new, p.rho0, p.grid)


def wgf2d_first_step_explicit(p: Wgf2dProblem, tau1: float):
    """First-order linear startup with the gradient at the reference map:
    the explicit step from the history at rest."""
    return wgf2d_step_explicit(p, Trajectory2D.at_rest(p.grid), tau1)


# --- implicit minimization --------------------------------------------------

def _objective_2d(p: Wgf2dProblem, x, y, x_hat, y_hat, x_ref, y_ref, coeff, s):
    area = p.grid.h_x * p.grid.h_y
    val = discrete_energy_2d(p.model, x, y, p.rho0, p.grid)
    val += coeff * float(np.sum(p.rho0 * ((x - x_hat) ** 2 + (y - y_hat) ** 2))) * area
    if s > 0.0:
        dx = x - x_ref
        dy = y - y_ref
        for d in (dx, dy):
            gx = np.diff(d, axis=1) / p.grid.h_x
            gy = np.diff(d, axis=0) / p.grid.h_y
            val += 0.5 * s * (float(np.sum(gx * gx)) + float(np.sum(gy * gy))) * area
    return val


def _gradient_2d(p: Wgf2dProblem, x, y, x_hat, y_hat, x_ref, y_ref, coeff, s):
    area = p.grid.h_x * p.grid.h_y
    gx, gy = deformation_energy_grad_2d(p.model, x, y, p.rho0, p.grid)
    gx = gx * area
    gy = gy * area
    gx += 2.0 * coeff * p.rho0 * (x - x_hat) * area
    gy += 2.0 * coeff * p.rho0 * (y - y_hat) * area
    if s > 0.0:
        gx[1:-1, 1:-1] += s * _neg_lap_interior(x - x_ref, p.grid) * area
        gy[1:-1, 1:-1] += s * _neg_lap_interior(y - y_ref, p.grid) * area
    return gx[1:-1, 1:-1].ravel(), gy[1:-1, 1:-1].ravel()


def _abs_row_sums(mat: sps.csr_matrix) -> np.ndarray:
    """sum_j |M_ij| of a CSR matrix, from its stored entries."""
    starts = mat.indptr[:-1]
    filled = starts < mat.indptr[1:]
    rows = np.zeros(mat.shape[0])
    rows[filled] = np.add.reduceat(np.abs(mat.data), starts[filled])
    return rows


def _visc_ref(p: Wgf2dProblem, x, y):
    """Map the implicit viscosity is measured from: x^n, or 0 for the absolute form."""
    if p.visc_scaling == VISC_TAU_INCREMENT:
        return x, y
    return np.zeros_like(x), np.zeros_like(y)


def _implicit_solve(p: Wgf2dProblem, x_start, y_start, j_start, j_ref, x_hat, y_hat,
                    x_ref, y_ref, coeff, s):
    """Newton minimization (see ``newton``) of the step functional from a start
    no higher than ``j_ref``, its value at x^n.  The iterate stacks the full
    x and y node arrays; the interior nodes of both are the unknowns."""
    if j_start > j_ref * (1.0 + 1e-12) + 1e-300:
        raise NewtonError("warm start above the feasibility cap")
    grid = p.grid
    area = grid.h_x * grid.h_y
    shape = grid.node_shape
    size = shape[0] * shape[1]
    inertia = np.tile((2.0 * coeff * p.rho0[1:-1, 1:-1] * area).ravel(), 2)
    interior = np.arange(size).reshape(shape)[1:-1, 1:-1].ravel()

    def split(z):
        return z[:size].reshape(shape), z[size:].reshape(shape)

    def objective(z):
        return _objective_2d(p, *split(z), x_hat, y_hat, x_ref, y_ref, coeff, s)

    def gradient(z):
        return np.concatenate(_gradient_2d(p, *split(z), x_hat, y_hat, x_ref, y_ref, coeff, s))

    # the row sums of |inertia + sigma (-Lap_h)|, per component
    lap = _neg_lap_cached(grid.m_x - 1, grid.m_y - 1, grid.h_x, grid.h_y)
    fixed_rows = inertia + s * area * np.tile(_abs_row_sums(lap), 2)

    def linearize(z):
        hess = discrete_energy_hess_2d(p.model, *split(z), p.rho0, grid) * area
        return (_condensed_solver(grid, p.rho0, inertia, s * area, hess), lambda: 1e-8,
                _abs_row_sums(hess) + fixed_rows)

    z = np.concatenate([x_start.ravel(), y_start.ravel()])
    z = newton_solve(z, gradient, linearize, objective=objective,
                     free=np.concatenate([interior, size + interior]), tol=NEWTON_TOL,
                     stall_tol=1e3 * NEWTON_TOL, max_iter=NEWTON_MAX_ITER, max_backtracks=50,
                     row_sums=fixed_rows)
    return split(z)


def wgf2d_step_implicit(p: Wgf2dProblem, traj: Trajectory2D, tau_next: float):
    """Minimize the step functional over maps with positive determinant."""
    if tau_next <= 0.0:
        raise ValueError("tau_next must be positive")
    r = tau_next / traj.tau_prev
    x_hat = extrapolate_hat(traj.curr_x, traj.prev_x, r)
    y_hat = extrapolate_hat(traj.curr_y, traj.prev_y, r)
    coeff = (1.0 + 2.0 * r) / (2.0 * tau_next * (1.0 + r))
    s = p.visc_strength(tau_next)
    x_ref, y_ref = _visc_ref(p, traj.curr_x, traj.curr_y)
    j_at_curr = _objective_2d(p, traj.curr_x, traj.curr_y, x_hat, y_hat, x_ref, y_ref, coeff, s)
    # warm start from the explicit output when it does not increase J
    x0, y0, j0 = traj.curr_x, traj.curr_y, j_at_curr
    try:
        warm, _ = wgf2d_step_explicit(p, traj, tau_next)
        jw = _objective_2d(p, warm.curr_x, warm.curr_y, x_hat, y_hat, x_ref, y_ref, coeff, s)
        if jw <= j_at_curr:
            x0, y0, j0 = warm.curr_x, warm.curr_y, jw
    except (SolverError, AdmissibilityError):
        pass
    x_new, y_new = _implicit_solve(p, x0, y0, j0, j_at_curr, x_hat, y_hat, x_ref, y_ref,
                                   coeff, s)
    new_traj = Trajectory2D(traj.curr_x, traj.curr_y, x_new, y_new, tau_next,
                            traj.time + tau_next, traj.step_index + 1, p.grid)
    return new_traj, recover_density_2d(x_new, y_new, p.rho0, p.grid)


def wgf2d_first_step_implicit(p: Wgf2dProblem, tau1: float):
    """First-order implicit startup (inertia 1/(2 tau), no extrapolation):
    the implicit step from the history at rest."""
    return wgf2d_step_implicit(p, Trajectory2D.at_rest(p.grid), tau1)


def recover_density_2d(x, y, rho0, grid: Grid2D) -> DensityField2D:
    """rho = rho0 / det at interior nodes; the pinned boundary keeps rho0."""
    det = jacobian_det_interior(x, y, grid)
    if np.any(det <= 0.0):
        raise AdmissibilityError("non-positive determinant in density recovery")
    values = np.array(rho0, dtype=float)
    values[1:-1, 1:-1] = rho0[1:-1, 1:-1] / det
    return DensityField2D(values, grid)


def wgf2d_energy(p: Wgf2dProblem, x, y) -> float:
    return discrete_energy_2d(p.model, x, y, p.rho0, p.grid)


def wgf2d_augmented_energy(p: Wgf2dProblem, traj: Trajectory2D,
                           r_max: float = RATIO_BOUND_2D) -> float:
    """E_{h,2} plus the cubic-ratio-weighted inertia of the last increment."""
    dx = traj.curr_x - traj.prev_x
    dy = traj.curr_y - traj.prev_y
    inertia = float(np.sum(p.rho0 * (dx * dx + dy * dy))) * p.grid.h_x * p.grid.h_y
    weight = r_max ** 3 / (traj.tau_prev * (1.0 + r_max) * (1.0 + 2.0 * r_max))
    return wgf2d_energy(p, traj.curr_x, traj.curr_y) + weight * inertia
