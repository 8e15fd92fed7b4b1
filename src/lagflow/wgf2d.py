"""2D conservative solvers: linear explicit scheme and implicit minimization.

Both schemes advance the node map (x, y) under the variable-step BDF2
difference D_2 and recover the density from the central-difference
deformation determinant.  The explicit scheme freezes the energy gradient
at the ratio-extrapolated configuration (1+r) x^n - r x^{n-1}, leaving two
decoupled symmetric positive definite systems that share one matrix; the
implicit scheme minimizes the step functional

    J(x) = E_{h,2}(x) + (1+2r)/(2 tau (1+r)) sum rho0 |x - xhat|^2 hx hy
         + (viscosity quadratic)

with the shared damped-Newton core (``newton``), whose backtracking halves
any trial with a non-positive determinant, warm started from the explicit
output whenever that does not increase J.

Every linear system is solved directly.  The explicit matrix
diag(c rho0) + s (-Lap_h) is factored once per step and the factors serve
both the x and the y right-hand side; a Newton iteration factors its
Hessian once per diagonal shift it tries.  Both matrices are symmetric, so one sparse LU with a
minimum-degree order on A^T + A and diagonal pivots (SuperLU's symmetric
mode) does the work of a Cholesky factorization.

Compactly supported data leave most interior nodes massless, and there both
matrices are only the viscosity: sigma (-Lap_h), with sigma = s for the
explicit matrix and s hx hy for the Newton Hessian (per component).  Call
an interior node active if it or one of its four interior neighbours
carries mass, and the rest F.  ``_condensed_solver`` removes F from every
solve: -Lap_h restricted to F is factored once per grid and mass mask, with
the interface term G = L_af L_ff^{-1} L_fa (nonzero only on the active nodes
that touch F), and each step factors only the Schur complement
A_aa - sigma G on the active unknowns, then recovers F by back
substitution.  A mask without massless nodes factors the whole matrix in
the same routine.  A Newton shift is added on the active unknowns only;
for s > 0 the block sigma L_ff is positive definite, so the full system is
positive definite exactly when the shifted Schur complement is.  With
s = 0 the massless nodes are undetermined, and the solve raises
SolverError.

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
from .grids import DensityField2D, Grid2D, Trajectory2D, jacobian_det_interior
from .models import (EnergyModel, KellerSegel2D, deformation_energy_grad_2d,
                     discrete_energy_2d, discrete_energy_hess_2d, ks2d_interaction_force)
from .newton import newton_solve

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


def _embed(interior, grid: Grid2D):
    full = np.zeros(grid.node_shape)
    full[1:-1, 1:-1] = interior
    return full


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


def _factor(mat: sps.csc_matrix):
    """Solve function of a sparse LU of a symmetric matrix, with a
    minimum-degree order on A^T + A and diagonal pivots.  The explicit
    matrix is SPD; a Newton Hessian that is not fails with a RuntimeError
    or non-finite solutions, which the Newton core answers with a shift."""
    return spla.splu(mat, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True)).solve


def _neg_lap_matrix(grid: Grid2D) -> sps.csc_matrix:
    """5-point -Laplacian on the interior nodes (Dirichlet ring), built once per grid."""
    return _neg_lap_cached(grid.m_x - 1, grid.m_y - 1, grid.h_x, grid.h_y)


@lru_cache(maxsize=8)
def _neg_lap_cached(nx: int, ny: int, h_x: float, h_y: float) -> sps.csc_matrix:
    ex = np.ones(nx)
    ey = np.ones(ny)
    lx = sps.diags([2.0 * ex, -ex[:-1], -ex[:-1]], [0, 1, -1]) / h_x ** 2
    ly = sps.diags([2.0 * ey, -ey[:-1], -ey[:-1]], [0, 1, -1]) / h_y ** 2
    lap = (sps.kron(sps.eye(ny), lx) + sps.kron(ly, sps.eye(nx))).tocsc()
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
    massive = np.asarray(rho0)[1:-1, 1:-1] > 0.0
    return _condensation_cached(grid.m_x - 1, grid.m_y - 1, grid.h_x, grid.h_y,
                                massive.tobytes())


@lru_cache(maxsize=8)
def _condensation_cached(nx: int, ny: int, h_x: float, h_y: float,
                         mask: bytes) -> _Condensation:
    massive = np.frombuffer(mask, dtype=bool).reshape(ny, nx)
    active = massive.copy()
    active[1:, :] |= massive[:-1, :]
    active[:-1, :] |= massive[1:, :]
    active[:, 1:] |= massive[:, :-1]
    active[:, :-1] |= massive[:, 1:]
    a = np.flatnonzero(active)
    f = np.flatnonzero(~active)
    lap = _neg_lap_cached(nx, ny, h_x, h_y).tocsr()
    lap_af = lap[a][:, f]
    lap_fa = lap_af.T.tocsr()
    solve_ff = None
    g = sps.csc_matrix((a.size, a.size))
    if f.size:
        solve_ff = _factor(lap[f][:, f].tocsc())
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


def _condensed_solver(grid: Grid2D, rho0, mat, sigma: float):
    """``solve(rhs, shift)`` for the interior system ``mat`` plus ``shift`` on
    the active unknowns, with the massless nodes F condensed out.

    ``mat`` stacks one or more components of the interior nodes; on F each
    component's rows must be ``sigma`` (-Lap_h) (see the module docstring).
    ``rhs`` is a vector or has one column per right-hand side.
    """
    cond = _condensation(grid, rho0)
    n = (grid.m_x - 1) * (grid.m_y - 1)
    ncomp = mat.shape[0] // n
    if cond.inactive.size == 0:
        def solve_full(rhs, shift=0.0):
            shifted = mat if shift == 0.0 else mat + shift * sps.eye(mat.shape[0])
            return _factor(shifted.tocsc())(rhs)
        return solve_full
    if sigma <= 0.0:
        raise SolverError("linear system is singular (zero mass and zero viscosity)")
    a, f = cond.active, cond.inactive
    idx = np.concatenate([a + c * n for c in range(ncomp)])
    schur = (mat[idx][:, idx] - sigma * sps.block_diag([cond.g] * ncomp)).tocsc()

    def solve(rhs, shift=0.0):
        b = rhs.reshape(ncomp, n, -1)
        k = b.shape[2]

        def by_node(u, rows):
            # (ncomp, rows, k) -> (rows, ncomp k): one column per component and rhs
            return u.transpose(1, 0, 2).reshape(rows, ncomp * k)

        def by_component(u, rows):
            return u.reshape(rows, ncomp, k).transpose(1, 0, 2)

        b_f = by_node(b[:, f, :], f.size)
        b_a = b[:, a, :] - by_component(cond.lap_af @ cond.solve_ff(b_f), a.size)
        u_a = b_a.reshape(ncomp * a.size, k)
        if a.size:
            shifted = schur if shift == 0.0 else (schur + shift * sps.eye(idx.size)).tocsc()
            u_a = _factor(shifted)(u_a)
        u_a = u_a.reshape(ncomp, a.size, k)
        u_f = cond.solve_ff(b_f / sigma - cond.lap_fa @ by_node(u_a, a.size))
        out = np.empty_like(b)
        out[:, a, :] = u_a
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
    mat = sps.diags(coeff, format="csc") + s * _neg_lap_matrix(grid)
    try:
        sol = _condensed_solver(grid, p.rho0, mat, s)(
            np.column_stack([rhs_x.ravel(), rhs_y.ravel()]))
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise SolverError("linear solve produced non-finite values")
    x_new = x_curr + _embed(sol[:, 0].reshape(rhs_x.shape), grid)
    y_new = y_curr + _embed(sol[:, 1].reshape(rhs_y.shape), grid)
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
    """First-order linear startup with the gradient at the reference map."""
    if tau1 <= 0.0:
        raise ValueError("tau1 must be positive")
    x0 = p.grid.ref_x.copy()
    y0 = p.grid.ref_y.copy()
    gx, gy = _scheme_gradient(p, x0, y0)
    s = p.visc_strength(tau1)
    cmass = p.rho0 / tau1
    rhs_x = -gx[1:-1, 1:-1]
    rhs_y = -gy[1:-1, 1:-1]
    if p.visc_scaling == VISC_TAU_SQ_ABSOLUTE:
        rhs_x = rhs_x - s * _neg_lap_interior(x0, p.grid)
        rhs_y = rhs_y - s * _neg_lap_interior(y0, p.grid)
    x_new, y_new = _explicit_solve(p, x0, y0, rhs_x, rhs_y, cmass, s)
    traj = Trajectory2D(x0, y0, x_new, y_new, tau1, tau1, 1, p.grid)
    return traj, recover_density_2d(x_new, y_new, p.rho0, p.grid)


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
    # the inertia and viscosity terms of the Hessian do not depend on the iterate
    fixed = sps.diags(np.tile((2.0 * coeff * p.rho0[1:-1, 1:-1] * area).ravel(), 2),
                      format="csr")
    if s > 0.0:
        lap = _neg_lap_matrix(grid) * (s * area)
        fixed = fixed + sps.block_diag([lap, lap], format="csr")
    interior = np.arange(size).reshape(shape)[1:-1, 1:-1].ravel()

    def split(z):
        return z[:size].reshape(shape), z[size:].reshape(shape)

    def objective(z):
        return _objective_2d(p, *split(z), x_hat, y_hat, x_ref, y_ref, coeff, s)

    def gradient(z):
        return np.concatenate(_gradient_2d(p, *split(z), x_hat, y_hat, x_ref, y_ref, coeff, s))

    def linearize(z):
        hess = discrete_energy_hess_2d(p.model, *split(z), p.rho0, grid) * area + fixed
        return _condensed_solver(grid, p.rho0, hess, s * area), lambda: 1e-8

    def tol(z):
        floor = 64.0 * np.finfo(float).eps * area * (
            2.0 * coeff * np.max(p.rho0) * max(1.0, np.max(np.abs(z))) + 1.0)
        return max(NEWTON_TOL, floor)

    z = np.concatenate([x_start.ravel(), y_start.ravel()])
    z = newton_solve(z, gradient, linearize, objective=objective,
                     free=np.concatenate([interior, size + interior]), tol=tol,
                     stall_tol=1e3 * NEWTON_TOL, max_iter=NEWTON_MAX_ITER, max_backtracks=50)
    return split(z)


def wgf2d_step_implicit(p: Wgf2dProblem, traj: Trajectory2D, tau_next: float):
    """Minimize the step functional over maps with positive determinant."""
    if tau_next <= 0.0:
        raise ValueError("tau_next must be positive")
    r = tau_next / traj.tau_prev
    x_hat = ((1.0 + r) ** 2 * traj.curr_x - r * r * traj.prev_x) / (1.0 + 2.0 * r)
    y_hat = ((1.0 + r) ** 2 * traj.curr_y - r * r * traj.prev_y) / (1.0 + 2.0 * r)
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
    """First-order implicit startup (inertia 1/(2 tau), no extrapolation)."""
    if tau1 <= 0.0:
        raise ValueError("tau1 must be positive")
    x0 = p.grid.ref_x.copy()
    y0 = p.grid.ref_y.copy()
    s = p.visc_strength(tau1)
    x_ref, y_ref = _visc_ref(p, x0, y0)
    j0 = _objective_2d(p, x0, y0, x0, y0, x_ref, y_ref, 0.5 / tau1, s)
    x_new, y_new = _implicit_solve(p, x0, y0, j0, j0, x0, y0, x_ref, y_ref, 0.5 / tau1, s)
    traj = Trajectory2D(x0, y0, x_new, y_new, tau1, tau1, 1, p.grid)
    return traj, recover_density_2d(x_new, y_new, p.rho0, p.grid)


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
