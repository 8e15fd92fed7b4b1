"""Reference formulas that only the tests use.

Each is the plain textbook form of a rule or diagnostic; the solvers take
the same numbers from state they already hold, and the tests compare them
against these.
"""

import numpy as np

from lagflow import wgf1d
from lagflow.grids import Grid1D, Grid2D, jacobian_det_interior, node_diff
from lagflow.models import (EnergyModel, FokkerPlanck, GinzburgLandau, KellerSegel2D,
                            PorousMedium, _ks1d_sums,
                            deformation_energy_grad_2d, double_well, ks2d_interaction_force)


def fraction_to_boundary(x, step) -> float:
    """Largest alpha <= 1 (times 0.99) keeping every cell of the 1D node array
    x + alpha step at least 10% of the currently narrowest one, from x itself
    (``newton.cell_fraction_to_boundary`` takes it from x's cell state)."""
    widths = np.diff(x)
    dw = np.diff(step)
    shrink = dw < 0.0
    if not np.any(shrink):
        return 1.0
    return min(1.0, 0.99 * np.min((widths[shrink] - 0.1 * widths.min()) / -dw[shrink]))


def wgf1d_residual(p, traj, x_candidate, tau: float) -> np.ndarray:
    """First-order-condition residual of the 1D step objective at the free nodes."""
    g = wgf1d._gradient(wgf1d._bdf2_terms(p, traj, tau), np.asarray(x_candidate, dtype=float))
    return g[1:-1] if p.pinned else g


def midpoint_diff(u, grid: Grid1D) -> np.ndarray:
    """(d_h u)_j = (u_{j+1/2} - u_{j-1/2})/h at interior nodes j = 1..M_x-1."""
    u = np.asarray(u)
    if u.shape != (grid.m_x,):
        raise ValueError(f"u: expected midpoint field of length {grid.m_x}, got shape {u.shape}")
    return np.diff(u) / grid.h


def total_mass_1d(density, x) -> float:
    """sum rho_{j+1/2} (x_{j+1} - x_j); equal to sum rho0 h for pushforward states."""
    return float(np.sum(density.values * np.diff(np.asarray(x))))


def propagation_speed(x, rho0_nodes, m: float, grid: Grid1D) -> np.ndarray:
    """Free-boundary speed -(m/(m-1)) d_X(rho0^{m-1}) / (d_X x)^m at every node:
    central differences in the interior, one-sided at the ends (where the free
    boundary lives)."""
    if not m > 1.0:
        raise ValueError("propagation speed is defined for porous-medium exponents m > 1")
    f = np.asarray(rho0_nodes, dtype=float) ** (m - 1.0)
    return -(m / (m - 1.0)) * node_diff(f, grid) / node_diff(x, grid) ** m


def jacobian_det_2d(x, y, grid: Grid2D, i: int, j: int) -> float:
    """Deformation determinant at one interior node (i, j).

    The central stencil is undefined on the boundary ring, where nodes stay
    pinned to the reference; asking for it is an error.
    """
    if not (1 <= i <= grid.m_y - 1 and 1 <= j <= grid.m_x - 1):
        raise ValueError(f"determinant stencil undefined at boundary node ({i}, {j})")
    return float(jacobian_det_interior(x, y, grid)[i - 1, j - 1])


def discrete_energy_grad_2d(model: EnergyModel, x, y, rho0, grid: Grid2D):
    """Gradient of ``discrete_energy_2d`` (h_x h_y included), zero on the boundary."""
    gx, gy = deformation_energy_grad_2d(model, x, y, rho0, grid)
    scale = grid.h_x * grid.h_y
    gx = gx * scale
    gy = gy * scale
    if isinstance(model, KellerSegel2D):
        fx, fy = ks2d_interaction_force(model, x, y, rho0, grid)
        gx[1:-1, 1:-1] += fx[1:-1, 1:-1] * scale
        gy[1:-1, 1:-1] += fy[1:-1, 1:-1] * scale
    return gx, gy


def d2_operator(a_next, a_curr, a_prev, tau: float, r: float):
    """Variable-step BDF2 difference ((1+2r) a^{n+1} - (1+r)^2 a^n + r^2 a^{n-1}) / (tau (1+r))."""
    a_next = np.asarray(a_next)
    a_curr = np.asarray(a_curr)
    a_prev = np.asarray(a_prev)
    return ((1.0 + 2.0 * r) * a_next - (1.0 + r) ** 2 * a_curr + r * r * a_prev) / (tau * (1.0 + r))


def energy_density(model: EnergyModel, s, x=None):
    """Pointwise energy density F(s); Fokker-Planck additionally needs the position x."""
    s = np.asarray(s, dtype=float)
    if isinstance(model, GinzburgLandau):
        return double_well(s)
    if isinstance(model, PorousMedium) and np.any(s < 0.0):
        raise ValueError("porous-medium density must be nonnegative")
    f = model.internal.density(s)
    if isinstance(model, FokkerPlanck):
        return f + s * model.potential(0.0 if x is None else x)
    return f


def ks1d_pair_energy(x, rho0, grid: Grid1D, i: int, j: int) -> float:
    """Symmetrized contribution of the cell pair (i, j) to the reported interaction."""
    x = np.asarray(x)
    masses = np.asarray(rho0) * grid.h
    rho = masses / np.diff(x)
    mids = 0.5 * (x[:-1] + x[1:])

    def one_sided(a, b):
        s = _ks1d_sums(mids[a : a + 1], x[b : b + 2], rho[b : b + 1], 0)
        return masses[a] * float(s[0])

    return 0.25 / np.pi * (one_sided(i, j) + one_sided(j, i))
