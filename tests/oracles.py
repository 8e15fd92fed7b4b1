"""Reference formulas that only the tests use.

Each is the plain textbook form of a rule or diagnostic; the solvers take
the same numbers from state they already hold, and the tests compare them
against these.
"""

import numpy as np

from lagflow import wgf1d
from lagflow.grids import Grid1D, node_diff


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
