"""Conservation monitors, waiting-time detection, convergence orders and
reference solutions."""

from __future__ import annotations

import numpy as np

from .grids import DensityField2D, Grid1D, jacobian_det_interior

__all__ = [
    "total_mass_2d",
    "waiting_time_detect",
    "aronson_waiting_time",
    "convergence_order",
    "barenblatt_2d",
    "barenblatt_support_radius",
    "interface_radius",
    "trajectory_error_l2h",
    "trajectory_error_linf",
    "density_error_l2h",
]


def total_mass_2d(density: DensityField2D, x, y, det=None) -> float:
    """sum over interior nodes of rho det(F) h_x h_y; ``det`` is
    jacobian_det_interior(x, y) when the caller has it."""
    grid = density.grid
    if det is None:
        det = jacobian_det_interior(x, y, grid)
    return float(np.sum(density.values[1:-1, 1:-1] * det)) * grid.h_x * grid.h_y


def waiting_time_detect(times, boundary_positions, domain_length: float,
                        threshold: float | None = None):
    """First accepted time at which a boundary node moves faster than the threshold.

    ``boundary_positions`` holds one row per accepted step (any number of
    tracked boundary columns); speeds are per-step displacements divided by
    the step length.  Returns None when never exceeded.
    """
    times = np.asarray(times, dtype=float)
    pos = np.atleast_2d(np.asarray(boundary_positions, dtype=float))
    if pos.shape[0] != times.shape[0]:
        pos = pos.T
    if threshold is None:
        # pre-waiting discrete creep measures at a few 1e-3 of the domain per
        # unit time even at M_x = 800, so the cutoff must sit well above it
        threshold = 1e-2 * domain_length
    for k in range(1, times.shape[0]):
        dt = times[k] - times[k - 1]
        if dt <= 0.0:
            continue
        speed = np.max(np.abs(pos[k] - pos[k - 1])) / dt
        if speed > threshold:
            return float(times[k])
    return None


def aronson_waiting_time(m: float, theta: float) -> float:
    """Closed-form waiting time 1 / (2 (m+1) (1 - theta))."""
    if not m > 1.0:
        raise ValueError(f"need m > 1, got {m}")
    if not 0.0 <= theta <= 0.25:
        raise ValueError(f"theta must lie in [0, 0.25], got {theta}")
    return 1.0 / (2.0 * (m + 1.0) * (1.0 - theta))


def convergence_order(errors, resolutions) -> np.ndarray:
    """Observed orders ln(e_{i-1}/e_i) / |ln(res_i/res_{i-1})|.

    ``resolutions`` may refine upward (cell counts) or downward (largest
    time steps); the sign convention makes shrinking errors positive either
    way.
    """
    errors = np.asarray(errors, dtype=float)
    res = np.asarray(resolutions, dtype=float)
    if errors.shape != res.shape or errors.size < 2:
        raise ValueError("need matching error/resolution sequences of length >= 2")
    if np.any(errors <= 0.0) or np.any(res <= 0.0):
        raise ValueError("errors and resolutions must be positive")
    return np.log(errors[:-1] / errors[1:]) / np.abs(np.log(res[1:] / res[:-1]))


def barenblatt_2d(x, y, t: float, m: float):
    """Compactly supported self-similar profile

        max(0.1 - kappa (m-1)/(4m) (x^2+y^2)/(t+1)^kappa, 0)^{1/(m-1)},

    with kappa = 1/m.
    """
    if not m > 1.0:
        raise ValueError(f"need m > 1, got {m}")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    kappa = 1.0 / m
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    inner = 0.1 - kappa * (m - 1.0) / (4.0 * m) * (x * x + y * y) / (t + 1.0) ** kappa
    return np.clip(inner, 0.0, None) ** (1.0 / (m - 1.0))


def barenblatt_support_radius(t: float, m: float) -> float:
    """Radius at which the profile's inner expression crosses zero."""
    kappa = 1.0 / m
    return float(np.sqrt(0.1 * 4.0 * m / (kappa * (m - 1.0)) * (t + 1.0) ** kappa))


def interface_radius(density: DensityField2D, positions_x, positions_y) -> float:
    """Radius sqrt(A / pi) of the disc with the area of the support, where
    A = h_x h_y sum det(F) over the interior nodes with positive density is
    the area the deformed map gives those nodes.

    In a Lagrangian run the nodes with mass are fixed (rho = rho0 / det), so
    A is a smooth function of the positions and the radius moves with them
    by rounding only; a contour located by binning nodes into angular
    sectors jumps when rounding moves a node across a sector edge.
    """
    grid = density.grid
    inside = density.values[1:-1, 1:-1] > 0.0
    if not np.any(inside):
        raise ValueError("interface radius of an empty field is undefined")
    det = jacobian_det_interior(positions_x, positions_y, grid)
    area = float(np.sum(det[inside])) * grid.h_x * grid.h_y
    return float(np.sqrt(area / np.pi))


# --- error norms for convergence tables -------------------------------------

def trajectory_error_l2h(x_coarse, x_fine, grid_coarse: Grid1D) -> float:
    """Midpoint-kind L2_h distance between a coarse trajectory and a nested
    fine reference (fine node count must be a multiple of the coarse one)."""
    x_coarse = np.asarray(x_coarse)
    x_fine = np.asarray(x_fine)
    m = grid_coarse.m_x
    ratio = (x_fine.shape[0] - 1) // m
    if ratio * m != x_fine.shape[0] - 1 or ratio % 2 != 0:
        raise ValueError("reference grid must refine the coarse grid by an even factor")
    xm = 0.5 * (x_coarse[:-1] + x_coarse[1:])
    fine_at_mid = x_fine[ratio // 2 :: ratio][:m]
    return float(np.sqrt(np.sum((xm - fine_at_mid) ** 2) * grid_coarse.h))


def trajectory_error_linf(x_coarse, x_fine, grid_coarse: Grid1D) -> float:
    x_coarse = np.asarray(x_coarse)
    x_fine = np.asarray(x_fine)
    ratio = (x_fine.shape[0] - 1) // grid_coarse.m_x
    return float(np.max(np.abs(x_coarse - x_fine[::ratio])))


def density_error_l2h(rho_coarse, rho_fine, grid_coarse: Grid1D) -> float:
    """L2_h distance of midpoint densities against a nested fine reference,
    whose value at a coarse midpoint label is the mean of the two adjacent
    fine cells."""
    rho_coarse = np.asarray(rho_coarse)
    rho_fine = np.asarray(rho_fine)
    m = grid_coarse.m_x
    ratio = rho_fine.shape[0] // m
    k = ratio // 2 + ratio * np.arange(m)
    fine_at_mid = 0.5 * (rho_fine[k - 1] + rho_fine[k])
    return float(np.sqrt(np.sum((rho_coarse - fine_at_mid) ** 2) * grid_coarse.h))
