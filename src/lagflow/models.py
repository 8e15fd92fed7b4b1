"""Energy densities, mobilities, and analytic gradients of the discrete energies.

Every conservative solver works with the cell/node transported density
s = rho0 / volume-change and needs three ingredients per model: the energy
density F(s), the pressure-like combination G(s) = F(s) - s F'(s) (which is
what differentiating F(rho0/v) v with respect to the volume factor v
produces), and G'(s) for Newton Hessians.  The drift potential of the
Fokker-Planck model and the logarithmic interaction of the Keller-Segel
models live outside this volume-factor mechanism and are handled as
separate position-dependent terms.

1D energies are sums over cells of width w_c = x_{j+1} - x_j,

    E_h(x) = sum_c F(rho0_c h / w_c) * w_c  (+ drift + interaction),

2D energies are sums over interior nodes of F(rho0/det) * det * h_x h_y.

The Keller-Segel interaction uses exact inner integration of log|x - y|
over partner cells via the antiderivative a log|a| - a, so the kernel
singularity never needs ad-hoc smoothing; partner positions are lagged one
time level inside the per-step objective (scheme form) and evaluated
self-consistently with weight 1/2 when reporting the energy of a state.
All three orders of that sum (energy, gradient, Hessian) derive from one
pair matrix a = c - y and its log|a|, taken once per evaluation point: a
one-entry memo keyed by the values of (midpoints, partner nodes) serves the
gradient and Hessian that Newton evaluates at the iterate its line search
just accepted.

The 2D interaction is an exact direct sum over the N nodes that carry mass.
Its pair matrix r2_ij = |p_i - p_j|^2 is symmetric, so the energy and the
force walk only its upper block strips (``_STRIP`` rows each, sized for the
L2 cache): the energy counts the columns right of each strip's diagonal
block twice, and the antisymmetric force adds each strip's transpose to the
rows below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Union

import numpy as np
import scipy.sparse as sps

from .errors import AdmissibilityError
from .grids import (Grid1D, Grid2D, deformation_stencil, inner_product, jacobian_det_interior,
                    node_diff)

__all__ = [
    "ConstantMobility",
    "DegenerateMobility",
    "Mobility",
    "PorousMedium",
    "FokkerPlanck",
    "KellerSegel1D",
    "KellerSegel2D",
    "GinzburgLandau",
    "EnergyModel",
    "double_well",
    "energy_density",
    "discrete_energy_1d",
    "discrete_energy_grad_1d",
    "discrete_energy_hess_1d",
    "discrete_energy_2d",
    "discrete_energy_grad_2d",
    "discrete_energy_hess_2d",
    "ac_discrete_energy",
    "ks1d_pair_energy",
    "check_mobility_positive",
]


# --- mobilities -----------------------------------------------------------

@dataclass(frozen=True)
class ConstantMobility:
    def __call__(self, rho):
        return np.ones_like(np.asarray(rho, dtype=float))


@dataclass(frozen=True)
class DegenerateMobility:
    """M(rho) = 1 - rho^2; positive only strictly inside (-1, 1)."""

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        return 1.0 - rho * rho


Mobility = Union[ConstantMobility, DegenerateMobility]


def check_mobility_positive(mobility: Mobility, rho) -> None:
    vals = mobility(rho)
    if np.any(vals <= 0.0):
        raise ValueError("mobility is not strictly positive on the supplied density values")


# --- model variants -------------------------------------------------------

def _quadratic_well(x):
    return 0.5 * np.asarray(x) ** 2


def _quadratic_well_grad(x):
    return np.asarray(x)


def _quadratic_well_curv(x):
    return np.ones_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class PorousMedium:
    """F(s) = s^m / (m - 1), m > 1."""

    m: float

    def __post_init__(self):
        if not self.m > 1.0:
            raise ValueError(f"porous-medium exponent must exceed 1, got m={self.m}")


@dataclass(frozen=True)
class FokkerPlanck:
    """F(s) = s log s + s V(x) with a drift potential V evaluated at moving positions."""

    potential: Callable = _quadratic_well
    potential_grad: Callable = _quadratic_well_grad
    potential_curv: Callable = _quadratic_well_curv


@dataclass(frozen=True)
class KellerSegel1D:
    """Entropy s log s plus the attractive kernel W(x) = log|x| / (2 pi)."""


@dataclass(frozen=True)
class KellerSegel2D:
    """nu * s^m diffusion (m >= 1) plus the 2D log kernel W(x) = log|x| / (2 pi)."""

    m: float = 1.0
    nu: float = 1.0

    def __post_init__(self):
        if self.m < 1.0:
            raise ValueError(f"diffusion exponent must be at least 1, got m={self.m}")
        if self.nu < 0.0:
            raise ValueError(f"diffusion weight must be nonnegative, got nu={self.nu}")


@dataclass(frozen=True)
class GinzburgLandau:
    """Double-well phase-field energy with interface width eps (non-conservative)."""

    eps: float
    mobility: Mobility = field(default_factory=ConstantMobility)

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError(f"interface width must be positive, got eps={self.eps}")


EnergyModel = Union[PorousMedium, FokkerPlanck, KellerSegel1D, KellerSegel2D, GinzburgLandau]


def double_well(s):
    """Ginzburg-Landau double well (s^2 - 1)^2 / 4."""
    s = np.asarray(s)
    return 0.25 * (s * s - 1.0) ** 2


def energy_density(model: EnergyModel, s, x=None):
    """Pointwise energy density F(s); Fokker-Planck additionally needs the position x."""
    s = np.asarray(s, dtype=float)
    if isinstance(model, PorousMedium):
        if np.any(s < 0.0):
            raise ValueError("porous-medium density must be nonnegative")
        return s ** model.m / (model.m - 1.0)
    if isinstance(model, FokkerPlanck):
        if np.any(s <= 0.0):
            raise ValueError("entropy density needs s > 0")
        v = model.potential(0.0 if x is None else x)
        return s * np.log(s) + s * v
    if isinstance(model, (KellerSegel1D, KellerSegel2D)):
        return _internal_density(model, s)
    if isinstance(model, GinzburgLandau):
        return double_well(s)
    raise TypeError(f"unsupported model {model!r}")


def _internal_density(model, s):
    """Volume-factor part of F(s): the entropy or power-law internal energy."""
    s = np.asarray(s, dtype=float)
    if isinstance(model, PorousMedium):
        return s ** model.m / (model.m - 1.0)
    if isinstance(model, (FokkerPlanck, KellerSegel1D)):
        if np.any(s <= 0.0):
            raise ValueError("entropy density needs s > 0")
        return s * np.log(s)
    if isinstance(model, KellerSegel2D):
        if model.m == 1.0:
            if np.any(s <= 0.0):
                raise ValueError("entropy density needs s > 0")
            return model.nu * s * np.log(s)
        return model.nu * s ** model.m / (model.m - 1.0)
    raise TypeError(f"model {model!r} has no internal energy part")


def _pressure(model, s):
    """G(s) = F(s) - s F'(s) for the internal part of F."""
    if isinstance(model, PorousMedium):
        return -(s ** model.m)
    if isinstance(model, (FokkerPlanck, KellerSegel1D)):
        return -s
    if isinstance(model, KellerSegel2D):
        if model.m == 1.0:
            return -model.nu * s
        return -model.nu * s ** model.m
    raise TypeError(f"model {model!r} has no internal energy part")


def _pressure_deriv(model, s):
    if isinstance(model, PorousMedium):
        return -model.m * s ** (model.m - 1.0)
    if isinstance(model, (FokkerPlanck, KellerSegel1D)):
        return -np.ones_like(np.asarray(s, dtype=float))
    if isinstance(model, KellerSegel2D):
        if model.m == 1.0:
            return -model.nu * np.ones_like(np.asarray(s, dtype=float))
        return -model.nu * model.m * s ** (model.m - 1.0)
    raise TypeError(f"model {model!r} has no internal energy part")


# --- Keller-Segel 1D interaction ------------------------------------------

def _ks_node_weights(rho_cells):
    # telescoping weights so that sum_j rho_j (B(a_j) - B(a_{j+1})) = B @ w
    m = rho_cells.shape[0]
    w = np.zeros(m + 1)
    w[:-1] += rho_cells
    w[1:] -= rho_cells
    return w


# (midpoints, partner nodes, a, log|a|) of the last evaluation point; one
# tuple, so a reader never sees a key with another key's matrices
_pair_memo = None


def _ks_pairs(points, nodes):
    """a = points_i - nodes_j and log|a| (-inf where a == 0), memoized.

    Keys are compared by value and stored as copies, so an array changed in
    place after a call is never answered from the memo.
    """
    global _pair_memo
    memo = _pair_memo
    if memo is not None and np.array_equal(points, memo[0]) and np.array_equal(nodes, memo[1]):
        return memo[2], memo[3]
    a = points[:, None] - nodes[None, :]
    log_abs = np.abs(a)
    with np.errstate(divide="ignore"):
        np.log(log_abs, out=log_abs)
    a.flags.writeable = log_abs.flags.writeable = False  # shared by later callers
    _pair_memo = (points.copy(), nodes.copy(), a, log_abs)
    return a, log_abs


def _ks1d_sums(points, partner_x, partner_rho, order):
    """sum_j rho_j * d^order/dc^order int_{cell j} log|c - y| dy at each point c.

    Order 0 sums the antiderivative a log|a| - a (0 at a = 0), order 1
    log|a| and order 2 1/a, all from one memoized (a, log|a|).
    """
    points = np.asarray(points, dtype=float)
    w = _ks_node_weights(np.asarray(partner_rho, dtype=float))
    a, log_abs = _ks_pairs(points, np.asarray(partner_x, dtype=float))
    if order == 1:
        return log_abs @ w
    with np.errstate(divide="ignore", invalid="ignore"):
        if order == 2:
            return (1.0 / a) @ w
        anti = a * log_abs
    anti -= a
    out = anti @ w
    if np.isnan(out).any():
        # 0 * log 0 at a point that sits on a partner node
        anti[a == 0.0] = 0.0
        out = anti @ w
    return out


def ks1d_interaction_energy(x, rho0, grid: Grid1D, partner_x=None, partner_rho=None,
                            scheme_form=False) -> float:
    """Logarithmic interaction energy of a 1D Keller-Segel state.

    With ``scheme_form`` the partner state is treated as data (no factor 1/2),
    which is the per-step objective; otherwise both slots use the same state
    and the symmetric factor 1/2 applies (the reported physical energy).
    """
    masses = np.asarray(rho0) * grid.h
    mids = 0.5 * (np.asarray(x)[:-1] + np.asarray(x)[1:])
    if partner_x is None:
        partner_x = np.asarray(x)
        partner_rho = masses / np.diff(partner_x)
    total = float(masses @ _ks1d_sums(mids, partner_x, partner_rho, 0)) / (2.0 * np.pi)
    return total if scheme_form else 0.5 * total


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


def _ks1d_grad(x, rho0, grid: Grid1D, partner_x, partner_rho):
    """Node gradient of the scheme-form interaction (partner lagged)."""
    x = np.asarray(x)
    masses = np.asarray(rho0) * grid.h
    mids = 0.5 * (x[:-1] + x[1:])
    phi1 = _ks1d_sums(mids, partner_x, partner_rho, 1) * masses / (2.0 * np.pi)
    g = np.zeros_like(x)
    g[:-1] += 0.5 * phi1
    g[1:] += 0.5 * phi1
    return g


def _ks1d_hess_cell(x, rho0, grid: Grid1D, partner_x, partner_rho):
    """Per-cell curvature phi'' * mass / (2 pi) of the scheme-form interaction."""
    x = np.asarray(x)
    masses = np.asarray(rho0) * grid.h
    mids = 0.5 * (x[:-1] + x[1:])
    return _ks1d_sums(mids, partner_x, partner_rho, 2) * masses / (2.0 * np.pi)


# --- 1D discrete energy, gradient, Hessian --------------------------------

def _cell_state(x, rho0, grid: Grid1D):
    x = np.asarray(x)
    widths = np.diff(x)
    if np.any(widths <= 0.0):
        raise AdmissibilityError("trajectory nodes are not strictly increasing")
    s = np.asarray(rho0) * grid.h / widths
    return widths, s


def discrete_energy_1d(model: EnergyModel, x, rho0, grid: Grid1D,
                       lagged_x=None, lagged_rho=None) -> float:
    """E_h(x) = (F(rho0 / D_h x), D_h x)_h plus drift/interaction terms.

    For Keller-Segel, passing a lagged partner state selects the per-step
    scheme energy; without it the reported self-consistent energy is
    returned.
    """
    widths, s = _cell_state(x, rho0, grid)
    total = float(np.sum(_internal_density(model, s) * widths))
    if isinstance(model, FokkerPlanck):
        mids = 0.5 * (np.asarray(x)[:-1] + np.asarray(x)[1:])
        total += float(np.sum(np.asarray(rho0) * grid.h * model.potential(mids)))
    elif isinstance(model, KellerSegel1D):
        total += ks1d_interaction_energy(x, rho0, grid, lagged_x, lagged_rho,
                                         scheme_form=lagged_x is not None)
    return total


def discrete_energy_grad_1d(model: EnergyModel, x, rho0, grid: Grid1D,
                            pinned: bool = True, lagged_x=None, lagged_rho=None) -> np.ndarray:
    """Analytic node gradient of ``discrete_energy_1d``.

    Returns a full node-length array; with ``pinned`` the two boundary
    entries are zeroed (those degrees of freedom do not exist).
    """
    x = np.asarray(x)
    widths, s = _cell_state(x, rho0, grid)
    gcell = _pressure(model, s)
    g = np.zeros_like(x)
    g[1:] += gcell
    g[:-1] -= gcell
    if isinstance(model, FokkerPlanck):
        mids = 0.5 * (x[:-1] + x[1:])
        f = 0.5 * np.asarray(rho0) * grid.h * model.potential_grad(mids)
        g[:-1] += f
        g[1:] += f
    elif isinstance(model, KellerSegel1D):
        if lagged_x is None:
            lagged_x = x
            lagged_rho = s
        g += _ks1d_grad(x, rho0, grid, lagged_x, lagged_rho)
    if pinned:
        g[0] = 0.0
        g[-1] = 0.0
    return g


def discrete_energy_hess_1d(model: EnergyModel, x, rho0, grid: Grid1D,
                            lagged_x=None, lagged_rho=None):
    """Tridiagonal Hessian of the 1D energy as (diag, off) over all nodes."""
    x = np.asarray(x)
    widths, s = _cell_state(x, rho0, grid)
    # d/dw of G(rho0 h / w) = -G'(s) s / w, the per-cell curvature
    hcell = -_pressure_deriv(model, s) * s / widths
    diag = np.zeros_like(x)
    diag[1:] += hcell
    diag[:-1] += hcell
    off = -hcell
    if isinstance(model, FokkerPlanck):
        mids = 0.5 * (x[:-1] + x[1:])
        c = 0.25 * np.asarray(rho0) * grid.h * model.potential_curv(mids)
        diag[1:] += c
        diag[:-1] += c
        off = off + c
    elif isinstance(model, KellerSegel1D):
        if lagged_x is None:
            lagged_x = x
            lagged_rho = s
        c = 0.25 * _ks1d_hess_cell(x, rho0, grid, lagged_x, lagged_rho)
        diag[1:] += c
        diag[:-1] += c
        off = off + c
    return diag, off


# --- 2D discrete energy, gradient, Hessian --------------------------------

def _check_2d_model(model):
    if not isinstance(model, (PorousMedium, KellerSegel2D)):
        raise TypeError(f"{type(model).__name__} is not supported by the 2D energies")


def _deformation_state(x, y, rho0, grid: Grid2D):
    det = jacobian_det_interior(x, y, grid)
    if np.any(det <= 0.0):
        raise AdmissibilityError("non-positive deformation determinant")
    s = np.asarray(rho0)[1:-1, 1:-1] / det
    return det, s


def _interaction_nodes(x, y, rho0, grid: Grid2D):
    """Mask of the nodes that carry mass, and their positions and masses."""
    masses = (np.asarray(rho0) * grid.h_x * grid.h_y).ravel()
    keep = masses > 0.0
    return keep, np.asarray(x).ravel()[keep], np.asarray(y).ravel()[keep], masses[keep]


_STRIP = 32  # rows per block strip of the 2D pair matrix: 1.1 MB of float64 at 64^2


def _upper_strips(px, py, diagonal: float):
    """Walk the upper block strips of the symmetric matrix r2_ij = |p_i - p_j|^2.

    Yields (lo, hi, r2) with r2[k, j] = r2 of rows lo + k and columns lo + j,
    for the rows lo:hi and the columns lo:, so every pair appears once in
    exactly one strip except those inside the diagonal block rows lo:hi x
    columns lo:hi, which appear in both orders.  The diagonal r2_ii is set to
    ``diagonal``.  ``r2`` is a view of a buffer reused by the next strip; the
    caller may overwrite it.
    """
    n = px.size
    r2_buf = np.empty(min(_STRIP, n) * n)
    d_buf = np.empty_like(r2_buf)
    for lo in range(0, n, _STRIP):
        hi = min(lo + _STRIP, n)
        rows = hi - lo
        r2 = r2_buf[:rows * (n - lo)].reshape(rows, n - lo)
        d = d_buf[:r2.size].reshape(r2.shape)
        np.subtract(px[lo:hi, None], px[None, lo:], out=d)
        np.multiply(d, d, out=r2)
        np.subtract(py[lo:hi, None], py[None, lo:], out=d)
        d *= d
        r2 += d
        np.fill_diagonal(r2, diagonal)
        yield lo, hi, r2


def ks2d_interaction_energy(model: KellerSegel2D, x, y, rho0, grid: Grid2D) -> float:
    """Pairwise log-kernel energy over nodes; the self term integrates the
    kernel over a disk of one reference cell's area.

    The double sum sum_ij m_i m_j log r2_ij runs over the upper block strips
    of the symmetric pair matrix: each strip counts its diagonal block once
    and the columns right of it twice.
    """
    _, px, py, m = _interaction_nodes(x, y, rho0, grid)
    total = 0.0
    for lo, hi, r2 in _upper_strips(px, py, 1.0):
        log_r2 = np.log(r2, out=r2)
        rows = hi - lo
        row_sums = log_r2[:, :rows] @ m[lo:hi] + 2.0 * (log_r2[:, rows:] @ m[hi:])
        total += float(m[lo:hi] @ row_sums)
    total *= 0.125 / np.pi
    a_eq = np.sqrt(grid.h_x * grid.h_y / np.pi)
    total += 0.25 / np.pi * float(np.sum(m * m)) * (np.log(a_eq) - 0.5)
    return total


def ks2d_interaction_force(model: KellerSegel2D, x, y, rho0, grid: Grid2D):
    """Scheme-scaled interaction gradient rho0 * sum_j m_j W'(x_i - x_j).

    With w_ij = 1 / r2_ij (w_ii = 0) the sum is
    a_i = x_i sum_j m_j w_ij - sum_j m_j x_j w_ij, and likewise in y, so each
    upper block strip of w makes one matrix product with the stacked moments
    [m, m x, m y] for its own rows and one with its transpose for the rows
    below it.  Positions are taken relative to the centre of mass, which
    keeps the cancellation in a_i independent of where the cloud sits.
    """
    keep, px, py, m = _interaction_nodes(x, y, rho0, grid)
    cx = px - float(m @ px) / float(np.sum(m))
    cy = py - float(m @ py) / float(np.sum(m))
    moments = np.stack([m, m * cx, m * cy], axis=1)
    sums = np.zeros_like(moments)
    for lo, hi, r2 in _upper_strips(px, py, np.inf):
        w = np.divide(1.0, r2, out=r2)
        sums[lo:hi] += w @ moments[lo:]
        sums[hi:] += w[:, hi - lo:].T @ moments[lo:hi]
    shape = np.asarray(x).shape
    fx = np.zeros(shape[0] * shape[1])
    fy = np.zeros_like(fx)
    fx[keep] = (cx * sums[:, 0] - sums[:, 1]) * m / (2.0 * np.pi)
    fy[keep] = (cy * sums[:, 0] - sums[:, 2]) * m / (2.0 * np.pi)
    scale = grid.h_x * grid.h_y
    return fx.reshape(shape) / scale, fy.reshape(shape) / scale


def discrete_energy_2d(model: EnergyModel, x, y, rho0, grid: Grid2D) -> float:
    """E_{h,2} = sum_ij F(rho0/det) det h_x h_y plus any interaction energy."""
    _check_2d_model(model)
    det, s = _deformation_state(x, y, rho0, grid)
    total = float(np.sum(_internal_density(model, s) * det)) * grid.h_x * grid.h_y
    if isinstance(model, KellerSegel2D):
        total += ks2d_interaction_energy(model, x, y, rho0, grid)
    return total


def deformation_energy_grad_2d(model: EnergyModel, x, y, rho0, grid: Grid2D):
    """Gradient of the per-cell-area energy sum F(rho0/det) det (no h_x h_y).

    This is the force density entering the 2D schemes.  Returns full-shape
    (gx, gy) with zero boundary ring.
    """
    _check_2d_model(model)
    x = np.asarray(x)
    y = np.asarray(y)
    det, s = _deformation_state(x, y, rho0, grid)
    p = _pressure(model, s)
    hx, hy = grid.h_x, grid.h_y
    x_x, x_y, y_x, y_y = deformation_stencil(x, y, grid)

    def pad(q):
        full = np.zeros_like(x)
        full[1:-1, 1:-1] = q
        return full

    q_yy = pad(p * y_y)
    q_yx = pad(p * y_x)
    q_xy = pad(p * x_y)
    q_xx = pad(p * x_x)
    gx = np.zeros_like(x)
    gy = np.zeros_like(y)
    gx[1:-1, 1:-1] = ((q_yy[1:-1, :-2] - q_yy[1:-1, 2:]) / (2.0 * hx)
                      + (q_yx[2:, 1:-1] - q_yx[:-2, 1:-1]) / (2.0 * hy))
    gy[1:-1, 1:-1] = ((q_xy[1:-1, 2:] - q_xy[1:-1, :-2]) / (2.0 * hx)
                      + (q_xx[:-2, 1:-1] - q_xx[2:, 1:-1]) / (2.0 * hy))
    return gx, gy


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


# second derivatives of the bilinear determinant, in units of 1/(4 hx hy), as
# (stencil slot, stencil slot, sign): (x_X, y_Y) pairs carry +1, (y_X, x_Y) pairs -1
_DET_PAIRS = ((0, 7, -1.0), (0, 6, 1.0), (1, 7, 1.0), (1, 6, -1.0),
              (4, 3, 1.0), (4, 2, -1.0), (5, 3, -1.0), (5, 2, 1.0))


class _HessPattern(NamedTuple):
    gather: np.ndarray   # positions in the per-node value list, in CSR order
    starts: np.ndarray   # reduceat offsets: first gathered entry of each stored entry
    indices: np.ndarray
    indptr: np.ndarray


@lru_cache(maxsize=8)
def _hess_2d_pattern(my1: int, mx1: int) -> _HessPattern:
    """Sparsity of ``discrete_energy_hess_2d`` on an (my1, mx1) interior.

    Each interior node contributes 80 entries: the 64 products of its eight
    stencil unknowns, then the 16 determinant second derivatives of
    ``_DET_PAIRS``, each pair in both orders.  Entries that touch the
    boundary ring are dropped; the rest are put in CSR order (stable, so
    duplicates are summed in value-list order).  The arrays are read-only.
    """
    n_int = my1 * mx1
    size = 2 * n_int
    ii, jj = np.meshgrid(np.arange(1, my1 + 1), np.arange(1, mx1 + 1), indexing="ij")

    def dof(i, j, comp):
        # interior unknown index or -1 for boundary ring
        inside = (i >= 1) & (i <= my1) & (j >= 1) & (j <= mx1)
        return np.where(inside, (i - 1) * mx1 + (j - 1) + comp * n_int, -1).ravel()

    # stencil order: xW xE xS xN yW yE yS yN
    cols = np.stack([
        dof(ii, jj - 1, 0), dof(ii, jj + 1, 0), dof(ii - 1, jj, 0), dof(ii + 1, jj, 0),
        dof(ii, jj - 1, 1), dof(ii, jj + 1, 1), dof(ii - 1, jj, 1), dof(ii + 1, jj, 1),
    ])
    slots = [(a, b) for a in range(8) for b in range(8)]
    slots += [pair for a, b, _ in _DET_PAIRS for pair in ((a, b), (b, a))]
    rows = np.concatenate([cols[a] for a, _ in slots])
    colsc = np.concatenate([cols[b] for _, b in slots])
    gather = np.flatnonzero((rows >= 0) & (colsc >= 0))
    keys = rows[gather] * size + colsc[gather]
    order = np.argsort(keys, kind="stable")
    gather, keys = gather[order], keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys[starts] // size, minlength=size))])
    pattern = _HessPattern(gather, starts, keys[starts] % size, indptr)
    for arr in pattern:
        arr.flags.writeable = False
    return pattern


def discrete_energy_hess_2d(model: EnergyModel, x, y, rho0, grid: Grid2D) -> sps.csr_matrix:
    """Sparse Hessian of sum F(rho0/det) det over stacked interior unknowns [x; y].

    Interaction models are excluded: their Hessian is dense, and the 2D
    schemes only ever treat the interaction explicitly.  The sparsity
    pattern is built once per interior shape (``_hess_2d_pattern``); each
    call computes the values only.
    """
    _check_2d_model(model)
    if isinstance(model, KellerSegel2D):
        raise ValueError("implicit Hessian is only available for interaction-free models")
    det, s = _deformation_state(x, y, rho0, grid)
    p = _pressure(model, s).ravel()
    # d/d(det) of G(rho0/det) = -G'(s) s / det
    pp = (-_pressure_deriv(model, s) * s / det).ravel()
    hx, hy = grid.h_x, grid.h_y
    x_x, x_y, y_x, y_y = deformation_stencil(x, y, grid)
    pattern = _hess_2d_pattern(*det.shape)
    # d(det)/d(stencil unknown), in stencil order
    grad = np.stack([
        (-y_y / (2.0 * hx)).ravel(), (y_y / (2.0 * hx)).ravel(),
        (y_x / (2.0 * hy)).ravel(), (-y_x / (2.0 * hy)).ravel(),
        (x_y / (2.0 * hx)).ravel(), (-x_y / (2.0 * hx)).ravel(),
        (-x_x / (2.0 * hy)).ravel(), (x_x / (2.0 * hy)).ravel(),
    ])
    outer = (grad[:, None, :] * grad[None, :, :]).reshape(64, -1) * pp
    k = 1.0 / (4.0 * hx * hy)
    signs = np.repeat([sign * k for _, _, sign in _DET_PAIRS], 2)
    vals = np.concatenate([outer.ravel(), (signs[:, None] * p).ravel()])
    data = np.add.reduceat(vals[pattern.gather], pattern.starts)
    size = 2 * p.size
    return sps.csr_matrix((data, pattern.indices, pattern.indptr), shape=(size, size), copy=True)


# --- phase-field energy ----------------------------------------------------

def ac_discrete_energy(x, rho0_nodes, rho0_prime_nodes, grid: Grid1D, eps: float) -> float:
    """Discrete phase-field energy of a trajectory,

        (eps^2/2) [ |rho0'(X) (d_h x)^{-1}|^2, d_h x ]_h + [ F(rho0(X)), d_h x ]_h,

    with d_h x evaluated one-sided at the two boundary nodes.
    """
    dhx = node_diff(x, grid)
    if np.any(dhx <= 0.0):
        raise AdmissibilityError("d_h x must stay positive")
    g = np.asarray(rho0_prime_nodes) / dhx
    e_grad = 0.5 * eps * eps * inner_product("node", g * g, dhx, grid)
    e_well = inner_product("node", double_well(np.asarray(rho0_nodes)), dhx, grid)
    return e_grad + e_well
