"""Energy densities, mobilities, and analytic gradients of the discrete energies.

Every conservative solver works with the cell/node transported density
s = rho0 / volume-change.  Each conservative model holds its internal
energy as one term object (``internal``: ``PowerLaw`` or ``Entropy``) with
three methods: the energy density F(s), the pressure-like combination
G(s) = F(s) - s F'(s) (which is what differentiating F(rho0/v) v with
respect to the volume factor v produces), and G'(s) for Newton Hessians.
The 1D and 2D assemblers call these and never ask which model they serve.
The drift potential of the Fokker-Planck model and the logarithmic
interaction of the Keller-Segel models live outside this volume-factor
mechanism and are handled as separate position-dependent terms.

1D energies are sums over cells of width w_c = x_{j+1} - x_j,

    E_h(x) = sum_c F(rho0_c h / w_c) * w_c  (+ drift + interaction),

2D energies are sums over interior nodes of F(rho0/det) * det * h_x h_y.
Their energy, gradient and Hessian take the map's deformation state
(central differences, det and s = rho0/det) from a caller that has it, as
the 1D ones take the cell state: ``wgf2d`` builds one per map and shares it.

The Keller-Segel interaction uses exact inner integration of log|x - y|
over partner cells via the antiderivative a log|a| - a, so the kernel
singularity never needs ad-hoc smoothing; partner positions are lagged one
time level inside the per-step objective (scheme form) and evaluated
self-consistently with weight 1/2 when reporting the energy of a state.
All three orders of that sum (energy, gradient, Hessian) derive from one
pair matrix a = c - y and its log|a|, taken once per evaluation point: a
one-entry memo keyed by the values of (midpoints, partner nodes) serves the
gradient and Hessian that Newton evaluates at the iterate its line search
just accepted.  A memo miss writes a, log|a| and the order's work array
into three buffers kept for the last pair shape, so a run allocates them
once per shape; the read-only a and log|a| it hands out are valid until the
next miss.  The gradient is log|a| @ w and the Hessian (1/a) @ w, with the
partner's telescoping node weights w.  The energy needs no elementwise pass
beyond log|a|: positions are centred on the partner (c~ = c - x0,
y~ = y - x0, x0 the centre of its span, so the cancellation does not depend
on where the cloud sits), and sum_j w_j (a log|a| - a) is
c~ (log|a| @ w) - log|a| @ (w y~) - (c~ sum(w) - w . y~), one product with
the two columns [w, w y~].  ``KsPartner1D`` holds those columns, and
``wgf1d`` builds one per step for the lagged partner.  A point on a partner
node makes log|a| = -inf and that product non-finite; the energy then falls
back to the elementwise sum with 0 log 0 = 0.  The product is not bit-equal
to the elementwise sum; the tests hold it to 1e-13 of the largest entry.

The 2D interaction is an exact direct sum over the N nodes that carry mass.
Its pair matrix r2_ij = |p_i - p_j|^2 is symmetric, so the energy and the
force walk only its upper block strips (``_STRIP`` rows each, sized for the
L2 cache): the energy counts the columns right of each strip's diagonal
block twice, and the antisymmetric force adds each strip's transpose to the
rows below it.  Each strip's r2 is one ``scipy.spatial.distance.cdist``
pass ("sqeuclidean", which sums (0 + dx^2) + dy^2, the bits of
dx*dx + dy*dy).  It is imported on the first 2D kernel call, not with the
module: ``scipy.spatial`` adds about 0.3 s and 6.5 MB to the start-up of
every run, and only these kernels use it.

The strips run on two threads when two CPUs are usable: one worker thread,
started by the first 2D kernel call in a process, reduces the odd strips to
their partial sums and the caller the even ones, each in its own r2 buffer.
The caller adds every partial in strip order, the order of a one-thread
walk, and a strip's partial does not depend on the thread that made it, so
the energy and force have the same bits either way.  cdist, log and the
BLAS products release the interpreter lock, which is what lets the strips
overlap.  A BLAS that runs threads of its own already spreads each product
over the cores, so there the second thread gains little; the benchmark
pins BLAS to one thread.
"""

from __future__ import annotations

import operator
import os
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Union

import numpy as np
import scipy.sparse as sps

from .errors import AdmissibilityError
from .grids import (Grid1D, Grid2D, cell_widths, deformation_stencil, embed_interior,
                    inner_product, jacobian_det_interior, node_diff)

__all__ = [
    "ConstantMobility",
    "DegenerateMobility",
    "Mobility",
    "PowerLaw",
    "Entropy",
    "PorousMedium",
    "FokkerPlanck",
    "KellerSegel1D",
    "KellerSegel2D",
    "KsPartner1D",
    "GinzburgLandau",
    "EnergyModel",
    "double_well",
    "discrete_energy_1d",
    "discrete_energy_grad_1d",
    "discrete_energy_hess_1d",
    "deformation_state_2d",
    "discrete_energy_2d",
    "discrete_energy_hess_2d",
    "hess_2d_structure",
    "mass_mask",
    "ac_discrete_energy",
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
class PowerLaw:
    """Internal energy F(s) = w s^m / (m - 1), m > 1, with G(s) = -w s^m."""

    m: float
    weight: float = 1.0

    def density(self, s):
        return self.weight * s ** self.m / (self.m - 1.0)

    def pressure(self, s):
        return -self.weight * s ** self.m

    def pressure_deriv(self, s):
        return -self.weight * self.m * s ** (self.m - 1.0)


@dataclass(frozen=True)
class Entropy:
    """Internal energy F(s) = w s log s, s > 0, with G(s) = -w s."""

    weight: float = 1.0

    def density(self, s):
        s = np.asarray(s, dtype=float)
        if np.any(s <= 0.0):
            raise ValueError("entropy density needs s > 0")
        return self.weight * s * np.log(s)

    def pressure(self, s):
        return -self.weight * s

    def pressure_deriv(self, s):
        return -self.weight * np.ones_like(np.asarray(s, dtype=float))


InternalEnergy = Union[PowerLaw, Entropy]


@dataclass(frozen=True)
class PorousMedium:
    """F(s) = s^m / (m - 1), m > 1."""

    m: float
    internal: InternalEnergy = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.m > 1.0:
            raise ValueError(f"porous-medium exponent must exceed 1, got m={self.m}")
        object.__setattr__(self, "internal", PowerLaw(self.m))


@dataclass(frozen=True)
class FokkerPlanck:
    """F(s) = s log s + s V(x) with a drift potential V evaluated at moving positions."""

    potential: Callable = _quadratic_well
    potential_grad: Callable = _quadratic_well_grad
    potential_curv: Callable = _quadratic_well_curv
    internal: InternalEnergy = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "internal", Entropy())


@dataclass(frozen=True)
class KellerSegel1D:
    """Entropy s log s plus the attractive kernel W(x) = log|x| / (2 pi)."""

    internal: InternalEnergy = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "internal", Entropy())


@dataclass(frozen=True)
class KellerSegel2D:
    """nu * s^m diffusion (m >= 1) plus the 2D log kernel W(x) = log|x| / (2 pi)."""

    m: float = 1.0
    nu: float = 1.0
    internal: InternalEnergy = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 1.0:
            raise ValueError(f"diffusion exponent must be at least 1, got m={self.m}")
        if self.nu < 0.0:
            raise ValueError(f"diffusion weight must be nonnegative, got nu={self.nu}")
        internal = Entropy(self.nu) if self.m == 1.0 else PowerLaw(self.m, self.nu)
        object.__setattr__(self, "internal", internal)


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


# --- Keller-Segel 1D interaction ------------------------------------------

def _ks_node_weights(rho_cells):
    # telescoping weights so that sum_j rho_j (B(a_j) - B(a_{j+1})) = B @ w
    m = rho_cells.shape[0]
    w = np.zeros(m + 1)
    w[:-1] += rho_cells
    w[1:] -= rho_cells
    return w


class KsPartner1D:
    """The interaction partner of the 1D Keller-Segel sums (nodes y and cell
    densities) with the constants of its order-0 sum, built once per partner:
    ``wgf1d`` builds one per step for the lagged state.

    The node weights w telescope the cell sums (``_ks_node_weights``).  With
    the centre x0 of the partner's span and y~ = y - x0, ``cols`` is the
    (M + 1) x 2 matrix [w, w y~], ``w_sum`` = sum(w) and ``wy_sum`` = w . y~.
    The nodes and densities are copies, so the constants never go stale.
    """

    __slots__ = ("x", "rho", "w", "x0", "cols", "w_sum", "wy_sum")

    def __init__(self, x, rho):
        self.x = np.array(x, dtype=float)
        self.rho = np.array(rho, dtype=float)
        self.w = _ks_node_weights(self.rho)
        self.x0 = 0.5 * (self.x[0] + self.x[-1])
        y = self.x - self.x0
        self.cols = np.stack([self.w, self.w * y], axis=1)
        self.w_sum = float(self.w.sum())
        self.wy_sum = float(self.w @ y)
        for arr in (self.x, self.rho, self.w, self.cols):
            arr.flags.writeable = False


# (midpoints, partner nodes, a, log|a|) of the last evaluation point; one
# tuple, so a reader never sees a key with another key's matrices
_pair_memo = None
# writable (a, log|a|, work) of the last pair shape, refilled by each miss
_pair_bufs = None


def _ks_pairs(points, nodes):
    """a = points_i - nodes_j, log|a| (-inf where a == 0) and a work array of
    the same shape, memoized; the caller ignores divide-by-zero.

    Keys are compared by value and stored as copies, so an array changed in
    place after a call is never answered from the memo.  A miss writes into
    buffers kept for the last pair shape (a new shape reallocates them), so
    the read-only a and log|a| handed out stay valid only until the next
    miss, and ``work`` is scratch for the caller.
    """
    global _pair_memo, _pair_bufs
    memo = _pair_memo
    if memo is not None and np.array_equal(points, memo[0]) and np.array_equal(nodes, memo[1]):
        return memo[2], memo[3], _pair_bufs[2]
    shape = (points.size, nodes.size)
    if _pair_bufs is None or _pair_bufs[0].shape != shape:
        _pair_bufs = (np.empty(shape), np.empty(shape), np.empty(shape))
    a, log_abs, work = _pair_bufs
    # a row-broadcast subtract into a filled buffer: the bits of
    # points[:, None] - nodes[None, :], in less time
    a[...] = points[:, None]
    np.subtract(a, nodes, out=a)
    np.abs(a, out=log_abs)
    np.log(log_abs, out=log_abs)
    a, log_abs = a.view(), log_abs.view()
    a.flags.writeable = log_abs.flags.writeable = False  # shared by later callers
    _pair_memo = (points.copy(), nodes.copy(), a, log_abs)
    return a, log_abs, work


def _ks1d_sums(points, partner: KsPartner1D, order):
    """sum_j rho_j * d^order/dc^order int_{cell j} log|c - y| dy at each point c.

    Order 1 sums log|a| and order 2 1/a, from one memoized (a, log|a|).
    Order 0 sums the antiderivative a log|a| - a (0 at a = 0).  With
    a_ij = c~_i - y~_j (centred on the partner) and L = log|a| that sum is
    c~_i (L w)_i - (L (w y~))_i - (c~_i sum(w) - w . y~), so one product of
    L with the partner's two columns gives it.  A point on a partner node
    (L = -inf) makes that result non-finite; then the elementwise sum with
    its a == 0 fixup is used.
    """
    points = np.asarray(points, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        a, log_abs, work = _ks_pairs(points, partner.x)
        if order == 1:
            return log_abs @ partner.w
        if order == 2:
            return np.divide(1.0, a, out=work) @ partner.w
        sums = log_abs @ partner.cols
        c = points - partner.x0
        out = c * sums[:, 0] - sums[:, 1] - (c * partner.w_sum - partner.wy_sum)
        if np.isfinite(out).all():
            return out
        # 0 * log 0 at a point that sits on a partner node
        anti = np.multiply(a, log_abs, out=work)
        anti -= a
        anti[a == 0.0] = 0.0
        return anti @ partner.w


def ks1d_interaction_energy(x, rho0, grid: Grid1D, partner: KsPartner1D | None = None) -> float:
    """Logarithmic interaction energy of a 1D Keller-Segel state.

    With a ``partner`` (the lagged state) it is the per-step objective's
    term, with no factor 1/2; without one both slots use the state itself
    and the symmetric factor 1/2 applies (the reported physical energy).
    """
    masses = np.asarray(rho0) * grid.h
    mids = 0.5 * (np.asarray(x)[:-1] + np.asarray(x)[1:])
    scheme_form = partner is not None
    if not scheme_form:
        partner = KsPartner1D(x, masses / np.diff(x))
    total = float(masses @ _ks1d_sums(mids, partner, 0)) / (2.0 * np.pi)
    return total if scheme_form else 0.5 * total


def _ks1d_grad(x, rho0, grid: Grid1D, partner: KsPartner1D):
    """Node gradient of the scheme-form interaction (partner lagged)."""
    x = np.asarray(x)
    masses = np.asarray(rho0) * grid.h
    mids = 0.5 * (x[:-1] + x[1:])
    phi1 = _ks1d_sums(mids, partner, 1) * masses / (2.0 * np.pi)
    g = np.zeros_like(x)
    g[:-1] += 0.5 * phi1
    g[1:] += 0.5 * phi1
    return g


def _ks1d_hess_cell(x, rho0, grid: Grid1D, partner: KsPartner1D):
    """Per-cell curvature phi'' * mass / (2 pi) of the scheme-form interaction."""
    x = np.asarray(x)
    masses = np.asarray(rho0) * grid.h
    mids = 0.5 * (x[:-1] + x[1:])
    return _ks1d_sums(mids, partner, 2) * masses / (2.0 * np.pi)


def _ks1d_partner(x, s, lagged_x, lagged_rho, partner):
    """The partner of a gradient or Hessian: ``partner`` if given, else the
    lagged state, else the state x itself with its cell densities s."""
    if partner is not None:
        return partner
    if lagged_x is None:
        return KsPartner1D(x, s)
    return KsPartner1D(lagged_x, lagged_rho)


# --- 1D discrete energy, gradient, Hessian --------------------------------

def _cell_state(x, rho0, grid: Grid1D):
    widths, _ = cell_widths(np.asarray(x))
    return widths, np.asarray(rho0) * grid.h / widths


def discrete_energy_1d(model: EnergyModel, x, rho0, grid: Grid1D,
                       lagged_x=None, lagged_rho=None, cells=None,
                       partner: KsPartner1D | None = None) -> float:
    """E_h(x) = (F(rho0 / D_h x), D_h x)_h plus drift/interaction terms.

    For Keller-Segel, passing a lagged partner state selects the per-step
    scheme energy; without it the reported self-consistent energy is
    returned.  ``partner`` is ``KsPartner1D(lagged_x, lagged_rho)`` from a
    caller that evaluates many iterates against one lagged state, and then
    stands for both.  ``cells = (widths, s)`` is the already checked cell
    state of ``x`` (widths and s = rho0 h / width), which a caller that
    evaluates the same iterate several times computes once.
    """
    widths, s = _cell_state(x, rho0, grid) if cells is None else cells
    total = float((model.internal.density(s) * widths).sum())
    if isinstance(model, FokkerPlanck):
        mids = 0.5 * (np.asarray(x)[:-1] + np.asarray(x)[1:])
        total += float(np.sum(np.asarray(rho0) * grid.h * model.potential(mids)))
    elif isinstance(model, KellerSegel1D):
        if partner is None and lagged_x is not None:
            partner = KsPartner1D(lagged_x, lagged_rho)
        total += ks1d_interaction_energy(x, rho0, grid, partner)
    return total


def discrete_energy_grad_1d(model: EnergyModel, x, rho0, grid: Grid1D,
                            pinned: bool = True, lagged_x=None, lagged_rho=None,
                            cells=None, partner: KsPartner1D | None = None) -> np.ndarray:
    """Analytic node gradient of ``discrete_energy_1d`` (``cells`` and
    ``partner`` as there).

    Returns a full node-length array; with ``pinned`` the two boundary
    entries are zeroed (those degrees of freedom do not exist).
    """
    x = np.asarray(x)
    widths, s = _cell_state(x, rho0, grid) if cells is None else cells
    gcell = model.internal.pressure(s)
    g = np.zeros(x.shape)
    g[1:] += gcell
    g[:-1] -= gcell
    if isinstance(model, FokkerPlanck):
        mids = 0.5 * (x[:-1] + x[1:])
        f = 0.5 * np.asarray(rho0) * grid.h * model.potential_grad(mids)
        g[:-1] += f
        g[1:] += f
    elif isinstance(model, KellerSegel1D):
        g += _ks1d_grad(x, rho0, grid, _ks1d_partner(x, s, lagged_x, lagged_rho, partner))
    if pinned:
        g[0] = 0.0
        g[-1] = 0.0
    return g


def discrete_energy_hess_1d(model: EnergyModel, x, rho0, grid: Grid1D,
                            lagged_x=None, lagged_rho=None, cells=None,
                            partner: KsPartner1D | None = None):
    """Tridiagonal Hessian of the 1D energy as (diag, off) over all nodes
    (``cells`` and ``partner`` as in ``discrete_energy_1d``)."""
    x = np.asarray(x)
    widths, s = _cell_state(x, rho0, grid) if cells is None else cells
    # d/dw of G(rho0 h / w) = -G'(s) s / w, the per-cell curvature
    hcell = -model.internal.pressure_deriv(s)
    hcell *= s
    hcell /= widths
    diag = np.zeros(x.shape)
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
        c = 0.25 * _ks1d_hess_cell(x, rho0, grid,
                                   _ks1d_partner(x, s, lagged_x, lagged_rho, partner))
        diag[1:] += c
        diag[:-1] += c
        off = off + c
    return diag, off


# --- 2D discrete energy, gradient, Hessian --------------------------------

def _check_2d_model(model):
    if not isinstance(model, (PorousMedium, KellerSegel2D)):
        raise TypeError(f"{type(model).__name__} is not supported by the 2D energies")


def deformation_state_2d(x, y, rho0, grid: Grid2D,
                         failure: str = "non-positive deformation determinant"):
    """The deformation state (stencil, det, s) of the node map (x, y): the
    central differences of ``deformation_stencil``, the determinant from
    them (checked positive, else AdmissibilityError(failure)) and s =
    rho0 / det at the interior nodes.  The 2D energy, gradient and Hessian
    take it as their ``state``."""
    stencil = deformation_stencil(x, y, grid)
    det = jacobian_det_interior(x, y, grid, stencil)
    if not (det > 0.0).all():
        raise AdmissibilityError(failure)
    return stencil, det, np.asarray(rho0)[1:-1, 1:-1] / det


def _interaction_nodes(x, y, rho0, grid: Grid2D):
    """Mask of the nodes that carry mass, and their positions and masses."""
    masses = (np.asarray(rho0) * grid.h_x * grid.h_y).ravel()
    keep = masses > 0.0
    return keep, np.asarray(x).ravel()[keep], np.asarray(y).ravel()[keep], masses[keep]


_STRIP = 32  # rows per block strip of the 2D pair matrix: 1.1 MB of float64 at 64^2
_AHEAD = 2  # strips the worker may reduce before the caller has added their partials

# (pid, executor) of the strip worker thread: a forked child makes its own
_strip_worker = None
_strip_worker_lock = threading.Lock()
# each thread's r2 strip buffer, grown to the largest strip it has filled
_strip_buffers = threading.local()
_WORKER_STOPPED = object()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _strip_pool():
    """The executor of the one strip worker thread, made on the first call in
    this process, or None when only one CPU is usable."""
    global _strip_worker
    if _usable_cpus() < 2:
        return None
    with _strip_worker_lock:
        if _strip_worker is None or _strip_worker[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor
            pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="lagflow-strips")
            _strip_worker = (os.getpid(), pool)
        return _strip_worker[1]


def _fold_upper_strips(px, py, diagonal: float, reduce, add, acc):
    """Fold the upper block strips of the symmetric matrix r2_ij = |p_i - p_j|^2:
    acc = add(acc, reduce(lo, hi, r2)) for lo = 0, _STRIP, 2 _STRIP, ... in order.

    r2[k, j] is r2 of rows lo + k and columns lo + j, for the rows lo:hi and
    the columns lo:, so every pair appears once in exactly one strip except
    those inside the diagonal block rows lo:hi x columns lo:hi, which appear
    in both orders.  The diagonal r2_ii is set to ``diagonal``.  ``r2`` is
    its thread's buffer, which the next strip refills; ``reduce`` may
    overwrite it and must copy what it keeps.

    With two usable CPUs one worker thread reduces the odd strips, at most
    ``_AHEAD`` ahead of the caller, and the caller the even ones; with one
    the caller reduces them all.  ``add`` always runs in the caller in strip
    order, so the result has the bits of a serial fold either way.  An
    exception in the worker is raised in the caller, and the worker has
    stopped by the time this returns or raises.
    """
    # imported here, as is the executor in _strip_pool: scipy.spatial adds
    # about 0.3 s and 6.5 MB to the import of every run, queue and the
    # executor a few ms, and only the 2D Keller-Segel kernels use them
    import queue
    from scipy.spatial.distance import cdist

    n = px.size
    pts = np.column_stack([px, py])
    los = range(0, n, _STRIP)

    def strip(lo):
        hi = min(lo + _STRIP, n)
        size = (hi - lo) * (n - lo)
        buf = getattr(_strip_buffers, "r2", None)
        if buf is None or buf.size < size:
            buf = _strip_buffers.r2 = np.empty(min(_STRIP, n) * n)
        r2 = buf[:size].reshape(hi - lo, n - lo)
        # one C pass per pair, (0 + dx^2) + dy^2: the bits of dx*dx + dy*dy
        cdist(pts[lo:hi], pts[lo:], "sqeuclidean", out=r2)
        np.fill_diagonal(r2, diagonal)
        return reduce(lo, hi, r2)

    pool = _strip_pool() if len(los) > 1 else None
    theirs = los[1::2] if pool is not None else range(0)
    parts = queue.SimpleQueue()
    # not bounded: the wake-up in ``finally`` may lift it past _AHEAD once
    # the worker is stopping anyway
    ahead = threading.Semaphore(_AHEAD)
    stop = threading.Event()

    def reduce_theirs():
        try:
            for lo in theirs:
                ahead.acquire()
                if stop.is_set():
                    return
                parts.put(strip(lo))
        finally:
            parts.put(_WORKER_STOPPED)

    job = pool.submit(reduce_theirs) if theirs else None
    try:
        for lo in los:
            if lo in theirs:
                part = parts.get()
                if part is _WORKER_STOPPED:
                    job.result()  # raises the worker's exception
                ahead.release()
            else:
                part = strip(lo)
            acc = add(acc, part)
    finally:
        if job is not None:
            stop.set()
            ahead.release()  # wakes a worker waiting to run ahead
            job.exception()  # waits until the worker has stopped
    return acc


def ks2d_interaction_energy(model: KellerSegel2D, x, y, rho0, grid: Grid2D) -> float:
    """Pairwise log-kernel energy over nodes; the self term integrates the
    kernel over a disk of one reference cell's area.

    The double sum sum_ij m_i m_j log r2_ij runs over the upper block strips
    of the symmetric pair matrix: each strip counts its diagonal block once
    and the columns right of it twice.
    """
    _, px, py, m = _interaction_nodes(x, y, rho0, grid)

    def strip_energy(lo, hi, r2):
        log_r2 = np.log(r2, out=r2)
        rows = hi - lo
        row_sums = log_r2[:, :rows] @ m[lo:hi] + 2.0 * (log_r2[:, rows:] @ m[hi:])
        return float(m[lo:hi] @ row_sums)

    total = _fold_upper_strips(px, py, 1.0, strip_energy, operator.add, 0.0)
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

    def strip_force(lo, hi, r2):
        w = np.divide(1.0, r2, out=r2)
        return lo, hi, w @ moments[lo:], w[:, hi - lo:].T @ moments[lo:hi]

    def add_strip(sums, part):
        lo, hi, own, below = part
        sums[lo:hi] += own
        sums[hi:] += below
        return sums

    sums = _fold_upper_strips(px, py, np.inf, strip_force, add_strip, np.zeros_like(moments))
    shape = np.asarray(x).shape
    fx = np.zeros(shape[0] * shape[1])
    fy = np.zeros_like(fx)
    fx[keep] = (cx * sums[:, 0] - sums[:, 1]) * m / (2.0 * np.pi)
    fy[keep] = (cy * sums[:, 0] - sums[:, 2]) * m / (2.0 * np.pi)
    scale = grid.h_x * grid.h_y
    return fx.reshape(shape) / scale, fy.reshape(shape) / scale


def discrete_energy_2d(model: EnergyModel, x, y, rho0, grid: Grid2D, state=None) -> float:
    """E_{h,2} = sum_ij F(rho0/det) det h_x h_y plus any interaction energy.

    ``state`` is the deformation state of (x, y) (``deformation_state_2d``),
    which a caller that evaluates the same map several times computes once.
    """
    _check_2d_model(model)
    _, det, s = deformation_state_2d(x, y, rho0, grid) if state is None else state
    total = float(np.sum(model.internal.density(s) * det)) * grid.h_x * grid.h_y
    if isinstance(model, KellerSegel2D):
        total += ks2d_interaction_energy(model, x, y, rho0, grid)
    return total


def deformation_energy_grad_2d(model: EnergyModel, x, y, rho0, grid: Grid2D, state=None):
    """Gradient of the per-cell-area energy sum F(rho0/det) det (no h_x h_y).

    This is the force density entering the 2D schemes.  Returns full-shape
    (gx, gy) with zero boundary ring.  ``state`` as in ``discrete_energy_2d``.
    """
    _check_2d_model(model)
    x = np.asarray(x)
    y = np.asarray(y)
    (x_x, x_y, y_x, y_y), _, s = (deformation_state_2d(x, y, rho0, grid) if state is None
                                  else state)
    p = model.internal.pressure(s)
    hx, hy = grid.h_x, grid.h_y
    q_yy = embed_interior(p * y_y, grid)
    q_yx = embed_interior(p * y_x, grid)
    q_xy = embed_interior(p * x_y, grid)
    q_xx = embed_interior(p * x_x, grid)
    gx = np.zeros_like(x)
    gy = np.zeros_like(y)
    gx[1:-1, 1:-1] = ((q_yy[1:-1, :-2] - q_yy[1:-1, 2:]) / (2.0 * hx)
                      + (q_yx[2:, 1:-1] - q_yx[:-2, 1:-1]) / (2.0 * hy))
    gy[1:-1, 1:-1] = ((q_xy[1:-1, 2:] - q_xy[1:-1, :-2]) / (2.0 * hx)
                      + (q_xx[:-2, 1:-1] - q_xx[2:, 1:-1]) / (2.0 * hy))
    return gx, gy


# second derivatives of the bilinear determinant, in units of 1/(4 hx hy), as
# (stencil slot, stencil slot, sign): (x_X, y_Y) pairs carry +1, (y_X, x_Y) pairs -1
_DET_PAIRS = ((0, 7, -1.0), (0, 6, 1.0), (1, 7, 1.0), (1, 6, -1.0),
              (4, 3, 1.0), (4, 2, -1.0), (5, 3, -1.0), (5, 2, 1.0))


class _HessPattern(NamedTuple):
    nodes: np.ndarray    # flat interior indices of the nodes that carry mass, ascending
    gather: np.ndarray   # positions in the per-node value list, in CSR order
    starts: np.ndarray   # reduceat offsets: first gathered entry of each stored entry
    indices: np.ndarray
    indptr: np.ndarray


def mass_mask(rho0) -> Union[bytes, None]:
    """Cache key of the interior nodes that carry mass (row-major bool bytes),
    or None when every interior node does."""
    massive = np.asarray(rho0)[1:-1, 1:-1] > 0.0
    return None if massive.all() else massive.tobytes()


@lru_cache(maxsize=8)
def _hess_2d_pattern(my1: int, mx1: int, mask: Union[bytes, None] = None) -> _HessPattern:
    """Sparsity of ``discrete_energy_hess_2d`` on an (my1, mx1) interior whose
    nodes with mass are ``mask`` (see ``mass_mask``; None: all of them).

    Each node with mass contributes 80 entries: the 64 products of its eight
    stencil unknowns, then the 16 determinant second derivatives of
    ``_DET_PAIRS``, each pair in both orders.  A massless node contributes
    exact zeros (rho0 = 0 gives G = G' s = 0) and is left out.  Entries that
    touch the boundary ring are dropped; the rest are put in CSR order
    (stable, so duplicates are summed in value-list order).  The arrays are
    read-only.
    """
    n_int = my1 * mx1
    size = 2 * n_int
    nodes = np.arange(n_int) if mask is None else np.flatnonzero(np.frombuffer(mask, dtype=bool))
    ii, jj = np.divmod(nodes, mx1)
    ii, jj = ii + 1, jj + 1

    def dof(i, j, comp):
        # interior unknown index or -1 for boundary ring
        inside = (i >= 1) & (i <= my1) & (j >= 1) & (j <= mx1)
        return np.where(inside, (i - 1) * mx1 + (j - 1) + comp * n_int, -1)

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
    pattern = _HessPattern(nodes, gather, starts, keys[starts] % size, indptr)
    for arr in pattern:
        arr.flags.writeable = False
    return pattern


def hess_2d_structure(my1: int, mx1: int, mask: Union[bytes, None] = None):
    """CSR ``indptr`` and ``indices`` of every matrix ``discrete_energy_hess_2d``
    returns on an (my1, mx1) interior whose nodes with mass are ``mask`` (see
    ``mass_mask``).  Its ``data`` is stored in this order, duplicates summed
    and nothing pruned.  The arrays are cached and read-only."""
    pattern = _hess_2d_pattern(my1, mx1, mask)
    return pattern.indptr, pattern.indices


def discrete_energy_hess_2d(model: EnergyModel, x, y, rho0, grid: Grid2D,
                            state=None) -> sps.csr_matrix:
    """Sparse Hessian of the internal energy sum F(rho0/det) det over stacked
    interior unknowns [x; y], for every 2D model.

    A Keller-Segel interaction term is not part of it: that Hessian is
    dense, and the 2D schemes take the interaction force explicitly (the
    implicit step refuses Keller-Segel models).  Only the nodes with mass
    contribute: the sparsity pattern is built once per interior shape and
    mass mask (``_hess_2d_pattern``), so an entry that only massless nodes
    touch is not stored, and each call computes the values on the nodes
    with mass only.  ``state`` as in ``discrete_energy_2d``.
    """
    _check_2d_model(model)
    stencil, det, s = deformation_state_2d(x, y, rho0, grid) if state is None else state
    pattern = _hess_2d_pattern(*det.shape, mass_mask(rho0))
    nodes = pattern.nodes
    det = det.ravel()[nodes]
    s = s.ravel()[nodes]
    p = model.internal.pressure(s)
    # d/d(det) of G(rho0/det) = -G'(s) s / det
    pp = -model.internal.pressure_deriv(s) * s / det
    hx, hy = grid.h_x, grid.h_y
    x_x, x_y, y_x, y_y = (d.ravel()[nodes] for d in stencil)
    # d(det)/d(stencil unknown), in stencil order
    grad = np.stack([
        -y_y / (2.0 * hx), y_y / (2.0 * hx), y_x / (2.0 * hy), -y_x / (2.0 * hy),
        x_y / (2.0 * hx), -x_y / (2.0 * hx), -x_x / (2.0 * hy), x_x / (2.0 * hy),
    ])
    outer = (grad[:, None, :] * grad[None, :, :]).reshape(64, -1) * pp
    k = 1.0 / (4.0 * hx * hy)
    signs = np.repeat([sign * k for _, _, sign in _DET_PAIRS], 2)
    vals = np.concatenate([outer.ravel(), (signs[:, None] * p).ravel()])
    data = np.add.reduceat(vals[pattern.gather], pattern.starts)
    size = pattern.indptr.size - 1
    return sps.csr_matrix((data, pattern.indices, pattern.indptr), shape=(size, size), copy=True)


# --- phase-field energy ----------------------------------------------------

def ac_discrete_energy(x, rho0_nodes, rho0_prime_nodes, grid: Grid1D, eps: float,
                       dhx=None, well=None) -> float:
    """Discrete phase-field energy of a trajectory,

        (eps^2/2) [ |rho0'(X) (d_h x)^{-1}|^2, d_h x ]_h + [ F(rho0(X)), d_h x ]_h,

    with d_h x evaluated one-sided at the two boundary nodes (``dhx``, when
    the caller has it and knows it positive) and F(rho0(X)) (``well``, when
    the caller has it).  A d_h x computed here that is not positive raises
    AdmissibilityError.
    """
    if dhx is None:
        dhx = node_diff(x, grid)
        if np.any(dhx <= 0.0):
            raise AdmissibilityError("d_h x must stay positive")
    if well is None:
        well = double_well(np.asarray(rho0_nodes))
    g = np.asarray(rho0_prime_nodes) / dhx
    e_grad = 0.5 * eps * eps * inner_product("node", g * g, dhx, grid)
    e_well = inner_product("node", well, dhx, grid)
    return e_grad + e_well
