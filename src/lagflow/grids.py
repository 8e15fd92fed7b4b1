"""Reference grids, staggered difference operators and density transport.

The 1D layout is a staggered grid on [x_min, x_max]: M_x cells of width h,
node fields of length M_x+1 (trajectories live here) and midpoint fields of
length M_x (densities live here).  Two difference operators connect the
layouts,

    (D_h x)_{j+1/2} = (x_{j+1} - x_j) / h        nodes -> midpoints,
    (d_h u)_j       = (u_{j+1/2} - u_{j-1/2}) / h midpoints -> interior nodes,

together with the matching quadratures (u, v)_h (midpoint) and [u, v]_h
(node, half-weighted endpoints).  For zero-boundary node fields the pair
satisfies the summation-by-parts identity (D_h u, v)_h = -[u, d_h v]_h.

The 2D layout is a tensor-product node grid; the deformation determinant is
the central-difference 2x2 determinant at interior nodes, computed from the
four central differences of ``deformation_stencil`` (which a caller that has
them hands in).  Densities are recovered by pushforward: values are
transported (non-conservative) or divided by the local volume change
(conservative).

The public trajectory constructors check everything and carry no solver
state.  The solvers build the next trajectory through ``_after_step``, which
checks only what the accepted iterate's state does not prove and keeps that
state on the trajectory: the 1D cell widths (``Trajectory1D.cells``) and the
2D deformation state (``Trajectory2D.deformation``), the one place a step
hands state to the next step and to its record.  A solver reads that state
through ``carried_state``, which hands it over only to the problem it was
made for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityError

__all__ = [
    "Grid1D",
    "Grid2D",
    "Trajectory1D",
    "Trajectory2D",
    "DensityField1D",
    "DensityField2D",
    "forward_diff",
    "node_diff",
    "inner_product",
    "embed_interior",
    "deformation_stencil",
    "jacobian_det_interior",
    "pushforward_density_1d",
    "cell_widths",
    "carried_state",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` with the given fields,
    built without ``__post_init__``'s checks."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


@dataclass(frozen=True)
class Grid1D:
    """Uniform reference grid with M_x cells on [x_min, x_max]."""

    x_min: float
    x_max: float
    m_x: int
    h: float = field(init=False)
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.m_x < 2:
            raise ValueError(f"need at least 2 cells, got m_x={self.m_x}")
        if not self.x_max > self.x_min:
            raise ValueError(f"empty extent [{self.x_min}, {self.x_max}]")
        h = (self.x_max - self.x_min) / self.m_x
        nodes = self.x_min + h * np.arange(self.m_x + 1)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "nodes", _readonly(nodes))

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    @property
    def length(self) -> float:
        return self.x_max - self.x_min


@dataclass(frozen=True)
class Grid2D:
    """Tensor-product node grid; index [i, j] is (row = y, column = x)."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    m_x: int
    m_y: int
    h_x: float = field(init=False)
    h_y: float = field(init=False)
    ref_x: np.ndarray = field(init=False, repr=False)
    ref_y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.m_x < 2 or self.m_y < 2:
            raise ValueError(f"need at least 2 cells per direction, got ({self.m_x}, {self.m_y})")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("empty extent")
        h_x = (self.x_max - self.x_min) / self.m_x
        h_y = (self.y_max - self.y_min) / self.m_y
        xs = self.x_min + h_x * np.arange(self.m_x + 1)
        ys = self.y_min + h_y * np.arange(self.m_y + 1)
        ref_x, ref_y = np.meshgrid(xs, ys)
        object.__setattr__(self, "h_x", h_x)
        object.__setattr__(self, "h_y", h_y)
        object.__setattr__(self, "ref_x", _readonly(ref_x))
        object.__setattr__(self, "ref_y", _readonly(ref_y))

    @property
    def node_shape(self) -> tuple[int, int]:
        return (self.m_y + 1, self.m_x + 1)


def _check_node(x, grid: Grid1D, name: str = "x"):
    x = np.asarray(x)
    if x.shape != (grid.m_x + 1,):
        raise ValueError(f"{name}: expected node field of length {grid.m_x + 1}, got shape {x.shape}")
    return x


def _pinned_close(c: float, r: float) -> bool:
    """|c - r| <= 1e-8 + 1e-5 |r| (numpy.isclose's default test, on two floats;
    false for nan)."""
    return abs(c - r) <= 1e-8 + 1e-5 * abs(r)


def _check_mid(u, grid: Grid1D, name: str = "u"):
    u = np.asarray(u)
    if u.shape != (grid.m_x,):
        raise ValueError(f"{name}: expected midpoint field of length {grid.m_x}, got shape {u.shape}")
    return u


def forward_diff(x, grid: Grid1D) -> np.ndarray:
    """Cell slopes (D_h x)_{j+1/2} = (x_{j+1} - x_j)/h; nodes -> midpoints."""
    x = _check_node(x, grid)
    return (x[1:] - x[:-1]) / grid.h


def node_diff(x, grid: Grid1D) -> np.ndarray:
    """d_h of a trajectory at every node, one-sided at the two endpoints.

    Interior nodes use the midpoint stencil, which for midpoints built from
    ``x`` itself collapses to (x_{j+1} - x_{j-1})/(2h).  At j = 0 and j = M_x
    the half-cell one-sided difference equals the adjacent cell slope.
    """
    x = _check_node(x, grid)
    out = np.empty_like(x)
    out[1:-1] = (x[2:] - x[:-2]) / (2.0 * grid.h)
    out[0] = (x[1] - x[0]) / grid.h
    out[-1] = (x[-1] - x[-2]) / grid.h
    return out


def inner_product(kind: str, u, v, grid: Grid1D) -> float:
    """Discrete inner product; ``kind`` is "midpoint" for (u,v)_h, "node" for [u,v]_h."""
    if kind == "midpoint":
        u = _check_mid(u, grid, "u")
        v = _check_mid(v, grid, "v")
        return float(grid.h * np.dot(u, v))
    if kind == "node":
        u = _check_node(u, grid, "u")
        v = _check_node(v, grid, "v")
        s = np.dot(u[1:-1], v[1:-1]) + 0.5 * (u[0] * v[0] + u[-1] * v[-1])
        return float(grid.h * s)
    raise ValueError(f"unknown inner product kind {kind!r}")


def cell_widths(x):
    """(widths, min_width) of the 1D node array x: its cell widths
    x[1:] - x[:-1] and the narrowest of them.  Nodes that are not strictly
    increasing raise AdmissibilityError."""
    widths = x[1:] - x[:-1]
    min_width = widths.min()
    if not min_width > 0.0:
        raise AdmissibilityError("trajectory nodes are not strictly increasing")
    return widths, min_width


def carried_state(state, problem):
    """``state`` if it is a solver's state made for ``problem`` (its ``p``),
    such as the ``cells`` or ``deformation`` a trajectory carries, else None."""
    return state if getattr(state, "p", None) is problem else None


@dataclass(frozen=True)
class Trajectory1D:
    """Two most recent node trajectories plus the step that separates them.

    ``pinned`` marks Dirichlet runs where both endpoints coincide with the
    reference; free-boundary runs (moving support) drop that constraint but
    still require strictly increasing nodes.  ``widths`` holds the cell
    widths of ``curr``, all positive.  ``cells`` is the checked cell state of
    ``curr`` that the solver step which built this history left
    (``_after_step``), None for one from the constructor or ``at_rest``.
    ``before`` is the level before ``prev`` and the step between them,
    (x^{n-2}, tau_{n-1}), which ``_after_step`` takes from the old history
    and the phase-field predictor reads; None for one from the constructor
    or ``at_rest``, and an infinite tau_{n-1} (the history after the step
    from rest) counts as none.
    """

    prev: np.ndarray
    curr: np.ndarray
    tau_prev: float
    time: float
    step_index: int
    grid: Grid1D
    pinned: bool = True
    widths: np.ndarray = field(init=False, repr=False, compare=False)
    cells: object = field(default=None, init=False, repr=False, compare=False)
    before: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        prev = _readonly(_check_node(self.prev, self.grid, "prev"))
        curr = _readonly(_check_node(self.curr, self.grid, "curr"))
        object.__setattr__(self, "prev", prev)
        object.__setattr__(self, "curr", curr)
        if self.tau_prev <= 0.0:
            raise ValueError(f"tau_prev must be positive, got {self.tau_prev}")
        if self.pinned:
            ref = self.grid.nodes
            if not (_pinned_close(float(curr[0]), float(ref[0]))
                    and _pinned_close(float(curr[-1]), float(ref[-1]))):
                raise ValueError("pinned trajectory must keep boundary nodes on the reference")
        widths, _ = cell_widths(curr)
        widths.flags.writeable = False
        object.__setattr__(self, "widths", widths)

    @classmethod
    def at_rest(cls, grid: Grid1D, pinned: bool = True) -> "Trajectory1D":
        """The history a run starts from: both levels on the reference, time 0,
        tau_prev = inf, so the next step has ratio 0 and BDF2 is backward Euler."""
        return cls(grid.nodes, grid.nodes, math.inf, 0.0, 0, grid, pinned)

    @classmethod
    def _after_step(cls, traj: "Trajectory1D", x, tau: float, cells) -> "Trajectory1D":
        """The history after a step of length tau > 0 from ``traj`` to the node
        array x, carrying ``cells``, a solver's cell state of x: its
        ``widths`` are x[1:] - x[:-1], bit for bit, and ``min_width`` the
        narrowest of them.  ``traj``'s (prev, tau_prev) becomes ``before``.

        Only what that state does not prove is checked: the shape, a positive
        narrowest width and, on pinned runs, end nodes equal to those of
        ``traj.curr``, which the solvers never move.  x and the widths become
        read-only.
        """
        if x.shape != traj.curr.shape:
            raise ValueError(f"x: expected node field of length {traj.curr.shape[0]}, "
                             f"got shape {x.shape}")
        if not cells.min_width > 0.0:
            raise AdmissibilityError("trajectory nodes are not strictly increasing")
        curr = traj.curr
        if traj.pinned and not (x[0] == curr[0] and x[-1] == curr[-1]):
            raise ValueError("pinned trajectory must keep boundary nodes on the reference")
        x = _readonly(x)
        cells.widths.flags.writeable = False
        return _unchecked(cls, prev=curr, curr=x, tau_prev=tau, time=traj.time + tau,
                          step_index=traj.step_index + 1, grid=traj.grid,
                          pinned=traj.pinned, widths=cells.widths, cells=cells,
                          before=(traj.prev, traj.tau_prev))


@dataclass(frozen=True)
class Trajectory2D:
    """Two most recent 2D node maps (x, y components stored separately).

    ``deformation`` is the deformation state of (curr_x, curr_y) that the
    solver step which built this history left (``_after_step``): its
    central differences, its determinant (positive) and the transported
    density, from which the step's density, the record's mass and energy and
    the next step's objective at x^n are read.  It is None for a history
    from the constructor or ``at_rest``.
    """

    prev_x: np.ndarray
    prev_y: np.ndarray
    curr_x: np.ndarray
    curr_y: np.ndarray
    tau_prev: float
    time: float
    step_index: int
    grid: Grid2D
    deformation: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = self.grid.node_shape
        for name in ("prev_x", "prev_y", "curr_x", "curr_y"):
            a = np.asarray(getattr(self, name))
            if a.shape != shape:
                raise ValueError(f"{name}: expected shape {shape}, got {a.shape}")
            object.__setattr__(self, name, _readonly(a))
        if self.tau_prev <= 0.0:
            raise ValueError(f"tau_prev must be positive, got {self.tau_prev}")
        det = jacobian_det_interior(self.curr_x, self.curr_y, self.grid)
        if np.any(det <= 0.0):
            raise AdmissibilityError("non-positive deformation determinant at an interior node")
        for comp, ref in ((self.curr_x, self.grid.ref_x), (self.curr_y, self.grid.ref_y)):
            b = np.concatenate([comp[0], comp[-1], comp[:, 0], comp[:, -1]])
            rb = np.concatenate([ref[0], ref[-1], ref[:, 0], ref[:, -1]])
            if not np.allclose(b, rb):
                raise ValueError("boundary nodes must coincide with the reference")

    @classmethod
    def at_rest(cls, grid: Grid2D) -> "Trajectory2D":
        """The history at rest (see ``Trajectory1D.at_rest``)."""
        return cls(grid.ref_x, grid.ref_y, grid.ref_x, grid.ref_y, math.inf, 0.0, 0, grid)

    @classmethod
    def _after_step(cls, traj: "Trajectory2D", x, y, tau: float,
                    deformation) -> "Trajectory2D":
        """The history after a step of length tau > 0 from ``traj`` to the
        node map (x, y), carrying ``deformation``, a solver's deformation
        state of it: its ``det`` is jacobian_det_interior(x, y), bit for bit.

        Only what that state does not prove is checked: the shapes, a
        positive determinant and boundary nodes equal to those of
        ``traj.curr_x`` and ``traj.curr_y``, which the solvers never move.
        x and y become read-only.
        """
        shape = traj.grid.node_shape
        if x.shape != shape or y.shape != shape:
            raise ValueError(f"x, y: expected shape {shape}, got {x.shape} and {y.shape}")
        if np.any(deformation.det <= 0.0):
            raise AdmissibilityError("non-positive deformation determinant at an interior node")
        for new, old in ((x, traj.curr_x), (y, traj.curr_y)):
            if not (np.array_equal(new[[0, -1]], old[[0, -1]])
                    and np.array_equal(new[:, [0, -1]], old[:, [0, -1]])):
                raise ValueError("boundary nodes must coincide with the reference")
        return _unchecked(cls, prev_x=traj.curr_x, prev_y=traj.curr_y, curr_x=_readonly(x),
                          curr_y=_readonly(y), tau_prev=tau, time=traj.time + tau,
                          step_index=traj.step_index + 1, grid=traj.grid,
                          deformation=deformation)


@dataclass(frozen=True)
class DensityField1D:
    """Midpoint density attached to its reference grid.

    The constructor refuses negative values.  The solvers build their fields
    with ``_checked_by_caller``: a conservative step's densities are positive
    by construction, and a phase field's transported values, which may be
    negative, are checked to be finite.
    """

    values: np.ndarray
    grid: Grid1D

    def __post_init__(self):
        v = _readonly(_check_mid(self.values, self.grid, "values"))
        object.__setattr__(self, "values", v)
        if (v < 0.0).any():
            raise ValueError("density values must be nonnegative")

    @classmethod
    def _checked_by_caller(cls, values: np.ndarray, grid: Grid1D) -> "DensityField1D":
        """The field of a float midpoint array whose values the caller has
        checked; the array becomes read-only."""
        values.flags.writeable = False
        return _unchecked(cls, values=values, grid=grid)


@dataclass(frozen=True)
class DensityField2D:
    """Nonnegative node density attached to its reference grid.

    The constructor refuses negative values; the 2D solvers build their
    fields with ``_checked_by_caller`` from rho0 >= 0 and the transported
    interior densities rho0 / det of a checked positive determinant.
    """

    values: np.ndarray
    grid: Grid2D

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.grid.node_shape:
            raise ValueError(f"values: expected shape {self.grid.node_shape}, got {v.shape}")
        object.__setattr__(self, "values", _readonly(v))
        if np.any(self.values < 0.0):
            raise ValueError("density values must be nonnegative")

    @classmethod
    def _checked_by_caller(cls, values: np.ndarray, grid: Grid2D) -> "DensityField2D":
        """The field of a float node array whose values the caller has
        checked; the array becomes read-only."""
        values.flags.writeable = False
        return _unchecked(cls, values=values, grid=grid)


def embed_interior(interior, grid: Grid2D) -> np.ndarray:
    """The full node field that is ``interior`` inside and zero on the boundary ring."""
    full = np.zeros(grid.node_shape)
    full[1:-1, 1:-1] = interior
    return full


def deformation_stencil(x, y, grid: Grid2D):
    """Central differences (x_X, x_Y, y_X, y_Y) of the node map at interior
    nodes, each of shape (m_y-1, m_x-1) like ``jacobian_det_interior``."""
    x = np.asarray(x)
    y = np.asarray(y)
    x_x = (x[1:-1, 2:] - x[1:-1, :-2]) / (2.0 * grid.h_x)
    x_y = (x[2:, 1:-1] - x[:-2, 1:-1]) / (2.0 * grid.h_y)
    y_x = (y[1:-1, 2:] - y[1:-1, :-2]) / (2.0 * grid.h_x)
    y_y = (y[2:, 1:-1] - y[:-2, 1:-1]) / (2.0 * grid.h_y)
    return x_x, x_y, y_x, y_y


def jacobian_det_interior(x, y, grid: Grid2D, stencil=None) -> np.ndarray:
    """Central-difference deformation determinant at all interior nodes.

    Returns an array of shape (m_y-1, m_x-1); entry (i-1, j-1) is the
    determinant at node (i, j).  ``stencil`` is ``deformation_stencil(x, y,
    grid)`` when the caller has it; the determinant is x_X y_Y - y_X x_Y of
    it either way, bit for bit.
    """
    x_x, x_y, y_x, y_y = deformation_stencil(x, y, grid) if stencil is None else stencil
    return x_x * y_y - y_x * x_y


def pushforward_density_1d(rho0, x, grid: Grid1D) -> DensityField1D:
    """Conservative recovery rho_{j+1/2} = rho0_{j+1/2} / (D_h x)_{j+1/2}."""
    rho0 = _check_mid(rho0, grid, "rho0")
    slopes = forward_diff(x, grid)
    if (slopes <= 0.0).any():
        raise AdmissibilityError("pushforward needs strictly increasing node positions")
    return DensityField1D(rho0 / slopes, grid)
