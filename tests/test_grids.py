import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagflow.errors import AdmissibilityError
from lagflow.grids import (DensityField1D, Grid1D, Grid2D, Trajectory1D, Trajectory2D,
                           forward_diff, inner_product, jacobian_det_interior,
                           node_diff, pushforward_density_1d)
from oracles import jacobian_det_2d, midpoint_diff


@pytest.fixture
def grid8():
    return Grid1D(-1.0, 1.0, 8)


def test_grid_nodes_uniform(grid8):
    assert grid8.h == pytest.approx(0.25)
    assert np.allclose(grid8.nodes, -1.0 + 0.25 * np.arange(9), atol=1e-15)
    assert np.all(np.diff(grid8.nodes) > 0)


@pytest.mark.parametrize("bad", [dict(m_x=1), dict(x_min=1.0, x_max=-1.0), dict(x_min=0.0, x_max=0.0)])
def test_grid_rejects_bad_extents(bad):
    args = dict(x_min=-1.0, x_max=1.0, m_x=4)
    args.update(bad)
    with pytest.raises(ValueError):
        Grid1D(**args)


def test_forward_diff_identity_and_scaling(grid8):
    assert np.allclose(forward_diff(grid8.nodes, grid8), 1.0)
    assert np.allclose(forward_diff(2.0 * grid8.nodes, grid8), 2.0)


def test_forward_diff_quadratic():
    # (X_{j+1}^2 - X_j^2)/h = X_{j+1} + X_j, expanded by hand
    g = Grid1D(0.0, 1.0, 4)
    out = forward_diff(g.nodes ** 2, g)
    assert np.allclose(out, g.nodes[1:] + g.nodes[:-1], atol=1e-14)


def test_forward_diff_length_mismatch(grid8):
    with pytest.raises(ValueError):
        forward_diff(np.zeros(5), grid8)


def test_midpoint_diff_constant_and_linear(grid8):
    assert np.allclose(midpoint_diff(np.full(8, 3.7), grid8), 0.0)
    assert np.allclose(midpoint_diff(grid8.midpoints, grid8), 1.0)


def test_inner_product_measures_domain(grid8):
    ones_m = np.ones(8)
    ones_n = np.ones(9)
    assert inner_product("midpoint", ones_m, ones_m, grid8) == pytest.approx(2.0)
    assert inner_product("node", ones_n, ones_n, grid8) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        inner_product("cell", ones_m, ones_m, grid8)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_summation_by_parts(seed):
    # (D_h u, v)_h = -[u, d_h v]_h for node fields u vanishing at the boundary
    g = Grid1D(-1.0, 1.0, 8)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(9)
    u[0] = u[-1] = 0.0
    v = rng.standard_normal(8)
    lhs = inner_product("midpoint", forward_diff(u, g), v, g)
    dv = np.concatenate([[0.0], midpoint_diff(v, g), [0.0]])
    rhs = -inner_product("node", u, dv, g)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_node_diff_one_sided_ends(grid8):
    d = node_diff(grid8.nodes, grid8)
    assert np.allclose(d, 1.0)
    d2 = node_diff(grid8.nodes ** 2, grid8)
    # interior exact for quadratics; ends are the adjacent cell slopes
    assert np.allclose(d2[1:-1], 2.0 * grid8.nodes[1:-1], atol=1e-13)
    assert d2[0] == pytest.approx(grid8.nodes[0] + grid8.nodes[1])


def test_jacobian_det_identity_scaling_rotation():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 4, 4)
    x, y = g.ref_x, g.ref_y
    assert np.allclose(jacobian_det_interior(x, y, g), 1.0)
    assert jacobian_det_2d(2.0 * x, 3.0 * y, g, 2, 2) == pytest.approx(6.0)
    th = np.pi / 4.0
    xr = np.cos(th) * x - np.sin(th) * y
    yr = np.sin(th) * x + np.cos(th) * y
    assert np.allclose(jacobian_det_interior(xr, yr, g), 1.0, atol=1e-13)


def test_jacobian_det_boundary_index_rejected():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        jacobian_det_2d(g.ref_x, g.ref_y, g, 0, 2)
    with pytest.raises(ValueError):
        jacobian_det_2d(g.ref_x, g.ref_y, g, 2, 4)


def test_pushforward_identity_and_dilation(grid8):
    rho0 = 0.5 + np.linspace(0.0, 1.0, 8)
    out = pushforward_density_1d(rho0, grid8.nodes, grid8)
    assert np.allclose(out.values, rho0)
    g = Grid1D(-2.0, 2.0, 8)
    stretched = pushforward_density_1d(rho0, 2.0 * g.nodes, g)
    assert np.allclose(stretched.values, rho0 / 2.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_pushforward_mass_identity(seed):
    g = Grid1D(-1.0, 1.0, 8)
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-1.0, 1.0, 9))
    x[0], x[-1] = -1.0, 1.0
    if np.any(np.diff(x) <= 1e-6):
        return
    rho0 = rng.uniform(0.1, 2.0, 8)
    rho = pushforward_density_1d(rho0, x, g)
    transported = np.sum(rho.values * np.diff(x))
    assert transported == pytest.approx(np.sum(rho0 * g.h), rel=1e-13)


def test_pushforward_rejects_non_monotone(grid8):
    x = grid8.nodes.copy()
    x[3], x[4] = x[4], x[3]
    with pytest.raises(AdmissibilityError):
        pushforward_density_1d(np.ones(8), x, grid8)


def test_trajectory_validation(grid8):
    x = grid8.nodes
    t = Trajectory1D(x, x, 1e-2, 0.0, 0, grid8)
    assert t.pinned
    bad = x.copy()
    bad[4] = bad[3] - 0.1
    with pytest.raises(AdmissibilityError):
        Trajectory1D(x, bad, 1e-2, 0.0, 0, grid8)
    shifted = x + 0.05
    with pytest.raises(ValueError):
        Trajectory1D(x, shifted, 1e-2, 0.0, 0, grid8)
    Trajectory1D(x, shifted, 1e-2, 0.0, 0, grid8, pinned=False)


def test_trajectory2d_validation():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 4, 4)
    x, y = g.ref_x.copy(), g.ref_y.copy()
    Trajectory2D(x, y, x, y, 1e-2, 0.0, 0, g)
    folded = x.copy()
    folded[2, 2] = x[2, 3] + 0.6  # overtakes the right neighbour's central stencil
    with pytest.raises(AdmissibilityError):
        Trajectory2D(x, y, folded, y, 1e-2, 0.0, 0, g)


def test_density_rejects_negative(grid8):
    with pytest.raises(ValueError):
        DensityField1D(np.array([1.0] * 7 + [-0.1]), grid8)


def test_trajectory_pinned_endpoint_tolerance():
    # the pinned test is |c - r| <= 1e-8 + 1e-5 |r| at each endpoint (r = 2 here)
    grid = Grid1D(-1.0, 2.0, 6)
    x = grid.nodes
    allowed = 1e-8 + 1e-5 * 2.0
    for offset, ok in ((0.99 * allowed, True), (1.01 * allowed, False), (np.nan, False)):
        moved = x.copy()
        moved[-1] += offset
        assert np.isclose(moved[-1], x[-1]) == ok
        if ok:
            Trajectory1D(x, moved, 1e-2, 0.0, 0, grid)
        else:
            with pytest.raises(ValueError, match="pinned"):
                Trajectory1D(x, moved, 1e-2, 0.0, 0, grid)


def test_trajectory_holds_the_read_only_widths_of_curr(grid8):
    x = grid8.nodes.copy()
    x[3] += 0.1
    t = Trajectory1D(grid8.nodes, x, 1e-2, 0.0, 0, grid8)
    assert t.widths.tobytes() == (x[1:] - x[:-1]).tobytes()
    assert not t.widths.flags.writeable


def test_trajectories_not_built_by_a_step_carry_no_cell_state(grid8):
    x = grid8.nodes.copy()
    x[3] += 0.1
    for pinned in (True, False):
        assert Trajectory1D.at_rest(grid8, pinned).cells is None
    assert Trajectory1D(grid8.nodes, x, 1e-2, 0.0, 0, grid8).cells is None


def cell_state(widths, min_width):
    """A solver's cell state as ``_after_step`` reads it."""
    return SimpleNamespace(widths=widths, min_width=min_width)


def after_step_args(grid, moved=0.0):
    """(history at rest, next node array, its cell state: widths and narrowest width)."""
    x = grid.nodes.copy()
    x[3] += 0.05
    x[-1] += moved
    widths = x[1:] - x[:-1]
    return Trajectory1D.at_rest(grid, pinned=True), x, cell_state(widths, widths.min())


def test_trajectory_after_step_equals_the_public_constructor(grid8):
    rest, x, cells = after_step_args(grid8)
    widths = cells.widths
    got = Trajectory1D._after_step(rest, x, 1e-2, cells)
    want = Trajectory1D(rest.curr, x.copy(), 1e-2, rest.time + 1e-2, rest.step_index + 1, grid8)
    for name in ("prev", "curr", "widths"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert not getattr(got, name).flags.writeable
    assert got.prev is rest.curr and got.curr is x and got.widths is widths
    assert ((got.tau_prev, got.time, got.step_index, got.grid, got.pinned)
            == (want.tau_prev, want.time, want.step_index, want.grid, want.pinned))
    # the given state is kept, and read-only
    assert got.cells is cells and want.cells is None
    with pytest.raises(AttributeError):
        got.cells = None


def test_trajectory_after_step_keeps_the_level_before_prev(grid8):
    # the step from rest keeps x^0 behind an infinite step, the next one the
    # level before prev and the step between them; neither compares or prints
    rest, x, cells = after_step_args(grid8)
    first = Trajectory1D._after_step(rest, x, 1e-2, cells)
    assert first.before[0] is rest.prev and first.before[1] == math.inf
    y = x.copy()
    y[4] += 0.02
    widths = y[1:] - y[:-1]
    second = Trajectory1D._after_step(first, y, 2e-2, cell_state(widths, widths.min()))
    assert second.before[0] is first.prev and second.before[1] == 1e-2
    for traj in (rest, Trajectory1D.at_rest(grid8, pinned=False),
                 Trajectory1D(first.prev, first.curr, 1e-2, 1e-2, 1, grid8)):
        assert traj.before is None
    public = Trajectory1D(second.prev, second.curr, 2e-2, second.time, 2, grid8)
    assert public == second and repr(public) == repr(second)
    assert "before" not in repr(second)
    with pytest.raises(AttributeError):
        second.before = None


def test_trajectory_after_step_checks_what_the_cell_state_does_not_prove(grid8):
    rest, x, cells = after_step_args(grid8)
    widths = cells.widths
    for min_width in (0.0, -0.1, np.nan):
        with pytest.raises(AdmissibilityError):
            Trajectory1D._after_step(rest, x, 1e-2, cell_state(widths, min_width))
    with pytest.raises(ValueError, match="expected node field"):
        Trajectory1D._after_step(rest, x[:-1], 1e-2, cell_state(widths[:-1], widths.min()))
    # a pinned end must stay bit-equal to x^n's, not merely within the public tolerance
    for index in (0, -1):
        moved = x.copy()
        moved[index] += 1e-12
        with pytest.raises(ValueError, match="pinned"):
            Trajectory1D._after_step(rest, moved, 1e-2, cell_state(widths, widths.min()))
    free = Trajectory1D.at_rest(grid8, pinned=False)
    _, x, cells = after_step_args(grid8, moved=0.1)
    got = Trajectory1D._after_step(free, x, 1e-2, cells)
    assert not got.pinned and got.cells is cells


def test_density_checked_by_caller_skips_only_the_sign_check(grid8):
    values = np.linspace(-1.0, 1.0, 8)
    with pytest.raises(ValueError):
        DensityField1D(values, grid8)
    field = DensityField1D._checked_by_caller(values, grid8)
    assert field.values is values and not values.flags.writeable
