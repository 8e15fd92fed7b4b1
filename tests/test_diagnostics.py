import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagflow.diagnostics import (aronson_waiting_time, barenblatt_2d,
                                 barenblatt_support_radius, convergence_order,
                                 density_error_l2h, interface_radius, total_mass_2d,
                                 trajectory_error_l2h, waiting_time_detect)
from lagflow.grids import (DensityField1D, DensityField2D, Grid1D, Grid2D,
                           jacobian_det_interior, pushforward_density_1d)
from lagflow.initial import pme_waiting_profile
from oracles import propagation_speed, total_mass_1d


def test_total_mass_identity_map():
    g = Grid1D(-1.0, 1.0, 10)
    rho0 = 0.5 + np.linspace(0, 1, 10)
    dens = DensityField1D(rho0, g)
    assert total_mass_1d(dens, g.nodes) == pytest.approx(np.sum(rho0 * g.h))


def test_total_mass_pushforward_invariant():
    g = Grid1D(-1.0, 1.0, 10)
    rng = np.random.default_rng(1)
    rho0 = rng.uniform(0.2, 1.0, 10)
    x = np.sort(rng.uniform(-1, 1, 11))
    x[0], x[-1] = -1.0, 1.0
    dens = pushforward_density_1d(rho0, x, g)
    assert total_mass_1d(dens, x) == pytest.approx(np.sum(rho0 * g.h), rel=1e-13)


def test_total_mass_2d_matches_direct_sum():
    g = Grid2D(-2.0, 2.0, -2.0, 2.0, 16, 16)
    rho0 = barenblatt_2d(g.ref_x, g.ref_y, 0.0, 2.0)
    dens = DensityField2D(rho0, g)
    direct = float(np.sum(rho0[1:-1, 1:-1])) * g.h_x * g.h_y  # det = 1 on the identity map
    assert total_mass_2d(dens, g.ref_x, g.ref_y) == pytest.approx(direct, rel=1e-14)
    assert direct > 0.0


def test_propagation_speed_zero_for_constant_density():
    g = Grid1D(-1.0, 1.0, 8)
    speeds = propagation_speed(g.nodes, np.full(9, 0.7), 2.0, g)
    assert np.allclose(speeds, 0.0)


def test_propagation_speed_zero_at_flat_contact():
    # theta = 0.25 initial datum has a flat (quadratic) contact, so the
    # one-sided edge speed must vanish linearly with the mesh size
    edge = []
    for mx in (64, 256):
        g = Grid1D(-np.pi, 0.0, mx)
        rho0_nodes = pme_waiting_profile(2.0, 0.25).density(g.nodes)
        speeds = propagation_speed(g.nodes, rho0_nodes, 2.0, g)
        edge.append(max(abs(speeds[0]), abs(speeds[-1])))
    assert edge[1] < 0.01
    assert edge[1] < 0.3 * edge[0]
    g = Grid1D(-np.pi, 0.0, 64)
    rho0_nodes = pme_waiting_profile(2.0, 0.25).density(g.nodes)
    with pytest.raises(ValueError):
        propagation_speed(g.nodes, rho0_nodes, 1.0, g)


def test_waiting_time_detector():
    times = np.linspace(0.0, 1.0, 101)
    static = np.zeros((101, 2))
    assert waiting_time_detect(times, static, 1.0) is None
    moving = static.copy()
    moving[60:, 1] = 0.5 * (times[60:] - times[60])  # speed 0.5 from t = 0.6
    detected = waiting_time_detect(times, moving, 1.0, threshold=0.1)
    assert detected == pytest.approx(times[61])


def test_aronson_values():
    assert aronson_waiting_time(2.0, 0.25) == pytest.approx(2.0 / 9.0)
    assert aronson_waiting_time(2.0, 0.0) == pytest.approx(1.0 / 6.0)
    assert aronson_waiting_time(2.5, 0.25) == pytest.approx(4.0 / 21.0)
    with pytest.raises(ValueError):
        aronson_waiting_time(1.0, 0.1)
    with pytest.raises(ValueError):
        aronson_waiting_time(2.0, 0.3)


def test_aronson_monotonicity():
    thetas = np.linspace(0.0, 0.25, 10)
    vals = [aronson_waiting_time(2.0, t) for t in thetas]
    assert np.all(np.diff(vals) > 0.0)
    ms = np.linspace(1.5, 4.0, 10)
    vals_m = [aronson_waiting_time(m, 0.2) for m in ms]
    assert np.all(np.diff(vals_m) < 0.0)


def test_convergence_order_published_values():
    orders = convergence_order([8.7715e-5, 2.1936e-5], [100, 200])
    assert orders[0] == pytest.approx(1.9995, abs=5e-4)
    orders = convergence_order([5.4852e-6, 1.3715e-6], [400, 800])
    assert orders[0] == pytest.approx(1.9998, abs=5e-4)


def test_convergence_order_exact_and_tau_mode():
    assert convergence_order([1.0, 0.25], [10, 20])[0] == pytest.approx(2.0)
    # decreasing resolution column (largest time steps)
    assert convergence_order([1.0, 0.25], [0.1, 0.05])[0] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        convergence_order([1.0, -1.0], [1, 2])


@settings(max_examples=30, deadline=None)
@given(st.floats(1e-6, 1e6))
def test_convergence_order_scale_invariant(scale):
    errors = np.array([3e-3, 8e-4, 2.2e-4])
    res = np.array([16, 32, 64])
    base = convergence_order(errors, res)
    scaled = convergence_order(scale * errors, res)
    assert np.allclose(base, scaled, rtol=1e-12)


def test_barenblatt_values():
    assert barenblatt_2d(0.0, 0.0, 0.0, 2.0) == pytest.approx(0.1)
    assert barenblatt_2d(3.0, 3.0, 0.0, 2.0) == 0.0
    # support radius from the vanishing inner expression
    r0 = barenblatt_support_radius(0.0, 2.0)
    assert r0 == pytest.approx(np.sqrt(1.6), rel=1e-12)
    r2 = barenblatt_support_radius(2.0, 2.0)
    assert r2 == pytest.approx(np.sqrt(1.6 * np.sqrt(3.0)), rel=1e-12)
    assert barenblatt_2d(r0 * 0.999, 0.0, 0.0, 2.0) > 0.0
    assert barenblatt_2d(r0 * 1.001, 0.0, 0.0, 2.0) == 0.0


def test_barenblatt_radial_monotone():
    rng = np.random.default_rng(0)
    for _ in range(5):
        phi = rng.uniform(0, 2 * np.pi)
        radii = np.linspace(0.0, 2.0, 50)
        vals = barenblatt_2d(radii * np.cos(phi), radii * np.sin(phi), 1.0, 2.0)
        assert np.all(np.diff(vals) <= 1e-15)


def test_interface_radius_on_exact_field():
    g = Grid2D(-2.0, 2.0, -2.0, 2.0, 64, 64)
    rho = barenblatt_2d(g.ref_x, g.ref_y, 0.0, 2.0)
    dens = DensityField2D(rho, g)
    r = interface_radius(dens, g.ref_x, g.ref_y)
    assert r == pytest.approx(barenblatt_support_radius(0.0, 2.0), abs=2 * g.h_x)


def deformed_barenblatt(mx=64, jitter=0.0, seed=0):
    """Barenblatt data carried by a smooth radial map, its positions
    multiplied by 1 + jitter N(0, 1), and the density rho0 / det there.  The
    map keeps the grid's symmetry, so nodes on the axes and diagonals sit on
    the edges of any angular sectors around the centroid."""
    g = Grid2D(-2.0, 2.0, -2.0, 2.0, mx, mx)
    rho0 = barenblatt_2d(g.ref_x, g.ref_y, 0.0, 2.0)
    stretch = 1.0 + 0.3 * np.exp(-(g.ref_x ** 2 + g.ref_y ** 2))
    x = g.ref_x * stretch
    y = g.ref_y * stretch
    for q in (x, y):
        q[1:-1, 1:-1] *= 1.0 + jitter * np.random.default_rng(seed).standard_normal(
            q[1:-1, 1:-1].shape)
        seed += 1
    rho = np.array(rho0)
    rho[1:-1, 1:-1] /= jacobian_det_interior(x, y, g)
    return DensityField2D(rho, g), x, y


def test_interface_radius_does_not_see_a_rotation():
    dens, x, y = deformed_barenblatt()
    c, s = np.cos(0.7), np.sin(0.7)
    r = interface_radius(dens, x, y)
    assert interface_radius(dens, c * x - s * y, s * x + c * y) == pytest.approx(r, rel=1e-12)


def test_interface_radius_is_stable_under_rounding():
    # positions that differ at 1e-15 relative, as two runs that differ only in
    # their rounding do, must report the same radius to 1e-12; on the 32^2
    # grid, angular sectors around the centroid moved it by up to 1.7%
    for mx in (32, 64):
        r = interface_radius(*deformed_barenblatt(mx))
        for seed in range(0, 20, 2):
            jittered = interface_radius(*deformed_barenblatt(mx, jitter=1e-15, seed=seed))
            assert abs(jittered - r) <= 1e-12 * r, (mx, seed)


def test_interface_radius_empty_field_rejected():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 8, 8)
    dens = DensityField2D(np.zeros(g.node_shape), g)
    with pytest.raises(ValueError):
        interface_radius(dens, g.ref_x, g.ref_y)


def test_error_norms_round_trip():
    coarse = Grid1D(-1.0, 1.0, 8)
    fine = Grid1D(-1.0, 1.0, 32)
    # identical underlying trajectory: nested comparison must vanish
    assert trajectory_error_l2h(coarse.nodes, fine.nodes, coarse) == pytest.approx(0.0, abs=1e-15)
    rho_f = 1.0 + np.zeros(32)
    rho_c = 1.0 + np.zeros(8)
    assert density_error_l2h(rho_c, rho_f, coarse) == pytest.approx(0.0, abs=1e-15)


def test_propagation_speed_sign_matches_boundary_motion():
    # once the free boundary moves, the speed formula points the same way
    from lagflow.initial import pme_waiting_profile as profile
    from lagflow.models import PorousMedium
    from lagflow.wgf1d import Wgf1dProblem, wgf1d_first_step, wgf1d_step

    g = Grid1D(-np.pi, 0.0, 200)
    rho0 = profile(2.0, 0.25).density(g.midpoints)
    p = Wgf1dProblem(g, PorousMedium(2.0), rho0, pinned=False, visc_weight=0.0)
    tau = 1.0 / 200.0
    traj, _ = wgf1d_first_step(p, tau)
    while traj.time < 0.35:
        traj, _ = wgf1d_step(p, traj, tau)
    before = traj.curr.copy()
    traj, _ = wgf1d_step(p, traj, tau)
    moved = traj.curr - before
    speeds = propagation_speed(traj.curr, profile(2.0, 0.25).density(g.nodes), 2.0, g)
    assert moved[-1] > 0.0
    assert speeds[-1] > 0.0
    assert moved[0] < 0.0
    assert speeds[0] < 0.0
