import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings, strategies as st

import lagflow.wgf2d as wgf2d
from lagflow.diagnostics import barenblatt_2d, total_mass_2d
from lagflow.errors import AdmissibilityError, SolverError
from lagflow.grids import Grid2D, Trajectory2D, jacobian_det_interior
from lagflow.models import PorousMedium, discrete_energy_hess_2d
from lagflow.wgf2d import (RATIO_BOUND_2D, VISC_TAU_INCREMENT, VISC_TAU_SQ_ABSOLUTE,
                           Wgf2dProblem, d2_operator, recover_density_2d,
                           wgf2d_augmented_energy, wgf2d_first_step_explicit,
                           wgf2d_first_step_implicit, wgf2d_step_explicit,
                           wgf2d_step_implicit)


def bump_problem(mx=7, visc=0.5, scaling=VISC_TAU_INCREMENT, lim=1.5):
    grid = Grid2D(-lim, lim, -lim, lim, mx, mx)
    rho0 = 0.3 + 0.2 * np.exp(-(grid.ref_x ** 2 + grid.ref_y ** 2))
    return Wgf2dProblem(grid, PorousMedium(2.0), rho0, eps_visc=visc, visc_scaling=scaling)


def equal_history(problem, tau):
    g = problem.grid
    return Trajectory2D(g.ref_x, g.ref_y, g.ref_x, g.ref_y, tau, 0.0, 1, g)


def test_d2_operator_cases():
    a = np.arange(6.0)
    assert np.allclose(d2_operator(a, a, a, 1e-2, 1.3), 0.0)
    # r = 1 specializes to (3 a^{n+1} - 4 a^n + a^{n-1}) / (2 tau)
    rng = np.random.default_rng(0)
    an1, an, anm = rng.standard_normal((3, 6))
    tau = 2e-3
    assert np.allclose(d2_operator(an1, an, anm, tau, 1.0),
                       (3 * an1 - 4 * an + anm) / (2 * tau), rtol=1e-13)
    # exact for linear-in-time data at any ratio
    slope = -0.37
    tau_prev, tau_next = 1e-2, 0.7e-2
    r = tau_next / tau_prev
    x0 = rng.standard_normal(6)
    assert np.allclose(
        d2_operator(x0 + slope * (tau_prev + tau_next), x0 + slope * tau_prev, x0, tau_next, r),
        slope, rtol=1e-11)


def test_zero_gradient_model_keeps_identity():
    # massless data carries no force and no inertia: nothing moves
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 6, 6)
    p = Wgf2dProblem(g, PorousMedium(2.0), np.zeros(g.node_shape), eps_visc=0.1)
    traj = equal_history(p, 1e-3)
    out, dens = wgf2d_step_explicit(p, traj, 1e-3)
    assert np.allclose(out.curr_x, g.ref_x, atol=1e-11)
    assert np.allclose(out.curr_y, g.ref_y, atol=1e-11)
    out2, _ = wgf2d_step_implicit(p, traj, 1e-3)
    assert np.allclose(out2.curr_x, g.ref_x, atol=1e-9)


def test_explicit_mass_conserved():
    p = bump_problem()
    traj, dens = wgf2d_first_step_explicit(p, 1e-3)
    mass0 = total_mass_2d(dens, traj.curr_x, traj.curr_y)
    for _ in range(5):
        traj, dens = wgf2d_step_explicit(p, traj, 1.2e-3)
        mass = total_mass_2d(dens, traj.curr_x, traj.curr_y)
        assert mass == pytest.approx(mass0, rel=1e-12)
        assert np.all(jacobian_det_interior(traj.curr_x, traj.curr_y, p.grid) > 0.0)


def _dense_explicit_matrix(coeff, s, grid):
    """diag(coeff) + s (-Lap_h) on the interior nodes, entry by entry."""
    ny, nx = coeff.shape
    a = np.diag(coeff.ravel() + s * (2.0 / grid.h_x ** 2 + 2.0 / grid.h_y ** 2))
    for i in range(ny):
        for j in range(nx):
            k = i * nx + j
            for di, dj, h in ((0, 1, grid.h_x), (0, -1, grid.h_x),
                              (1, 0, grid.h_y), (-1, 0, grid.h_y)):
                if 0 <= i + di < ny and 0 <= j + dj < nx:
                    a[k, (i + di) * nx + j + dj] = -s / h ** 2
    return a


def test_explicit_solve_matches_dense_oracle():
    # near-massless nodes and a weak viscosity: the diagonal spans six decades
    g = Grid2D(-1.0, 1.0, -0.6, 0.6, 9, 6)
    rng = np.random.default_rng(11)
    rho0 = rng.uniform(0.2, 1.5, g.node_shape)
    rho0[rng.random(g.node_shape) < 0.3] = 1e-10
    p = Wgf2dProblem(g, PorousMedium(2.0), rho0, eps_visc=1e-4, visc_scaling=VISC_TAU_INCREMENT)
    tau = 1e-2
    s = p.visc_strength(tau)
    cmass = 1.3 / tau * p.rho0
    a = _dense_explicit_matrix(cmass[1:-1, 1:-1], s, g)
    shape = (g.m_y - 1, g.m_x - 1)
    # right-hand sides whose solutions stay well inside a cell, so the step is admissible
    rhs = [(a @ (0.05 * h * rng.uniform(-1.0, 1.0, a.shape[0]))).reshape(shape)
           for h in (g.h_x, g.h_y)]
    x_new, y_new = wgf2d._explicit_solve(p, g.ref_x, g.ref_y, *rhs, cmass, s)
    for new, ref, b in ((x_new, g.ref_x, rhs[0]), (y_new, g.ref_y, rhs[1])):
        want = np.linalg.solve(a, b.ravel())
        got = (new - ref)[1:-1, 1:-1].ravel()
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))
        assert np.all(new[0] == ref[0]) and np.all(new[:, -1] == ref[:, -1])


def test_explicit_solve_without_mass_or_viscosity_is_singular():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 5, 4)
    rho0 = np.zeros(g.node_shape)
    rho0[0, :] = 1.0  # mass on the pinned ring only
    p = Wgf2dProblem(g, PorousMedium(2.0), rho0, eps_visc=0.0)
    with pytest.raises(SolverError, match="zero mass and zero viscosity"):
        wgf2d_first_step_explicit(p, 1e-3)


def test_implicit_explicit_agree_to_second_order():
    p = bump_problem()
    diffs = []
    for tau in (4e-3, 2e-3, 1e-3):
        traj = equal_history(p, tau)
        te, _ = wgf2d_step_explicit(p, traj, tau)
        ti, _ = wgf2d_step_implicit(p, traj, tau)
        diffs.append(max(np.max(np.abs(te.curr_x - ti.curr_x)),
                         np.max(np.abs(te.curr_y - ti.curr_y))))
    orders = [np.log(diffs[i - 1] / diffs[i]) / np.log(2.0) for i in (1, 2)]
    assert all(1.6 < o < 2.6 for o in orders)


def test_implicit_never_increases_objective():
    # J(x^{n+1}) <= J(x^n) holds because x^n is feasible
    p = bump_problem()
    traj, _ = wgf2d_first_step_implicit(p, 2e-3)
    e_prev = wgf2d_augmented_energy(p, traj)
    for _ in range(10):
        traj, _ = wgf2d_step_implicit(p, traj, 2e-3)
        e = wgf2d_augmented_energy(p, traj)
        assert e <= e_prev + 1e-9
        e_prev = e


def test_implicit_augmented_energy_monotone_random_ratios():
    p = bump_problem()
    rng = np.random.default_rng(5)
    traj, _ = wgf2d_first_step_implicit(p, 2e-3)
    previous = None
    for _ in range(25):
        ratio = max(rng.uniform(0.0, RATIO_BOUND_2D), 0.05)
        tau = min(max(traj.tau_prev * ratio, 1e-4), 1e-2)
        traj, _ = wgf2d_step_implicit(p, traj, tau)
        value = wgf2d_augmented_energy(p, traj)
        if previous is not None:
            assert value <= previous + 1e-9
        previous = value


def test_recover_density_cases():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 6, 6)
    rho0 = 0.5 + 0.1 * np.abs(g.ref_x)
    out = recover_density_2d(g.ref_x, g.ref_y, rho0, g)
    assert np.allclose(out.values, rho0)
    scaled = recover_density_2d(2 * g.ref_x, 3 * g.ref_y, rho0, g)
    assert np.allclose(scaled.values[1:-1, 1:-1], rho0[1:-1, 1:-1] / 6.0)
    assert np.allclose(scaled.values[0], rho0[0])
    # mass identity under the pushforward
    det = jacobian_det_interior(2 * g.ref_x, 3 * g.ref_y, g)
    mass = np.sum(scaled.values[1:-1, 1:-1] * det) * g.h_x * g.h_y
    assert mass == pytest.approx(np.sum(rho0[1:-1, 1:-1]) * g.h_x * g.h_y, rel=1e-13)


def test_recover_density_rejects_folded_map():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 6, 6)
    x = g.ref_x.copy()
    x[3, 3] = x[3, 4] + 1.0
    with pytest.raises(AdmissibilityError):
        recover_density_2d(x, g.ref_y, np.ones(g.node_shape), g)


def test_explicit_rejects_bad_extrapolation():
    p = bump_problem()
    g = p.grid
    # history that extrapolates into a folded configuration
    prev_x = g.ref_x + 0.45 * g.h_x * np.sin(np.pi * g.ref_x / 1.5)
    prev_x[:, 0], prev_x[:, -1] = g.ref_x[:, 0], g.ref_x[:, -1]
    prev_x[0, :], prev_x[-1, :] = g.ref_x[0, :], g.ref_x[-1, :]
    traj = Trajectory2D(prev_x, g.ref_y, g.ref_x, g.ref_y, 1e-4, 0.0, 1, g)
    with pytest.raises(AdmissibilityError):
        wgf2d_step_explicit(p, traj, 25e-4)  # ratio 25 amplifies the fold


def test_radial_symmetry_preserved():
    g = Grid2D(-2.0, 2.0, -2.0, 2.0, 12, 12)
    rho0 = barenblatt_2d(g.ref_x, g.ref_y, 0.0, 2.0) + 1e-3
    p = Wgf2dProblem(g, PorousMedium(2.0), rho0, eps_visc=0.5,
                     visc_scaling=VISC_TAU_SQ_ABSOLUTE)
    traj, dens = wgf2d_first_step_explicit(p, 1e-2)
    for _ in range(10):
        traj, dens = wgf2d_step_explicit(p, traj, 1e-2)
    v = dens.values
    assert np.allclose(v, v[::-1, :], atol=1e-10)
    assert np.allclose(v, v[:, ::-1], atol=1e-10)
    assert np.allclose(v, v.T, atol=1e-10)


def test_visc_scaling_validation():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        Wgf2dProblem(g, PorousMedium(2.0), np.ones(g.node_shape), visc_scaling="bogus")
    p = Wgf2dProblem(g, PorousMedium(2.0), np.ones(g.node_shape), eps_visc=2.0,
                     visc_scaling=VISC_TAU_SQ_ABSOLUTE)
    assert p.visc_strength(1e-2) == pytest.approx(2e-4)
    p2 = Wgf2dProblem(g, PorousMedium(2.0), np.ones(g.node_shape), eps_visc=2.0,
                      visc_scaling=VISC_TAU_INCREMENT)
    assert p2.visc_strength(1e-2) == pytest.approx(2e-2)


# --- the massless nodes condensed out of the linear solves -------------------

MASK_KINDS = ("disk", "ring", "boundary", "single", "full", "empty")


def masked_rho0(grid, kind, seed):
    """A positive random density on one of the mask shapes, zero elsewhere."""
    rng = np.random.default_rng(seed)
    ny, nx = grid.node_shape
    ii, jj = np.mgrid[0:ny, 0:nx]
    radius = np.hypot((ii - ny / 2.0) / ny, (jj - nx / 2.0) / nx)
    mask = {
        "disk": radius < 0.25,
        "ring": (radius > 0.15) & (radius < 0.35),
        # mass on the pinned ring and on the interior nodes next to it
        "boundary": (ii <= 1) | (jj >= nx - 2),
        "single": (ii == ny // 2) & (jj == nx // 2),
        "full": np.ones((ny, nx), dtype=bool),
        "empty": np.zeros((ny, nx), dtype=bool),
    }[kind]
    return np.where(mask, rng.uniform(0.2, 1.5, (ny, nx)), 0.0)


def active_nodes(rho0):
    """Interior nodes with mass or with an interior 4-neighbour that has mass."""
    massive = rho0[1:-1, 1:-1] > 0.0
    padded = np.pad(massive, 1)
    return (massive | padded[:-2, 1:-1] | padded[2:, 1:-1]
            | padded[1:-1, :-2] | padded[1:-1, 2:]).ravel()


def newton_matrix(p, tau, seed):
    """Hessian of an implicit step functional at a perturbed map, assembled as
    ``_implicit_solve`` does, and its viscosity weight sigma."""
    g = p.grid
    rng = np.random.default_rng(seed)
    x = g.ref_x.copy()
    y = g.ref_y.copy()
    x[1:-1, 1:-1] += 0.1 * g.h_x * rng.uniform(-1.0, 1.0, (g.m_y - 1, g.m_x - 1))
    y[1:-1, 1:-1] += 0.1 * g.h_y * rng.uniform(-1.0, 1.0, (g.m_y - 1, g.m_x - 1))
    area = g.h_x * g.h_y
    sigma = p.visc_strength(tau) * area
    lap = wgf2d._neg_lap_matrix(g)
    inertia = np.tile((p.rho0[1:-1, 1:-1] / tau * area).ravel(), 2)
    return (discrete_energy_hess_2d(p.model, x, y, p.rho0, g) * area + sps.diags(inertia)
            + sps.block_diag([sigma * lap, sigma * lap])).tocsr(), sigma


def explicit_matrix(p, tau):
    s = p.visc_strength(tau)
    coeff = (1.5 / tau * p.rho0[1:-1, 1:-1]).ravel()
    return (sps.diags(coeff) + s * wgf2d._neg_lap_matrix(p.grid)).tocsc(), s


def check_against_dense(p, mat, sigma, rhs, shift):
    solve = wgf2d._condensed_solver(p.grid, p.rho0, mat, sigma)
    ncomp = mat.shape[0] // active_nodes(p.rho0).size
    diag = np.tile(active_nodes(p.rho0), ncomp).astype(float)
    want = np.linalg.solve(mat.toarray() + shift * np.diag(diag), rhs)
    got = solve(rhs, shift)
    assert got.shape == rhs.shape
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))


@settings(max_examples=40, deadline=None)
@given(mx=st.integers(4, 9), my=st.integers(4, 9), kind=st.sampled_from(MASK_KINDS),
       seed=st.integers(0, 2 ** 16), columns=st.sampled_from([None, 2]),
       shift=st.sampled_from([0.0, 0.7]))
def test_condensed_solve_matches_dense_solve(mx, my, kind, seed, columns, shift):
    g = Grid2D(-1.0, 1.0, -0.8, 0.8, mx, my)
    p = Wgf2dProblem(g, PorousMedium(2.0), masked_rho0(g, kind, seed), eps_visc=0.5,
                     visc_scaling=VISC_TAU_INCREMENT)
    rng = np.random.default_rng(seed)
    tau = 1e-2
    for mat, sigma in (newton_matrix(p, tau, seed), explicit_matrix(p, tau)):
        size = (mat.shape[0],) if columns is None else (mat.shape[0], columns)
        check_against_dense(p, mat, sigma, rng.standard_normal(size), shift)


def compact_problem(eps_visc=0.5):
    """Barenblatt data on a 16 x 16 grid of [-2, 2]^2: 112 of the 225 interior
    nodes have no mass and no massive neighbour."""
    g = Grid2D(-2.0, 2.0, -2.0, 2.0, 16, 16)
    return Wgf2dProblem(g, PorousMedium(2.0), barenblatt_2d(g.ref_x, g.ref_y, 0.0, 2.0),
                        eps_visc=eps_visc, visc_scaling=VISC_TAU_INCREMENT)


def test_inactive_rows_are_the_viscosity_alone(monkeypatch):
    # rho0 = 0 must leave no energy or inertia term on a node without massive neighbours
    p = compact_problem()
    inactive = ~active_nodes(p.rho0)
    assert 0 < np.count_nonzero(inactive) < inactive.size
    seen = []
    solver = wgf2d._condensed_solver

    def recorded(grid, rho0, mat, sigma):
        seen.append((mat, sigma))
        return solver(grid, rho0, mat, sigma)

    monkeypatch.setattr(wgf2d, "_condensed_solver", recorded)
    wgf2d_step_implicit(p, equal_history(p, 2e-3), 2e-3)
    assert {m.shape[0] // inactive.size for m, _ in seen} == {1, 2}
    lap = wgf2d._neg_lap_matrix(p.grid).toarray()
    for mat, sigma in seen:
        ncomp = mat.shape[0] // inactive.size
        rows = mat.toarray()[np.tile(inactive, ncomp)]
        want = np.kron(np.eye(ncomp), sigma * lap)[np.tile(inactive, ncomp)]
        assert np.array_equal(rows, want)


def test_condensation_is_cached_per_grid_and_mask():
    grids = [Grid2D(-1.0, 1.0, -1.0, 1.0, 8, 7), Grid2D(-3.0, 3.0, -2.0, 2.0, 8, 7)]
    problems = [Wgf2dProblem(g, PorousMedium(2.0), masked_rho0(g, kind, 3), eps_visc=0.5)
                for g in grids for kind in ("disk", "ring")]
    rng = np.random.default_rng(4)
    rhs = rng.standard_normal((grids[0].m_x - 1) * (grids[0].m_y - 1))
    for p in problems * 2:
        cond = wgf2d._condensation(p.grid, p.rho0)
        assert np.array_equal(cond.active, np.flatnonzero(active_nodes(p.rho0)))
        mat, s = explicit_matrix(p, 1e-2)
        check_against_dense(p, mat, s, rhs, 0.0)
        assert wgf2d._condensation(p.grid, p.rho0) is cond
        for arr in (cond.active, cond.inactive, cond.lap_af.data, cond.lap_fa.indices,
                    cond.g.data, cond.g.indptr):
            assert not arr.flags.writeable
    assert len({id(wgf2d._condensation(p.grid, p.rho0)) for p in problems}) == 4


@pytest.mark.parametrize("first_step", [wgf2d_first_step_explicit, wgf2d_first_step_implicit])
def test_massless_nodes_without_viscosity_are_singular(first_step):
    with pytest.raises(SolverError, match="zero mass and zero viscosity"):
        first_step(compact_problem(eps_visc=0.0), 1e-2)


@settings(max_examples=25, deadline=None)
@given(ratios=st.lists(st.floats(0.0, RATIO_BOUND_2D, exclude_min=True), min_size=1,
                       max_size=15))
def test_drawn_ratios_keep_the_implicit_energy_estimate(ratios):
    # compact support: most interior nodes are massless and condensed out
    p = compact_problem()
    assert 0 < wgf2d._condensation(p.grid, p.rho0).inactive.size
    traj, dens = wgf2d_first_step_implicit(p, 2e-3)
    mass0 = total_mass_2d(dens, traj.curr_x, traj.curr_y)
    previous = wgf2d_augmented_energy(p, traj)
    for ratio in ratios:
        # below tau = 1e-3 the increment viscosity no longer keeps the massless cells
        # next to the support from folding, and the Newton solve stalls (ROADMAP item 4)
        tau = min(max(traj.tau_prev * ratio, 1e-3), 1e-2)
        traj, dens = wgf2d_step_implicit(p, traj, tau)
        assert np.all(jacobian_det_interior(traj.curr_x, traj.curr_y, p.grid) > 0.0)
        assert total_mass_2d(dens, traj.curr_x, traj.curr_y) == pytest.approx(mass0, rel=1e-12)
        value = wgf2d_augmented_energy(p, traj)
        assert value <= previous + 1e-10
        previous = value
