import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

import lagflow.models as models
import lagflow.wgf2d as wgf2d
from lagflow.config import preset_defaults
from lagflow.diagnostics import barenblatt_2d, total_mass_2d
from lagflow.errors import AdmissibilityError, NewtonError, SolverError
from lagflow.experiments import run_experiment
from lagflow.grids import Grid2D, Trajectory2D, jacobian_det_interior
from lagflow.initial import barenblatt_initial_2d, ks_gaussian_2d
from lagflow.models import KellerSegel2D, PorousMedium, discrete_energy_hess_2d
from lagflow.wgf2d import (RATIO_BOUND_2D, VISC_TAU_INCREMENT, VISC_TAU_SQ_ABSOLUTE,
                           Wgf2dProblem, recover_density_2d,
                           wgf2d_augmented_energy, wgf2d_first_step_explicit,
                           wgf2d_first_step_implicit, wgf2d_step_explicit,
                           wgf2d_step_implicit)
from masks import MASK_KINDS, masked_rho0
from oracles import d2_operator
from stops import check_stops, record_stops


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
    x_new, y_new = wgf2d._explicit_solve(p, g.ref_x, g.ref_y, *rhs,
                                         wgf2d._explicit_solver(p, cmass, s))
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


def test_explicit_keller_segel_step_without_mass_stays_at_rest():
    # no node carries mass: the interaction force is zero and viscosity alone moves nothing
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 8, 8)
    p = Wgf2dProblem(g, KellerSegel2D(), np.zeros(g.node_shape), eps_visc=0.1)
    traj, _ = wgf2d_step_explicit(p, Trajectory2D.at_rest(g), 1e-3)
    assert np.array_equal(traj.curr_x, g.ref_x) and np.array_equal(traj.curr_y, g.ref_y)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_density_refused(bad):
    # nan < 0 is False, so the nonnegativity test alone lets NaN through
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 4, 4)
    rho0 = np.ones(g.node_shape)
    rho0[2, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        Wgf2dProblem(g, PorousMedium(2.0), rho0)


def test_implicit_step_refuses_keller_segel():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 4, 4)
    p = Wgf2dProblem(g, KellerSegel2D(), np.ones(g.node_shape))
    with pytest.raises(ValueError, match="Keller-Segel"):
        wgf2d_first_step_implicit(p, 1e-3)


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

def active_nodes(rho0):
    """Interior nodes with mass or with an interior 4-neighbour that has mass."""
    massive = rho0[1:-1, 1:-1] > 0.0
    padded = np.pad(massive, 1)
    return (massive | padded[:-2, 1:-1] | padded[2:, 1:-1]
            | padded[1:-1, :-2] | padded[1:-1, 2:]).ravel()


def neg_lap(grid):
    """-Lap_h on the interior nodes, dense, entry by entry."""
    return _dense_explicit_matrix(np.zeros((grid.m_y - 1, grid.m_x - 1)), 1.0, grid)


def newton_terms(p, tau, seed):
    """The terms ``_implicit_solve`` hands ``_CondensedSolver`` for the Hessian
    of an implicit step functional at a perturbed map: inertia, sigma, H area."""
    g = p.grid
    rng = np.random.default_rng(seed)
    x = g.ref_x.copy()
    y = g.ref_y.copy()
    x[1:-1, 1:-1] += 0.1 * g.h_x * rng.uniform(-1.0, 1.0, (g.m_y - 1, g.m_x - 1))
    y[1:-1, 1:-1] += 0.1 * g.h_y * rng.uniform(-1.0, 1.0, (g.m_y - 1, g.m_x - 1))
    area = g.h_x * g.h_y
    inertia = np.tile((p.rho0[1:-1, 1:-1] / tau * area).ravel(), 2)
    return (inertia, p.visc_strength(tau) * area,
            discrete_energy_hess_2d(p.model, x, y, p.rho0, g) * area)


def explicit_terms(p, tau):
    return (1.5 / tau * p.rho0[1:-1, 1:-1]).ravel(), p.visc_strength(tau), None


def full_matrix(grid, inertia, sigma, hess):
    """The whole interior matrix, built as before the condensation:
    diag(inertia) + sigma (-Lap_h) on each component, plus H area."""
    ncomp = 1 if hess is None else 2
    mat = np.diag(inertia) + np.kron(np.eye(ncomp), sigma * neg_lap(grid))
    return mat if hess is None else mat + hess.toarray()


def condensed_solver(p, inertia, sigma, hess):
    return wgf2d._CondensedSolver(p.grid, p.rho0, inertia, sigma, hess)


def refined_solve(mat, rhs, steps=2):
    """``np.linalg.solve``, then refinement steps whose residual b - A x is
    computed in ``np.longdouble``: an oracle accurate to a few units of
    rounding even where A's condition number reaches 1e5."""
    x = np.linalg.solve(mat, rhs)
    wide_mat, wide_rhs = mat.astype(np.longdouble), rhs.astype(np.longdouble)
    for _ in range(steps):
        x = x + np.linalg.solve(mat, (wide_rhs - wide_mat @ x).astype(float))
    return x


def check_against_dense(p, terms, rhs, shift):
    solve = condensed_solver(p, *terms)
    mat = full_matrix(p.grid, *terms)
    ncomp = mat.shape[0] // active_nodes(p.rho0).size
    diag = np.tile(active_nodes(p.rho0), ncomp).astype(float)
    want = refined_solve(mat + shift * np.diag(diag), rhs)
    got = solve(rhs, shift)
    assert got.shape == rhs.shape
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))


@settings(max_examples=40, deadline=None)
@given(mx=st.integers(4, 9), my=st.integers(4, 9), kind=st.sampled_from(MASK_KINDS),
       seed=st.integers(0, 2 ** 16), columns=st.sampled_from([None, 2]),
       shift=st.sampled_from([0.0, 0.7]))
# a Newton matrix of condition number 9.7e4: here the condensed solve and a plain
# np.linalg.solve differ by 1.35e-12, the refined oracle and the condensed solve by 4.8e-13
@example(mx=5, my=7, kind="ring", seed=5, columns=None, shift=0.0)
# an indefinite Newton matrix (condition number 2.8e3, two negative eigenvalues):
# with diagonal pivots only the condensed solve was off by 2.2e-12, with threshold
# pivots by 2.9e-15
@example(mx=5, my=6, kind="ring", seed=13481, columns=2, shift=0.0)
def test_condensed_solve_matches_dense_solve(mx, my, kind, seed, columns, shift):
    g = Grid2D(-1.0, 1.0, -0.8, 0.8, mx, my)
    p = Wgf2dProblem(g, PorousMedium(2.0), masked_rho0(g, kind, seed), eps_visc=0.5,
                     visc_scaling=VISC_TAU_INCREMENT)
    rng = np.random.default_rng(seed)
    tau = 1e-2
    for terms in (newton_terms(p, tau, seed), explicit_terms(p, tau)):
        rows = (1 if terms[2] is None else 2) * active_nodes(p.rho0).size
        size = (rows,) if columns is None else (rows, columns)
        check_against_dense(p, terms, rng.standard_normal(size), shift)


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
    solver = wgf2d._CondensedSolver

    def recorded(grid, rho0, inertia, sigma, hess=None, preconditioner=None):
        seen.append((inertia, sigma, hess))
        return solver(grid, rho0, inertia, sigma, hess, preconditioner)

    monkeypatch.setattr(wgf2d, "_CondensedSolver", recorded)
    wgf2d_step_implicit(p, equal_history(p, 2e-3), 2e-3)
    assert {h is None for _, _, h in seen} == {True, False}
    for inertia, sigma, hess in seen:
        mat = full_matrix(p.grid, inertia, sigma, hess)
        ncomp = mat.shape[0] // inactive.size
        want = np.kron(np.eye(ncomp), sigma * neg_lap(p.grid))[np.tile(inactive, ncomp)]
        assert np.array_equal(mat[np.tile(inactive, ncomp)], want)


def test_condensation_is_cached_per_grid_and_mask():
    grids = [Grid2D(-1.0, 1.0, -1.0, 1.0, 8, 7), Grid2D(-3.0, 3.0, -2.0, 2.0, 8, 7)]
    problems = [Wgf2dProblem(g, PorousMedium(2.0), masked_rho0(g, kind, 3), eps_visc=0.5)
                for g in grids for kind in ("disk", "ring")]
    rng = np.random.default_rng(4)
    rhs = rng.standard_normal((grids[0].m_x - 1) * (grids[0].m_y - 1))
    for p in problems * 2:
        cond = wgf2d._plan(p.grid, p.rho0, 1).cond
        assert np.array_equal(cond.active, np.flatnonzero(active_nodes(p.rho0)))
        check_against_dense(p, explicit_terms(p, 1e-2), rhs, 0.0)
        assert wgf2d._plan(p.grid, p.rho0, 1).cond is cond
        for arr in (cond.active, cond.inactive, cond.lap_af.data, cond.lap_fa.indices,
                    cond.g.data, cond.g.indptr):
            assert not arr.flags.writeable
    assert len({id(wgf2d._plan(p.grid, p.rho0, 1).cond) for p in problems}) == 4


# --- one plan per grid, mass mask and component count -------------------------

PLAN_ARRAYS = ("order", "indptr", "indices", "diag", "lap", "lap_values", "g", "g_values",
               "hess")


def test_plan_is_cached_per_grid_mask_and_component_count():
    grids = [Grid2D(-1.0, 1.0, -1.0, 1.0, 8, 7), Grid2D(-3.0, 3.0, -2.0, 2.0, 8, 7)]
    problems = [Wgf2dProblem(g, PorousMedium(2.0), masked_rho0(g, kind, 5), eps_visc=0.5)
                for g in grids for kind in ("disk", "full")]
    plans = {}
    for p in problems * 2:
        for ncomp in (1, 2):
            plan = wgf2d._plan(p.grid, p.rho0, ncomp)
            assert plans.setdefault((id(p), ncomp), plan) is plan
            assert plan.cond is wgf2d._plan(p.grid, p.rho0, 1).cond
            assert plan.order.size == ncomp * plan.cond.active.size
            assert plan.indptr[-1] == plan.indices.size
            for name in PLAN_ARRAYS:
                arr = getattr(plan, name)
                with pytest.raises(ValueError):
                    arr[:1] = arr[:1]
            # a density with the same support shares the plan
            same_mask = Wgf2dProblem(p.grid, p.model, 2.0 * p.rho0, eps_visc=0.5)
            assert wgf2d._plan(same_mask.grid, same_mask.rho0, ncomp) is plan
    assert len({id(plan) for plan in plans.values()}) == 8
    for (pid, ncomp), plan in plans.items():
        if ncomp == 1:
            assert plan.hess.size == 0
        else:
            assert plan.hess.size > 0


def plan_entries(plan):
    """Row and column, in condensed numbering, of each slot of the plan's data vector."""
    return plan.order[plan.indices], np.repeat(plan.order, np.diff(plan.indptr))


def plan_pattern(plan):
    """The plan's stored (row, column) pairs in condensed numbering."""
    rows, cols = plan_entries(plan)
    return set(zip(rows.tolist(), cols.tolist()))


def check_positions(plan, hess_rows=None, hess_cols=None):
    """Each unknown's diagonal slot holds (i, i), and the Hessian's k-th stored
    entry, at (hess_rows[k], hess_cols[k]) in condensed numbering, goes to a
    slot that holds that pair."""
    rows, cols = plan_entries(plan)
    size = plan.order.size
    assert np.array_equal(rows[plan.diag], np.arange(size))
    assert np.array_equal(cols[plan.diag], np.arange(size))
    if hess_rows is not None:
        assert np.array_equal(rows[plan.hess], hess_rows)
        assert np.array_equal(cols[plan.hess], hess_cols)


@pytest.mark.parametrize("kind", ["disk", "boundary", "full"])
def test_plan_pattern_is_the_structural_union(kind):
    # the diagonal, -Lap_h and G on each component's active block and the whole
    # mass-masked Hessian, with no values looked at, in SuperLU's minimum-degree order
    g = Grid2D(-1.0, 1.0, -0.8, 0.8, 9, 8)
    p = Wgf2dProblem(g, PorousMedium(2.0), masked_rho0(g, kind, 7), eps_visc=0.5)
    a = np.flatnonzero(active_nodes(p.rho0))
    n = (g.m_x - 1) * (g.m_y - 1)
    cond = wgf2d._plan(g, p.rho0, 1).cond
    for ncomp in (1, 2):
        plan = wgf2d._plan(g, p.rho0, ncomp)
        assert np.array_equal(np.sort(plan.order), np.arange(ncomp * a.size))
        block = (neg_lap(g)[np.ix_(a, a)] != 0.0) | np.eye(a.size, dtype=bool)
        stored_g = cond.g.tocoo()
        block[stored_g.row, stored_g.col] = True
        rows, cols = np.nonzero(block)
        want = {(r + c * a.size, q + c * a.size)
                for c in range(ncomp) for r, q in zip(rows.tolist(), cols.tolist())}
        if ncomp == 2:
            where = np.full(2 * n, -1)
            where[np.concatenate([a, a + n])] = np.arange(2 * a.size)
            indptr, indices = models.hess_2d_structure(g.m_y - 1, g.m_x - 1,
                                                       models.mass_mask(p.rho0))
            rows = np.repeat(np.arange(2 * n), np.diff(indptr))
            assert np.all(where[rows] >= 0) and np.all(where[indices] >= 0)
            want |= set(zip(where[rows].tolist(), where[indices].tolist()))
            check_positions(plan, where[rows], where[indices])
        else:
            check_positions(plan)
        assert plan_pattern(plan) == want
        # the order is the one a minimum-degree factorization picks for that pattern
        rows, cols = np.array(sorted(want)).T
        size = plan.order.size
        structural = sps.csc_matrix((np.where(rows == cols, 2.0 * size, -1.0), (rows, cols)),
                                    shape=(size, size))
        lu = spla.splu(structural, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
        assert np.array_equal(np.argsort(plan.order), lu.perm_c)


def test_plan_pattern_past_the_int32_key_range():
    # 2 x 153^2 unknowns: a column-major key col * size + row passes 2^31 - 1
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 154, 154)
    ny, nx = g.m_y - 1, g.m_x - 1
    plan = wgf2d._plan(g, np.ones(g.node_shape), 2)
    size = plan.order.size
    assert size == 2 * nx * ny and (size - 1) * size > np.iinfo(np.int32).max
    # all nodes active and no G: the diagonal, the 5-point stencil per
    # component and the Hessian's pattern, all with positive values
    stencil = sps.diags([1.0] * 3, [-1, 0, 1], shape=(nx, nx))
    block = (sps.kron(sps.eye(ny), stencil)
             + sps.kron(sps.diags([1.0, 1.0], [-1, 1], shape=(ny, ny)), sps.eye(nx)))
    indptr, indices = models.hess_2d_structure(ny, nx)
    hess = sps.csr_matrix((np.ones(indices.size), indices, indptr), shape=(size, size))
    want = (sps.kron(sps.eye(2), block) + hess).tocoo()
    rows, cols = plan_entries(plan)
    got = np.sort(cols.astype(np.int64) * size + rows)
    assert np.array_equal(got, np.sort(want.col.astype(np.int64) * size + want.row))
    check_positions(plan, np.repeat(np.arange(size), np.diff(indptr)), indices)


def test_solver_rejects_a_hessian_in_another_layout():
    # pruning the exact zeros the reference map stores would move every later value
    p = compact_problem()
    g = p.grid
    inertia, sigma, _ = newton_terms(p, 1e-2, 0)
    hess = discrete_energy_hess_2d(p.model, g.ref_x, g.ref_y, p.rho0, g)
    assert np.any(hess.data == 0.0)
    pruned = hess.copy()
    pruned.eliminate_zeros()
    condensed_solver(p, inertia, sigma, hess)
    with pytest.raises(ValueError, match="hess_2d_structure"):
        condensed_solver(p, inertia, sigma, pruned)


def test_plan_serves_the_reference_map_and_later_steps(monkeypatch):
    # the benchmark's pme2d-implicit grid: at the reference map most stored
    # Hessian entries are exact zeros, which a numeric sum would prune
    config = preset_defaults("barenblatt-2d")
    grid = Grid2D(-2.5, 2.5, -2.5, 2.5, config.mx, config.mx)
    rho0 = barenblatt_initial_2d(config.m)(grid.ref_x, grid.ref_y)
    p = Wgf2dProblem(grid, PorousMedium(config.m), rho0, eps_visc=config.eps_visc,
                     visc_scaling=config.visc_scaling)
    hess = discrete_energy_hess_2d(p.model, grid.ref_x, grid.ref_y, rho0, grid)
    assert np.count_nonzero(hess.data == 0.0) > hess.nnz // 2
    factored = []

    class RecordingLinalg:
        def __getattr__(self, name):
            return getattr(spla, name)

        @staticmethod
        def splu(mat, permc_spec, **kwargs):
            factored.append((permc_spec, mat.indptr.copy(), mat.indices.copy()))
            return spla.splu(mat, permc_spec=permc_spec, **kwargs)

    plans = [wgf2d._plan(grid, rho0, ncomp) for ncomp in (1, 2)]
    sizes = {plan.indptr.size: plan for plan in plans}
    assert len(sizes) == 2
    monkeypatch.setattr(wgf2d, "spla", RecordingLinalg())

    def two_steps():
        del factored[:]
        traj, _ = wgf2d_first_step_implicit(p, config.tau1)
        wgf2d_step_implicit(p, traj, config.tau2)
        assert [wgf2d._plan(grid, rho0, ncomp) for ncomp in (1, 2)] == plans
        assert {spec for spec, _, _ in factored} == {"NATURAL"}
        for _, indptr, indices in factored:
            plan = sizes[indptr.size]
            assert np.array_equal(indptr, plan.indptr) and np.array_equal(indices, plan.indices)
        return [indptr.size for _, indptr, _ in factored]

    # CG solves every Newton system: the explicit matrix, factored once per
    # step, is the only factorization
    assert two_steps() == [plans[0].indptr.size] * 2
    # without CG iterations both schemes factor: the warm start and at least
    # one Newton iteration per step
    monkeypatch.setattr(wgf2d, "CG_MAX_ITER", 0)
    assert set(two_steps()) == set(sizes)


# --- CG on the Newton systems, preconditioned with the explicit matrix ------

def cg_problem(support, mx, scaling=VISC_TAU_INCREMENT):
    """Barenblatt data with compact support (most interior nodes massless), or
    a bump with mass everywhere, on an mx x mx grid."""
    if support == "compact":
        g = Grid2D(-2.0, 2.0, -2.0, 2.0, mx, mx)
        rho0 = barenblatt_2d(g.ref_x, g.ref_y, 0.0, 2.0)
    else:
        g = Grid2D(-1.5, 1.5, -1.5, 1.5, mx, mx)
        rho0 = 0.3 + 0.2 * np.exp(-(g.ref_x ** 2 + g.ref_y ** 2))
    return Wgf2dProblem(g, PorousMedium(2.0), rho0, eps_visc=0.5, visc_scaling=scaling)


def recorded_newton_systems(p, traj, tau):
    """Take the implicit step from ``traj``; return, per unshifted Newton
    solve, the solver's arguments, the right-hand side, the solution and the
    solver."""
    systems = []

    class Recording(wgf2d._CondensedSolver):
        def __init__(self, *args):
            super().__init__(*args)
            self.args = args[:5]

        def __call__(self, rhs, shift=0.0):
            out = super().__call__(rhs, shift)
            if shift == 0.0 and self.ncomp == 2:
                systems.append((self.args, rhs, out, self))
            return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wgf2d, "_CondensedSolver", Recording)
        wgf2d_step_implicit(p, traj, tau)
    return systems


@settings(max_examples=40, deadline=None)
@given(mx=st.integers(6, 24), support=st.sampled_from(["compact", "full"]),
       scaling=st.sampled_from([VISC_TAU_INCREMENT, VISC_TAU_SQ_ABSOLUTE]),
       tau=st.floats(1e-3, 1e-2), ratio=st.floats(0.2, RATIO_BOUND_2D))
def test_cg_newton_direction_matches_the_direct_solve(mx, support, scaling, tau, ratio):
    # compact support keeps the increment viscosity: under the absolute one
    # (s = eps tau^2) the massless nodes next to the support fold at these
    # steps, and the Newton solve stalls with either linear solver (ROADMAP item 1)
    if support == "compact":
        scaling = VISC_TAU_INCREMENT
    p = cg_problem(support, mx, scaling)
    traj, _ = wgf2d_first_step_implicit(p, tau / ratio)
    systems = recorded_newton_systems(p, traj, tau)
    assert systems
    for args, rhs, got, solver in systems:
        # CG served it: the two-component matrix was never factored
        assert solver._lu is None
        # CG stops at max(CG_RTOL ||b||, CG_ATOL), so the direction Newton got
        # leaves a residual below that target in the full interior system,
        # massless rows included, up to the gap between CG's recursive and
        # true residuals: a rounding unit of ||K|| ||u|| + ||b|| per iteration
        grid, _, inertia, sigma, hess = args
        mat = full_matrix(grid, inertia, sigma, hess)
        norm_b = np.linalg.norm(rhs)
        allowance = wgf2d.CG_MAX_ITER * np.finfo(float).eps * (
            np.abs(mat).sum(axis=1).max() * np.linalg.norm(got) + norm_b)
        target = max(wgf2d.CG_RTOL * norm_b, wgf2d.CG_ATOL)
        assert np.linalg.norm(rhs - mat @ got) <= target + allowance
        # scaled up until CG_RTOL ||b|| is the target, CG agrees with the
        # direct solve to 1e-12
        big = rhs * (1e7 / norm_b)
        assert wgf2d.CG_RTOL * 1e7 >= 1e3 * wgf2d.CG_ATOL
        got = wgf2d._CondensedSolver(*args, preconditioner=solver.preconditioner)(big)
        want = wgf2d._CondensedSolver(*args)(big)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_cg_forcing_keeps_newton_iterations_and_energies(monkeypatch):
    # CG stopped at CG_ATOL against CG run to CG_RTOL alone, on the implicit
    # barenblatt-2d preset at neighbouring grids: the same Newton iterations
    # (28-29 each) and the same final energy to far below Newton's tolerance
    hess = wgf2d.discrete_energy_hess_2d
    assemblies = []

    def counted_hess(*args):
        assemblies.append(1)
        return hess(*args)

    def run(mx):
        config = preset_defaults("barenblatt-2d")
        config.mx = config.my = mx
        config.scheme = "implicit"
        config.t_final = 0.2
        config.plots = False
        del assemblies[:]
        record = run_experiment(config, write_files=False)
        assert not record.result.aborted, record.result.abort_reason
        return len(assemblies), record.result.steps[-1].energy

    monkeypatch.setattr(wgf2d, "discrete_energy_hess_2d", counted_hess)
    for mx in range(30, 35):
        forced = run(mx)
        with monkeypatch.context() as patch:
            patch.setattr(wgf2d, "CG_ATOL", 0.0)
            exact = run(mx)
        assert forced[0] == exact[0], mx
        assert abs(forced[1] - exact[1]) <= 1e-9 * abs(exact[1]), mx


class CountingLinalg:
    """``scipy.sparse.linalg`` with a count of the ``cg`` calls and an
    optional replacement of what ``cg`` returns."""

    def __init__(self, result=None):
        self.cg_calls = 0
        self.result = result

    def __getattr__(self, name):
        return getattr(spla, name)

    def cg(self, *args, **kwargs):
        self.cg_calls += 1
        u, info = spla.cg(*args, **kwargs)
        return (u, info) if self.result is None else self.result(u, info)


def newton_system(support="compact"):
    """An unshifted Newton system of a 12 x 12 problem, with its step's explicit
    solver: the arguments of ``_CondensedSolver``, the preconditioner and a
    right-hand side."""
    p = cg_problem(support, 12)
    tau = 2e-3
    # newton_terms' inertia is rho0 / tau per unit area, the explicit matrix's
    inertia, sigma, hess = newton_terms(p, tau, 3)
    explicit = wgf2d._explicit_solver(p, p.rho0 / tau, p.visc_strength(tau))
    rhs = np.random.default_rng(8).standard_normal(inertia.size)
    return (p.grid, p.rho0, inertia, sigma, hess), explicit, rhs


@pytest.mark.parametrize("cap, result", [
    # scipy's cg returns the iterate it stopped at and info = maxiter
    (1, None),
    # and reports success without an iteration when maxiter is 0
    (0, None),
    (None, lambda u, info: (np.full_like(u, np.nan), 0)),
    (None, lambda u, info: (u, -1)),
], ids=["cap", "no-iteration", "non-finite", "breakdown"])
def test_failed_cg_gives_the_direct_solve(monkeypatch, cap, result):
    args, explicit, rhs = newton_system()
    want = wgf2d._CondensedSolver(*args)(rhs)
    linalg = CountingLinalg(result)
    monkeypatch.setattr(wgf2d, "spla", linalg)
    if cap is not None:
        monkeypatch.setattr(wgf2d, "CG_MAX_ITER", cap)
    solver = wgf2d._CondensedSolver(*args, preconditioner=explicit)
    got = solver(rhs)
    assert linalg.cg_calls == 1
    assert solver._lu is not None
    assert np.array_equal(got, want)


def test_after_a_failed_cg_the_step_factors_its_other_newton_systems(monkeypatch):
    p = compact_problem()
    real = wgf2d._CondensedSolver
    assemblies = []
    hess = wgf2d.discrete_energy_hess_2d

    def counted_hess(*args):
        assemblies.append(1)
        return hess(*args)

    def direct(grid, rho0, inertia, sigma, hess=None, preconditioner=None):
        return real(grid, rho0, inertia, sigma, hess)

    def first_step():
        traj, _ = wgf2d_first_step_implicit(p, 2e-3)
        return np.stack([traj.curr_x, traj.curr_y])

    monkeypatch.setattr(wgf2d, "discrete_energy_hess_2d", counted_hess)
    with monkeypatch.context() as patch:
        patch.setattr(wgf2d, "_CondensedSolver", direct)
        want = first_step()
    assert len(assemblies) >= 2
    linalg = CountingLinalg()
    monkeypatch.setattr(wgf2d, "spla", linalg)
    monkeypatch.setattr(wgf2d, "CG_MAX_ITER", 1)
    assert np.array_equal(first_step(), want)
    assert linalg.cg_calls == 1


@pytest.mark.parametrize("support", ["compact", "full"])
def test_shifted_newton_solves_stay_direct(monkeypatch, support):
    args, explicit, rhs = newton_system(support)
    linalg = CountingLinalg()
    monkeypatch.setattr(wgf2d, "spla", linalg)
    solver = wgf2d._CondensedSolver(*args, preconditioner=explicit)
    got = solver(rhs, 0.7)
    assert linalg.cg_calls == 0
    assert np.array_equal(got, wgf2d._CondensedSolver(*args)(rhs, 0.7))
    solver(rhs)
    assert linalg.cg_calls == 1


def test_implicit_step_bits_do_not_depend_on_earlier_steps():
    # the memo keeps the LU of one explicit matrix at the rounded (coeff, s),
    # and a step served from it has the bits of a step that made it; nothing
    # else is kept from one step to the next
    p = compact_problem()
    other = bump_problem(mx=10)
    traj, _ = wgf2d_first_step_implicit(p, 2e-3)
    tau = 2.4e-3

    def step():
        out, dens = wgf2d_step_implicit(p, traj, tau)
        return np.stack([out.curr_x, out.curr_y, dens.values])

    first = step()
    key = wgf2d._explicit_memo[1]
    later = traj
    for tau_later in (2.2e-3, 1.9e-3):
        later, _ = wgf2d_step_implicit(p, later, tau_later)
    # (step before the checked one, same problem, same rounded key)
    preludes = [
        # a step of another length whose (coeff, s) round to the same key
        (lambda: wgf2d_step_implicit(p, traj, tau * (1.0 + 1e-9)), True, True),
        (lambda: wgf2d_step_implicit(p, later, 1.7e-3), True, False),
        # another grid and mass at the same (coeff, s)
        (lambda: wgf2d_step_implicit(other, equal_history(other, 2e-3), tau), False, True),
    ]
    for prelude, same_problem, same_key in preludes:
        prelude()
        kept = wgf2d._explicit_memo
        assert (kept[0] is p, kept[1] == key) == (same_problem, same_key)
        assert np.array_equal(step(), first)
        assert (wgf2d._explicit_memo[2] is kept[2]) == (same_problem and same_key)


def step_coefficients(p, traj, tau):
    """The implicit step's (coeff, s)."""
    r = tau / traj.tau_prev
    return (1.0 + 2.0 * r) / (2.0 * tau * (1.0 + r)), p.visc_strength(tau)


@pytest.mark.parametrize("make", [compact_problem, lambda: bump_problem(mx=10)],
                         ids=["compact", "bump"])
def test_warm_start_is_one_refinement_on_the_memo_lu(monkeypatch, make):
    # the warm start solves the step's exact explicit matrix A with one step
    # of iterative refinement on the memo's LU of A-bar, the matrix at the
    # rounded (coeff, s): bit for bit x = LU(u) + LU(u - A LU(u)) on the
    # active nodes.  So it is not the explicit step's direct solve bit for bit:
    # the two maps differ by 2.1e-14 (compact) and 5.7e-21 (bump) of the
    # largest increment here, and by at most 1.8e-13 over 16 problems and step
    # pairs measured; the bound is about 2^-42 of A's energy norm plus rounding
    p = make()
    traj, _ = wgf2d_first_step_implicit(p, 2e-3)
    tau = 2.4e-3
    maps = wgf2d._explicit_maps
    seen = []

    def recorded(*args):
        seen.append(maps(*args))
        return seen[-1]

    monkeypatch.setattr(wgf2d, "_explicit_maps", recorded)
    wgf2d_step_implicit(p, traj, tau)
    assert len(seen) == 1
    coeff, s = step_coefficients(p, traj, tau)
    rounded = wgf2d._quantized(coeff), wgf2d._quantized(s)
    assert rounded != (coeff, s)
    assert wgf2d._explicit_memo[0] is p and wgf2d._explicit_memo[1] == rounded
    # the refinement written out on an LU made here, not the memo's
    exact = wgf2d._explicit_solver(p, 2.0 * coeff * p.rho0, s)
    near = wgf2d._explicit_solver(p, 2.0 * rounded[0] * p.rho0, rounded[1])
    lu = spla.splu(near._matrix(), permc_spec="NATURAL", **wgf2d._LU_OPTIONS).solve
    mat = exact._matrix()

    def refined(u):
        x = lu(u)
        return x + lu(u - mat @ x)

    exact._lu = refined
    want = maps(p, traj, tau, exact)
    assert np.array_equal(seen[0].x, want.x) and np.array_equal(seen[0].y, want.y)
    explicit, _ = wgf2d_step_explicit(p, traj, tau)
    increment = max(np.max(np.abs(explicit.curr_x - traj.curr_x)),
                    np.max(np.abs(explicit.curr_y - traj.curr_y)))
    assert np.max(np.abs(seen[0].x - explicit.curr_x)) <= 1e-12 * increment
    assert np.max(np.abs(seen[0].y - explicit.curr_y)) <= 1e-12 * increment


@settings(max_examples=200, deadline=None)
@given(a=st.floats(-1e300, 1e300), b=st.floats(-1e300, 1e300))
@example(a=0.5 + 2.0 ** -22, b=1.0 - 2.0 ** -23)
@example(a=5e-324, b=0.0)
def test_quantized_coefficients(a, b):
    # rounding past the largest float would overflow, hence the range
    q = wgf2d._quantized
    assert q(0.0) == 0.0
    for v in (a, b):
        assert abs(q(v) - v) <= 2.0 ** -21 * abs(v)
        assert q(q(v)) == q(v)
    lo, hi = min(a, b), max(a, b)
    assert q(lo) <= q(hi)


def barenblatt_implicit_config():
    """The benchmark's pme2d-implicit run: the implicit barenblatt-2d preset
    to t = 0.5 (64 x 64, 51 steps)."""
    config = preset_defaults("barenblatt-2d")
    config.scheme = "implicit"
    config.t_final = 0.5
    config.plots = False
    return config


class RecordingLU:
    """``scipy.sparse.linalg`` with a record of what ``splu`` factors."""

    def __init__(self):
        self.factored = []

    def __getattr__(self, name):
        return getattr(spla, name)

    def splu(self, mat, *args, **kwargs):
        self.factored.append(mat.copy())
        return spla.splu(mat, *args, **kwargs)


def test_implicit_run_factors_the_explicit_matrix_once_per_rounded_key(monkeypatch):
    # 51 steps, 6 keys: the start-up, step 2, a key near tau_max, step 2's
    # key again (which one entry has forgotten), and the last two steps,
    # shortened to land on t_final; CG solves every Newton system, so no
    # Newton matrix is factored
    config = barenblatt_implicit_config()
    record = run_experiment(config, write_files=False)
    p = record.sim.problem
    wgf2d._plan(p.grid, p.rho0, 1)  # the massless block's LU, made once per grid
    linalg = RecordingLU()
    monkeypatch.setattr(wgf2d, "spla", linalg)
    record = run_experiment(config, write_files=False)
    assert len(record.result.steps) == 51
    sizes = [mat.shape[0] for mat in linalg.factored]
    assert sizes == [wgf2d._plan(p.grid, p.rho0, 1).indptr.size - 1] * 6


def test_two_threads_get_the_serial_bits():
    # each thread steps its own problem; the memo swaps between them
    problems = [compact_problem(), bump_problem(mx=10)]
    taus = (2e-3, 2.4e-3, 2.4e-3, 2.1e-3, 2.1e-3)

    def run(p, barrier=None):
        traj, _ = wgf2d_first_step_implicit(p, taus[0])
        out = []
        for tau in taus[1:]:
            if barrier is not None:
                barrier.wait()
            traj, dens = wgf2d_step_implicit(p, traj, tau)
            out.append(np.stack([traj.curr_x, traj.curr_y, dens.values]))
        return np.stack(out)

    serial = [run(p) for p in problems]
    # a thread that fails breaks the barrier for the other after the timeout
    barrier = threading.Barrier(2, timeout=60)
    with ThreadPoolExecutor(2) as pool:
        threaded = list(pool.map(run, problems, [barrier] * 2))
    for got, want in zip(threaded, serial):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("make", [compact_problem, lambda: bump_problem(mx=10),
                                  lambda: ks_problem()], ids=["compact", "bump", "keller-segel"])
def test_explicit_step_factors_its_exact_matrix_and_never_reads_the_memo(monkeypatch, make):
    class Untouchable:
        def __getitem__(self, index):
            raise AssertionError("the explicit scheme read the implicit step's memo")

    p = make()
    wgf2d._plan(p.grid, p.rho0, 1)  # the massless block's LU, made once per grid
    memo = Untouchable()
    monkeypatch.setattr(wgf2d, "_explicit_memo", memo)
    linalg = RecordingLU()
    monkeypatch.setattr(wgf2d, "spla", linalg)
    traj = Trajectory2D.at_rest(p.grid)
    for tau in (2e-3, 2.4e-3, 2.4e-3):
        del linalg.factored[:]
        c = step_coefficients(p, traj, tau)[0] * 2.0
        want = wgf2d._explicit_solver(p, c * p.rho0, p.visc_strength(tau))._matrix()
        traj, _ = wgf2d_step_explicit(p, traj, tau)
        assert len(linalg.factored) == 1
        got = linalg.factored[0]
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
    assert wgf2d._explicit_memo is memo


def test_refined_solver_leaves_no_reference_cycle():
    # a solver that kept its bound refinement would hold itself, and its near
    # solver's LU would wait for the cyclic collector
    p = compact_problem()
    near = wgf2d._explicit_solver(p, 2.0 * wgf2d._quantized(250.1) * p.rho0, 1e-3)
    solver = wgf2d._explicit_solver(p, 2.0 * 250.1 * p.rho0, 1e-3, near)
    rhs = np.ones((solver.n, 2))
    assert np.all(np.isfinite(solver(rhs)))
    alive = weakref.ref(solver)
    del solver
    assert alive() is None


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
    assert 0 < wgf2d._plan(p.grid, p.rho0, 1).cond.inactive.size
    traj, dens = wgf2d_first_step_implicit(p, 2e-3)
    mass0 = total_mass_2d(dens, traj.curr_x, traj.curr_y)
    previous = wgf2d_augmented_energy(p, traj)
    for ratio in ratios:
        # below tau = 1e-3 the increment viscosity no longer keeps the massless cells
        # next to the support from folding, and the Newton solve stalls (ROADMAP item 1)
        tau = min(max(traj.tau_prev * ratio, 1e-3), 1e-2)
        traj, dens = wgf2d_step_implicit(p, traj, tau)
        assert np.all(jacobian_det_interior(traj.curr_x, traj.curr_y, p.grid) > 0.0)
        assert total_mass_2d(dens, traj.curr_x, traj.curr_y) == pytest.approx(mass0, rel=1e-12)
        value = wgf2d_augmented_energy(p, traj)
        assert value <= previous + 1e-10
        previous = value


def explicit_first_step_oracle(p, tau1):
    """The explicit start-up as it was written before it became the step from
    rest: the gradient at the reference map, inertia rho0 / tau, no history."""
    x0 = p.grid.ref_x.copy()
    y0 = p.grid.ref_y.copy()
    gx, gy = wgf2d._scheme_gradient(p, x0, y0)
    s = p.visc_strength(tau1)
    rhs_x = -gx[1:-1, 1:-1]
    rhs_y = -gy[1:-1, 1:-1]
    if p.visc_scaling == VISC_TAU_SQ_ABSOLUTE:
        rhs_x = rhs_x - s * wgf2d._neg_lap_interior(x0, p.grid)
        rhs_y = rhs_y - s * wgf2d._neg_lap_interior(y0, p.grid)
    return wgf2d._explicit_solve(p, x0, y0, rhs_x, rhs_y,
                                 wgf2d._explicit_solver(p, p.rho0 / tau1, s))


def implicit_first_step_oracle(p, tau1):
    """The implicit start-up as it was written before it became the step from
    rest: inertia 1/(2 tau) about x^0, Newton started from x^0."""
    x0 = p.grid.ref_x.copy()
    y0 = p.grid.ref_y.copy()
    s = p.visc_strength(tau1)
    x_ref, y_ref = wgf2d._visc_ref(p, x0, y0)
    j0 = wgf2d._objective_2d(p, x0, y0, x0, y0, x_ref, y_ref, 0.5 / tau1, s)
    new = wgf2d._implicit_solve(p, wgf2d._deformation(p, x0, y0), j0, j0, x0, y0, x_ref, y_ref,
                                0.5 / tau1, s)
    return new.x, new.y



def test_feasibility_cap_admits_a_start_at_a_negative_reference(monkeypatch):
    # the cap is J(x^n) plus a relative allowance, so a start at J(x^n) < 0 is
    # solved, and one above the allowance is still refused; J less a constant
    # is negative here and has the same minimizer
    p = bump_problem()
    objective = wgf2d._objective_2d
    monkeypatch.setattr(wgf2d, "_objective_2d", lambda *args: objective(*args) - 10.0)
    tau = 2e-3
    x0, y0 = p.grid.ref_x.copy(), p.grid.ref_y.copy()
    x_ref, y_ref = wgf2d._visc_ref(p, x0, y0)
    rest = (x0, y0, x_ref, y_ref, 0.5 / tau, p.visc_strength(tau))
    start = wgf2d._deformation(p, x0, y0)
    j0 = wgf2d._objective_2d(p, x0, y0, *rest, start)
    assert j0 < 0.0

    def solve(j_ref):
        return wgf2d._implicit_solve(p, start, j0, j_ref, *rest)

    new = solve(j0)
    assert np.all(jacobian_det_interior(new.x, new.y, p.grid) > 0.0)
    with pytest.raises(NewtonError, match="warm start above the feasibility cap"):
        solve(j0 - 2e-12 * abs(j0))

def ks_problem(mx=16):
    g = Grid2D(-5.0, 5.0, -5.0, 5.0, mx, mx)
    return Wgf2dProblem(g, KellerSegel2D(2.0, 1.0), ks_gaussian_2d(1.0)(g.ref_x, g.ref_y),
                        eps_visc=0.1)


@pytest.mark.parametrize("make", [lambda: bump_problem(scaling=VISC_TAU_INCREMENT),
                                  lambda: bump_problem(scaling=VISC_TAU_SQ_ABSOLUTE),
                                  compact_problem, ks_problem],
                         ids=["bump-increment", "bump-absolute", "compact", "keller-segel"])
def test_explicit_first_step_is_the_step_from_rest(make):
    # c rho0 with c = 1/tau and rho0 / tau round differently, so not bit for bit
    p = make()
    tau = 2e-3
    x_want, y_want = explicit_first_step_oracle(p, tau)
    traj, dens = wgf2d_first_step_explicit(p, tau)
    scale = max(np.max(np.abs(x_want)), np.max(np.abs(y_want)))
    assert np.max(np.abs(traj.curr_x - x_want)) <= 1e-15 * scale
    assert np.max(np.abs(traj.curr_y - y_want)) <= 1e-15 * scale
    assert (traj.tau_prev, traj.time, traj.step_index) == (tau, tau, 1)
    assert np.array_equal(traj.prev_x, p.grid.ref_x) and np.array_equal(traj.prev_y, p.grid.ref_y)


@pytest.mark.parametrize("mx", [16, 32])
def test_implicit_first_step_is_the_step_from_rest(mx):
    # the step from rest starts Newton from the explicit output, the old start-up
    # from x^0; both minimize the same functional, but the massless nodes are only
    # weakly determined, so compare the objective and the determinants
    g = Grid2D(-2.0, 2.0, -2.0, 2.0, mx, mx)
    p = Wgf2dProblem(g, PorousMedium(2.0), barenblatt_2d(g.ref_x, g.ref_y, 0.0, 2.0),
                     eps_visc=0.5, visc_scaling=VISC_TAU_INCREMENT)
    tau = 2e-3
    x_want, y_want = implicit_first_step_oracle(p, tau)
    traj, _ = wgf2d_first_step_implicit(p, tau)
    rest = Trajectory2D.at_rest(g)
    x_ref, y_ref = wgf2d._visc_ref(p, g.ref_x, g.ref_y)

    def objective(x, y):
        return wgf2d._objective_2d(p, x, y, rest.curr_x, rest.curr_y, x_ref, y_ref,
                                   0.5 / tau, p.visc_strength(tau))

    assert objective(traj.curr_x, traj.curr_y) == pytest.approx(objective(x_want, y_want),
                                                                rel=1e-12)
    det = jacobian_det_interior(traj.curr_x, traj.curr_y, g)
    det_want = jacobian_det_interior(x_want, y_want, g)
    assert np.all(det > 0.0)
    # nodes whose whole determinant stencil carries mass
    m = p.rho0 > 0.0
    inner = m[1:-1, 1:-1] & m[:-2, 1:-1] & m[2:, 1:-1] & m[1:-1, :-2] & m[1:-1, 2:]
    assert np.max(np.abs(det - det_want)[inner]) <= 1e-7
    assert (traj.tau_prev, traj.time, traj.step_index) == (tau, tau, 1)


@pytest.mark.parametrize("tau", [1e-8, 1e-10])
def test_implicit_tiny_steps_stop_at_the_rounding_floor(monkeypatch, tau):
    # the inertia 2 coeff rho0 hx hy of the Newton rows grows like 1/tau, so at
    # these steps the floor eps max(1, max|x|) sum_j |A_ij| is above NEWTON_TOL
    p = bump_problem(mx=8)
    stops = record_stops(monkeypatch, wgf2d)
    traj, _ = wgf2d_first_step_implicit(p, tau)
    for tau_next in (tau, 10.0 * tau):
        traj, _ = wgf2d_step_implicit(p, traj, tau_next)
    assert len(stops) == 3
    assert check_stops(stops, wgf2d.NEWTON_TOL) > wgf2d.NEWTON_TOL


# Hessians assembled over a start-up step of tau and steps of tau and 3 tau
@pytest.mark.parametrize("tau, assemblies", [(1e-8, 1), (1e-10, 0), (1e-12, 0)])
def test_implicit_tiny_steps_stop_at_the_warm_start(monkeypatch, tau, assemblies):
    # the row sums of inertia and viscosity put the floor above the warm
    # start's gradient before the first Hessian; without them each of the
    # three solves assembles and factors one, then stops on the same maps
    p = bump_problem(mx=8)
    hess = wgf2d.discrete_energy_hess_2d
    assembled = []

    def counted_hess(*args):
        assembled.append(args)
        return hess(*args)

    def maps():
        del assembled[:]
        traj, _ = wgf2d_first_step_implicit(p, tau)
        for tau_next in (tau, 3.0 * tau):
            traj, _ = wgf2d_step_implicit(p, traj, tau_next)
        return np.stack([traj.prev_x, traj.prev_y, traj.curr_x, traj.curr_y])

    monkeypatch.setattr(wgf2d, "discrete_energy_hess_2d", counted_hess)
    got = maps()
    assert len(assembled) == assemblies
    solve = wgf2d.newton_solve
    monkeypatch.setattr(wgf2d, "newton_solve",
                        lambda *args, row_sums, **kwargs: solve(*args, **kwargs))
    assert np.array_equal(maps(), got)
    assert len(assembled) == 3


@pytest.mark.parametrize("density", [0.0, 0.05, 0.5])
def test_abs_row_sums_match_the_dense_matrix(density):
    # low densities leave rows without a stored entry
    mat = sps.random(40, 40, density=density, format="csr", random_state=3,
                     data_rvs=lambda k: np.random.default_rng(4).uniform(-2.0, 2.0, k))
    want = np.abs(mat.toarray()).sum(axis=1)
    assert np.allclose(wgf2d._abs_row_sums(mat), want, rtol=1e-14, atol=0.0)


# --- one deformation state per map --------------------------------------------

def bits(a):
    """The bits of a float array, so that 0.0 and -0.0 differ and nan equals itself."""
    return np.ascontiguousarray(a).view(np.int64)


def same_bits(a, b):
    return np.array_equal(bits(a), bits(b))


def drawn_map(g, seed, amplitude):
    """The reference map with each interior node moved by up to ``amplitude``
    cells in x and in y: admissible for an amplitude below a quarter."""
    rng = np.random.default_rng(seed)
    x, y = g.ref_x.copy(), g.ref_y.copy()
    x[1:-1, 1:-1] += amplitude * g.h_x * rng.uniform(-1.0, 1.0, (g.m_y - 1, g.m_x - 1))
    y[1:-1, 1:-1] += amplitude * g.h_y * rng.uniform(-1.0, 1.0, (g.m_y - 1, g.m_x - 1))
    return x, y


def support_problem(g, support, seed):
    """Barenblatt data with compact support, or a random positive density on
    every node."""
    if support == "compact":
        rho0 = barenblatt_2d(g.ref_x, g.ref_y, 0.0, 2.0)
    else:
        rho0 = np.random.default_rng(seed).uniform(0.2, 1.5, g.node_shape)
    return Wgf2dProblem(g, PorousMedium(2.0), rho0, eps_visc=0.5)


@settings(max_examples=40, deadline=None)
@given(mx=st.integers(4, 14), my=st.integers(4, 14),
       support=st.sampled_from(["compact", "full"]), seed=st.integers(0, 2 ** 16),
       amplitude=st.floats(0.0, 0.24))
def test_deformation_state_is_the_fresh_evaluation_bit_for_bit(mx, my, support, seed,
                                                               amplitude):
    g = Grid2D(-2.0, 2.0, -1.5, 1.5, mx, my)
    p = support_problem(g, support, seed)
    x, y = drawn_map(g, seed, amplitude)
    m = wgf2d._deformation(p, x, y)
    assert all(same_bits(a, b) for a, b in zip(m.stencil, models.deformation_stencil(x, y, g)))
    assert same_bits(m.det, jacobian_det_interior(x, y, g))
    _, det, s = models.deformation_state_2d(x, y, p.rho0, g)
    assert same_bits(m.det, det) and same_bits(m.s, s)
    fresh = models.discrete_energy_2d(p.model, x, y, p.rho0, g)
    assert m.energy is None
    assert wgf2d.wgf2d_energy(p, x, y, m) == fresh and m.energy == fresh
    for got, want in zip(models.deformation_energy_grad_2d(p.model, x, y, p.rho0, g, m.state),
                         models.deformation_energy_grad_2d(p.model, x, y, p.rho0, g)):
        assert same_bits(got, want)
    hess = discrete_energy_hess_2d(p.model, x, y, p.rho0, g, m.state)
    assert same_bits(hess.data, discrete_energy_hess_2d(p.model, x, y, p.rho0, g).data)
    # the state of the stacked iterate, made from views of it, has the same bits
    z = np.concatenate([x.ravel(), y.ravel()])
    at = wgf2d._stacked(p, z)
    assert np.shares_memory(at.x, z) and np.shares_memory(at.y, z)
    assert same_bits(at.det, m.det) and same_bits(at.s, m.s)


def test_deformation_state_rejects_a_folded_map():
    p = bump_problem()
    x = p.grid.ref_x.copy()
    x[3, 3] = x[3, 4] + 1.0
    with pytest.raises(AdmissibilityError, match="folded here"):
        wgf2d._deformation(p, x, p.grid.ref_y, "folded here")
    with pytest.raises(AdmissibilityError):
        wgf2d._stacked(p, np.concatenate([x.ravel(), p.grid.ref_y.ravel()]))



@pytest.mark.parametrize("site", ["Trajectory2D", "_after_step", "deformation_state_2d",
                                  "recover_density_2d"])
def test_every_determinant_check_refuses_a_nan_interior_node(site):
    # NaN <= 0 is False, so a check written as any(det <= 0) would let it through
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 4, 4)
    x, y = g.ref_x.copy(), g.ref_y
    x[2, 2] = np.nan
    det = jacobian_det_interior(x, y, g)
    assert np.isnan(det).any() and not np.any(det <= 0.0)
    rho0 = np.ones(g.node_shape)
    with pytest.raises(AdmissibilityError):
        if site == "Trajectory2D":
            Trajectory2D(g.ref_x, g.ref_y, x, y, 1e-2, 0.0, 0, g)
        elif site == "_after_step":
            # a stand-in for a solver's deformation state: the check reads its det
            Trajectory2D._after_step(Trajectory2D.at_rest(g), x, y, 1e-2,
                                     SimpleNamespace(det=det))
        elif site == "deformation_state_2d":
            models.deformation_state_2d(x, y, rho0, g)
        else:
            wgf2d.recover_density_2d(x, y, rho0, g)


def two_steps(p, step):
    traj, _ = step(p, equal_history(p, 2e-3), 2e-3)
    return step(p, traj, 2.4e-3)


def public_trajectory(traj):
    return Trajectory2D(traj.prev_x, traj.prev_y, traj.curr_x, traj.curr_y, traj.tau_prev,
                        traj.time, traj.step_index, traj.grid)


@pytest.mark.parametrize("step", [wgf2d_step_explicit, wgf2d_step_implicit],
                         ids=["explicit", "implicit"])
@pytest.mark.parametrize("make", [compact_problem, bump_problem,
                                  lambda: bump_problem(scaling=VISC_TAU_SQ_ABSOLUTE)],
                         ids=["compact", "bump", "bump-absolute"])
def test_step_outputs_come_from_the_carried_state(step, make):
    p = make()
    traj, dens = two_steps(p, step)
    public = public_trajectory(traj)
    for name in ("prev_x", "prev_y", "curr_x", "curr_y", "tau_prev", "time", "step_index",
                 "grid"):
        got, want = getattr(traj, name), getattr(public, name)
        if isinstance(want, np.ndarray):
            assert same_bits(got, want) and not got.flags.writeable
        else:
            assert got == want
    assert public.deformation is None
    m = traj.deformation
    assert m.x is traj.curr_x and m.y is traj.curr_y
    assert same_bits(m.det, jacobian_det_interior(traj.curr_x, traj.curr_y, p.grid))
    assert same_bits(dens.values, recover_density_2d(traj.curr_x, traj.curr_y, p.rho0,
                                                     p.grid).values)
    assert not dens.values.flags.writeable
    assert wgf2d.wgf2d_energy(p, traj.curr_x, traj.curr_y, traj.deformation) == \
        models.discrete_energy_2d(p.model, traj.curr_x, traj.curr_y, p.rho0, p.grid)


@pytest.mark.parametrize("scheme", ["explicit", "implicit"])
def test_step_records_read_the_carried_state(scheme):
    from lagflow.experiments import Wgf2dSim

    p = compact_problem()
    sim = Wgf2dSim(p, scheme)
    for tau in (2e-3, 2.4e-3, 2.2e-3):
        record = sim.bdf2_step(tau)
        x, y = sim.traj.curr_x, sim.traj.curr_y
        assert sim.traj.deformation is not None
        assert record.mass == total_mass_2d(sim.density, x, y)
        assert record.energy == models.discrete_energy_2d(p.model, x, y, p.rho0, p.grid)


def test_first_record_reads_the_energy_at_rest_from_the_step(monkeypatch):
    # the implicit step from rest builds the map at rest's deformation state,
    # with E_h there inside J(x^n), and the history carries it: the record
    # evaluates no map a second time
    from lagflow.experiments import Wgf2dSim

    p = compact_problem()
    sim = Wgf2dSim(p, "implicit")
    seen = []
    energy = wgf2d.discrete_energy_2d

    def recorded(model, x, y, *args):
        seen.append(bits(x).tobytes() + bits(y).tobytes())
        return energy(model, x, y, *args)

    monkeypatch.setattr(wgf2d, "discrete_energy_2d", recorded)
    record = sim.bdf2_step(2e-3)
    assert sim.traj.prev_deformation is not None
    assert len(seen) == len(set(seen))
    at_rest = energy(p.model, p.grid.ref_x, p.grid.ref_y, p.rho0, p.grid)
    assert sim.energy_rate == abs(record.energy - at_rest) / 2e-3


def test_after_step_checks_what_the_state_does_not_prove():
    p = bump_problem()
    traj = equal_history(p, 2e-3)
    x, y = drawn_map(p.grid, 4, 0.2)
    m = wgf2d._deformation(p, x, y)
    assert Trajectory2D._after_step(traj, x, y, 2e-3, m).deformation is m
    for comp, (i, j) in ((0, (0, 3)), (1, (4, -1))):
        moved = [x.copy(), y.copy()]
        moved[comp][i, j] += 1e-3
        with pytest.raises(ValueError, match="boundary nodes"):
            Trajectory2D._after_step(traj, *moved, 2e-3, wgf2d._deformation(p, *moved))
    for bad in (0.0, -1.0):
        m = wgf2d._deformation(p, x, y)
        m.det = m.det.copy()
        m.det[2, 3] = bad
        with pytest.raises(AdmissibilityError):
            Trajectory2D._after_step(traj, x, y, 2e-3, m)
    with pytest.raises(ValueError, match="expected shape"):
        Trajectory2D._after_step(traj, x[:, 1:], y, 2e-3, m)


def test_each_map_gets_one_determinant_and_one_energy(monkeypatch):
    # over implicit steps, objective, gradient and Hessian read one state per
    # map, the warm start hands its J to Newton, and x^n's E_h rides on the history
    p = compact_problem()
    seen = {"det": [], "energy": []}

    def counted(key, fn, first):
        # x and y are fn's arguments at positions first and first + 1
        def wrapped(*args):
            seen[key].append(bits(args[first]).tobytes() + bits(args[first + 1]).tobytes())
            return fn(*args)
        return wrapped

    det = wgf2d.jacobian_det_interior
    monkeypatch.setattr(wgf2d, "jacobian_det_interior", counted("det", det, 0))
    monkeypatch.setattr(models, "jacobian_det_interior", counted("det", det, 0))
    monkeypatch.setattr(wgf2d, "discrete_energy_2d",
                        counted("energy", wgf2d.discrete_energy_2d, 1))
    # after the first step x* differs from x^n
    traj, _ = wgf2d_first_step_implicit(p, 2e-3)
    del seen["det"][:], seen["energy"][:]
    for tau in (2.4e-3, 2.2e-3, 2.6e-3):
        traj, _ = wgf2d_step_implicit(p, traj, tau)
        wgf2d.wgf2d_augmented_energy(p, traj)
    assert seen["det"] and seen["energy"]
    for key in seen:
        assert len(set(seen[key])) == len(seen[key])
