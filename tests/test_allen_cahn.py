import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_banded

from lagflow.allen_cahn import (NEWTON_MAX_ITER, NEWTON_TOL, AcProblem, _banded_jacobian,
                                _energy_force, _StepTerms, ac_energy, ac_first_step, ac_modified_energy,
                                ac_residual, ac_step)
from lagflow.errors import AdmissibilityError
from lagflow.grids import Grid1D, node_diff
from lagflow.initial import InitialCondition1D, ac_parabola
from lagflow.models import ConstantMobility, DegenerateMobility, GinzburgLandau, double_well
from lagflow.newton import fraction_to_boundary, newton_solve


def constant_profile(c=0.3):
    return InitialCondition1D(lambda x: c * np.ones_like(np.asarray(x, dtype=float)),
                              lambda x: np.zeros_like(np.asarray(x, dtype=float)))


def make_problem(mx=16, eps=0.01, eta=0.0, mobility=None, initial=None):
    grid = Grid1D(-1.0, 1.0, mx)
    model = GinzburgLandau(eps, mobility or ConstantMobility())
    return AcProblem(grid, model, initial=initial or ac_parabola(), eta=eta)


def test_constant_profile_never_moves():
    p = make_problem(initial=constant_profile())
    traj = ac_first_step(p, 1e-2)
    assert np.array_equal(traj.curr, p.grid.nodes)
    traj, density = ac_step(p, traj, 1e-2)
    assert np.array_equal(traj.curr, p.grid.nodes)
    assert np.array_equal(density.values, p.rho0_mid)


def test_residual_zero_for_constant_profile():
    p = make_problem(initial=constant_profile())
    x = p.grid.nodes
    res = ac_residual(p, x, x, x, 1e-2, 1.0)
    assert np.allclose(res, 0.0, atol=1e-15)


def test_converged_step_residual_below_tolerance():
    p = make_problem(mx=32)
    traj = ac_first_step(p, 1e-3)
    traj, _ = ac_step(p, traj, 1e-3)
    res = ac_residual(p, traj.prev, traj.curr, traj.curr, 1e-3, 1.0)
    # the committed state solved the PREVIOUS system; re-solve one more step
    new, _ = ac_step(p, traj, 1.3e-3)
    res = ac_residual(p, traj.prev, traj.curr, new.curr, 1.3e-3, 1.3)
    assert np.max(np.abs(res)) <= 1e-10


def test_residual_matches_brute_force_transcription():
    # independent term-by-term re-evaluation on a 4-cell mesh
    mx = 4
    p = make_problem(mx=mx, eta=0.5)
    rng = np.random.default_rng(8)
    h = p.grid.h

    def admissible(seed):
        r = np.random.default_rng(seed)
        x = p.grid.nodes + 0.15 * h * r.uniform(-1, 1, mx + 1)
        x[0], x[-1] = -1.0, 1.0
        return x

    x_prev, x_curr, x_next = admissible(1), admissible(2), admissible(3)
    tau, ratio = 2e-3, 1.3
    got = ac_residual(p, x_prev, x_curr, x_next, tau, ratio)

    def dh_nodes(x):
        out = np.empty(mx + 1)
        for j in range(1, mx):
            out[j] = (x[j + 1] - x[j - 1]) / (2 * h)
        out[0] = (x[1] - x[0]) / h
        out[mx] = (x[mx] - x[mx - 1]) / h
        return out

    eq = np.zeros(mx)
    for j in range(mx):
        w = p.rho0_prime_mid[j] ** 2 / p.mobility_mid[j]
        d_next = (x_next[j + 1] - x_next[j]) / h
        d_curr = (x_curr[j + 1] - x_curr[j]) / h
        d_prev = (x_prev[j + 1] - x_prev[j]) / h
        xm_next = 0.5 * (x_next[j] + x_next[j + 1])
        xm_curr = 0.5 * (x_curr[j] + x_curr[j + 1])
        xm_prev = 0.5 * (x_prev[j] + x_prev[j + 1])
        c1 = (2 * ratio + 1) / (2 * tau * (ratio + 1))
        eq[j] = c1 * w * (1 / d_next + 1 / d_curr) * (xm_next - xm_curr)
        lead = (1 + 1 / (2 * ratio)) * d_curr ** -0.5 - (1 / (2 * ratio)) * d_next ** -0.5
        hist = d_prev ** -0.5 + d_curr ** -0.5
        eq[j] -= ratio ** 2 * w / (2 * tau * (ratio + 1)) * lead * hist * (xm_curr - xm_prev)
        ln = np.log(dh_nodes(x_next)) - np.log(dh_nodes(x_curr))
        eq[j] -= p.eta * tau * (ln[j + 1] - ln[j]) / h

    # force: variational gradient of the discrete energy, which interiorly
    # equals the averaged pointwise difference form
    dh = dh_nodes(x_next)
    q = -(p.eps ** 2 / 2) * (p.rho0_prime_nodes / dh) ** 2 + double_well(p.rho0_nodes)
    weights = np.full(mx + 1, h)
    weights[0] = weights[-1] = h / 2
    t = weights * q
    force = np.zeros(mx + 1)
    for j in range(1, mx):
        force[j + 1] += t[j] / (2 * h)
        force[j - 1] -= t[j] / (2 * h)
    force[1] += t[0] / h
    force[0] -= t[0] / h
    force[mx] += t[mx] / h
    force[mx - 1] -= t[mx] / h

    expected = 0.5 * h * (eq[:-1] + eq[1:]) + force[1:-1]
    assert np.allclose(got, expected, rtol=1e-13, atol=1e-15)


def test_mbp_density_multiset_exact():
    p = make_problem(mx=24)
    traj = ac_first_step(p, 1e-3)
    for _ in range(10):
        traj, density = ac_step(p, traj, 1.2e-3)
        assert np.array_equal(np.sort(density.values), np.sort(p.rho0_mid))
        assert density.values.min() == p.rho0_mid.min()
        assert density.values.max() == p.rho0_mid.max()
        assert np.all(np.diff(traj.curr) > 0.0)


def test_first_step_displacement_scales_linearly():
    p = make_problem(mx=32)
    norms = []
    taus = [4e-4, 2e-4, 1e-4, 5e-5]
    for tau in taus:
        traj = ac_first_step(p, tau)
        norms.append(np.max(np.abs(traj.curr - p.grid.nodes)))
    rates = [np.log(norms[i - 1] / norms[i]) / np.log(2.0) for i in range(1, len(norms))]
    assert all(0.8 < r < 1.2 for r in rates)
    slopes = np.diff(ac_first_step(p, 1e-3).curr) / p.grid.h
    assert np.all(slopes > 0.0)


def test_modified_energy_reduces_to_energy_without_motion():
    p = make_problem()
    x = p.grid.nodes
    assert ac_modified_energy(p, x, x, 1e-3) == pytest.approx(ac_energy(p, x))


def test_modified_energy_monotone_under_ratio_bound():
    p = make_problem(mx=24)
    rng = np.random.default_rng(3)
    traj = ac_first_step(p, 1e-3)
    previous = None
    for _ in range(60):
        ratio = max(rng.uniform(0.0, 1.5), 1e-2)
        tau = min(max(traj.tau_prev * ratio, 1e-4), 2e-2)
        traj, _ = ac_step(p, traj, tau)
        value = ac_modified_energy(p, traj.prev, traj.curr, traj.tau_prev, r_max=1.5)
        if previous is not None:
            assert value <= previous + 1e-10
        previous = value


@pytest.mark.parametrize("mobility", [ConstantMobility(), DegenerateMobility()],
                         ids=["constant", "degenerate"])
@settings(max_examples=15, deadline=None)
@given(ratios=st.lists(st.floats(1e-3, 1.5), min_size=2, max_size=25))
def test_drawn_ratios_keep_the_lyapunov_functional(mobility, ratios):
    # tau is clamped to [1e-4, 2e-2] as in acceptance criterion 4; from tau >= 1e-4
    # the clamp never raises a step ratio above the drawn one or 1
    p = make_problem(mx=32, mobility=mobility)
    traj = ac_first_step(p, 1e-3)
    previous = None
    for ratio in ratios:
        tau = min(max(traj.tau_prev * ratio, 1e-4), 2e-2)
        traj, _ = ac_step(p, traj, tau)
        value = ac_modified_energy(p, traj.prev, traj.curr, traj.tau_prev, r_max=1.5)
        if previous is not None:
            assert value <= previous + 1e-10
        previous = value


def test_degenerate_mobility_requires_positive_values():
    bad = InitialCondition1D(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                             lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    with pytest.raises(ValueError):
        make_problem(mobility=DegenerateMobility(), initial=bad)


def test_inadmissible_candidate_rejected():
    p = make_problem()
    x = p.grid.nodes.copy()
    bad = x.copy()
    bad[3] = bad[4] + 0.1
    with pytest.raises(AdmissibilityError):
        ac_residual(p, x, x, bad, 1e-3, 1.0)


def test_regularization_keeps_energy_dissipating():
    p = make_problem(mx=24, eta=1e-3)
    traj = ac_first_step(p, 1e-3)
    e_prev = ac_energy(p, traj.curr)
    for _ in range(20):
        traj, _ = ac_step(p, traj, 1e-3)
        e = ac_energy(p, traj.curr)
        assert e <= e_prev + 1e-10
        e_prev = e


def complex_step_jacobian(p, x_prev, x_curr, x_next, tau, r, step=1e-150):
    """Oracle: the banded Jacobian of ``ac_residual`` by complex-step differentiation.

    Im R(x + i*step*e_j) / step is dR/dx_j to rounding, with no cancellation
    (Squire & Trapp 1998).  The stencil couples five nodes, so perturbing
    every fifth node at once gives five columns that share no residual row.
    """
    n = p.grid.m_x - 1
    ab = np.zeros((5, n))
    for color in range(5):
        idx = np.arange(color, n, 5)
        xz = x_next.astype(complex)
        xz[1 + idx] += 1j * step
        col = ac_residual(p, x_prev, x_curr, xz, tau, r).imag / step
        for off in (-2, -1, 0, 1, 2):
            rows = idx + off
            ok = (rows >= 0) & (rows < n)
            ab[2 + off, idx[ok]] = col[rows[ok]]
    return ab


# 0.8 (1 - X^2) keeps the degenerate mobility 1 - rho^2 positive on odd grids,
# where a midpoint sits on the crest of the plain parabola
_SHALLOW_PARABOLA = InitialCondition1D(lambda x: 0.8 * (1.0 - np.asarray(x) ** 2),
                                       lambda x: -1.6 * np.asarray(x))


@pytest.mark.parametrize("mx", [15, 16, 17])
# at_rest: the start-up step, whose ratio r = 0 drops the history term
@pytest.mark.parametrize("at_rest", [True, False])
@pytest.mark.parametrize("mobility", [ConstantMobility(), DegenerateMobility()],
                         ids=["constant", "degenerate"])
# the ids name the history form of the residual, the averaged one
@pytest.mark.parametrize("eta", [0.0, 0.5], ids=["0.0-averaged", "0.5-averaged"])
@settings(max_examples=10, deadline=None)
@given(r=st.floats(min_value=1e-6, max_value=1.5),
       tau=st.floats(min_value=1e-4, max_value=1e-1),
       shifts=arrays(np.float64, (3, 18), elements=st.floats(-0.3, 0.3)))
def test_jacobian_matches_complex_step(mx, at_rest, mobility, eta, r, tau, shifts):
    p = make_problem(mx=mx, eps=0.05, eta=eta, mobility=mobility, initial=_SHALLOW_PARABOLA)
    # interior nodes move by at most 0.3 h, which keeps every cell positive
    x_prev, x_curr, x_next = (p.grid.nodes + p.grid.h * s[:mx + 1] for s in shifts)
    for x in (x_prev, x_curr, x_next):
        x[0], x[-1] = -1.0, 1.0
    if at_rest:
        r = 0.0
    want = complex_step_jacobian(p, x_prev, x_curr, x_next, tau, r)
    got = _banded_jacobian(p, x_prev, x_curr, x_next, tau, r)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def per_call_midpoint_equation(p, x_prev, x_curr, x_next, tau, r):
    """Oracle: the per-midpoint equation with every term of x^{n-1} and x^n
    rebuilt on each call, in the operation order the scheme is written in."""
    h = p.grid.h
    slope_next = np.diff(x_next) / h
    slope_curr = np.diff(x_curr) / h
    xm_next = 0.5 * (x_next[:-1] + x_next[1:])
    xm_curr = 0.5 * (x_curr[:-1] + x_curr[1:])
    w = p.friction_mid
    c1 = (2.0 * r + 1.0) / (2.0 * tau * (r + 1.0))
    eq = c1 * w * (1.0 / slope_next + 1.0 / slope_curr) * (xm_next - xm_curr)
    if p.eta > 0.0:
        logdiff = np.log(node_diff(x_next, p.grid)) - np.log(node_diff(x_curr, p.grid))
        eq = eq - p.eta * tau * np.diff(logdiff) / h
    if r > 0.0:
        slope_prev = np.diff(x_prev) / h
        hist = slope_prev ** -0.5 + slope_curr ** -0.5
        xm_prev = 0.5 * (x_prev[:-1] + x_prev[1:])
        lead = (1.0 + 0.5 / r) * slope_curr ** -0.5 - (0.5 / r) * slope_next ** -0.5
        eq = eq - (r * r) * w / (2.0 * tau * (r + 1.0)) * lead * hist * (xm_curr - xm_prev)
    return eq


def per_call_banded_jacobian(p, x_prev, x_curr, x_next, tau, r):
    """Oracle: the banded Jacobian with every term of x^{n-1} and x^n rebuilt
    on each call, in the operation order the scheme is written in."""
    h = p.grid.h
    slope_next = np.diff(x_next) / h
    slope_curr = np.diff(x_curr) / h
    xm_next = 0.5 * (x_next[:-1] + x_next[1:])
    xm_curr = 0.5 * (x_curr[:-1] + x_curr[1:])
    w = p.friction_mid
    c1 = (2.0 * r + 1.0) / (2.0 * tau * (r + 1.0))
    even = 0.5 * c1 * w * (1.0 / slope_next + 1.0 / slope_curr)
    odd = -c1 * w * (xm_next - xm_curr) / (h * slope_next ** 2)
    if r > 0.0:
        slope_prev = np.diff(x_prev) / h
        hist = slope_prev ** -0.5 + slope_curr ** -0.5
        xm_prev = 0.5 * (x_prev[:-1] + x_prev[1:])
        odd = odd - r / (8.0 * tau * (r + 1.0)) * w * hist * (xm_curr - xm_prev) \
            * slope_next ** -1.5 / h
    left = 0.5 * h * (even - odd)
    right = 0.5 * h * (even + odd)
    dh = node_diff(x_next, p.grid)
    dphi = 0.5 * p.eps ** 2 * p.rho0_prime_nodes ** 2 / dh ** 3
    if p.eta > 0.0:
        dphi = dphi + 0.5 * p.eta * tau / dh
    c = np.full_like(dh, 0.5 / h)
    c[0] = c[-1] = 1.0 / h
    sigma = c * dphi
    ab = np.zeros((5, p.grid.m_x - 1))
    ab[0, 2:] = -sigma[2:-2]
    ab[1, 1:] = right[1:-1]
    ab[2] = right[:-1] + left[1:] + sigma[:-2] + sigma[2:]
    ab[3, :-1] = left[1:-1]
    ab[4, :-2] = -sigma[2:-2]
    return ab


@pytest.mark.parametrize("at_rest", [True, False], ids=["r=0", "drawn-r"])
@pytest.mark.parametrize("mobility", [ConstantMobility(), DegenerateMobility()],
                         ids=["constant", "degenerate"])
@pytest.mark.parametrize("eta", [0.0, 1e-3])
@settings(max_examples=10, deadline=None)
@given(r=st.floats(min_value=1e-6, max_value=1.5),
       tau=st.floats(min_value=1e-4, max_value=1e-1),
       shifts=arrays(np.float64, (3, 25), elements=st.floats(-0.3, 0.3)))
def test_step_terms_reproduce_the_per_call_formulas_bit_for_bit(at_rest, mobility, eta, r,
                                                                 tau, shifts):
    # the step's constants are built once per step; each must be a leading
    # factor of its formula, so reusing it leaves every bit as it was
    p = make_problem(mx=24, eps=0.05, eta=eta, mobility=mobility, initial=_SHALLOW_PARABOLA)
    x_prev, x_curr, x_next = (p.grid.nodes + p.grid.h * s for s in shifts)
    for x in (x_prev, x_curr, x_next):
        x[0], x[-1] = -1.0, 1.0
    if at_rest:
        r = 0.0
    eq = per_call_midpoint_equation(p, x_prev, x_curr, x_next, tau, r)
    want_res = 0.5 * p.grid.h * (eq[:-1] + eq[1:]) + _energy_force(p, x_next)[1:-1]
    want_jac = per_call_banded_jacobian(p, x_prev, x_curr, x_next, tau, r)
    terms = _StepTerms(p, x_prev, x_curr, tau, r)
    for t in (None, terms):
        assert np.array_equal(ac_residual(p, x_prev, x_curr, x_next, tau, r, terms=t), want_res)
        assert np.array_equal(_banded_jacobian(p, x_prev, x_curr, x_next, tau, r, terms=t),
                              want_jac)


def first_step_oracle(p, tau1):
    """The start-up as it was written before it became the step from rest:
    backward Euler from the reference (inertia 1/(2 tau), no history term),
    its residual and banded Jacobian spelled out, solved with the same
    Newton settings."""
    h = p.grid.h
    w = p.friction_mid
    x0 = p.grid.nodes.copy()
    c1 = 1.0 / (2.0 * tau1)
    slope_curr = np.diff(x0) / h
    xm_curr = 0.5 * (x0[:-1] + x0[1:])

    def residual(x):
        if np.any(np.diff(x) <= 0.0):
            raise AdmissibilityError("candidate trajectory is not strictly increasing")
        slope_next = np.diff(x) / h
        xm_next = 0.5 * (x[:-1] + x[1:])
        eq = c1 * w * (1.0 / slope_next + 1.0 / slope_curr) * (xm_next - xm_curr)
        if p.eta > 0.0:
            logdiff = np.log(node_diff(x, p.grid)) - np.log(node_diff(x0, p.grid))
            eq = eq - p.eta * tau1 * np.diff(logdiff) / h
        return 0.5 * h * (eq[:-1] + eq[1:]) + _energy_force(p, x)[1:-1]

    def linearize(x):
        slope_next = np.diff(x) / h
        xm_next = 0.5 * (x[:-1] + x[1:])
        even = 0.5 * c1 * w * (1.0 / slope_next + 1.0 / slope_curr)
        odd = -c1 * w * (xm_next - xm_curr) / (h * slope_next ** 2)
        left = 0.5 * h * (even - odd)
        right = 0.5 * h * (even + odd)
        dh = node_diff(x, p.grid)
        dphi = 0.5 * p.eps ** 2 * p.rho0_prime_nodes ** 2 / dh ** 3
        if p.eta > 0.0:
            dphi = dphi + 0.5 * p.eta * tau1 / dh
        c = np.full_like(dh, 0.5 / h)
        c[0] = c[-1] = 1.0 / h
        sigma = c * dphi
        ab = np.zeros((5, p.grid.m_x - 1))
        ab[0, 2:] = -sigma[2:-2]
        ab[1, 1:] = right[1:-1]
        ab[2] = right[:-1] + left[1:] + sigma[:-2] + sigma[2:]
        ab[3, :-1] = left[1:-1]
        ab[4, :-2] = -sigma[2:-2]
        return (lambda rhs, shift: solve_banded((2, 2), ab, rhs)), (lambda: 0.0)

    xmag = max(1.0, np.max(np.abs(x0)))
    floor = 64.0 * np.finfo(float).eps * 0.5 * h * (c1 * np.max(w) * 2.0 / slope_curr.min()
                                                     * xmag)
    tol = max(NEWTON_TOL, floor)
    return newton_solve(x0, residual, linearize, free=slice(1, -1), tol=tol,
                        stall_tol=1e2 * tol, max_iter=NEWTON_MAX_ITER, max_backtracks=40,
                        step_bound=fraction_to_boundary, shift_tries=1)


@pytest.mark.parametrize("mobility", [ConstantMobility(), DegenerateMobility()],
                         ids=["constant", "degenerate"])
@pytest.mark.parametrize("eta", [0.0, 1e-3])
def test_first_step_is_the_step_from_rest_bit_for_bit(mobility, eta):
    p = make_problem(mx=24, eta=eta, mobility=mobility, initial=_SHALLOW_PARABOLA)
    tau = 1e-3
    traj = ac_first_step(p, tau)
    assert np.array_equal(traj.curr, first_step_oracle(p, tau))
    assert np.array_equal(traj.prev, p.grid.nodes)
    assert (traj.tau_prev, traj.time, traj.step_index) == (tau, tau, 1)
    # at r = 0 the history level does not enter the residual at all
    x_prev = p.grid.nodes + 0.2 * p.grid.h * np.sin(np.arange(p.grid.m_x + 1))
    x_prev[0], x_prev[-1] = -1.0, 1.0
    assert np.array_equal(ac_residual(p, x_prev, p.grid.nodes, traj.curr, tau, 0.0),
                          ac_residual(p, p.grid.nodes, p.grid.nodes, traj.curr, tau, 0.0))
