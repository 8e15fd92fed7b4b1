import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from lagflow.banded import solve_banded
from lagflow.errors import AdmissibilityError, NewtonError, SolverError
from lagflow.newton import ARMIJO, newton_solve
from oracles import fraction_to_boundary

EPS = np.finfo(float).eps
NOISE = 32.0 * EPS


@st.composite
def spd_quadratics(draw, c_min=-3.0, c_max=3.0):
    """(A, c): a random symmetric positive definite A and a target c."""
    n = draw(st.integers(2, 8))
    m = draw(arrays(np.float64, (n, n), elements=st.floats(-2.0, 2.0)))
    c = draw(arrays(np.float64, (n,), elements=st.floats(c_min, c_max)))
    return m @ m.T + 0.1 * np.eye(n), c


def stateless_solve(x, residual, linearize, *, objective=None, step_bound=None, **kwargs):
    """``newton_solve`` with callbacks of the iterate alone, none of which
    needs a state; returns the accepted iterate."""
    def at(f):
        return None if f is None else (lambda x, state, *rest: f(x, *rest))
    return newton_solve(x, at(residual), at(linearize), objective=at(objective),
                        step_bound=at(step_bound), **kwargs)[0]


def dense_linearize(hessian, row_sums=None):
    """``linearize`` for a dense Hessian; ``row_sums(x)``, if given, replaces
    its sum_j |h_ij| in the stopping floor."""
    def linearize(x):
        h = hessian(x)
        rows = np.abs(h).sum(axis=1) if row_sums is None else row_sums(x)
        return ((lambda rhs, shift: np.linalg.solve(h + shift * np.eye(len(rhs)), rhs)),
                (lambda: 1e-8), rows)
    return linearize


def no_floor(x):
    """Row sums that leave ``tol`` alone to stop the solve."""
    return np.zeros(len(x))


def barrier_problem(a, c, mu):
    """J(x) = 0.5 (u - c)^T A (u - c) - mu sum log(widths) on nodes 0 < u < 1.

    ``x`` holds the pinned end nodes 0 and 1 around the unknowns u.
    """
    def widths(x):
        w = np.diff(x)
        if np.any(w <= 0.0):
            raise AdmissibilityError("nodes out of order")
        return w

    def objective(x):
        d = x[1:-1] - c
        return 0.5 * d @ a @ d - mu * np.sum(np.log(widths(x)))

    def gradient(x):
        inv = 1.0 / widths(x)
        return a @ (x[1:-1] - c) + mu * (inv[1:] - inv[:-1])

    def hessian(x):
        inv2 = 1.0 / widths(x) ** 2
        h = a + mu * np.diag(inv2[1:] + inv2[:-1])
        off = -mu * inv2[1:-1]
        return h + np.diag(off, 1) + np.diag(off, -1)

    return objective, gradient, hessian


@settings(max_examples=40, deadline=None)
@given(problem=spd_quadratics(-1.0, 2.0), mu=st.floats(0.1, 1.0))
def test_converges_inside_the_fraction_to_boundary_bound(problem, mu):
    # targets outside (0, 1) press the nodes against the barrier
    a, c = problem
    objective, gradient, hessian = barrier_problem(a, c, mu)
    x0 = np.linspace(0.0, 1.0, len(c) + 2)
    seen = []

    def recorded(x):
        seen.append(x)
        return objective(x)

    x = stateless_solve(x0, gradient, dense_linearize(hessian), objective=recorded,
                        free=slice(1, -1), tol=1e-9, stall_tol=1e-7, max_iter=100,
                        max_backtracks=50, step_bound=fraction_to_boundary)
    assert x[0] == 0.0 and x[-1] == 1.0
    assert np.all(np.diff(x) > 0.0)
    assert np.max(np.abs(gradient(x))) <= 1e-7
    assert objective(x) <= objective(x0)
    # the bound keeps every trial admissible
    assert all(np.diff(t).min() > 0.0 for t in seen)


def smooth_problem(a, c, weight):
    """J(u) = 0.5 (u - c)^T A (u - c) + w sum sqrt(1 + u^2) with its derivatives."""
    def objective(u):
        return 0.5 * (u - c) @ a @ (u - c) + weight * np.sum(np.sqrt(1.0 + u * u))

    def gradient(u):
        return a @ (u - c) + weight * u / np.sqrt(1.0 + u * u)

    def hessian(u):
        return a + weight * np.diag((1.0 + u * u) ** -1.5)

    return objective, gradient, hessian


def accepted_iterates(problem, u0, tol, row_sums=no_floor):
    """The solve's result (None if it raised) and every iterate it accepted,
    with ``row_sums`` in the stopping floor (none by default).

    The gradient is evaluated once at every accepted iterate, the start included.
    """
    objective, gradient, hessian = problem
    seen = []

    def recorded_gradient(u):
        seen.append(u)
        return gradient(u)

    try:
        x = stateless_solve(u0, recorded_gradient, dense_linearize(hessian, row_sums),
                            objective=objective, tol=tol, stall_tol=1e-7, max_iter=100,
                            max_backtracks=50)
    except NewtonError:
        x = None
    return x, seen


@settings(max_examples=40, deadline=None)
@given(problem=spd_quadratics(), weight=st.floats(1.0, 50.0))
def test_accepted_iterates_satisfy_armijo(problem, weight):
    # J(u) = 0.5 (u - c)^T A (u - c) + w sum sqrt(1 + u^2): full Newton steps
    # from far away overshoot, so backtracking has to act
    a, c = problem
    objective, gradient, hessian = smooth_problem(a, c, weight)
    accepted = []

    def recorded_gradient(u):
        accepted.append(u)
        return gradient(u)

    u0 = np.full(len(c), 40.0)
    try:
        stateless_solve(u0, recorded_gradient, dense_linearize(hessian), objective=objective,
                        tol=1e-9, stall_tol=1e-7, max_iter=100, max_backtracks=50)
    finally:
        # the gradient is evaluated once at every accepted iterate
        assert len(accepted) >= 2
        for prev, new in zip(accepted, accepted[1:]):
            f = objective(prev)
            bound = f + ARMIJO * gradient(prev) @ (new - prev) + NOISE * (abs(f) + 1.0)
            assert objective(new) <= bound


@settings(max_examples=30, deadline=None)
@given(problem=spd_quadratics(), weight=st.floats(1.0, 50.0),
       tol=st.sampled_from([1e-9, 1e-6, 1e-3]))
def test_scalar_tolerance_stops_at_the_first_iterate_within_it(problem, weight, tol):
    # the unstopped solve (no tolerance is met, no floor) runs on to the
    # machine-scale exit; a scalar tolerance must accept exactly its iterates
    # up to the first one with max|g| <= tol, bit for bit
    smooth = smooth_problem(*problem, weight)
    gradient = smooth[1]
    u0 = np.full(len(problem[1]), 40.0)
    _, trail = accepted_iterates(smooth, u0, tol=-1.0)
    stop = next(i for i, u in enumerate(trail) if np.max(np.abs(gradient(u))) <= tol)
    x, seen = accepted_iterates(smooth, u0, tol)
    assert len(seen) == stop + 1
    assert all(np.array_equal(a, b) for a, b in zip(seen, trail))
    assert np.array_equal(x, trail[stop])


@settings(max_examples=30, deadline=None)
@given(problem=spd_quadratics(), weight=st.floats(1.0, 50.0), data=st.data())
def test_row_sum_floor_stops_once_every_component_is_within_its_own(problem, weight, data):
    # with tol = 0 only the floor eps max(1, max|u|) rows_i can stop the solve
    smooth = smooth_problem(*problem, weight)
    gradient = smooth[1]
    n = len(problem[1])
    u0 = np.full(n, 40.0)
    rows = 10.0 ** data.draw(arrays(np.float64, (n,), elements=st.floats(7.0, 15.0)))

    def bound(u):
        return np.maximum(0.0, (EPS * rows) * max(1.0, np.max(np.abs(u))))

    _, trail = accepted_iterates(smooth, u0, tol=-1.0)
    x, seen = accepted_iterates(smooth, u0, 0.0, row_sums=lambda u: rows)
    assert x is not None
    assert all(np.array_equal(a, b) for a, b in zip(seen, trail))
    # never stopped while one component was above its bound (the start, before
    # any linearization, is held to tol alone) ...
    assert np.all(np.abs(gradient(x)) <= bound(x))
    assert np.any(np.abs(gradient(seen[0])) > 0.0)
    assert all(np.any(np.abs(gradient(u)) > bound(u)) for u in seen[1:-1])
    # ... and stopped at the first iterate where none was
    assert np.array_equal(x, seen[-1])


@settings(max_examples=30, deadline=None)
@given(problem=spd_quadratics(), weight=st.floats(1.0, 50.0), data=st.data())
def test_floor_uses_the_row_sums_of_the_latest_linearization(problem, weight, data):
    # only the linearization at iterate k has row sums large enough to stop
    # the solve, so it stops at iterate k + 1, the next one tested: the floor
    # comes from the latest linearization, not from the first
    smooth = smooth_problem(*problem, weight)
    u0 = np.full(len(problem[1]), 40.0)
    _, trail = accepted_iterates(smooth, u0, tol=-1.0)
    k = data.draw(st.integers(0, len(trail) - 2))
    linearized = []

    def row_sums(u):
        linearized.append(u)
        return np.full(len(u), 1e300 if len(linearized) == k + 1 else 0.0)

    x, seen = accepted_iterates(smooth, u0, -1.0, row_sums=row_sums)
    assert len(seen) == k + 2
    assert all(np.array_equal(a, b) for a, b in zip(seen, trail))
    assert np.array_equal(x, trail[k + 1])


@st.composite
def stalled_problems(draw):
    """An SPD system whose every trial step is inadmissible, and its g."""
    a, _ = draw(spd_quadratics())
    g = draw(arrays(np.float64, (len(a),), elements=st.floats(-1.0, 1.0)).filter(
        lambda v: np.max(np.abs(v)) > 0.1))
    return a, g


def _stalling_solve(a, g, gscale, stall_tol):
    x0 = np.zeros(len(g))

    def objective(x):
        if np.any(x != x0):
            raise AdmissibilityError("every trial leaves the admissible set")
        return 0.0

    return stateless_solve(x0, lambda x: gscale * g, dense_linearize(lambda x: a),
                           objective=objective, tol=1e-12, stall_tol=stall_tol,
                           max_iter=10, max_backtracks=20)


@settings(max_examples=20, deadline=None)
@given(problem=stalled_problems())
def test_stalled_iterate_within_stall_tolerance_is_returned(problem):
    a, g = problem
    x = _stalling_solve(a, g, 1e-6, stall_tol=1e-5)
    assert np.array_equal(x, np.zeros(len(g)))


@settings(max_examples=20, deadline=None)
@given(problem=stalled_problems())
def test_stall_above_tolerance_raises(problem):
    a, g = problem
    with pytest.raises(NewtonError, match="stalled"):
        _stalling_solve(a, g, 1e-3, stall_tol=1e-5)


@settings(max_examples=20, deadline=None)
@given(problem=stalled_problems())
def test_line_search_ending_on_the_iterate_raises_at_once(problem):
    # J is 0 only at the start, so the halvings run until x + alpha s rounds
    # back to x and that trial passes the test; every later iteration would
    # repeat it exactly
    a, g = problem
    x0 = np.ones(len(g))
    linearized = []

    def linearize(x):
        linearized.append(x)
        return dense_linearize(lambda x: a)(x)

    with pytest.raises(NewtonError, match="no progress"):
        stateless_solve(x0, lambda x: g, linearize,
                        objective=lambda x: 0.0 if np.array_equal(x, x0) else 1.0,
                        tol=1e-12, stall_tol=1e-12, max_iter=10, max_backtracks=80)
    assert len(linearized) == 1


@settings(max_examples=20, deadline=None)
@given(problem=spd_quadratics())
def test_no_descent_direction_raises(problem):
    # a strongly concave model: no shift in the schedule makes it descend
    a, c = problem

    def objective(u):
        return -1e30 * 0.5 * (u - c) @ a @ (u - c)

    with pytest.raises(NewtonError, match="descent direction"):
        stateless_solve(c + 1.0, lambda u: -1e30 * a @ (u - c),
                        dense_linearize(lambda u: -1e30 * a), objective=objective,
                        tol=1e-9, stall_tol=1e-7, max_iter=10, max_backtracks=50)


def test_singular_system_without_shifts_raises():
    # residual mode makes one unshifted solve and never asks for a shift
    def singular(x):
        def solve(rhs, shift):
            raise np.linalg.LinAlgError("singular matrix")
        return solve, None, np.ones(3)

    with pytest.raises(NewtonError, match=r"descent direction from the linear system \(1 tries\)"):
        stateless_solve(np.zeros(3), lambda x: np.ones(3), singular, tol=1e-9, stall_tol=1e-7,
                        max_iter=10, max_backtracks=40)


def banded_linearize(bad):
    """``linearize`` of a tridiagonal system whose diagonal holds ``bad`` in
    one entry; the solve is ``banded.solve_banded``, which rejects it."""
    def linearize(x):
        ab = np.zeros((3, len(x)))
        ab[1] = 2.0
        ab[1, len(x) // 2] = bad
        return (lambda rhs, shift: solve_banded((1, 1), ab + [[0.0], [shift], [0.0]], rhs),
                lambda: 1e-8, np.full(len(x), 4.0))
    return linearize


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("mode", ["objective", "residual"])
def test_non_finite_linear_system_raises_newton_error(bad, mode):
    # a SolverError lets the step controller halve the step and retry
    objective = (lambda x: float(x @ x)) if mode == "objective" else None
    with pytest.raises(NewtonError, match="linear solve failed: array must not contain"):
        stateless_solve(np.ones(5), lambda x: 2.0 * x, banded_linearize(bad), objective=objective,
                        tol=1e-9, stall_tol=1e-7, max_iter=10, max_backtracks=40)
    assert issubclass(NewtonError, SolverError)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("mode", ["objective", "residual"])
def test_non_finite_residual_raises_newton_error(bad, mode):
    linearized = []

    def linearize(x):
        linearized.append(x)
        return banded_linearize(2.0)(x)

    def residual(x):
        g = 2.0 * x
        g[1] = bad
        return g

    objective = (lambda x: float(x @ x)) if mode == "objective" else None
    with pytest.raises(NewtonError, match="residual is not finite"):
        stateless_solve(np.ones(5), residual, linearize, objective=objective, tol=1e-9,
                        stall_tol=1e-7, max_iter=10, max_backtracks=40)
    assert linearized == []


@settings(max_examples=20, deadline=None)
@given(problem=spd_quadratics())
def test_residual_mode_solves_a_linear_system(problem):
    # without an objective the merit is ||F||_2 and F(u) = A u - A c is solved
    a, c = problem
    u = stateless_solve(np.zeros(len(c)), lambda u: a @ (u - c), dense_linearize(lambda u: a),
                        tol=1e-9, stall_tol=1e-7, max_iter=10, max_backtracks=40)
    assert np.max(np.abs(a @ (u - c))) <= 1e-9


class Prepared:
    """A state as ``prepare`` builds it: the iterate it was built for."""

    def __init__(self, x):
        self.x = x


@pytest.mark.parametrize("minimize", [True, False])
def test_prepare_builds_one_state_per_trial_and_the_core_hands_it_on(minimize):
    # targets outside (0, 1) press the nodes against the barrier, and with no
    # step bound full steps fold cells, so prepare refuses those trials; after
    # the third linearization it refuses every trial, and the solve stalls;
    # the start's state, and with an objective J there, come from the caller
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    objective, gradient, hessian = barrier_problem(a, np.array([1.4, 1.8]), 0.05)
    x0 = np.array([0.0, 0.3, 0.6, 1.0])
    start = Prepared(x0)
    prepared, refused, linearized, merits = [], [], [], []

    def prepare(x):
        prepared.append(x)
        if np.any(np.diff(x) <= 0.0) or len(linearized) == 3:
            refused.append(x)
            raise AdmissibilityError("trial refused")
        return Prepared(x)

    def own_state(f, record=None):
        def callback(x, state, *rest):
            # the state built for this very iterate, or the caller's for the start
            assert state.x is x or (state is start and np.array_equal(x, x0))
            if record is not None:
                record.append(x)
            return f(x, *rest)
        return callback

    x, state = newton_solve(x0, own_state(gradient, None if minimize else merits),
                            own_state(dense_linearize(hessian), linearized), prepare=prepare,
                            state=start, value=objective(x0) if minimize else None,
                            objective=own_state(objective, merits) if minimize else None,
                            step_bound=own_state(lambda x, step: 1.0), free=slice(1, -1),
                            tol=1e-14, stall_tol=1e3, max_iter=20, max_backtracks=12)
    # the stall exit returns the accepted iterate with the state built for it
    assert len(linearized) == 3 and x is linearized[-1] and state.x is x
    assert any(np.diff(u).min() <= 0.0 for u in refused[:-12])
    # prepare ran once per trial and never at the start; every admissible
    # trial, and only those, had its merit evaluated, and the start only
    # without a given J, where the residual is the merit
    assert len({id(u) for u in prepared}) == len(prepared)
    assert not any(np.array_equal(u, x0) for u in prepared)
    admissible = [u for u in prepared if not any(u is v for v in refused)]
    at_start = 0 if minimize else 1
    assert len(merits) == len(admissible) + at_start
    assert all(u is v for u, v in zip(merits[at_start:], admissible))
    # the stalled iteration tried max_backtracks trials, each at half the step
    # of the one before
    stalled = prepared[-12:]
    assert all(any(u is v for v in refused) for u in stalled)
    for u, v in zip(stalled, stalled[1:]):
        assert np.allclose(v - x, 0.5 * (u - x), rtol=1e-9, atol=0.0)


def test_fraction_to_boundary_keeps_a_tenth_of_the_narrowest_cell():
    x = np.array([0.0, 0.5, 1.0, 2.0])
    step = np.array([0.0, 1.0, -1.0, 0.0])
    alpha = fraction_to_boundary(x, step)
    assert np.diff(x + alpha * step).min() == pytest.approx(0.1 * 0.5 + 0.01 * (0.5 - 0.05))
    assert fraction_to_boundary(x, np.array([0.0, -0.1, 0.0, 0.0])) == 1.0
