"""Wrappers of a solver module's ``newton_solve`` for the stopping-rule tests."""

import numpy as np

from lagflow.newton import newton_solve

EPS = np.finfo(float).eps


def record_stops(monkeypatch, module):
    """Record every Newton solve that ``module`` makes.

    Each record holds the returned iterate, the residual there, ``tol``, the
    row sums of the latest linearization (without one, the ``row_sums`` the
    solve was given, or None) and whether that linearization was at the
    returned iterate, which is how the machine-scale and stall exits end.
    """
    stops = []

    def recorded(x, residual, linearize, *, tol, **kwargs):
        latest = []

        def recorded_linearize(z):
            out = linearize(z)
            latest.append((z, out[2]))
            return out

        x = newton_solve(x, residual, recorded_linearize, tol=tol, **kwargs)
        at, rows = latest[-1] if latest else (None, kwargs.get("row_sums"))
        stops.append((x, residual(x), tol, rows, at is not None and np.array_equal(at, x)))
        return x

    monkeypatch.setattr(module, "newton_solve", recorded)
    return stops


def floor(x, rows):
    """The stopping floor eps max(1, max|x|) rows_i that the Newton core applies."""
    return (EPS * rows) * max(1.0, np.max(np.abs(x)))


def check_stops(stops, tol):
    """Every solve ended within max(tol, floor_i) or at its last linearization;
    returns the largest floor met, which the caller checks against ``tol``."""
    assert stops
    largest = 0.0
    for x, g, solve_tol, rows, at_last in stops:
        assert solve_tol == tol
        bound = tol if rows is None else np.maximum(tol, floor(x, rows))
        assert at_last or np.all(np.abs(g) <= bound)
        if rows is not None:
            largest = max(largest, np.max(floor(x, rows)))
    return largest


def without_floor(monkeypatch, module):
    """Make ``module``'s Newton solves stop at ``tol`` alone, by zeroing the
    row sums that its linearizations return."""
    def constant_tol(x, residual, linearize, **kwargs):
        def zeroed(z):
            solve, shift_floor, rows = linearize(z)
            return solve, shift_floor, np.zeros_like(rows)
        return newton_solve(x, residual, zeroed, **kwargs)

    monkeypatch.setattr(module, "newton_solve", constant_tol)
