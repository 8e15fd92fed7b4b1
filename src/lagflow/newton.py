"""Damped Newton iteration shared by the implicit solvers.

``allen_cahn``, ``wgf1d`` and ``wgf2d`` each need one globalized Newton
solve per time step that only ever accepts admissible iterates.  This module
owns that globalization (Nocedal & Wright, *Numerical Optimization*, 2006,
ch. 3 and 19): the stopping rule below, shifted-system retries until the
direction descends, an optional step bound such as the 1D
fraction-to-the-boundary rule (``cell_fraction_to_boundary``), Armijo
backtracking that halves on inadmissible trials and allows for rounding
noise, and acceptance of a stalled iterate within ``stall_tol``.  The merit
is the step objective when there is one; otherwise it is ||F||_2, whose
derivative along the Newton step is -||F||_2.  Assembly and linear solves
stay with the solvers.  A residual or linear system that is not finite ends
the solve with NewtonError, a SolverError, so the step controller halves the
step.

The solve stops once every free unknown has

    |g_i| <= max(tol, eps max(1, max|x|) sum_j |A_ij|),

A the latest linearization (Dennis & Schnabel, *Numerical Methods for
Unconstrained Optimization*, 1983, sec. 7.2): one ulp of x moves g_i by up
to that floor, so no representable iterate can be asked for less.  Held to
1e-11 alone, a third of the Newton iterations of 3,200 random porous-medium
steps at mx = 1600 only ended at the machine-scale step test, which stays as
the guard.  The row sums are one iterate old, which saves an assembly per
test; near convergence, where the floor decides, the system barely changes.
Before the first linearization the floor takes row sums from the caller
that bound every linearization's from below, such as those of the part of
A fixed for the whole solve, so it stops no iterate that the first
linearization's floor would not; without them it is ``tol`` alone.

With an objective, the first shift comes from the solver's
``shift_floor()``, which is called only once the unshifted direction has
failed, so a solver may size it from an eigenvalue estimate without paying
for it on every iteration.  Without one, the core makes one unshifted
solve: a shifted Jacobian does not make ||F|| descend.  A line search that
accepts a trial equal to the iterate ends the solve at once: every later
iteration would repeat it exactly.

The core makes every iterate, so it also owns each iterate's state: the
solver's ``prepare(x)`` builds it once per line-search trial (for the 1D
solvers the cell widths, for the 2D solver the deformation determinant, each
with its admissibility check), and the core hands it to every callback at
that iterate and returns it with the accepted one.  An inadmissible trial is
refused by ``prepare`` and halves the step like one whose merit is refused.
The iterates are read-only, so a state may hold views of them.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import AdmissibilityError, NewtonError

__all__ = ["newton_solve", "cell_fraction_to_boundary", "ARMIJO"]

log = logging.getLogger(__name__)

ARMIJO = 1e-4
_EPS = np.finfo(float).eps
# below the merit's rounding noise the Armijo test is meaningless; the
# allowance keeps full steps usable
_NOISE = 32.0 * _EPS
# shifted solves tried per iteration with an objective: unshifted, then from shift_floor()
_SHIFT_TRIES = 8


def _stateless(x):
    """``prepare`` of a solver whose callbacks need no per-iterate state."""
    return None


def cell_fraction_to_boundary(x, cells, step) -> float:
    """Largest alpha <= 1 (times 0.99) keeping every cell of the 1D node array
    x + alpha step at least 10% of the currently narrowest one, from x's
    cell state ``cells`` (its ``widths`` and their minimum ``min_width``):
    no difference of x, no gather.  ``step`` must be finite.  This is the
    ``step_bound`` of ``newton_solve`` for the 1D solvers."""
    shrink = step[:-1] - step[1:]  # -diff(step), bit for bit
    np.putmask(shrink, shrink <= 0.0, 0.0)
    room = cells.widths - 0.1 * cells.min_width
    with np.errstate(divide="ignore"):
        np.divide(room, shrink, out=room)  # inf where the cell does not shrink
    return min(1.0, 0.99 * room.min())


def _norm(v) -> float:
    """||v||_2, the same bits as np.linalg.norm of a 1D array."""
    return math.sqrt(v.dot(v))


def _descent_step(solve, g, shift_floor, check_descent):
    """Solve A s = -g; with ``check_descent``, retry until s descends with
    growing shifts (A + shift I) from ``shift_floor()``."""
    shift = floor = 0.0
    rhs = -g
    tries = _SHIFT_TRIES if check_descent else 1
    for attempt in range(tries):
        if attempt:
            floor = shift_floor() if attempt == 1 else floor
            shift = max(floor, 4.0 * shift) * 10.0 ** (attempt - 1)
        try:
            step = solve(rhs, shift)
            snorm = _norm(step)
        except (np.linalg.LinAlgError, RuntimeError):
            snorm = math.inf
        except ValueError as exc:  # e.g. a linear system holding inf or NaN
            raise NewtonError(f"linear solve failed: {exc}") from exc
        # a finite norm means a finite step; rounding-level inner products
        # count as descent
        if snorm < math.inf and (
                not check_descent or np.dot(step, g) < 1e-10 * snorm * _norm(g)):
            if shift > 0.0:
                log.debug("descent direction needed a diagonal shift of %.2e", shift)
            return step
    raise NewtonError(f"no descent direction from the linear system ({tries} tries)")


def _within_floor(gabs, gnorm, xmag, tol, row_sums) -> bool:
    """Every gabs_i <= max(tol, eps xmag row_sums_i).  The scalar test settles
    most calls first, with the same outcome: eps max(row_sums) xmag is the
    largest bound."""
    if gnorm > (_EPS * row_sums.max()) * xmag:
        return False
    return bool((gabs <= np.maximum(tol, (_EPS * row_sums) * xmag)).all())


def newton_solve(x, residual, linearize, *, prepare=_stateless, state=None, objective=None,
                 value=None, free=slice(None), tol, stall_tol, max_iter, max_backtracks,
                 step_bound=None, row_sums=None):
    """Damped Newton iteration from the flat array ``x``; returns the accepted
    iterate and its state, ``(x, state)``.

    ``prepare(x)`` builds the state of an iterate, which every callback at x
    receives; it raises AdmissibilityError (or ValueError) for an
    inadmissible trial, which halves the step.  ``state`` is the start's if
    the caller has it, else ``prepare`` builds it.  ``residual(x, state)`` is
    the vector over ``x[free]`` that must meet the stopping rule (module
    docstring) with the number ``tol``: the gradient of ``objective(x,
    state)`` if one is given, else the equations, with ||residual||_2 as the
    merit and no descent test.  ``value`` is the objective at the start if
    the caller has it.  ``linearize(x, state)`` returns ``(solve,
    shift_floor, row_sums)``: ``solve(rhs, shift)`` solves the linear system
    plus ``shift`` times the identity, ``shift_floor()`` gives the first
    nonzero shift (never called without an objective), and ``row_sums`` is
    sum_j |A_ij| over the free rows.  ``step_bound(x, state, step)`` caps the
    initial step length.  ``row_sums``, if given, bound the row sums of
    every linearization from below; the floor uses them until the first
    linearization.  A residual or linear system that is not finite raises
    NewtonError.
    """
    minimize = objective is not None
    x = np.array(x, dtype=float)
    x.flags.writeable = False
    if state is None:
        state = prepare(x)
    if minimize:
        g = None
        fx = objective(x, state) if value is None else value
    else:
        g = residual(x, state)
        fx = _norm(g)
    for _ in range(max_iter):
        if g is None:
            g = residual(x, state)
        gabs = np.abs(g)
        gnorm = gabs.max()
        if not gnorm < math.inf:
            raise NewtonError(f"residual is not finite (max|g|={gnorm})")
        if gnorm <= tol:
            return x, state
        xmag = max(1.0, np.abs(x).max())  # once per iterate
        if row_sums is not None and _within_floor(gabs, gnorm, xmag, tol, row_sums):
            return x, state
        solve, shift_floor, row_sums = linearize(x, state)
        step = _descent_step(solve, g, shift_floor, minimize)
        if np.abs(step).max() <= 4.0 * _EPS * xmag:
            log.debug("step below machine scale at max|g|=%.2e; accepting iterate", gnorm)
            return x, state
        full = np.zeros(x.shape)
        full[free] = step
        alpha = 1.0 if step_bound is None else step_bound(x, state, full)
        if alpha <= 0.0:
            raise NewtonError("line search cannot keep the iterate admissible")
        slope = np.dot(g, step) if minimize else -fx
        noise = _NOISE * (abs(fx) + 1.0)
        for _ in range(max_backtracks):
            trial = x + alpha * full
            trial.flags.writeable = False
            try:
                trial_state = prepare(trial)
                if minimize:
                    f_trial = objective(trial, trial_state)
                else:
                    g_trial = residual(trial, trial_state)
                    f_trial = _norm(g_trial)
            except (AdmissibilityError, ValueError):
                alpha *= 0.5
                continue
            if np.isfinite(f_trial) and f_trial <= fx + ARMIJO * alpha * slope + noise:
                # the merit is a function of the iterate, so a trial equal to x
                # has an equal merit; the cheap test guards the array compare
                if f_trial == fx and np.array_equal(trial, x):
                    raise NewtonError(f"line search made no progress at max|g|={gnorm:.3e}")
                x, fx, state = trial, f_trial, trial_state
                g = None if minimize else g_trial
                break
            alpha *= 0.5
        else:
            if gnorm <= stall_tol:
                log.debug("stopping on a stalled but nearly converged step (max|g|=%.2e)", gnorm)
                return x, state
            raise NewtonError(f"line search stalled at max|g|={gnorm:.3e}")
    raise NewtonError(f"no convergence in {max_iter} iterations (max|g|={gnorm:.3e})")
