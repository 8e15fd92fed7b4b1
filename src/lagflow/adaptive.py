"""Adaptive time stepping: proposal strategies, rejection-halving loop, and
the theoretical stability margins of the three schemes.

The proposal follows the literal composition

    tau_{n+1} = min( max(tau_min, tau_max / sqrt(1 + c * q^2)), r_user * tau_n ),

with q the trajectory change rate (strategy 1, weight gamma) or the energy
change rate (strategy 2, weight beta).  Note the outer min: when
r_user * tau_n < tau_min the cap wins and the proposal drops below the
floor; this is not corrected, but counted per run (``ratio_cap_events``).
The product r_user * tau_n can round up, so the cap is stepped down by ulps
until the realized ratio tau_{n+1} / tau_n is at most r_user in floating
point, as the schemes' energy and maximum-principle estimates need; the
theory cap of ``enforce_theory`` is held the same way, and the landing on
t_final never lengthens a step past either.

A solver that cannot complete a step (determinant loss, Newton failure)
raises SolverError; the run loop halves the step and retries, aborting only
when the step falls below tau_min / 2**max_halvings, start-up steps included.

Every accepted step leaves one ``StepRecord``, whose fields are the columns
of ``steps.csv``; a run's ``AdaptiveRunResult`` is the list of them plus how
the run ended.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .allen_cahn import RATIO_BOUND_AC
from .errors import SolverError
from .wgf1d import RATIO_BOUND_1D
from .wgf2d import RATIO_BOUND_2D

__all__ = ["StepController", "StepHistory", "propose_dt", "run_adaptive",
           "stability_margin", "AdaptiveRunResult", "StepRecord", "STRATEGY_TRAJECTORY",
           "STRATEGY_ENERGY", "THEORY_RATIO_BOUNDS"]

log = logging.getLogger(__name__)

STRATEGY_TRAJECTORY = 1
STRATEGY_ENERGY = 2

THEORY_RATIO_BOUNDS = {
    "allen-cahn": RATIO_BOUND_AC,
    "wgf-1d": RATIO_BOUND_1D,
    "wgf-2d": RATIO_BOUND_2D,
}


@dataclass(frozen=True)
class StepController:
    strategy: int = STRATEGY_ENERGY
    gamma: float = 1.0
    beta: float = 1.0
    tau_min: float = 1e-6
    tau_max: float = 1e-2
    r_user: float = 1.5
    r_max_theory: float = 1.5
    enforce_theory: bool = False
    max_halvings: int = 40

    def __post_init__(self):
        if self.strategy not in (STRATEGY_TRAJECTORY, STRATEGY_ENERGY):
            raise ValueError(f"unknown strategy {self.strategy}")
        if not 0.0 < self.tau_min <= self.tau_max:
            raise ValueError("need 0 < tau_min <= tau_max")
        if self.r_user <= 0.0:
            raise ValueError("r_user must be positive")
        if self.gamma < 0.0 or self.beta < 0.0:
            raise ValueError("strategy weights must be nonnegative")


@dataclass(frozen=True)
class StepHistory:
    """Quantities of the last accepted step feeding the proposal."""

    tau: float
    trajectory_rate: float = 0.0  # ||(x^n - x^{n-1}) / tau_n||_h
    energy_rate: float = 0.0      # |E^n - E^{n-1}| / tau_n

    def __post_init__(self):
        if not 0.0 < self.tau < np.inf:  # inf at rest, with no step to propose from
            raise ValueError(f"tau must be positive and finite, got {self.tau}")


def _ratio_cap_undercuts(controller: StepController, history: StepHistory) -> bool:
    """Whether the ratio cap r_user * tau_n puts the proposal below tau_min."""
    return controller.r_user * history.tau < controller.tau_min


def _ratio_cap(r: float, tau: float) -> float:
    """r * tau, stepped down by ulps until its quotient by tau is at most r:
    the product can round up, and the realized ratio tau_{n+1} / tau_n must
    keep the bound in floating point."""
    cap = r * tau
    while cap / tau > r:
        cap = np.nextafter(cap, 0.0)
    return cap


def _ratio_limit(controller: StepController) -> float:
    """The largest ratio tau_{n+1} / tau_n a proposal may take."""
    if controller.enforce_theory:
        return min(controller.r_user, controller.r_max_theory)
    return controller.r_user


def propose_dt(controller: StepController, history: StepHistory) -> float:
    if controller.strategy == STRATEGY_TRAJECTORY:
        q2 = controller.gamma * history.trajectory_rate ** 2
    else:
        q2 = controller.beta * history.energy_rate ** 2
    base = controller.tau_max / np.sqrt(1.0 + q2)
    cap = _ratio_cap(controller.r_user, history.tau)
    proposal = min(max(controller.tau_min, base), cap)
    if _ratio_cap_undercuts(controller, history):
        log.debug("ratio cap pushed the proposal below tau_min (%.3e < %.3e)",
                  proposal, controller.tau_min)
    if controller.enforce_theory:
        proposal = min(proposal, _ratio_cap(controller.r_max_theory, history.tau))
    return float(proposal)


@dataclass(frozen=True, slots=True)
class StepRecord:
    """One accepted step; the fields are the ``steps.csv`` columns, in order."""

    t: float
    tau: float
    ratio: float  # tau / previous tau, 1 on the first step
    energy: float
    mass: float
    min_density: float
    max_density: float
    rejections: int = 0  # halvings before the step was accepted
    boundary_lo: float = np.nan  # 1D end nodes; NaN in 2D
    boundary_hi: float = np.nan


@dataclass
class AdaptiveRunResult:
    """The accepted steps of a run, and how it ended."""

    steps: list[StepRecord] = field(default_factory=list)
    aborted: bool = False
    abort_reason: str = ""
    ratio_cap_events: int = 0  # proposals the ratio cap put below tau_min
    abort_rejections: int = 0  # halvings of the step the run aborted on

    @property
    def total_rejections(self) -> int:
        return sum(step.rejections for step in self.steps) + self.abort_rejections


def run_adaptive(sim, controller: StepController, t_final: float,
                 max_steps: int = 2_000_000, stall_taus: int = 0,
                 start: tuple = ()) -> AdaptiveRunResult:
    """Drive a simulation adapter until t_final (or abort).

    ``sim`` provides: ``time``, ``tau_prev``, ``trajectory_rate`` (read under
    strategy 1), ``energy_rate`` (read under strategy 2), and
    ``bdf2_step(tau) -> StepRecord`` that commits the step and records it,
    or raises SolverError leaving the state untouched.  The first ``len(start)`` steps try the sizes in ``start`` instead of a
    proposal: a sim at rest has no step to propose from (its ``tau_prev`` is
    inf, which ``StepHistory`` refuses); like every other step they are
    halved and retried on failure.

    ``stall_taus`` > 0 declares tau_min exhaustion once that many
    consecutive accepted steps sit at or below tau_min (blow-up runs would
    otherwise grind forever at rejection-halved steps).
    """
    result = AdaptiveRunResult()
    floor = controller.tau_min / 2 ** controller.max_halvings
    at_floor = 0
    below_floor = 0
    for n in range(max_steps):
        if sim.time >= t_final - 1e-13:
            return result
        if n < len(start):
            tau = start[n]
        else:
            # only the rate the strategy reads is computed
            if controller.strategy == STRATEGY_TRAJECTORY:
                history = StepHistory(sim.tau_prev, trajectory_rate=sim.trajectory_rate)
            else:
                history = StepHistory(sim.tau_prev, energy_rate=sim.energy_rate)
            tau = propose_dt(controller, history)
            result.ratio_cap_events += int(_ratio_cap_undercuts(controller, history))
        remaining = t_final - sim.time
        # land exactly on t_final without leaving a sliver the schemes cannot
        # integrate: either finish now or split the tail into two even steps;
        # finishing may lengthen the step slightly, but never past the ratio cap
        if remaining <= tau or (remaining <= tau * (1.0 + 1e-7)
                                and remaining / sim.tau_prev <= _ratio_limit(controller)):
            tau = remaining
        elif remaining <= 2.0 * tau:
            tau = 0.5 * remaining
        rejections = 0
        while True:
            try:
                step = sim.bdf2_step(tau)
                break
            except SolverError as exc:
                rejections += 1
                tau *= 0.5
                if tau < floor:
                    result.aborted = True
                    result.abort_rejections = rejections
                    result.abort_reason = (f"step halved below {floor:.3e} at "
                                           f"t={sim.time:.6f}: {exc}")
                    log.warning("adaptive run aborted: %s", result.abort_reason)
                    return result
        result.steps.append(replace(step, rejections=rejections) if rejections else step)
        if stall_taus > 0:
            at_floor = at_floor + 1 if tau <= controller.tau_min * (1.0 + 1e-9) else 0
            if at_floor >= stall_taus:
                result.aborted = True
                result.abort_reason = (f"tau collapsed to tau_min for {stall_taus} "
                                       f"consecutive steps at t={sim.time:.6f}")
                return result
        # the literal ratio cap can trap the step strictly below tau_min after
        # a rejection cascade (proposals then grow only by r_user per step and
        # never recross the floor within any useful horizon)
        below_floor = below_floor + 1 if tau < controller.tau_min * (1.0 - 1e-12) else 0
        if below_floor >= 200:
            result.aborted = True
            result.abort_reason = (f"trapped below tau_min for {below_floor} "
                                   f"consecutive steps at t={sim.time:.6f}")
            log.warning("adaptive run aborted: %s", result.abort_reason)
            return result
    result.aborted = True
    result.abort_reason = f"exceeded {max_steps} accepted steps"
    return result


def stability_margin(scheme: str, r: float, r_max: Optional[float] = None) -> float:
    """Distance of the scheme's per-step energy inequality from failure at ratio r.

    allen-cahn:  (2r+1)(3-r)/(8(r+1)) - r_max/(2(r_max+1))
    wgf-1d:      (2 + 3r - r^2)/(1+r)
    wgf-2d:      1/4 - r^3/((1+r)(1+2r))
    """
    if r <= 0.0:
        raise ValueError("ratio must be positive")
    if scheme == "allen-cahn":
        bound = THEORY_RATIO_BOUNDS[scheme] if r_max is None else r_max
        return (2.0 * r + 1.0) * (3.0 - r) / (8.0 * (r + 1.0)) - bound / (2.0 * (bound + 1.0))
    if scheme == "wgf-1d":
        return (2.0 + 3.0 * r - r * r) / (1.0 + r)
    if scheme == "wgf-2d":
        return 0.25 - r ** 3 / ((1.0 + r) * (1.0 + 2.0 * r))
    raise ValueError(f"unknown scheme {scheme!r}")
