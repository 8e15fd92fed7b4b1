import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lagflow.adaptive import (StepController, StepHistory, StepRecord, propose_dt,
                              run_adaptive, stability_margin, THEORY_RATIO_BOUNDS)
from lagflow.errors import SolverError
from lagflow.wgf1d import RATIO_BOUND_1D


def controller(**kw):
    args = dict(strategy=1, gamma=1.0, beta=1.0, tau_min=1e-6, tau_max=1e-2,
                r_user=1.5, r_max_theory=1.5)
    args.update(kw)
    return StepController(**args)


def test_proposal_zero_change_hits_tau_max():
    c = controller()
    out = propose_dt(c, StepHistory(tau=1.0, trajectory_rate=0.0))
    assert out == pytest.approx(c.tau_max)


def test_proposal_clamps_to_floor_for_huge_change():
    c = controller(gamma=1e12)
    out = propose_dt(c, StepHistory(tau=1.0, trajectory_rate=1e6))
    assert out == pytest.approx(c.tau_min)


def test_proposal_direct_arithmetic():
    # gamma = 10, ||delta_tau x|| = 3, tau_max = 1e-2: 1e-2 / sqrt(91)
    c = controller(gamma=10.0, tau_max=1e-2)
    out = propose_dt(c, StepHistory(tau=10.0, trajectory_rate=3.0))
    assert out == pytest.approx(1e-2 / math.sqrt(91.0), rel=1e-12)
    assert out == pytest.approx(1.0482848367219182e-03, rel=1e-6)


def test_ratio_cap_binds():
    c = controller()
    out = propose_dt(c, StepHistory(tau=1e-3, trajectory_rate=0.0))
    assert out == pytest.approx(1.5e-3)


def test_literal_composition_can_undercut_floor():
    # when r_user tau_n < tau_min the cap wins, exactly as the formula reads
    c = controller(tau_min=1e-3, tau_max=1e-2)
    out = propose_dt(c, StepHistory(tau=1e-4, trajectory_rate=0.0))
    assert out == pytest.approx(1.5e-4)


def test_theory_cap_applies_when_enabled():
    c = controller(enforce_theory=True, r_max_theory=1.25, r_user=3.0)
    out = propose_dt(c, StepHistory(tau=1e-3, trajectory_rate=0.0))
    assert out == pytest.approx(1.25e-3)


@settings(max_examples=200, deadline=None)
@given(tau=st.floats(1e-12, 1e2), r=st.sampled_from([1.25, 1.5, 3.5, RATIO_BOUND_1D]))
@example(tau=0.0015, r=1.5)  # 1.5 * 0.0015 / 0.0015 = 1.5000000000000002
def test_ratio_cap_holds_in_floating_point(tau, r):
    # the product r tau can round up; the realized ratio proposal / tau must not
    # exceed r, and the cap steps down no further than that needs
    history = StepHistory(tau=tau)
    for c in (controller(tau_min=1e-13, tau_max=1e3, r_user=r),
              controller(tau_min=1e-13, tau_max=1e3, r_user=4.0, r_max_theory=r,
                         enforce_theory=True)):
        proposal = propose_dt(c, history)
        assert proposal / tau <= r
        assert proposal == r * tau or np.nextafter(proposal, np.inf) / tau > r


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-8, 1e2), st.floats(0.0, 1e4), st.floats(0.0, 1e4))
def test_proposal_matches_direct_transcription(tau, rate_x, rate_e):
    c = controller(gamma=3.0, beta=7.0)
    for strategy, q in ((1, rate_x), (2, rate_e)):
        cc = controller(strategy=strategy, gamma=3.0, beta=7.0)
        h = StepHistory(tau=tau, trajectory_rate=rate_x, energy_rate=rate_e)
        weight = 3.0 if strategy == 1 else 7.0
        direct = min(max(cc.tau_min, cc.tau_max / math.sqrt(1.0 + weight * q * q)),
                     cc.r_user * tau)
        assert propose_dt(cc, h) == pytest.approx(direct, rel=1e-14)


class SyntheticSim:
    """Succeeds only when tau <= tau_star; tracks commits."""

    def __init__(self, tau_star, tau0=1e-3):
        self.tau_star = tau_star
        self.time = 0.0
        self.tau_prev = tau0
        self.trajectory_rate = 0.0
        self.energy_rate = 0.0
        self.attempts = []

    def bdf2_step(self, tau):
        self.attempts.append(tau)
        if tau > self.tau_star:
            raise SolverError("synthetic failure")
        ratio = tau / self.tau_prev
        self.time += tau
        self.tau_prev = tau
        return StepRecord(t=self.time, tau=tau, ratio=ratio, energy=0.0, mass=1.0,
                          min_density=1.0, max_density=1.0)


def test_run_adaptive_counts_halvings_in_closed_form():
    tau_star = 1.3e-3
    c = controller(tau_min=1e-4, tau_max=1e-2, r_user=100.0)
    sim = SyntheticSim(tau_star, tau0=1e-3)
    result = run_adaptive(sim, c, t_final=5e-2)
    # first proposal is tau_max = 1e-2; halvings until <= tau_star
    expected = math.ceil(math.log2(1e-2 / tau_star))
    assert result.steps[0].rejections == expected
    assert result.steps[0].tau == pytest.approx(1e-2 / 2 ** expected)
    assert not result.aborted
    assert result.steps[-1].t >= 5e-3 - 1e-12


def test_run_adaptive_halves_start_up_steps():
    # the prescribed start-up sizes replace the first proposals and are halved
    # like any other step; the proposals take over from the third step on
    c = controller(tau_min=1e-4, tau_max=1e-2, r_user=100.0)
    sim = SyntheticSim(tau_star=1.3e-3, tau0=1e-3)
    result = run_adaptive(sim, c, t_final=5e-2, start=(5e-3, 1e-3))
    assert sim.attempts[:5] == [5e-3, 2.5e-3, 1.25e-3, 1e-3, 1e-2]
    assert [step.rejections for step in result.steps[:2]] == [2, 0]
    assert [step.tau for step in result.steps[:2]] == [1.25e-3, 1e-3]
    assert result.ratio_cap_events == 0


def test_run_adaptive_success_keeps_ratios_capped():
    c = controller(tau_min=1e-5, tau_max=1e-2, r_user=1.3)
    sim = SyntheticSim(tau_star=float("inf"), tau0=1e-4)
    result = run_adaptive(sim, c, t_final=3e-2)
    assert result.total_rejections == 0
    assert max(step.ratio for step in result.steps) <= 1.3 + 1e-12


@pytest.mark.parametrize("tau_max, taus", [
    # the proposal is the ratio cap: finishing in one step would lengthen it
    # past r_user tau_n, so the tail is split into two even steps
    (1e-2, [0.5 * 1.5e-3 * (1.0 + 5e-8)] * 2),
    # the proposal is tau_max, well inside the cap: one slightly longer step
    (1e-3, [1e-3 * (1.0 + 5e-8)]),
], ids=["capped", "uncapped"])
def test_landing_never_lengthens_a_step_past_the_ratio_cap(tau_max, taus):
    c = controller(tau_min=1e-5, tau_max=tau_max, r_user=1.5)
    sim = SyntheticSim(tau_star=float("inf"), tau0=1e-3)
    t_final = sum(taus)
    result = run_adaptive(sim, c, t_final=t_final)
    assert [step.tau for step in result.steps] == taus
    assert max(step.ratio for step in result.steps) <= 1.5
    assert sim.time == pytest.approx(t_final, rel=1e-15)


def test_run_adaptive_aborts_below_floor():
    c = controller(tau_min=1e-4, max_halvings=10)
    sim = SyntheticSim(tau_star=0.0, tau0=1e-3)
    result = run_adaptive(sim, c, t_final=1.0)
    assert result.aborted
    assert "halved below" in result.abort_reason
    # the first proposal 1.5 tau0 is halved until it falls below tau_min / 2**10;
    # the halvings of the aborted step count although no step was accepted
    first = 1.5e-3
    expected = math.floor(math.log2(first * 2 ** 10 / 1e-4)) + 1
    assert sim.attempts[0] == pytest.approx(first)
    assert result.steps == []
    assert result.total_rejections == len(sim.attempts) == expected == 14


def test_run_adaptive_stall_rule():
    c = controller(tau_min=1e-3, tau_max=1e-3, r_user=10.0)
    sim = SyntheticSim(tau_star=float("inf"), tau0=1e-3)
    result = run_adaptive(sim, c, t_final=1.0, stall_taus=5)
    assert result.aborted
    assert "collapsed" in result.abort_reason
    assert len(result.steps) == 5


def test_ratio_cap_events_counted_not_warned(caplog):
    # r_user * tau_n < tau_min on every step after the first rejection cascade
    c = controller(tau_min=1e-3, tau_max=1e-2, r_user=1.5)
    sim = SyntheticSim(tau_star=2e-4, tau0=1e-3)
    with caplog.at_level(logging.DEBUG, logger="lagflow"):
        result = run_adaptive(sim, c, t_final=5e-3)
    assert not result.aborted
    previous = [1e-3] + [step.tau for step in result.steps[:-1]]
    expected = sum(1.5 * tau < 1e-3 for tau in previous)
    assert expected == len(result.steps) - 1 > 10
    assert result.ratio_cap_events == expected
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert sum("ratio cap" in r.getMessage() for r in caplog.records) == expected


def test_stability_margin_identities():
    assert stability_margin("allen-cahn", 1.5) == pytest.approx(0.0, abs=1e-12)
    root = 0.5 * (3.0 + math.sqrt(17.0))
    assert stability_margin("wgf-1d", root) == pytest.approx(0.0, abs=1e-12)
    assert stability_margin("wgf-2d", 1.0) == pytest.approx(1.0 / 12.0, abs=1e-12)


def test_stability_margin_signs():
    for r in np.linspace(0.05, 1.45, 20):
        assert stability_margin("allen-cahn", r) > 0.0
    for r in np.linspace(0.05, 3.5, 20):
        assert stability_margin("wgf-1d", r) > 0.0
    assert stability_margin("wgf-1d", 3.7) < 0.0
    for r in np.linspace(0.05, 1.25, 20):
        assert stability_margin("wgf-2d", r) > 0.0
    # the sufficient condition's root sits strictly beyond 5/4
    assert stability_margin("wgf-2d", 1.25) > 0.0
    assert stability_margin("wgf-2d", 1.32) < 0.0


def test_theory_bounds_table():
    assert THEORY_RATIO_BOUNDS["allen-cahn"] == pytest.approx(1.5)
    assert THEORY_RATIO_BOUNDS["wgf-1d"] == pytest.approx(0.5 * (3 + math.sqrt(17)))
    assert THEORY_RATIO_BOUNDS["wgf-2d"] == pytest.approx(1.25)


def test_controller_validation():
    with pytest.raises(ValueError):
        controller(tau_min=1e-2, tau_max=1e-3)
    with pytest.raises(ValueError):
        controller(strategy=3)
    with pytest.raises(ValueError):
        StepHistory(tau=0.0)
