"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``lagflow check`` or ``pytest tests/test_acceptance.py -v``.
Desk-scale choices mirror the documented presets; tolerances are stated
next to each assertion.
"""

import math
from collections import Counter

import numpy as np
import pytest

from lagflow import wgf1d
from lagflow.adaptive import THEORY_RATIO_BOUNDS, stability_margin
from lagflow.allen_cahn import AcProblem, ac_first_step, ac_modified_energy, ac_step
from lagflow.config import preset_defaults
from lagflow.diagnostics import aronson_waiting_time
from lagflow.experiments import run_experiment, sweep_experiment
from lagflow.grids import Grid1D, Grid2D, jacobian_det_interior
from lagflow.initial import ac_parabola, pme_cosine
from lagflow.models import (DegenerateMobility, FokkerPlanck, GinzburgLandau,
                            KellerSegel1D, KellerSegel2D, PorousMedium,
                            discrete_energy_1d, discrete_energy_2d,
                            discrete_energy_grad_1d, discrete_energy_grad_2d)
from lagflow.wgf1d import (RATIO_BOUND_1D, Wgf1dProblem, wgf1d_augmented_energy,
                           wgf1d_first_step, wgf1d_step)

RATIO_BOUND_2D = THEORY_RATIO_BOUNDS["wgf-2d"]


def report(number, text):
    print(f"\n[PASS] criterion {number}: {text}")


# --- shared expensive runs ----------------------------------------------------

@pytest.fixture(scope="module")
def barenblatt_explicit_record():
    config = preset_defaults("barenblatt-2d")  # 64^2, explicit, strategy 2
    config.plots = False
    return run_experiment(config, write_files=False)


@pytest.fixture(scope="module")
def barenblatt_implicit_record():
    config = preset_defaults("barenblatt-2d")
    config.mx = config.my = 32
    config.scheme = "implicit"
    config.plots = False
    return run_experiment(config, write_files=False)


@pytest.fixture(scope="module")
def ks_blowup_record():
    config = preset_defaults("ks-blowup-1d")
    config.mx = 400  # resolution-independent behaviour; 800 is the figure scale
    config.t_final = 4.0
    config.plots = False
    return run_experiment(config, write_files=False)


@pytest.fixture(scope="module")
def waiting_records():
    out = {}
    for m in (2.0, 2.5):
        config = preset_defaults("pme-waiting-time")
        config.m = m
        config.plots = False
        out[m] = run_experiment(config, write_files=False)
    return out


@pytest.fixture(scope="module")
def pme_tables(pme_sweep):
    return pme_sweep.tables


# --- criteria ------------------------------------------------------------------

def test_criterion_01_pme_fixed_convergence(pme_tables):
    table = pme_tables["fixed"]
    orders = np.asarray(table["orders_x"])
    assert orders.shape == (2,)
    assert np.all(orders >= 1.85) and np.all(orders <= 2.10), table
    report(1, f"PME fixed-step trajectory orders {orders.round(4)} in [1.85, 2.10]")


def test_criterion_02_pme_variable_convergence(pme_tables):
    table = pme_tables["random"]
    orders = np.asarray(table["orders_x"])
    assert np.all(orders >= 1.8) and np.all(orders <= 2.15), table
    max_ratio = max(table["max_ratio"])
    assert max_ratio > 50.0 * RATIO_BOUND_1D, max_ratio
    report(2, f"PME random-step orders {orders.round(4)} in [1.8, 2.15]; "
              f"max realized ratio {max_ratio:.0f} >> bound {RATIO_BOUND_1D:.2f}")


def test_criterion_03_allen_cahn_convergence(tmp_path):
    tables = sweep_experiment(preset_defaults("ac-interface"), out_dir=str(tmp_path))
    fixed, rand = tables["fixed"], tables["random"]
    for mode, table in tables.items():
        orders = np.asarray(table["orders_x"])
        assert np.all(orders >= 1.8) and np.all(orders <= 2.2), table
        # the written table: trajectory errors only, since the density rides with its label
        path = tmp_path / "ac-interface-sweep" / f"orders_{mode}.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "mx,resolution,l2h_error_x,order_x,linf_error_x,order_linf"
        assert [float(line.split(",")[3]) for line in lines[2:]] == table["orders_x"]
    report(3, f"phase-field orders fixed {np.round(fixed['orders_x'], 4)} "
              f"random {np.round(rand['orders_x'], 4)} in [1.8, 2.2]")


def test_criterion_04_ac_lyapunov_monotone():
    grid = Grid1D(-1.0, 1.0, 32)
    problem = AcProblem(grid, GinzburgLandau(0.01, DegenerateMobility()),
                        initial=ac_parabola(), eta=0.0)
    rng = np.random.default_rng(11)
    traj = ac_first_step(problem, 1e-3)
    previous = None
    worst = -np.inf
    for _ in range(200):
        ratio = max(rng.uniform(0.0, 1.5), 1e-3)
        tau = min(max(traj.tau_prev * ratio, 1e-4), 2e-2)
        traj, _ = ac_step(problem, traj, tau)
        value = ac_modified_energy(problem, traj.prev, traj.curr, traj.tau_prev, r_max=1.5)
        if previous is not None:
            worst = max(worst, value - previous)
            assert value <= previous + 1e-10
        previous = value
    report(4, f"200-step phase-field Lyapunov non-increasing "
              f"(worst increment {worst:.2e} <= 1e-10)")


def test_criterion_05_wgf1d_augmented_energy_monotone():
    grid = Grid1D(-1.0, 1.0, 64)
    rho0 = pme_cosine().density(grid.midpoints)
    problem = Wgf1dProblem(grid, PorousMedium(2.0), rho0)
    rng = np.random.default_rng(7)
    traj, _ = wgf1d_first_step(problem, 1e-3)
    previous = None
    worst = -np.inf
    for _ in range(300):
        ratio = max(rng.uniform(0.0, RATIO_BOUND_1D), 1e-3)
        tau = min(max(traj.tau_prev * ratio, 1e-6), 2e-2)
        traj, _ = wgf1d_step(problem, traj, tau)
        value = wgf1d_augmented_energy(problem, traj.prev, traj.curr, traj.tau_prev)
        if previous is not None:
            worst = max(worst, value - previous)
            assert value <= previous + 1e-10
        previous = value
    report(5, f"300-step PME augmented energy non-increasing "
              f"(worst increment {worst:.2e} <= 1e-10)")


def test_criterion_06_mass_conservation_every_conservative_preset(
        barenblatt_explicit_record, barenblatt_implicit_record, ks_blowup_record):
    drifts = {}
    config = preset_defaults("pme-convergence")
    drifts["pme-convergence"] = (run_experiment(config, write_files=False).mass_drift(), 1e-12)
    config = preset_defaults("pme-waiting-time")
    config.plots = False
    drifts["pme-waiting-time"] = (run_experiment(config, write_files=False).mass_drift(), 1e-12)
    drifts["ks-blowup-1d"] = (ks_blowup_record.mass_drift(), 1e-12)
    drifts["barenblatt-2d (explicit)"] = (barenblatt_explicit_record.mass_drift(), 1e-11)
    drifts["barenblatt-2d (implicit)"] = (barenblatt_implicit_record.mass_drift(), 1e-11)
    config = preset_defaults("pme-nonradial-2d")
    config.t_final = 0.12  # short horizon; mass is identically conserved per step
    config.plots = False
    drifts["pme-nonradial-2d"] = (run_experiment(config, write_files=False).mass_drift(), 1e-11)
    config = preset_defaults("ks-2d")
    config.mx = config.my = 32  # desk scale
    config.t_final = 0.05
    config.plots = False
    drifts["ks-2d"] = (run_experiment(config, write_files=False).mass_drift(), 1e-11)
    for name, (drift, tol) in drifts.items():
        assert drift <= tol, (name, drift)
    pretty = ", ".join(f"{k}: {v[0]:.1e}" for k, v in drifts.items())
    report(6, f"relative mass drift within tolerance for every conservative preset ({pretty})")


def test_criterion_07_mbp_exact_multiset():
    grid = Grid1D(-1.0, 1.0, 48)
    problem = AcProblem(grid, GinzburgLandau(0.01, DegenerateMobility()),
                        initial=ac_parabola(), eta=0.0)
    reference = np.sort(problem.rho0_mid)
    traj = ac_first_step(problem, 1e-3)
    for _ in range(40):
        traj, density = ac_step(problem, traj, 1.3e-3)
        assert np.array_equal(np.sort(density.values), reference)
    report(7, "phase-field density value multiset identical to the initial one at every step")


def test_criterion_08_positivity(barenblatt_explicit_record, barenblatt_implicit_record,
                                 ks_blowup_record, waiting_records):
    # 1D: strictly increasing nodes and positive densities at every accepted step
    for record in (ks_blowup_record, waiting_records[2.0], waiting_records[2.5]):
        assert min(step.min_density for step in record.result.steps) > 0.0
        assert np.all(np.diff(record.sim.traj.curr) > 0.0)
    # 2D: positive determinant of the final states; the schemes raise on any
    # interior violation mid-run, so accepted steps are admissible throughout
    for record in (barenblatt_explicit_record, barenblatt_implicit_record):
        traj = record.sim.traj
        det = jacobian_det_interior(traj.curr_x, traj.curr_y, traj.grid)
        assert np.all(det > 0.0)
    report(8, "positive cell widths (1D) and determinants (2D) at every accepted step")


def test_criterion_09_waiting_time(waiting_records):
    windows = {2.0: (0.19, 0.26), 2.5: (0.16, 0.23)}
    detected = {}
    for m, window in windows.items():
        record = waiting_records[m]
        tw = record.extras["waiting_time"]
        assert tw is not None
        assert window[0] <= tw <= window[1], (m, tw)
        detected[m] = tw
    report(9, f"waiting times m=2: {detected[2.0]:.3f} (exact {aronson_waiting_time(2.0, 0.25):.4f}), "
              f"m=2.5: {detected[2.5]:.3f} (exact {aronson_waiting_time(2.5, 0.25):.4f})")


def test_criterion_10_barenblatt_interface(barenblatt_explicit_record,
                                           barenblatt_implicit_record):
    # exact radius from the reference profile:
    # 0.1 = kappa (m-1)/(4m) r^2 / (t+1)^kappa, i.e. 1.6647 at t = 2
    for record, tol in ((barenblatt_explicit_record, 0.05),
                        (barenblatt_implicit_record, 0.08)):
        assert not record.aborted, record.result.abort_reason
        radius = record.extras["interface_radius"]
        exact = record.extras["interface_radius_exact"]
        assert abs(radius - exact) / exact <= tol, (radius, exact)
    re_ = barenblatt_explicit_record.extras
    ri_ = barenblatt_implicit_record.extras
    report(10, f"interface radius at T=2: explicit 64^2 {re_['interface_radius']:.4f} "
               f"(exact {re_['interface_radius_exact']:.4f}, within 5%), "
               f"implicit 32^2 {ri_['interface_radius']:.4f} (within 8%)")


def test_criterion_11_stability_margin_identities():
    assert stability_margin("allen-cahn", 1.5) == pytest.approx(0.0, abs=1e-12)
    root = 0.5 * (3.0 + math.sqrt(17.0))
    assert stability_margin("wgf-1d", root) == pytest.approx(0.0, abs=1e-12)
    assert stability_margin("wgf-2d", 1.0) == pytest.approx(1.0 / 12.0, abs=1e-12)
    report(11, "stability margins: phase-field zero at 3/2, conservative-1D zero at "
               "(3+sqrt(17))/2, conservative-2D equals 1/12 at ratio 1")


def _random_admissible_1d(grid, rng, scale=0.2):
    x = grid.nodes + scale * grid.h * rng.uniform(-1.0, 1.0, grid.m_x + 1)
    x[0], x[-1] = grid.x_min, grid.x_max
    return x


def test_criterion_12_gradient_oracles():
    checked = 0
    grid = Grid1D(-1.0, 1.0, 10)
    rng = np.random.default_rng(0)
    models_1d = [PorousMedium(2.0), PorousMedium(3.5), FokkerPlanck(), KellerSegel1D()]
    for model in models_1d:
        for _ in range(20):
            x = _random_admissible_1d(grid, rng)
            rho0 = rng.uniform(0.3, 1.5, grid.m_x)
            lag_x = lag_rho = None
            if isinstance(model, KellerSegel1D):
                lag_x = _random_admissible_1d(grid, rng, scale=0.1)
                lag_rho = rho0 * grid.h / np.diff(lag_x)
            grad = discrete_energy_grad_1d(model, x, rho0, grid, pinned=True,
                                           lagged_x=lag_x, lagged_rho=lag_rho)
            eps = 1e-6
            for j in range(1, grid.m_x):
                xp, xm = x.copy(), x.copy()
                xp[j] += eps
                xm[j] -= eps
                fd = (discrete_energy_1d(model, xp, rho0, grid, lag_x, lag_rho)
                      - discrete_energy_1d(model, xm, rho0, grid, lag_x, lag_rho)) / (2 * eps)
                scale = max(1.0, abs(fd))
                assert abs(grad[j] - fd) / scale <= 1e-6
            checked += 1
    grid2 = Grid2D(-1.0, 1.0, -1.0, 1.0, 6, 6)
    models_2d = [PorousMedium(2.0), PorousMedium(3.0), KellerSegel2D(2.0, 1.0)]
    for model in models_2d:
        for _ in range(20):
            x = grid2.ref_x + 0.25 * grid2.h_x * rng.uniform(-1, 1, grid2.node_shape)
            y = grid2.ref_y + 0.25 * grid2.h_y * rng.uniform(-1, 1, grid2.node_shape)
            for a, ref in ((x, grid2.ref_x), (y, grid2.ref_y)):
                a[0, :], a[-1, :], a[:, 0], a[:, -1] = ref[0, :], ref[-1, :], ref[:, 0], ref[:, -1]
            rho0 = rng.uniform(0.3, 1.2, grid2.node_shape)
            gx, gy = discrete_energy_grad_2d(model, x, y, rho0, grid2)
            eps = 1e-6
            for (i, j) in ((1, 2), (3, 3), (5, 4)):
                for comp, arr in ((0, gx), (1, gy)):
                    fp = [x.copy(), y.copy()]
                    fm = [x.copy(), y.copy()]
                    fp[comp][i, j] += eps
                    fm[comp][i, j] -= eps
                    fd = (discrete_energy_2d(model, fp[0], fp[1], rho0, grid2)
                          - discrete_energy_2d(model, fm[0], fm[1], rho0, grid2)) / (2 * eps)
                    scale = max(1.0, abs(fd))
                    assert abs(arr[i, j] - fd) / scale <= 1e-6
            checked += 1
    report(12, f"analytic gradients match central differences on {checked} random "
               f"admissible configurations (rel. err <= 1e-6)")


def _assert_supercritical_stop(record):
    """The controller collapses to tau_min and the run stops early, with the
    peak density rising over the last 20 steps; returns the peak densities."""
    assert record.aborted
    assert "tau" in record.result.abort_reason
    taus = np.array([step.tau for step in record.result.steps])
    assert np.all(taus[-20:] <= record.config.tau_min * (1.0 + 1e-9))
    max_rho = np.array([step.max_density for step in record.result.steps])
    assert np.all(np.diff(max_rho[-20:]) > 0.0)
    return max_rho


def test_criterion_13_keller_segel_blowup(ks_blowup_record):
    record = ks_blowup_record
    # supercritical mass: the controller collapses to tau_min and the run stops early
    max_rho = _assert_supercritical_stop(record)

    # subcritical mass: reaches the final time with bounded density
    small = preset_defaults("ks-blowup-1d")
    small.mx = 400
    small.amplitude = 1.0
    small.t_final = 4.0
    small.plots = False
    diffusive = run_experiment(small, write_files=False)
    assert not diffusive.aborted
    steps = diffusive.result.steps
    assert steps[-1].t >= small.t_final - 1e-9
    assert max(step.max_density for step in steps) <= steps[0].max_density * 1.05
    report(13, f"supercritical run stops by tau_min exhaustion at t="
               f"{record.result.steps[-1].t:.3f} with max density rising "
               f"(last {max_rho[-1]:.1f}); subcritical run reaches T with "
               f"bounded density {steps[-1].max_density:.3f}")


@pytest.mark.parametrize("mx", [200, 300])
def test_criterion_13_supercritical_stop_at_nearby_resolutions(mx, monkeypatch):
    # the blow-up stop does not depend on the resolution, and Newton iterations
    # (one Hessian assembly each) average at most one shifted banded solve
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("solve_banded", "discrete_energy_hess_1d"):
        monkeypatch.setattr(wgf1d, name, counted(name, getattr(wgf1d, name)))
    config = preset_defaults("ks-blowup-1d")
    config.mx = mx
    config.t_final = 4.0
    config.plots = False
    _assert_supercritical_stop(run_experiment(config, write_files=False))
    assert calls["solve_banded"] <= 2 * calls["discrete_energy_hess_1d"]
