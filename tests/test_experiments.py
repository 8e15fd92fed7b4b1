import numpy as np
import pytest

from lagflow.config import parse_config, preset_defaults
from lagflow.experiments import (build_sim, run_experiment, run_fixed_steps,
                                 sweep_experiment)
from lagflow.errors import ConfigError


def test_build_sim_covers_every_preset():
    for preset in ("ac-interface", "pme-convergence", "pme-waiting-time",
                   "ks-blowup-1d", "barenblatt-2d", "pme-nonradial-2d", "ks-2d"):
        sim = build_sim(preset_defaults(preset))
        assert hasattr(sim, "bdf2_step")


@pytest.mark.parametrize("preset", ["barenblatt-2d", "pme-nonradial-2d", "ks-2d"])
def test_2d_grid_my_follows_mx_unless_set(preset):
    def node_shape(text):
        return build_sim(parse_config(f"preset = {preset}\n" + text)).problem.grid.node_shape

    assert node_shape("") == (65, 65)
    assert node_shape("grid.mx = 32") == (33, 33)
    assert node_shape("grid.mx = 32\ngrid.my = 24") == (25, 33)


def test_ac_interface_adaptive_smoke(tmp_path):
    config = preset_defaults("ac-interface")
    config.mx = 32
    config.t_final = 0.5
    config.plots = True
    record = run_experiment(config, out_dir=str(tmp_path))
    assert not record.aborted
    result = record.result
    # energy decays; density values are transported unchanged
    assert result.energies[-1] < result.energies[0]
    assert result.min_densities[-1] == result.min_densities[0]
    assert (tmp_path / "ac-interface" / "timestep.svg").exists()


def test_ratio_cap_events_in_summary(tmp_path):
    # start ten times below tau_min: the ratio cap binds until r_user tau_n >= tau_min
    config = preset_defaults("ac-interface")
    config.mx = 32
    config.t_final = 0.02
    config.tau1 = config.tau2 = 1e-4
    config.plots = False
    record = run_experiment(config, out_dir=str(tmp_path))
    taus = record.result.taus
    expected = sum(config.r_user * taus[k - 1] < config.tau_min for k in range(2, len(taus)))
    assert expected == 5
    assert record.result.ratio_cap_events == expected
    summary = (tmp_path / "ac-interface" / "summary.txt").read_text(encoding="utf-8")
    assert f"ratio-cap events: {expected}\n" in summary


def test_waiting_time_adaptive_steps_grow():
    # the trajectory-change strategy lets the step grow once the free
    # boundary is moving and the bulk rearrangement slows
    config = preset_defaults("pme-waiting-time")
    config.mx = 200
    config.mode = "adaptive"
    config.t_final = 0.4
    config.plots = False
    record = run_experiment(config, write_files=False)
    assert not record.aborted
    times = np.asarray(record.result.times)
    taus = np.asarray(record.result.taus)
    waiting = taus[(times > 0.05) & (times < 0.2)]
    after = taus[times > 0.3]
    assert after.mean() > 1.05 * waiting.mean()
    assert after.max() > waiting.max()


def test_nonradial_support_components_grow_together():
    # the caps have smooth (waiting-type) contact, so full desk-scale merging
    # is slow; the qualitative check is that the disjoint components expand
    # toward the empty diagonal gap between them
    def nearest_massive_to_gap(record):
        sim = record.sim
        px = sim.traj.curr_x.ravel()
        py = sim.traj.curr_y.ravel()
        rho = sim.density.values.ravel()
        massive = rho > 1e-6
        return np.min(np.hypot(px[massive] - 0.53, py[massive] - 0.53))

    config = preset_defaults("pme-nonradial-2d")
    config.plots = False
    record = run_experiment(config, write_files=False)
    assert not record.aborted
    grid = record.sim.problem.grid
    gap = np.hypot(grid.ref_x - 0.53, grid.ref_y - 0.53) < 0.15
    assert np.all(record.sim.problem.rho0[gap] == 0.0)
    start = 0.3496  # initial nearest-massive distance on the 64^2 grid
    assert nearest_massive_to_gap(record) < 0.75 * start


def test_sweep_pme_writes_tables(tmp_path):
    config = preset_defaults("pme-convergence")
    tables = sweep_experiment(config, out_dir=str(tmp_path))
    assert set(tables) == {"fixed", "random"}
    for mode in tables:
        path = tmp_path / "pme-convergence-sweep" / f"orders_{mode}.csv"
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0].startswith("mx,resolution,l2h_error_x")
        assert len(text.splitlines()) == 4
    orders = tables["fixed"]["orders_x"]
    assert all(1.8 < o < 2.2 for o in orders)


def test_sweep_rejects_non_convergence_presets():
    with pytest.raises(ConfigError):
        sweep_experiment(preset_defaults("ks-blowup-1d"), write_files=False)


def test_ks2d_preset_small_scale():
    config = preset_defaults("ks-2d")
    config.mx = config.my = 24
    config.t_final = 0.03
    config.plots = False
    record = run_experiment(config, write_files=False)
    assert not record.aborted
    assert record.mass_drift() <= 1e-11
    # supercritical variant concentrates instead
    config2 = preset_defaults("ks-2d")
    config2.mx = config2.my = 24
    config2.amplitude = 5.0 * np.pi
    config2.eps_visc = 10.0
    config2.tau_min, config2.tau_max = 5e-4, 5e-2
    config2.t_final = 0.03
    config2.plots = False
    record2 = run_experiment(config2, write_files=False)
    assert record2.result.max_densities[-1] > record2.result.max_densities[0]


def test_barenblatt_2d_support_plot(tmp_path):
    config = preset_defaults("barenblatt-2d")
    config.mx = config.my = 32
    config.scheme = "implicit"
    config.t_final = 0.1
    record = run_experiment(config, out_dir=str(tmp_path))
    svg = (tmp_path / "barenblatt-2d" / "support.svg").read_text(encoding="utf-8")
    assert "ellipse" in svg  # exact interface overlay
    summary = (tmp_path / "barenblatt-2d" / "summary.txt").read_text(encoding="utf-8")
    assert "interface_radius" in summary


def test_fixed_driver_step_count():
    config = preset_defaults("pme-convergence")
    config.mx = 16
    config.tau = 0.01
    config.t_final = 0.1
    sim = build_sim(config)
    result = run_fixed_steps(sim, config.tau, config.t_final)
    assert len(result.times) == 10
    assert result.times[-1] == pytest.approx(0.1)
