import numpy as np
import pytest

from lagflow import experiments
from lagflow.adaptive import THEORY_RATIO_BOUNDS, AdaptiveRunResult, StepRecord
from lagflow.config import parse_config, preset_defaults
from lagflow.experiments import (RunRecord, build_sim, run_experiment, run_fixed_steps,
                                 sweep_experiment, write_artifacts)
from lagflow.errors import AdmissibilityError, ConfigError


def test_build_sim_covers_every_preset():
    schemes = {"ac-interface": "allen-cahn", "barenblatt-2d": "wgf-2d",
               "pme-nonradial-2d": "wgf-2d", "ks-2d": "wgf-2d"}
    for preset in ("ac-interface", "pme-convergence", "pme-waiting-time",
                   "ks-blowup-1d", "barenblatt-2d", "pme-nonradial-2d", "ks-2d"):
        config = preset_defaults(preset)
        sim = build_sim(config)
        assert hasattr(sim, "bdf2_step")
        # the adaptive controller caps ratios at the theory bound of the sim's scheme
        controller = experiments._controller_from_config(config, sim)
        assert controller.r_max_theory == THEORY_RATIO_BOUNDS[schemes.get(preset, "wgf-1d")]


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
    first, last = record.result.steps[0], record.result.steps[-1]
    # energy decays; density values are transported unchanged
    assert last.energy < first.energy
    assert last.min_density == first.min_density
    assert (tmp_path / "ac-interface" / "timestep.svg").exists()


def test_ratio_cap_events_in_summary(tmp_path):
    # start ten times below tau_min: the ratio cap binds until r_user tau_n >= tau_min
    config = preset_defaults("ac-interface")
    config.mx = 32
    config.t_final = 0.02
    config.tau1 = config.tau2 = 1e-4
    config.plots = False
    record = run_experiment(config, out_dir=str(tmp_path))
    taus = [step.tau for step in record.result.steps]
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
    times = np.array([step.t for step in record.result.steps])
    taus = np.array([step.tau for step in record.result.steps])
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


def test_sweep_pme_writes_tables(pme_sweep):
    tables = pme_sweep.tables
    # one fine reference serves both modes: 1 + 3 rows x 2 modes
    assert pme_sweep.built == [1600, 100, 200, 400, 100, 200, 400]
    assert set(tables) == {"fixed", "random"}
    for mode in tables:
        path = pme_sweep.out_dir / "pme-convergence-sweep" / f"orders_{mode}.csv"
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0].startswith("mx,resolution,l2h_error_x")
        assert len(text.splitlines()) == 4
    orders = tables["fixed"]["orders_x"]
    assert all(1.8 < o < 2.2 for o in orders)


def test_ac_sweep_honours_seed_and_eta(monkeypatch):
    study = experiments.CONVERGENCE_STUDIES["ac-interface"]
    monkeypatch.setitem(experiments.CONVERGENCE_STUDIES, "ac-interface",
                        {**study, "rows": ((8, 10), (16, 20)), "ref": (32, 40)})
    config = preset_defaults("ac-interface")
    assert config.seed == 100
    base = experiments.convergence_tables(config)
    config.seed = 101
    reseeded = experiments.convergence_tables(config)
    assert reseeded["fixed"] == base["fixed"]
    assert reseeded["random"]["errors_x"] != base["random"]["errors_x"]
    config.eta = 0.1
    assert experiments.convergence_tables(config)["fixed"]["errors_x"] != base["fixed"]["errors_x"]


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
    assert record2.result.steps[-1].max_density > record2.result.steps[0].max_density


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


@pytest.mark.parametrize("preset, t_final", [("barenblatt-2d", 0.1),
                                             ("pme-nonradial-2d", 0.048)])
def test_explicit_2d_steps_fall_back_to_the_implicit_step(tmp_path, preset, t_final):
    # at 32^2 an explicit step folds the map: barenblatt-2d aborted at t = 0.03 and
    # pme-nonradial-2d raised on its first BDF2 step before the fallback
    config = preset_defaults(preset)
    config.mx = config.my = 32
    config.t_final = t_final
    config.plots = False
    record = run_experiment(config, out_dir=str(tmp_path))
    assert not record.aborted, record.result.abort_reason
    assert record.result.steps[-1].t == pytest.approx(t_final)
    fallbacks = record.extras["implicit_fallbacks"]
    assert fallbacks > 0
    summary = (tmp_path / preset / "summary.txt").read_text(encoding="utf-8")
    assert f"implicit_fallbacks: {fallbacks}\n" in summary


def test_keller_segel_2d_has_no_implicit_fallback(monkeypatch):
    config = preset_defaults("ks-2d")
    config.mx = config.my = 12
    sim = build_sim(config)
    assert not sim.falls_back

    def folded(*args):
        raise AdmissibilityError("explicit step produced a non-positive determinant")

    monkeypatch.setattr(experiments, "wgf2d_step_explicit", folded)
    with pytest.raises(AdmissibilityError):
        sim.bdf2_step(1e-3)
    assert sim.implicit_fallbacks == 0


def test_fixed_driver_step_count():
    config = preset_defaults("pme-convergence")
    config.mx = 16
    config.tau = 0.01
    config.t_final = 0.1
    sim = build_sim(config)
    result = run_fixed_steps(sim, config.tau, config.t_final)
    assert len(result.steps) == 10
    assert result.steps[-1].t == pytest.approx(0.1)


@pytest.mark.parametrize("mode", ["fixed", "random", "adaptive"])
@pytest.mark.parametrize("preset, overrides", [
    ("pme-convergence", "grid.mx = 16\ntime.t_final = 0.05\ntime.tau = 0.005"),
    ("ks-2d", "grid.mx = 12\ntime.t_final = 0.02\ntime.tau = 0.004"),
], ids=["1d", "2d"])
def test_step_records_chain_through_the_start_up_steps(tmp_path, preset, overrides, mode):
    config = parse_config(f"preset = {preset}\n{overrides}\ntime.mode = {mode}\nplots = false\n")
    record = run_experiment(config, out_dir=str(tmp_path))
    steps = record.result.steps
    assert len(steps) > 2
    assert steps[0].ratio == 1.0
    assert steps[0].t == steps[0].tau
    for prev, step in zip(steps, steps[1:]):
        assert step.ratio == step.tau / prev.tau
        assert step.t == prev.t + step.tau
    rows = (tmp_path / preset / "steps.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 1 + len(steps)


def test_steps_csv_and_summary_golden_text(tmp_path):
    config = parse_config("preset = pme-convergence\ngrid.mx = 4\nplots = false\n")
    sim = build_sim(config)
    sim.start(1e-3, 1e-3)
    steps = [StepRecord(t=0.1, tau=0.1, ratio=1.0, energy=1.0 / 3.0, mass=1.0,
                        min_density=0.5, max_density=2.0, boundary_lo=-1.0, boundary_hi=1.0),
             # a 2D step leaves the boundary columns at their NaN default
             StepRecord(t=0.30000000000000004, tau=0.2, ratio=2.0, energy=-2.5e-17, mass=1.0,
                        min_density=0.0, max_density=3.0, rejections=3)]
    result = AdaptiveRunResult(steps, aborted=True, abort_reason="stopped", ratio_cap_events=4)
    write_artifacts(RunRecord(config, result, sim), tmp_path)
    assert (tmp_path / "steps.csv").read_text(encoding="utf-8") == (
        "n,t,tau,ratio,energy,mass,min_density,max_density,rejections,boundary_lo,boundary_hi\n"
        "1,0.10000000000000001,0.10000000000000001,1,0.33333333333333331,1,0.5,2,0,-1,1\n"
        "2,0.30000000000000004,0.20000000000000001,2,-2.4999999999999999e-17,1,0,3,3,nan,nan\n")
    assert (tmp_path / "summary.txt").read_text(encoding="utf-8") == (
        "preset: pme-convergence\n"
        "accepted steps: 2\n"
        "rejections: 3\n"
        "ratio-cap events: 4\n"
        "final time: 0.30000000000000004\n"
        "final energy: -2.4999999999999999e-17\n"
        "mass drift: 0\n"
        "min density: 0\n"
        "aborted: True\n"
        "abort reason: stopped\n")


# --- artifact CSVs: one %-format per row, the same text as one _fmt call per value

def fmt_oracle(value) -> str:
    """The per-value formatting the CSV writer used before its row formats."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv_oracle(path, header, row_format, rows):
    """The writer before its row formats: ``row_format`` is ignored."""
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt_oracle(v) for v in row) + "\n")


SMALL_RUNS = {
    "ac-interface": "grid.mx = 16\ntime.t_final = 0.05",
    "pme-convergence": "grid.mx = 16\ntime.t_final = 0.05\ntime.tau = 0.005",
    "pme-waiting-time": "grid.mx = 32\ntime.t_final = 0.002\ntime.tau = 0.0005",
    "ks-blowup-1d": "grid.mx = 32\ntime.t_final = 0.002",
    "barenblatt-2d": "grid.mx = 12\ntime.t_final = 0.02",
    "pme-nonradial-2d": "grid.mx = 12\ntime.t_final = 0.02",
    "ks-2d": "grid.mx = 12\ntime.t_final = 0.01",
}


@pytest.mark.parametrize("preset", sorted(SMALL_RUNS))
def test_artifacts_are_the_text_of_one_fmt_call_per_value(tmp_path, monkeypatch, preset):
    config = parse_config(f"preset = {preset}\n{SMALL_RUNS[preset]}\nplots = false\n")
    record = run_experiment(config, write_files=False)
    assert record.result.steps
    write_artifacts(record, tmp_path / "rows")
    monkeypatch.setattr(experiments, "_write_csv", write_csv_oracle)
    write_artifacts(record, tmp_path / "values")
    names = sorted(f.name for f in (tmp_path / "values").iterdir())
    assert {"steps.csv", "final_state.csv", "summary.txt"} <= set(names)
    assert sorted(f.name for f in (tmp_path / "rows").iterdir()) == names
    for name in names:
        assert ((tmp_path / "rows" / name).read_bytes()
                == (tmp_path / "values" / name).read_bytes()), name


def test_sweep_tables_are_the_text_of_one_fmt_call_per_value(pme_sweep, tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "_write_csv", write_csv_oracle)
    monkeypatch.setattr(experiments, "convergence_tables", lambda config: pme_sweep.tables)
    sweep_experiment(preset_defaults("pme-convergence"), out_dir=str(tmp_path))
    for mode in pme_sweep.tables:
        name = f"pme-convergence-sweep/orders_{mode}.csv"
        assert (pme_sweep.out_dir / name).read_bytes() == (tmp_path / name).read_bytes()
