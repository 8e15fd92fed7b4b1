import subprocess
import sys

import numpy as np
import pytest

from lagflow import cli
from lagflow.adaptive import AdaptiveRunResult
from lagflow.cli import main
from lagflow.config import parse_config, preset_defaults, serialize_config
from lagflow.errors import ConfigError
from lagflow.experiments import RunRecord, build_sim, random_step_sequence, run_experiment


def test_minimal_config_fills_preset_defaults():
    c = parse_config("preset = pme-convergence")
    assert c.mx == 100
    assert c.tau == pytest.approx(1.0 / 200.0)
    assert c.m == 2.0
    assert c.t_final == 0.5


def test_round_trip():
    c = parse_config("preset = barenblatt-2d\ngrid.mx = 32\ngrid.my = 32\nseed = 99")
    assert parse_config(serialize_config(c)) == c


def test_unknown_key_and_ranges():
    with pytest.raises(ConfigError):
        parse_config("preset = pme-convergence\nnot.a.key = 1")
    with pytest.raises(ConfigError):
        parse_config("preset = pme-waiting-time\nmodel.theta = 0.3")
    with pytest.raises(ConfigError):
        parse_config("grid.mx = 10")  # missing preset
    with pytest.raises(ConfigError):
        parse_config("preset = pme-convergence\nmodel.m = 1.0")
    with pytest.raises(ConfigError):
        parse_config("preset = pme-convergence\ntime.mode = sometimes")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("preset = pme-convergence\ngrid.mx = 8\ngrid.mx = 16")


def test_random_step_sequence_contract():
    taus = random_step_sequence(257, 0.5, seed=123)
    assert taus.shape == (257,)
    assert np.all(taus > 0.0)
    assert np.sum(taus) == pytest.approx(0.5, rel=1e-12)
    again = random_step_sequence(257, 0.5, seed=123)
    assert np.array_equal(taus, again)
    other = random_step_sequence(257, 0.5, seed=124)
    assert not np.array_equal(taus, other)


def test_fixed_runs_ignore_seed(tmp_path):
    base = preset_defaults("pme-convergence")
    base.mx = 16
    base.tau = 0.01
    base.t_final = 0.05
    base.plots = False
    rec1 = run_experiment(base, out_dir=str(tmp_path / "a"))
    base.seed = 1234
    rec2 = run_experiment(base, out_dir=str(tmp_path / "b"))
    assert rec1.result.steps == rec2.result.steps
    f1 = (tmp_path / "a" / "pme-convergence" / "steps.csv").read_text()
    f2 = (tmp_path / "b" / "pme-convergence" / "steps.csv").read_text()
    assert f1 == f2


def test_random_runs_depend_on_seed(tmp_path):
    base = preset_defaults("pme-convergence")
    base.mx = 16
    base.mode = "random"
    base.n_steps = 20
    base.t_final = 0.05
    base.plots = False
    rec1 = run_experiment(base, write_files=False)
    rec2 = run_experiment(base, write_files=False)
    assert rec1.result.steps == rec2.result.steps  # same seed: identical
    base.seed = base.seed + 1
    rec3 = run_experiment(base, write_files=False)
    assert rec1.result.steps != rec3.result.steps


def test_csv_reruns_identical(tmp_path):
    cfg = preset_defaults("pme-convergence")
    cfg.mx = 16
    cfg.mode = "random"
    cfg.n_steps = 12
    cfg.t_final = 0.05
    run_experiment(cfg, out_dir=str(tmp_path / "x"))
    run_experiment(cfg, out_dir=str(tmp_path / "y"))
    for name in ("steps.csv", "final_state.csv", "trajectory.csv"):
        a = (tmp_path / "x" / "pme-convergence" / name).read_bytes()
        b = (tmp_path / "y" / "pme-convergence" / name).read_bytes()
        assert a == b


def test_step_rows_within_bounds(tmp_path):
    cfg = preset_defaults("barenblatt-2d")
    cfg.mx = cfg.my = 32
    cfg.scheme = "implicit"  # the explicit variant needs the full 64^2 grid
    cfg.t_final = 0.15
    cfg.plots = False
    rec = run_experiment(cfg, write_files=False)
    assert not rec.aborted
    taus = np.array([step.tau for step in rec.result.steps])
    floor = cfg.tau_min / 2 ** 40
    assert np.all(taus >= floor)
    assert np.all(taus <= cfg.tau_max + 1e-15)
    assert np.all(np.diff([step.t for step in rec.result.steps]) > 0.0)


def test_cli_run_and_exit_codes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = pme-convergence\ngrid.mx = 16\ntime.tau = 0.01\n"
                   "time.t_final = 0.05\nplots = false\n", encoding="utf-8")
    rc = main(["run", str(cfg), "--out-dir", str(tmp_path / "out"), "--no-plots"])
    assert rc == 0
    assert (tmp_path / "out" / "pme-convergence" / "steps.csv").exists()
    assert (tmp_path / "out" / "pme-convergence" / "summary.txt").exists()

    bad = tmp_path / "bad.cfg"
    bad.write_text("preset = nope\n", encoding="utf-8")
    assert main(["run", str(bad)]) == 2

    missing = tmp_path / "missing.cfg"
    assert main(["run", str(missing)]) == 2


@pytest.mark.parametrize("preset, expected", [("ks-2d", 0), ("ks-blowup-1d", 0),
                                              ("barenblatt-2d", 3)])
def test_cli_exit_code_for_tau_collapse(tmp_path, monkeypatch, preset, expected):
    # a step collapse is the documented end of the Keller-Segel presets only
    def collapsed(config):
        result = AdaptiveRunResult(aborted=True, abort_reason="tau collapsed to tau_min "
                                                              "for 20 consecutive steps")
        return RunRecord(config, result, sim=None)

    monkeypatch.setattr(cli, "run_experiment", collapsed)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"preset = {preset}\n", encoding="utf-8")
    assert main(["run", str(cfg), "--no-plots"]) == expected


def test_cli_failed_start_up_is_a_solver_abort_with_artifacts(tmp_path):
    # every halving of the first explicit step folds the map at this resolution, so
    # the run aborts with no accepted step instead of raising out of run_experiment
    cfg = tmp_path / "nonradial.cfg"
    cfg.write_text("preset = pme-nonradial-2d\ngrid.mx = 16\ntime.mode = adaptive\n"
                   "time.t_final = 0.05\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out), "--no-plots"]) == 3
    summary = (out / "pme-nonradial-2d" / "summary.txt").read_text(encoding="utf-8")
    assert "accepted steps: 0\n" in summary
    assert "abort reason: step halved below" in summary
    assert "non-positive determinant" in summary
    steps = (out / "pme-nonradial-2d" / "steps.csv").read_text(encoding="utf-8")
    assert steps.count("\n") == 1


def test_cli_rejects_vanishing_mobility_as_config_error(tmp_path, capsys):
    # with an odd mx a midpoint sits on the crest rho0 = 1 of the initial profile
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = ac-interface\nmodel.mobility = degenerate\ngrid.mx = 101\n",
                   encoding="utf-8")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out"), "--no-plots"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "model.mobility = degenerate" in err and "grid.mx = 101" in err


@pytest.mark.parametrize("preset, scheme", [("barenblatt-2d", "explicit"),
                                            ("barenblatt-2d", "implicit"),
                                            ("pme-nonradial-2d", "explicit")])
def test_cli_rejects_zero_viscosity_with_massless_nodes(tmp_path, capsys, preset, scheme):
    # only the viscosity determines a massless node, so both schemes' systems are singular
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"preset = {preset}\nscheme = {scheme}\nmodel.eps_visc = 0\ngrid.mx = 16\n",
                   encoding="utf-8")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out"), "--no-plots"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert preset in err and "model.eps_visc = 0" in err


def test_zero_viscosity_without_massless_nodes_is_accepted():
    # the Keller-Segel Gaussian is positive on every node
    config = parse_config("preset = ks-2d\nmodel.eps_visc = 0\ngrid.mx = 16\n")
    assert build_sim(config).problem.eps_visc == 0.0


def test_cli_rejects_negative_eta_as_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = ac-interface\nmodel.eta = -0.1\n", encoding="utf-8")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out"), "--no-plots"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "model.eta" in err


def test_cli_rejects_negative_nu_as_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = ks-2d\nmodel.nu = -1\n", encoding="utf-8")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out"), "--no-plots"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "model.nu" in err


def test_cli_rejects_implicit_scheme_on_ks2d(tmp_path, capsys):
    # the 2D Hessian leaves out the dense interaction, so only the explicit scheme applies
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = ks-2d\nscheme = implicit\ngrid.mx = 16\n", encoding="utf-8")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out"), "--no-plots"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "ks-2d" in err and "scheme = implicit" in err


@pytest.mark.parametrize("key", ["time.t_final", "time.tau", "model.m", "controller.tau_max"])
@pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_non_finite_floats_rejected(key, raw):
    with pytest.raises(ConfigError, match=f"key '{key}'.*finite"):
        parse_config(f"preset = pme-convergence\n{key} = {raw}")


def test_cli_rejects_nan_t_final(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = pme-convergence\ntime.t_final = nan\n", encoding="utf-8")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out"), "--no-plots"]) == 2
    assert "time.t_final" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_flag_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = pme-convergence\ngrid.mx = 16\ntime.tau = 0.01\n"
                   "time.t_final = 0.03\n", encoding="utf-8")
    rc = main(["run", str(cfg), "--out-dir", str(tmp_path / "o2"), "--no-plots",
               "--seed", "5", "--strategy", "1", "--enforce-theory-ratio"])
    assert rc == 0
    assert not list((tmp_path / "o2" / "pme-convergence").glob("*.svg"))


def test_cli_entrypoint_subprocess(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = pme-convergence\ngrid.mx = 8\ntime.tau = 0.01\n"
                   "time.t_final = 0.02\nplots = false\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "lagflow.cli", "run", str(cfg),
                           "--out-dir", str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_plots_emitted(tmp_path):
    cfg = preset_defaults("pme-convergence")
    cfg.mx = 16
    cfg.tau = 0.01
    cfg.t_final = 0.03
    run_experiment(cfg, out_dir=str(tmp_path))
    out = tmp_path / "pme-convergence"
    for name in ("energy.svg", "timestep.svg", "density.svg"):
        svg = (out / name).read_text(encoding="utf-8")
        assert svg.startswith("<svg")
        assert "polyline" in svg
