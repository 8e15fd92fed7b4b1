"""Experiment presets, run drivers, convergence sweeps and file output.

Each preset reproduces one benchmark experiment at desk scale: the
phase-field interface run, the 1D porous-medium convergence tables (fixed
and random steps), the waiting-time study, 1D Keller-Segel blow-up, the 2D
self-similar solution under adaptive stepping, the non-radial 2D support,
and 2D Keller-Segel.  Runs are deterministic given the seed; random step
sequences come from the counter-based Philox generator so they are
reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import Optional

import numpy as np

from . import plots
from .adaptive import (StepController, AdaptiveRunResult, StepRecord, run_adaptive,
                       THEORY_RATIO_BOUNDS)
# the *_first_step names stay importable here: perfbench/tracer.py patches them by name
from .allen_cahn import AcProblem, ac_energy, ac_first_step, ac_step  # noqa: F401
from .config import ExperimentConfig
from .diagnostics import (aronson_waiting_time, barenblatt_support_radius, convergence_order,
                          density_error_l2h, interface_radius, total_mass_2d,
                          trajectory_error_l2h, trajectory_error_linf, waiting_time_detect)
from .errors import ConfigError
from .grids import DensityField2D, Grid1D, Grid2D, Trajectory1D, Trajectory2D, inner_product
from .initial import (ac_parabola, barenblatt_initial_2d, ks_gaussian_1d, ks_gaussian_2d,
                      nonradial_pme_2d, pme_cosine, pme_waiting_profile)
from .models import (ConstantMobility, DegenerateMobility, GinzburgLandau, KellerSegel1D,
                     KellerSegel2D, PorousMedium)
from .wgf1d import Wgf1dProblem, wgf1d_energy, wgf1d_first_step, wgf1d_step  # noqa: F401
from .wgf2d import (Wgf2dProblem, wgf2d_energy, wgf2d_first_step_explicit,  # noqa: F401
                    wgf2d_first_step_implicit, wgf2d_step_explicit, wgf2d_step_implicit)

__all__ = ["random_step_sequence", "AcSim", "Wgf1dSim", "Wgf2dSim", "RunRecord",
           "run_experiment", "sweep_experiment", "run_fixed_steps", "run_step_sequence",
           "pme_convergence_table", "ac_convergence_table", "build_sim", "STALL_PRESETS"]

# Keller-Segel presets whose documented outcome is a collapse of the step:
# run_experiment stops them once tau sits at tau_min, and that stop is success
STALL_PRESETS = frozenset({"ks-blowup-1d", "ks-2d"})


def random_step_sequence(n: int, t_final: float, seed: int) -> np.ndarray:
    """tau_k = sigma_k T / sum(sigma), sigma ~ U(0,1) from Philox (counter-based)."""
    if n < 1:
        raise ValueError("need at least one step")
    if t_final <= 0.0:
        raise ValueError("t_final must be positive")
    gen = np.random.Generator(np.random.Philox(seed))
    sigma = gen.random(n)
    return sigma * (t_final / sigma.sum())


# --- simulation adapters ----------------------------------------------------

class _SimBase:
    """Common bookkeeping: state, energies, rates, and one StepRecord per accepted step.

    A sim starts from the history at rest, with the initial density, and
    every step, the first included, is the scheme's BDF2 step from the
    current history.  Subclasses supply ``_step`` (new trajectory and
    density), ``_energy`` (a trajectory's current level), ``trajectory_rate``
    and ``_record(tau, ratio)`` (the StepRecord of the state just
    committed).  The driver adds the rejection count.
    """

    def __init__(self, problem, traj, density):
        self.problem = problem
        self.traj = traj
        self.density = density
        self.time = 0.0
        self.tau_prev = 0.0  # no step taken yet
        self.energy = math.nan
        self._energy_prev = math.nan

    @property
    def energy_rate(self) -> float:
        if math.isnan(self._energy_prev) or self.tau_prev == 0.0:
            return 0.0
        return abs(self.energy - self._energy_prev) / self.tau_prev

    def start(self, tau1: float, tau2: float) -> list[StepRecord]:
        """The first two steps; returns both records."""
        return [self.bdf2_step(tau1), self.bdf2_step(tau2)]

    def bdf2_step(self, tau) -> StepRecord:
        traj, density = self._step(tau)
        return self._commit(traj, density, tau)

    def _commit(self, traj, density, tau) -> StepRecord:
        if self.tau_prev:
            ratio = tau / self.tau_prev
            self._energy_prev = self.energy
        else:  # the first step: ratio 1, and the energy before it is that at rest
            ratio = 1.0
            self._energy_prev = self._energy(self.traj)
        self.traj = traj
        self.density = density
        self.energy = self._energy(traj)
        self.time = traj.time
        self.tau_prev = tau
        return self._record(tau, ratio)


class _Sim1D(_SimBase):
    """1D adapters: a node trajectory with cell densities."""

    def __init__(self, problem, density, pinned: bool = True):
        super().__init__(problem, Trajectory1D.at_rest(problem.grid, pinned), density)

    @property
    def trajectory_rate(self) -> float:
        u = (self.traj.curr - self.traj.prev) / self.traj.tau_prev
        return math.sqrt(inner_product("node", u, u, self.problem.grid))

    def _record(self, tau, ratio) -> StepRecord:
        x = self.traj.curr
        return StepRecord(t=self.time, tau=tau, ratio=ratio, energy=self.energy,
                          mass=float(np.sum(self.density * np.diff(x))),
                          min_density=float(np.min(self.density)),
                          max_density=float(np.max(self.density)),
                          boundary_lo=float(x[0]), boundary_hi=float(x[-1]))

class AcSim(_Sim1D):
    def __init__(self, problem: AcProblem):
        # the phase-field density values never change; they ride with the nodes
        super().__init__(problem, problem.rho0_mid)

    def _energy(self, traj):
        return ac_energy(self.problem, traj.curr)

    def _step(self, tau):
        traj, density = ac_step(self.problem, self.traj, tau)
        return traj, density.values


class Wgf1dSim(_Sim1D):
    def __init__(self, problem: Wgf1dProblem):
        super().__init__(problem, problem.rho0, problem.pinned)

    def _energy(self, traj):
        return wgf1d_energy(self.problem, traj.curr)

    def _step(self, tau):
        traj, density = wgf1d_step(self.problem, self.traj, tau)
        return traj, density.values


class Wgf2dSim(_SimBase):
    def __init__(self, problem: Wgf2dProblem, scheme: str = "explicit"):
        if scheme not in ("explicit", "implicit"):
            raise ValueError(f"unknown 2D scheme {scheme!r}")
        super().__init__(problem, Trajectory2D.at_rest(problem.grid),
                         DensityField2D(problem.rho0, problem.grid))
        self.scheme = scheme

    @property
    def trajectory_rate(self) -> float:
        dx = self.traj.curr_x - self.traj.prev_x
        dy = self.traj.curr_y - self.traj.prev_y
        area = self.problem.grid.h_x * self.problem.grid.h_y
        return math.sqrt(float(np.sum(dx * dx + dy * dy)) * area) / self.traj.tau_prev

    def _record(self, tau, ratio) -> StepRecord:
        return StepRecord(t=self.time, tau=tau, ratio=ratio, energy=self.energy,
                          mass=total_mass_2d(self.density, self.traj.curr_x, self.traj.curr_y),
                          min_density=float(np.min(self.density.values)),
                          max_density=float(np.max(self.density.values)))

    def _energy(self, traj):
        return wgf2d_energy(self.problem, traj.curr_x, traj.curr_y)

    def _step(self, tau):
        step = wgf2d_step_explicit if self.scheme == "explicit" else wgf2d_step_implicit
        return step(self.problem, self.traj, tau)


# --- problem construction ---------------------------------------------------

def build_sim(config: ExperimentConfig):
    """Instantiate the solver adapter for a validated configuration."""
    preset = config.preset
    if preset == "ac-interface":
        grid = Grid1D(-1.0, 1.0, config.mx)
        mobility = ConstantMobility() if config.mobility == "constant" else DegenerateMobility()
        initial = ac_parabola()
        if np.any(mobility(initial.density(grid.midpoints)) <= 0.0):
            # an odd grid.mx puts a midpoint on the crest rho0 = 1, where 1 - rho^2 = 0
            raise ConfigError(f"preset ac-interface: model.mobility = {config.mobility} is not "
                              f"positive on the initial profile at grid.mx = {config.mx}; "
                              "choose an even grid.mx")
        model = GinzburgLandau(config.eps_interface, mobility)
        return AcSim(AcProblem(grid, model, initial=initial, eta=config.eta))
    if preset == "pme-convergence":
        grid = Grid1D(-1.0, 1.0, config.mx)
        rho0 = pme_cosine().density(grid.midpoints)
        return Wgf1dSim(Wgf1dProblem(grid, PorousMedium(config.m), rho0))
    if preset == "pme-waiting-time":
        grid = Grid1D(-math.pi, 0.0, config.mx)
        rho0 = pme_waiting_profile(config.m, config.theta).density(grid.midpoints)
        # the free boundary must not be dragged by the increment viscosity
        problem = Wgf1dProblem(grid, PorousMedium(config.m), rho0,
                               visc_weight=0.0, pinned=False)
        return Wgf1dSim(problem)
    if preset == "ks-blowup-1d":
        grid = Grid1D(-15.0, 15.0, config.mx)
        rho0 = ks_gaussian_1d(config.amplitude).density(grid.midpoints)
        return Wgf1dSim(Wgf1dProblem(grid, KellerSegel1D(), rho0))
    if preset == "barenblatt-2d":
        grid = Grid2D(-2.5, 2.5, -2.5, 2.5, config.mx, config.my or config.mx)
        rho0 = barenblatt_initial_2d(config.m)(grid.ref_x, grid.ref_y)
        return _wgf2d_sim(config, grid, PorousMedium(config.m), rho0)
    if preset == "pme-nonradial-2d":
        grid = Grid2D(-2.0, 2.0, -2.0, 2.0, config.mx, config.my or config.mx)
        rho0 = nonradial_pme_2d()(grid.ref_x, grid.ref_y)
        return _wgf2d_sim(config, grid, PorousMedium(config.m), rho0)
    if preset == "ks-2d":
        grid = Grid2D(-5.0, 5.0, -5.0, 5.0, config.mx, config.my or config.mx)
        rho0 = ks_gaussian_2d(config.amplitude)(grid.ref_x, grid.ref_y)
        return _wgf2d_sim(config, grid, KellerSegel2D(config.m, config.nu), rho0)
    raise ConfigError(f"unknown preset {preset!r}")


def _wgf2d_sim(config: ExperimentConfig, grid: Grid2D, model, rho0) -> Wgf2dSim:
    if config.eps_visc == 0.0 and np.any(rho0[1:-1, 1:-1] == 0.0):
        # only the viscosity moves a massless node, so without it the linear systems are singular
        raise ConfigError(f"preset {config.preset}: model.eps_visc = 0 leaves the massless "
                          f"interior nodes undetermined at grid.mx = {config.mx}; "
                          "choose model.eps_visc > 0")
    problem = Wgf2dProblem(grid, model, rho0, eps_visc=config.eps_visc,
                           visc_scaling=config.visc_scaling)
    return Wgf2dSim(problem, config.scheme)


# --- run drivers --------------------------------------------------------------

def run_fixed_steps(sim, tau: float, t_final: float) -> AdaptiveRunResult:
    steps = []
    while sim.time < t_final - 0.5 * tau:
        steps.append(sim.bdf2_step(tau))
    return AdaptiveRunResult(steps)


def run_step_sequence(sim, taus) -> AdaptiveRunResult:
    return AdaptiveRunResult([sim.bdf2_step(tau) for tau in np.asarray(taus, dtype=float)])


def _controller_from_config(config: ExperimentConfig) -> StepController:
    scheme = {"ac-interface": "allen-cahn",
              "barenblatt-2d": "wgf-2d", "pme-nonradial-2d": "wgf-2d",
              "ks-2d": "wgf-2d"}.get(config.preset, "wgf-1d")
    return StepController(strategy=config.strategy, gamma=config.gamma, beta=config.beta,
                          tau_min=config.tau_min, tau_max=config.tau_max,
                          r_user=config.r_user, r_max_theory=THEORY_RATIO_BOUNDS[scheme],
                          enforce_theory=config.enforce_theory)


@dataclass
class RunRecord:
    config: ExperimentConfig
    result: AdaptiveRunResult
    sim: object
    extras: dict = field(default_factory=dict)

    @property
    def aborted(self) -> bool:
        return self.result.aborted

    def mass_drift(self) -> float:
        masses = np.array([step.mass for step in self.result.steps])
        if not masses.size:
            return math.nan
        scale = max(abs(masses[0]), 1e-300)
        return float(np.max(np.abs(masses - masses[0])) / scale)


def run_experiment(config: ExperimentConfig, out_dir: Optional[str] = None,
                   write_files: bool = True) -> RunRecord:
    """Execute one preset run; optionally write CSV/SVG artifacts."""
    sim = build_sim(config)
    if config.mode == "fixed":
        result = run_fixed_steps(sim, config.tau, config.t_final)
    elif config.mode == "random":
        n = config.n_steps or max(2, round(config.t_final / config.tau))
        taus = random_step_sequence(n, config.t_final, config.seed)
        result = run_step_sequence(sim, taus)
    else:
        tau1 = config.tau1 or config.tau_min
        stall = 20 if config.preset in STALL_PRESETS else 0
        result = run_adaptive(sim, _controller_from_config(config), config.t_final,
                              stall_taus=stall, start=(tau1, config.tau2 or tau1))

    record = RunRecord(config, result, sim)
    _collect_extras(record)
    if write_files:
        target = Path(out_dir or config.out_dir) / config.preset
        write_artifacts(record, target)
    return record


def _collect_extras(record: RunRecord) -> None:
    config, result, sim = record.config, record.result, record.sim
    if config.preset == "pme-waiting-time":
        positions = [(step.boundary_lo, step.boundary_hi) for step in result.steps]
        detected = waiting_time_detect([step.t for step in result.steps], positions, math.pi)
        record.extras["waiting_time"] = detected
        record.extras["waiting_time_exact"] = aronson_waiting_time(config.m, config.theta)
    if config.preset == "barenblatt-2d" and not result.aborted:
        radius = interface_radius(sim.density, sim.traj.curr_x, sim.traj.curr_y)
        exact = barenblatt_support_radius(sim.time, config.m)
        record.extras["interface_radius"] = radius
        record.extras["interface_radius_exact"] = exact
    if config.preset == "ks-blowup-1d":
        record.extras["max_density_final"] = float(np.max(sim.density))


# --- artifacts ---------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_artifacts(record: RunRecord, target: Path) -> None:
    target.mkdir(parents=True, exist_ok=True)
    result = record.result
    steps = result.steps
    columns = [f.name for f in fields(StepRecord)]
    # attrgetter rather than dataclasses.astuple, which deep-copies every value
    row = attrgetter(*columns)
    _write_csv(target / "steps.csv", ["n", *columns],
               ((n, *row(step)) for n, step in enumerate(steps, start=1)))

    sim = record.sim
    if isinstance(sim, _Sim1D):
        grid = sim.problem.grid
        x = sim.traj.curr
        xm = 0.5 * (x[:-1] + x[1:])
        _write_csv(target / "final_state.csv", ["j", "label", "position", "density"],
                   list(zip(range(grid.m_x), grid.midpoints, xm, sim.density)))
        _write_csv(target / "trajectory.csv", ["j", "label", "position"],
                   list(zip(range(grid.m_x + 1), grid.nodes, x)))
    else:
        grid = sim.problem.grid
        xs = sim.traj.curr_x.ravel()
        ys = sim.traj.curr_y.ravel()
        rho = sim.density.values.ravel()
        labels_x = grid.ref_x.ravel()
        labels_y = grid.ref_y.ravel()
        idx = np.arange(labels_x.size)
        _write_csv(target / "final_state.csv",
                   ["k", "label_x", "label_y", "x", "y", "density"],
                   list(zip(idx, labels_x, labels_y, xs, ys, rho)))

    summary = [f"preset: {record.config.preset}",
               f"accepted steps: {len(steps)}",
               f"rejections: {result.total_rejections}",
               f"ratio-cap events: {result.ratio_cap_events}",
               f"final time: {_fmt(steps[-1].t if steps else 0.0)}",
               f"final energy: {_fmt(steps[-1].energy if steps else math.nan)}",
               f"mass drift: {_fmt(record.mass_drift())}",
               f"min density: {_fmt(min((s.min_density for s in steps), default=math.nan))}",
               f"aborted: {result.aborted}"]
    if result.aborted:
        summary.append(f"abort reason: {result.abort_reason}")
    for key, value in record.extras.items():
        summary.append(f"{key}: {_fmt(value) if value is not None else 'none'}")
    (target / "summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")

    if record.config.plots:
        times = [s.t for s in steps]
        plots.energy_plot(target / "energy.svg", times, [s.energy for s in steps])
        plots.timestep_plot(target / "timestep.svg", times, [s.tau for s in steps],
                            [s.ratio for s in steps])
        if isinstance(sim, _Sim1D):
            x = sim.traj.curr
            xm = 0.5 * (x[:-1] + x[1:])
            plots.density_plot(target / "density.svg", xm, sim.density)
        else:
            extra = None
            if "interface_radius_exact" in record.extras:
                extra = record.extras["interface_radius_exact"]
            plots.support_plot(target / "support.svg", sim.traj.curr_x, sim.traj.curr_y,
                               sim.density.values, circle_radius=extra)


# --- convergence sweeps -------------------------------------------------------

def _pme_run(mx: int, m: float, taus) -> tuple[Grid1D, np.ndarray, np.ndarray]:
    grid = Grid1D(-1.0, 1.0, mx)
    rho0 = pme_cosine().density(grid.midpoints)
    problem = Wgf1dProblem(grid, PorousMedium(m), rho0)
    traj = Trajectory1D.at_rest(grid)
    for tau in taus:
        traj, dens = wgf1d_step(problem, traj, tau)
    return grid, traj.curr, dens.values


def pme_convergence_table(mode: str = "fixed", mxs=(100, 200, 400), ref_mx: int = 1600,
                          m: float = 2.0, t_final: float = 0.5, seed: int = 11) -> dict:
    """Desk-scale reproduction of the 1D convergence tables.

    Fixed mode: tau = 1/(2 mx), resolution column = mx.  Random mode: 2*mx
    Philox steps summing to t_final, resolution column = max step.  The
    reference is the fixed fine run.
    """
    grid_ref, x_ref, rho_ref = _pme_run(ref_mx, m, np.full(2 * ref_mx, t_final / (2 * ref_mx)))
    errors_x, errors_inf, errors_rho, resolution, max_ratio = [], [], [], [], []
    for i, mx in enumerate(mxs):
        if mode == "fixed":
            taus = np.full(2 * mx, t_final / (2 * mx))
            resolution.append(mx)
        elif mode == "random":
            taus = random_step_sequence(2 * mx, t_final, seed + i)
            resolution.append(float(np.max(taus)))
        else:
            raise ValueError(f"unknown mode {mode!r}")
        max_ratio.append(float(np.max(taus[1:] / taus[:-1])))
        grid, x, rho = _pme_run(mx, m, taus)
        errors_x.append(trajectory_error_l2h(x, x_ref, grid))
        errors_inf.append(trajectory_error_linf(x, x_ref, grid))
        errors_rho.append(density_error_l2h(rho, rho_ref, grid))
    out = {
        "mode": mode,
        "mx": list(mxs),
        "resolution": resolution,
        "max_ratio": max_ratio,
        "errors_x": errors_x,
        "errors_linf": errors_inf,
        "errors_rho": errors_rho,
        "orders_x": convergence_order(errors_x, resolution).tolist(),
        "orders_linf": convergence_order(errors_inf, resolution).tolist(),
        "orders_rho": convergence_order(errors_rho, resolution).tolist(),
    }
    return out


def _ac_run(mx: int, taus, eps: float, mobility) -> tuple[Grid1D, np.ndarray]:
    grid = Grid1D(-1.0, 1.0, mx)
    problem = AcProblem(grid, GinzburgLandau(eps, mobility), initial=ac_parabola(), eta=0.0)
    traj = Trajectory1D.at_rest(grid)
    for tau in taus:
        traj, _ = ac_step(problem, traj, tau)
    return grid, traj.curr


def ac_convergence_table(mode: str = "fixed", mxs=(16, 32, 64), steps=(625, 1250, 2500),
                         ref=(256, 10000), eps: float = 0.01, t_final: float = 0.5,
                         mobility: str = "degenerate", seed: int = 100) -> dict:
    """Phase-field convergence study at desk scale.

    The degenerate mobility keeps the friction coefficient (rho0')^2 / M
    bounded away from zero at the profile's crest, which is what makes the
    joint space-time refinement show clean second order.
    """
    mob = DegenerateMobility() if mobility == "degenerate" else ConstantMobility()
    grid_ref, x_ref = _ac_run(ref[0], np.full(ref[1], t_final / ref[1]), eps, mob)
    errors, resolution = [], []
    for i, (mx, n) in enumerate(zip(mxs, steps)):
        if mode == "fixed":
            taus = np.full(n, t_final / n)
            resolution.append(mx)
        elif mode == "random":
            taus = random_step_sequence(n, t_final, seed + i)
            resolution.append(float(np.max(taus)))
        else:
            raise ValueError(f"unknown mode {mode!r}")
        grid, x = _ac_run(mx, taus, eps, mob)
        errors.append(trajectory_error_l2h(x, x_ref, grid))
    return {
        "mode": mode,
        "mx": list(mxs),
        "resolution": resolution,
        "errors_x": errors,
        "orders_x": convergence_order(errors, resolution).tolist(),
    }


def sweep_experiment(config: ExperimentConfig, out_dir: Optional[str] = None,
                     write_files: bool = True) -> dict:
    """Resolution sweep for the convergence presets."""
    if config.preset == "pme-convergence":
        tables = {
            "fixed": pme_convergence_table("fixed", m=config.m, t_final=config.t_final),
            "random": pme_convergence_table("random", m=config.m, t_final=config.t_final,
                                            seed=config.seed),
        }
    elif config.preset == "ac-interface":
        # the convergence sweep always uses the degenerate mobility: the
        # constant-mobility variant has a friction degeneracy at the profile
        # crest that caps its observable spatial order
        tables = {
            "fixed": ac_convergence_table("fixed", eps=config.eps_interface),
            "random": ac_convergence_table("random", eps=config.eps_interface),
        }
    else:
        raise ConfigError(f"preset {config.preset!r} has no sweep")
    if write_files:
        target = Path(out_dir or config.out_dir) / f"{config.preset}-sweep"
        target.mkdir(parents=True, exist_ok=True)
        for mode, table in tables.items():
            rows = []
            n_rows = len(table["mx"])
            for i in range(n_rows):
                row = [table["mx"][i], table["resolution"][i],
                       table["errors_x"][i], "" if i == 0 else table["orders_x"][i - 1]]
                if "errors_linf" in table:
                    row += [table["errors_linf"][i], "" if i == 0 else table["orders_linf"][i - 1],
                            table["errors_rho"][i], "" if i == 0 else table["orders_rho"][i - 1]]
                rows.append(row)
            header = ["mx", "resolution", "l2h_error_x", "order_x"]
            if "errors_linf" in table:
                header += ["linf_error_x", "order_linf", "l2h_error_rho", "order_rho"]
            _write_csv(target / f"orders_{mode}.csv", header, rows)
    return tables
