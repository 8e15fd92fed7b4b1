"""Experiment presets, run drivers, convergence sweeps and file output.

Each preset reproduces one benchmark experiment at desk scale: the
phase-field interface run, the 1D porous-medium convergence tables (fixed
and random steps), the waiting-time study, 1D Keller-Segel blow-up, the 2D
self-similar solution under adaptive stepping, the non-radial 2D support,
and 2D Keller-Segel.  Runs are deterministic given the seed; random step
sequences come from the counter-based Philox generator so they are
reproducible across platforms.

A convergence sweep (``sweep_experiment``) runs the preset's study in
``CONVERGENCE_STUDIES``: every row and the one fine reference are the
preset's own sim from ``build_sim``, at the row's grid.mx, driven by
``run_step_sequence``.  The study honours the config apart from grid.mx, the
step counts and the settings it fixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Optional

import numpy as np

from . import plots
from .adaptive import StepController, AdaptiveRunResult, StepRecord, run_adaptive
# the *_first_step names stay importable here: perfbench/tracer.py patches them by name
from .allen_cahn import (RATIO_BOUND_AC, AcProblem, ac_energy, ac_first_step,  # noqa: F401
                         ac_step)
from .config import ExperimentConfig
from .diagnostics import (aronson_waiting_time, barenblatt_support_radius, convergence_order,
                          density_error_l2h, interface_radius, total_mass_2d,
                          trajectory_error_l2h, trajectory_error_linf, waiting_time_detect)
from .errors import AdmissibilityError, ConfigError
from .grids import DensityField2D, Grid1D, Grid2D, Trajectory1D, Trajectory2D, inner_product
from .initial import (ac_parabola, barenblatt_initial_2d, ks_gaussian_1d, ks_gaussian_2d,
                      nonradial_pme_2d, pme_cosine, pme_waiting_profile)
from .models import (ConstantMobility, DegenerateMobility, GinzburgLandau, KellerSegel1D,
                     KellerSegel2D, PorousMedium)
from .wgf1d import (RATIO_BOUND_1D, Wgf1dProblem, wgf1d_energy, wgf1d_first_step,  # noqa: F401
                    wgf1d_step)
from .wgf2d import (RATIO_BOUND_2D, Wgf2dProblem, wgf2d_energy,  # noqa: F401
                    wgf2d_first_step_explicit, wgf2d_first_step_implicit,
                    wgf2d_step_explicit, wgf2d_step_implicit)

__all__ = ["random_step_sequence", "AcSim", "Wgf1dSim", "Wgf2dSim", "RunRecord",
           "run_experiment", "sweep_experiment", "run_fixed_steps", "run_step_sequence",
           "convergence_tables", "CONVERGENCE_STUDIES", "build_sim", "STALL_PRESETS"]

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
    density), ``_energy(traj, before)`` (the energy of a trajectory's current
    level, or with ``before`` of its previous one, from the state the
    trajectory carries for that level), ``trajectory_rate`` and
    ``_record(tau, ratio)`` (the StepRecord of the state just committed), and
    set ``ratio_bound``, their scheme's theory bound on tau_{n+1}/tau_n.  The
    driver adds the rejection count.
    """

    def __init__(self, problem, traj, density):
        self.problem = problem
        self.traj = traj
        self.density = density
        self.energy = math.nan
        self._energy_prev = math.nan

    @property
    def time(self) -> float:
        return self.traj.time

    @property
    def tau_prev(self) -> float:
        return self.traj.tau_prev

    @property
    def energy_rate(self) -> float:
        if math.isnan(self._energy_prev):  # no step taken yet
            return 0.0
        return abs(self.energy - self._energy_prev) / self.tau_prev

    def start(self, tau1: float, tau2: float) -> list[StepRecord]:
        """The first two steps; returns both records."""
        return [self.bdf2_step(tau1), self.bdf2_step(tau2)]

    def bdf2_step(self, tau) -> StepRecord:
        traj, density = self._step(tau)
        return self._commit(traj, density, tau)

    def _commit(self, traj, density, tau) -> StepRecord:
        if self.traj.step_index:
            ratio = tau / self.tau_prev
            self._energy_prev = self.energy
        else:  # the first step: ratio 1, and the energy before it is that at
            # rest, the new history's previous level, whose state the step built
            ratio = 1.0
            self._energy_prev = self._energy(traj, before=True)
        self.traj = traj
        self.density = density
        self.energy = self._energy(traj)
        return self._record(tau, ratio)


class _Sim1D(_SimBase):
    """1D adapters: a node trajectory with cell densities.  Subclasses supply
    ``_level_energy(x, cells)``, the energy of the level x from its cell
    state (None if the trajectory carries none)."""

    def __init__(self, problem, density, pinned: bool = True):
        super().__init__(problem, Trajectory1D.at_rest(problem.grid, pinned), density)

    @property
    def trajectory_rate(self) -> float:
        u = (self.traj.curr - self.traj.prev) / self.traj.tau_prev
        return math.sqrt(inner_product("node", u, u, self.problem.grid))

    def _energy(self, traj, before=False):
        if before:
            return self._level_energy(traj.prev, traj.prev_cells)
        return self._level_energy(traj.curr, traj.cells)

    def _density_bounds(self) -> tuple[float, float]:
        return float(self.density.min()), float(self.density.max())

    def _record(self, tau, ratio) -> StepRecord:
        x = self.traj.curr
        lo, hi = self._density_bounds()
        # the trajectory's widths are the step's checked cell widths, x[1:] - x[:-1]
        return StepRecord(t=self.time, tau=tau, ratio=ratio, energy=self.energy,
                          mass=float((self.density * self.traj.widths).sum()),
                          min_density=lo, max_density=hi,
                          boundary_lo=float(x[0]), boundary_hi=float(x[-1]))

class AcSim(_Sim1D):
    ratio_bound = RATIO_BOUND_AC

    def __init__(self, problem: AcProblem):
        # the phase-field density values never change; they ride with the nodes
        super().__init__(problem, problem.rho0_mid)
        self._bounds = (float(problem.rho0_mid.min()), float(problem.rho0_mid.max()))

    def _density_bounds(self) -> tuple[float, float]:
        return self._bounds

    def _level_energy(self, x, cells):
        return ac_energy(self.problem, x, cells)

    def _step(self, tau):
        traj, density = ac_step(self.problem, self.traj, tau)
        return traj, density.values


class Wgf1dSim(_Sim1D):
    ratio_bound = RATIO_BOUND_1D

    def __init__(self, problem: Wgf1dProblem):
        super().__init__(problem, problem.rho0, problem.pinned)

    def _level_energy(self, x, cells):
        return wgf1d_energy(self.problem, x, cells)

    def _step(self, tau):
        traj, density = wgf1d_step(self.problem, self.traj, tau)
        return traj, density.values


class Wgf2dSim(_SimBase):
    ratio_bound = RATIO_BOUND_2D

    def __init__(self, problem: Wgf2dProblem, scheme: str = "explicit"):
        if scheme not in ("explicit", "implicit"):
            raise ValueError(f"unknown 2D scheme {scheme!r}")
        super().__init__(problem, Trajectory2D.at_rest(problem.grid),
                         DensityField2D(problem.rho0, problem.grid))
        self.scheme = scheme
        # an explicit attempt that folds the map is retried with the implicit
        # step, whose line search keeps det > 0; Keller-Segel has no implicit step
        self.falls_back = scheme == "explicit" and not isinstance(problem.model, KellerSegel2D)
        self.implicit_fallbacks = 0

    @property
    def trajectory_rate(self) -> float:
        dx = self.traj.curr_x - self.traj.prev_x
        dy = self.traj.curr_y - self.traj.prev_y
        area = self.problem.grid.h_x * self.problem.grid.h_y
        return math.sqrt(float(np.sum(dx * dx + dy * dy)) * area) / self.traj.tau_prev

    def _record(self, tau, ratio) -> StepRecord:
        traj = self.traj
        # the determinant of the state the step carries is jacobian_det_interior's
        det = None if traj.deformation is None else traj.deformation.det
        return StepRecord(t=self.time, tau=tau, ratio=ratio, energy=self.energy,
                          mass=total_mass_2d(self.density, traj.curr_x, traj.curr_y, det),
                          min_density=float(np.min(self.density.values)),
                          max_density=float(np.max(self.density.values)))

    def _energy(self, traj, before=False):
        if before:
            return wgf2d_energy(self.problem, traj.prev_x, traj.prev_y, traj.prev_deformation)
        return wgf2d_energy(self.problem, traj.curr_x, traj.curr_y, traj.deformation)

    def _step(self, tau):
        if self.scheme == "implicit":
            return wgf2d_step_implicit(self.problem, self.traj, tau)
        try:
            return wgf2d_step_explicit(self.problem, self.traj, tau)
        except AdmissibilityError:
            if not self.falls_back:
                raise
        self.implicit_fallbacks += 1
        return wgf2d_step_implicit(self.problem, self.traj, tau)


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


def _controller_from_config(config: ExperimentConfig, sim) -> StepController:
    return StepController(strategy=config.strategy, gamma=config.gamma, beta=config.beta,
                          tau_min=config.tau_min, tau_max=config.tau_max,
                          r_user=config.r_user, r_max_theory=sim.ratio_bound,
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
        result = run_adaptive(sim, _controller_from_config(config, sim), config.t_final,
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
    if isinstance(sim, Wgf2dSim) and sim.falls_back:
        record.extras["implicit_fallbacks"] = sim.implicit_fallbacks


# --- artifacts ---------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _row_format(*kinds: str) -> str:
    """One CSV row's %-format: "%d" for an integer column, "%.17g" (``_fmt``'s
    float format) for a float one."""
    return ",".join(kinds) + "\n"


_INT, _FLOAT = "%d", "%.17g"
_STEP_COLUMNS = [f.name for f in fields(StepRecord)]
_STEP_ROW = _row_format(_INT, *(_INT if f.type in (int, "int") else _FLOAT
                                for f in fields(StepRecord)))


def _write_csv(path: Path, header, row_format: str, rows) -> None:
    """The header, then each row tuple formatted by one ``row_format % row``."""
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row_format % row for row in rows)


def write_artifacts(record: RunRecord, target: Path) -> None:
    target.mkdir(parents=True, exist_ok=True)
    result = record.result
    steps = result.steps
    # attrgetter rather than dataclasses.astuple, which deep-copies every value
    row = attrgetter(*_STEP_COLUMNS)
    _write_csv(target / "steps.csv", ["n", *_STEP_COLUMNS], _STEP_ROW,
               ((n, *row(step)) for n, step in enumerate(steps, start=1)))

    sim = record.sim
    if isinstance(sim, _Sim1D):
        grid = sim.problem.grid
        x = sim.traj.curr
        xm = 0.5 * (x[:-1] + x[1:])
        _write_csv(target / "final_state.csv", ["j", "label", "position", "density"],
                   _row_format(_INT, _FLOAT, _FLOAT, _FLOAT),
                   zip(range(grid.m_x), grid.midpoints.tolist(), xm.tolist(),
                       sim.density.tolist()))
        _write_csv(target / "trajectory.csv", ["j", "label", "position"],
                   _row_format(_INT, _FLOAT, _FLOAT),
                   zip(range(grid.m_x + 1), grid.nodes.tolist(), x.tolist()))
    else:
        grid = sim.problem.grid
        columns = (grid.ref_x, grid.ref_y, sim.traj.curr_x, sim.traj.curr_y,
                   sim.density.values)
        _write_csv(target / "final_state.csv",
                   ["k", "label_x", "label_y", "x", "y", "density"],
                   _row_format(_INT, *[_FLOAT] * len(columns)),
                   zip(range(grid.ref_x.size), *(c.ravel().tolist() for c in columns)))

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

# Per sweepable preset: rows (grid.mx, steps) coarse to fine, the fixed-step fine
# reference's (grid.mx, steps), the config settings the study fixes, and the
# error kinds it reports (keys of _ERROR_COLUMNS).
CONVERGENCE_STUDIES = {
    "pme-convergence": dict(rows=((100, 200), (200, 400), (400, 800)), ref=(1600, 3200),
                            fixed={}, errors=("x", "linf", "rho")),
    "ac-interface": dict(
        rows=((16, 625), (32, 1250), (64, 2500)), ref=(256, 10000),
        fixed=dict(
            # the interface moves on [0, 0.5]; the preset's horizon reaches the
            # steady state, where the trajectory error no longer shows the order
            t_final=0.5,
            # the constant mobility's friction (rho0')^2 / M degenerates at the
            # profile crest, which caps the observable spatial order
            mobility="degenerate"),
        # no density error: the density is rho0 carried by its label, so its
        # error would be a quadrature constant of order 0
        errors=("x", "linf")),
}

# error kind -> its CSV columns (error, order), in the order they are written
_ERROR_COLUMNS = {"x": ("l2h_error_x", "order_x"), "linf": ("linf_error_x", "order_linf"),
                  "rho": ("l2h_error_rho", "order_rho")}


def convergence_tables(config: ExperimentConfig) -> dict:
    """Fixed- and random-step tables of the preset's convergence study.

    Row i, (mx, n), runs the preset's sim at grid.mx = mx for n steps to
    t_final: equal steps in the fixed table (resolution mx), Philox steps of
    seed config.seed + i in the random one (resolution the largest step).
    One fixed-step fine reference serves both tables.
    """
    study = CONVERGENCE_STUDIES.get(config.preset)
    if study is None:
        raise ConfigError(f"preset {config.preset!r} has no sweep")
    config = replace(config, **study["fixed"])

    def final_sim(mx, taus):
        sim = build_sim(replace(config, mx=mx))
        run_step_sequence(sim, taus)
        return sim

    ref_mx, ref_n = study["ref"]
    ref = final_sim(ref_mx, np.full(ref_n, config.t_final / ref_n))
    tables = {}
    for mode in ("fixed", "random"):
        table = {"mode": mode, "mx": [mx for mx, _ in study["rows"]], "resolution": [],
                 "max_ratio": [], **{f"errors_{k}": [] for k in study["errors"]}}
        for i, (mx, n) in enumerate(study["rows"]):
            taus = (np.full(n, config.t_final / n) if mode == "fixed"
                    else random_step_sequence(n, config.t_final, config.seed + i))
            table["resolution"].append(mx if mode == "fixed" else float(np.max(taus)))
            table["max_ratio"].append(float(np.max(taus[1:] / taus[:-1])))
            sim = final_sim(mx, taus)
            grid, x, x_ref = sim.problem.grid, sim.traj.curr, ref.traj.curr
            errors = {"x": trajectory_error_l2h(x, x_ref, grid),
                      "linf": trajectory_error_linf(x, x_ref, grid),
                      "rho": density_error_l2h(sim.density, ref.density, grid)}
            for k in study["errors"]:
                table[f"errors_{k}"].append(errors[k])
        for k in study["errors"]:
            table[f"orders_{k}"] = convergence_order(table[f"errors_{k}"],
                                                     table["resolution"]).tolist()
        tables[mode] = table
    return tables


def sweep_experiment(config: ExperimentConfig, out_dir: Optional[str] = None,
                     write_files: bool = True) -> dict:
    """The preset's convergence tables, written as orders_<mode>.csv."""
    tables = convergence_tables(config)
    if write_files:
        target = Path(out_dir or config.out_dir) / f"{config.preset}-sweep"
        target.mkdir(parents=True, exist_ok=True)
        for mode, table in tables.items():
            header, columns = ["mx", "resolution"], [table["mx"], table["resolution"]]
            for k, names in _ERROR_COLUMNS.items():
                if f"errors_{k}" in table:
                    header += names
                    columns += [table[f"errors_{k}"], ["", *table[f"orders_{k}"]]]
            # the first row has no orders, and resolution is an int or a float
            # by mode, so each value goes through _fmt
            _write_csv(target / f"orders_{mode}.csv", header, _row_format(*["%s"] * len(header)),
                       (tuple(map(_fmt, row)) for row in zip(*columns)))
    return tables
