"""Layer tracing from outside the program.

The solver modules call each other through module-level names
(``lagflow.wgf1d.discrete_energy_hess_1d``, ``lagflow.allen_cahn.solve_banded``,
``lagflow.wgf2d.spla.cg``, ...).  ``Tracer.installed`` replaces those names in
the caller's namespace with wrappers that record a span (name, start, end,
parent) and bump counters, and puts the originals back on exit.  No file of
the program changes.

Spans are strictly nested (one thread), so a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import logging
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (caller module, name the caller looks up, span name, counter bumped per call).
# Wrapping the same function in several callers gives one span name with
# per-caller counters.
LAYER_NAMES = [
    ("experiments", "build_sim", "experiments.build_sim", None),
    ("experiments", "run_adaptive", "adaptive.run_adaptive", None),
    ("experiments", "run_step_sequence", "experiments.run_step_sequence", None),
    ("experiments", "run_fixed_steps", "experiments.run_fixed_steps", None),
    ("experiments", "write_artifacts", "experiments.write_artifacts", None),
    ("experiments", "ac_step", "allen_cahn.ac_step", None),
    ("experiments", "ac_first_step", "allen_cahn.ac_first_step", None),
    ("experiments", "wgf1d_step", "wgf1d.step", None),
    ("experiments", "wgf1d_first_step", "wgf1d.first_step", None),
    ("experiments", "wgf2d_step_explicit", "wgf2d.step_explicit", None),
    ("experiments", "wgf2d_step_implicit", "wgf2d.step_implicit", None),
    ("experiments", "wgf2d_first_step_explicit", "wgf2d.first_step_explicit", None),
    ("experiments", "wgf2d_first_step_implicit", "wgf2d.first_step_implicit", None),
    ("experiments", "total_mass_2d", "diagnostics", None),
    ("experiments", "interface_radius", "diagnostics", None),
    ("experiments", "barenblatt_support_radius", "diagnostics", None),
    ("allen_cahn", "ac_residual", "allen_cahn.ac_residual", None),
    ("allen_cahn", "solve_banded", "linalg.solve_banded", "allen_cahn.newton_iters"),
    ("allen_cahn", "ac_discrete_energy", "models.ac_energy", None),
    ("wgf1d", "_objective", None, "wgf1d.objective_evals"),
    ("wgf1d", "discrete_energy_1d", "models.energy_1d", None),
    ("wgf1d", "discrete_energy_grad_1d", "models.grad_1d", None),
    ("wgf1d", "discrete_energy_hess_1d", "models.hess_1d", "wgf1d.newton_iters"),
    ("wgf1d", "solve_banded", "linalg.solve_banded", "wgf1d.banded_solves"),
    ("wgf1d", "pushforward_density_1d", "grids.pushforward_1d", None),
    ("wgf2d", "wgf2d_step_explicit", "wgf2d.step_explicit", None),
    ("wgf2d", "deformation_energy_grad_2d", "models.deformation_grad_2d", None),
    ("wgf2d", "discrete_energy_2d", "models.energy_2d", None),
    ("wgf2d", "discrete_energy_hess_2d", "models.hess_2d", "wgf2d.newton_iters"),
    ("wgf2d", "ks2d_interaction_force", "models.ks2d_force", None),
    ("wgf2d", "jacobian_det_interior", "grids.jacobian_det", None),
    ("models", "ks2d_interaction_energy", "models.ks2d_energy", None),
    ("models", "jacobian_det_interior", "grids.jacobian_det", None),
    ("plots", "energy_plot", "plots", None),
    ("plots", "timestep_plot", "plots", None),
    ("plots", "density_plot", "plots", None),
    ("plots", "support_plot", "plots", None),
]

ROOT = "experiments.run_experiment"
SETUP = "experiments.build_sim"
STEP = "experiments.bdf2_step"
STEP_SPANS = ("wgf2d.step_explicit", "wgf2d.first_step_explicit",
              "wgf2d.step_implicit", "wgf2d.first_step_implicit")


class _CountingHandler(logging.Handler):
    """Turns the program's log records into counts instead of printed lines."""

    def __init__(self, counts: Counter):
        super().__init__(logging.DEBUG)
        self.counts = counts

    def emit(self, record):
        layer = record.name.rsplit(".", 1)[-1]
        if record.levelno >= logging.WARNING:
            self.counts[f"{layer}.warnings"] += 1


@contextmanager
def quiet_lagflow_logger(counts: Counter):
    """Count the ``lagflow`` logger's warnings and keep them off stderr."""
    logger = logging.getLogger("lagflow")
    handler = _CountingHandler(counts)
    saved = logger.propagate
    logger.addHandler(handler)
    logger.propagate = False
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.propagate = saved


class Tracer:
    """In-memory span recorder with counters, for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.errors: dict[int, str] = {}
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()

    # --- recording -----------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        names, parents, starts, ends, stack = (self.names, self.parents, self.starts,
                                               self.ends, self.stack)

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[sid] = type(exc).__name__
                raise
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def open_names(self):
        return [self.names[sid] for sid in self.stack[1:]]

    def _count(self, key):
        counts = self.counts

        def bump(args, kwargs):
            counts[key] += 1
        return bump

    def _bytes_written(self, args, kwargs, out):
        target = args[1] if len(args) > 1 else kwargs["target"]
        self.counts["experiments.write_artifacts.bytes"] += sum(
            f.stat().st_size for f in target.iterdir() if f.is_file())

    @contextmanager
    def installed(self, lagflow_modules: dict):
        """Patch every name in LAYER_NAMES, and scipy's cg/spsolve in wgf2d."""
        saved = []
        try:
            for caller, attr, span, counter in LAYER_NAMES:
                module = lagflow_modules[caller]
                original = getattr(module, attr)
                before = self._count(counter) if counter else None
                after = self._bytes_written if attr == "write_artifacts" else None
                saved.append((module, attr, original))
                if span is None:
                    setattr(module, attr, _counted(original, before))
                else:
                    setattr(module, attr, self.wrap(span, original, before, after))
            wgf2d = lagflow_modules["wgf2d"]
            saved.append((wgf2d, "spla", wgf2d.spla))
            wgf2d.spla = _SparseLinalgProxy(self, wgf2d.spla)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # --- analysis ------------------------------------------------------------

    def arrays(self):
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return parents, dur, dur - child

    def layer_table(self):
        """Per span name: calls, inclusive seconds and self seconds.

        Spans under ``experiments.build_sim`` are set-up, not stepping, and are
        left out, as ``run_s`` leaves the build out.
        """
        parents, dur, self_s = self.arrays()
        in_setup = np.zeros(len(self.names), dtype=bool)
        for sid, name in enumerate(self.names):
            in_setup[sid] = name == SETUP or (parents[sid] >= 0 and in_setup[parents[sid]])
        table = {}
        for sid, name in enumerate(self.names):
            if in_setup[sid] and name != SETUP:
                continue
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += float(dur[sid])
            row["self_s"] += float(self_s[sid])
        return table

    def dump(self):
        index = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        origin = self.starts[0] if self.starts else 0.0
        return {
            "span_names": list(index),
            "name": [index[n] for n in self.names],
            "parent": self.parents,
            "start_s": [round(t - origin, 9) for t in self.starts],
            "end_s": [round(t - origin, 9) for t in self.ends],
            "error": {str(k): v for k, v in self.errors.items()},
        }


def _counted(fn, before):
    """A wrapper that only counts: for a name called too often to be a span."""
    def counted(*args, **kwargs):
        before(args, kwargs)
        return fn(*args, **kwargs)
    counted.__wrapped__ = fn
    return counted


class _SparseLinalgProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``lagflow.wgf2d``.

    ``cg`` gets a span and an iteration-counting callback; ``spsolve`` gets a
    span and counts as a CG fallback when the innermost open 2D step span is
    an explicit step.  Every other attribute is the real module's.
    """

    def __init__(self, tracer: Tracer, real):
        self._real = real
        counts = tracer.counts

        def count_iters(args, kwargs):
            user = kwargs.get("callback")

            def callback(xk):
                counts["wgf2d.cg.iters"] += 1
                if user is not None:
                    user(xk)
            kwargs["callback"] = callback

        def count_fallback(args, kwargs):
            steps = [n for n in tracer.open_names() if n in STEP_SPANS]
            if steps and "explicit" in steps[-1]:
                counts["wgf2d.cg_fallbacks"] += 1

        self.cg = tracer.wrap("wgf2d.cg", real.cg, before=count_iters)
        self.spsolve = tracer.wrap("wgf2d.spsolve", real.spsolve, before=count_fallback)

    def __getattr__(self, attr):
        return getattr(self._real, attr)
