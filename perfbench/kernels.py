"""Computed kernel work and measured scaling exponents of three kernels.

Pair counts and bytes are *computed* from array sizes, not measured: one
float64 per pair for one pass over the pair matrix.  Cache misses and the
temporaries numpy allocates are not counted.

The scaling fits time each kernel at three sizes (median of a few calls)
and fit log(time) against log(unknowns) by least squares:

* ``models.ks1d.exp``: ``discrete_energy_grad_1d`` with the Keller-Segel
  model, against the cell count M;
* ``models.ks2d.exp``: ``ks2d_interaction_force``, against the node count N;
* ``wgf2d.solve.exp``: ``wgf2d_step_explicit``, against the interior node count.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

KS1D_SIZES = (400, 800, 1600)
KS2D_SIZES = (24, 32, 48)
WGF2D_SIZES = (32, 48, 64)
REPEATS = 5


def ks1d_pairs(mx: int) -> int:
    """Pairs of one dense 1D kernel build: M cell midpoints times M+1 partner nodes."""
    return mx * (mx + 1)


def ks2d_pairs(rho0) -> int:
    """Pairs of one 2D pairwise pass: N^2 over the N nodes that carry mass."""
    n = int(np.count_nonzero(np.asarray(rho0) > 0.0))
    return n * n


def _median_time(fn, repeats=REPEATS) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return float(np.median(times))


def _exponent(sizes, times) -> float:
    slope, _ = np.polyfit(np.log(np.asarray(sizes, dtype=float)), np.log(times), 1)
    return float(slope)


def scaling_exponents(lagflow_modules: dict) -> dict:
    config = lagflow_modules["config"]
    experiments = lagflow_modules["experiments"]
    models = lagflow_modules["models"]
    wgf2d = lagflow_modules["wgf2d"]
    out = {}

    times = []
    for mx in KS1D_SIZES:
        cfg = config.preset_defaults("ks-blowup-1d")
        cfg.mx = mx
        p = experiments.build_sim(cfg).problem
        x = p.grid.nodes
        lag_x, lag_rho = p.lag_state(x)
        times.append(_median_time(lambda: models.discrete_energy_grad_1d(
            p.model, x, p.rho0, p.grid, lagged_x=lag_x, lagged_rho=lag_rho)))
    out["models.ks1d.exp"] = _exponent(KS1D_SIZES, times)

    times, sizes = [], []
    for mx in KS2D_SIZES:
        cfg = config.preset_defaults("ks-2d")
        cfg.mx = cfg.my = mx
        p = experiments.build_sim(cfg).problem
        sizes.append(np.count_nonzero(p.rho0 > 0.0))
        times.append(_median_time(lambda: models.ks2d_interaction_force(
            p.model, p.grid.ref_x, p.grid.ref_y, p.rho0, p.grid)))
    out["models.ks2d.exp"] = _exponent(sizes, times)

    times, sizes = [], []
    for mx in WGF2D_SIZES:
        cfg = config.preset_defaults("barenblatt-2d")
        cfg.mx = cfg.my = mx
        sim = experiments.build_sim(cfg)
        sim.start(cfg.tau1, cfg.tau2)
        sizes.append((mx - 1) ** 2)
        times.append(_median_time(lambda: wgf2d.wgf2d_step_explicit(
            sim.problem, sim.traj, cfg.tau1)))
    out["wgf2d.solve.exp"] = _exponent(sizes, times)
    return out
