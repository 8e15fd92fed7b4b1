"""Machine-speed probes: fixed micro-workloads timed between the steps of a run.

The benchmark's 2 vCPUs share their cores with other tenants, and the same
deterministic run takes anywhere from 1x to 2.5x its fastest time depending
on what the neighbours do.  To take that out of the end-to-end times, each
untraced run times a probe before its first step and then at step
boundaries, at most every ``INTERVAL`` seconds.  Each step is weighted by
the speed ``ref_s / probe seconds`` of the latest probe, and the run reports

    run_s = wall seconds (without the probes) * step-time-weighted speed

i.e. seconds on a machine on which the probe takes ``ref_s``, a constant of
each probe near its time on a quiet machine.  Weighting step by step follows
phases shorter than a run.  The probes are frozen miniatures of the
workloads' dominant work, so that they slow down as the workload does:
contention hurts interpreter-bound small-array code far more than the
memory-bound pairwise kernel.  They never call lagflow, so a change to the
program does not change them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

INTERVAL = 0.25


def _small_arrays():
    """Interpreter-bound: many numpy calls on 400-element arrays (1D Newton loops)."""
    x0 = np.cumsum(np.random.default_rng(0).random(400))

    def probe():
        x = x0
        for _ in range(60):
            d = np.diff(x)
            x = x + 1e-9 * float(np.sum(d * d))
    return probe, 0.4e-3


def _banded_1d():
    """Numpy calls on 1600-element arrays and a tridiagonal banded solve (1D PME Newton)."""
    from scipy.linalg import solve_banded

    n = 1600
    x0 = np.cumsum(np.random.default_rng(0).random(n))
    ab = np.vstack([np.full(n, -1.0), np.full(n, 4.0), np.full(n, -1.0)])

    def probe():
        x = x0
        for _ in range(12):
            d = np.diff(x)
            x = x + 1e-9 * float(np.sum(d * d))
        solve_banded((1, 1), ab, x)
    return probe, 0.14e-3


def _dense_1d():
    """Dense 256 x 257 log-kernel passes plus small-array calls (1D Keller-Segel)."""
    rng = np.random.default_rng(0)
    a = rng.random((256, 257)) + 0.1
    w = rng.random(257)
    small, _ = _small_arrays()

    def probe():
        for _ in range(4):
            np.log(np.abs(a)) @ w
        small()
    return probe, 0.9e-3


def _pairwise_2d():
    """One 512-row chunk of the N^2 pairwise log kernel at N = 4225 (2D Keller-Segel).

    The full chunk, not a cache-sized piece of it: a smaller probe is
    compute-bound and slows down twice as much as the memory-bound kernel.
    """
    rng = np.random.default_rng(0)
    px, py = rng.random(4225), rng.random(4225)
    m = rng.random(4225)

    def probe():
        dx = px[:512, None] - px[None, :]
        dy = py[:512, None] - py[None, :]
        r2 = dx * dx + dy * dy + 1e-3
        m[:512] @ np.log(r2) @ m
    return probe, 22e-3


def _sparse_2d():
    """Sparse LU solve of a 31 x 31 grid Laplacian plus small-array calls (2D Newton)."""
    n = 31
    lap1 = sps.diags([2.0 * np.ones(n), -np.ones(n - 1), -np.ones(n - 1)], [0, 1, -1])
    mat = (sps.kron(sps.eye(n), lap1) + sps.kron(lap1, sps.eye(n))).tocsc()
    rhs = np.ones(n * n)
    small, _ = _small_arrays()

    def probe():
        spla.spsolve(mat, rhs)
        small()
    return probe, 2.1e-3


PROBES = {"small-arrays": _small_arrays, "banded-1d": _banded_1d, "dense-1d": _dense_1d,
          "pairwise-2d": _pairwise_2d, "sparse-2d": _sparse_2d}


class Calibrator:
    """Times one probe at most every INTERVAL seconds; keeps the samples."""

    def __init__(self, kind: str):
        self._probe, self.ref_s = PROBES[kind]()
        self._probe()  # first call pays for allocation and imports
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = -np.inf

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            start = perf_counter()
            self._probe()
            end = perf_counter()
            self.samples.append(end - start)
            self.spent += end - start
            self._last = end

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= INTERVAL:
            self.sample()

    def speed(self) -> float:
        """ref_s over the median probe time: above 1 on a faster machine."""
        return self.ref_s / float(np.median(self.samples))

    def latest_speed(self) -> float:
        return self.ref_s / self.samples[-1]
