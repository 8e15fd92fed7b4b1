"""Output checks applied to the artifacts of every benchmark run.

A run passes when its ``steps.csv``, ``final_state.csv`` and ``summary.txt``
show all of:

* mass drift within the acceptance tolerances (1e-12 in 1D, 1e-11 in 2D),
  for the conservative workloads;
* positivity: a positive minimum density on every accepted step, and a final
  density that is positive exactly where the initial density is (2D
  compact-support runs keep density 0 on their massless nodes);
* for ``ac-interface``, the exact maximum-bound multiset: the final cell
  densities, sorted, equal the initial midpoint densities, sorted, bit for bit;
* the expected end: ``ks1d-blowup`` stops by tau collapse, every other
  workload reaches ``t_final``;
* agreement with the committed reference files in ``reference/`` to
  ``REF_RTOL`` (relative to each column's largest magnitude).  Integer
  columns and the row count must match exactly.

Two workloads are compared differently.  In ``ks1d-blowup`` a relative
perturbation of 1e-14 in the initial data leaves the rows up to t = 1.3
within 1e-12 of the reference, but during the collapse it flips rejection
decisions, so the row count and the final state change.  There only the rows
up to ``compare_until_t`` must match; the stop time must lie within
``STOP_T_RTOL`` of the reference's, and the peak density at the stop must
reach ``BLOWUP_PEAK_FRAC`` of the reference's.  For the seeded
``pme1d-random`` the step sizes must equal the Philox sequence drawn from the
seed, and the final state must lie within ``SEEDED_FINAL_TOL`` of the seed-0
reference: different step sequences give different second-order errors,
about 5e-9 here.
"""

from __future__ import annotations

import gzip
import hashlib
import math
from pathlib import Path

import numpy as np

REF_DIR = Path(__file__).resolve().parent / "reference"

REF_RTOL = 1e-8
SEEDED_FINAL_TOL = 1e-6
STOP_T_RTOL = 1e-3
BLOWUP_PEAK_FRAC = 0.1
MASS_TOL = {1: 1e-12, 2: 1e-11}
INT_COLUMNS = {"n", "rejections", "j", "k"}


def read_csv(path: Path):
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    table = np.array([[float(v) for v in row] for row in rows], dtype=float)
    return header, table.reshape(len(rows), len(header))


def read_summary(path: Path) -> dict:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def max_deviation(header, table, ref_header, ref_table):
    """Largest column-scaled deviation from the reference, or inf on a shape mismatch."""
    if header != ref_header or table.shape != ref_table.shape:
        return math.inf
    worst = 0.0
    for c, name in enumerate(header):
        a, b = table[:, c], ref_table[:, c]
        both_nan = np.isnan(a) & np.isnan(b)
        if np.any(np.isnan(a) != np.isnan(b)):
            return math.inf
        if name in INT_COLUMNS:
            if np.any(a[~both_nan] != b[~both_nan]):
                return math.inf
            continue
        scale = np.max(np.abs(b[~both_nan]), initial=0.0) or 1.0
        worst = max(worst, float(np.max(np.abs(a - b)[~both_nan], initial=0.0)) / scale)
    return worst


def philox_steps(n: int, t_final: float, seed: int) -> np.ndarray:
    """The documented random step sequence, drawn here independently of lagflow."""
    sigma = np.random.Generator(np.random.Philox(seed)).random(n)
    return sigma * (t_final / sigma.sum())


def check_run(workload, config, run_dir: Path, initial_density) -> dict:
    """All checks on one run's artifacts; returns the findings and the failures."""
    steps_h, steps = read_csv(run_dir / "steps.csv")
    final_h, final = read_csv(run_dir / "final_state.csv")
    summary = read_summary(run_dir / "summary.txt")
    col = {name: i for i, name in enumerate(steps_h)}
    failures = []
    found = {"steps_sha256": sha256(run_dir / "steps.csv"), "accepted_steps": len(steps)}

    mass = steps[:, col["mass"]]
    found["mass_drift"] = float(np.max(np.abs(mass - mass[0])) / abs(mass[0]))
    if workload.conservative and not found["mass_drift"] <= MASS_TOL[workload.dim]:
        failures.append(f"mass drift {found['mass_drift']:.3e} > {MASS_TOL[workload.dim]:.0e}")
    # massless nodes (compact support in 2D) keep density 0; all others stay positive
    massive = np.asarray(initial_density).ravel() > 0.0
    min_density = steps[:, col["min_density"]]
    if not (np.all(min_density > 0.0) if massive.all() else np.all(min_density >= 0.0)):
        failures.append("non-positive min_density")
    density = final[:, final_h.index("density")]
    if not np.array_equal(density > 0.0, massive):
        failures.append("final density is not positive exactly where the initial one is")

    if workload.name == "ac-interface" and not np.array_equal(np.sort(density),
                                                              np.sort(initial_density)):
        failures.append("final densities are not the initial multiset")

    aborted = summary.get("aborted") == "True"
    if workload.expect_abort:
        if not (aborted and workload.expect_abort in summary.get("abort reason", "")):
            failures.append(f"expected the stop {workload.expect_abort!r}, "
                            f"got aborted={aborted} {summary.get('abort reason', '')!r}")
    else:
        t_end = steps[-1, col["t"]]
        if aborted or abs(t_end - config.t_final) > 1e-12 * config.t_final:
            failures.append(f"did not reach t_final: t={t_end!r} aborted={aborted} "
                            f"{summary.get('abort reason', '')!r}")

    ref = REF_DIR / workload.name
    if workload.seeded:
        taus = philox_steps(config.n_steps, config.t_final, config.seed)
        if not np.array_equal(steps[:, col["tau"]], taus):
            failures.append("step sizes differ from the seed's Philox sequence")
        found["final_dev"] = max_deviation(final_h, final, *read_csv(ref / "final_state.csv.gz"))
        if not found["final_dev"] <= SEEDED_FINAL_TOL:
            failures.append(f"final state deviates {found['final_dev']:.3e} from the "
                            f"reference (> {SEEDED_FINAL_TOL:.0e})")
    elif workload.expect_abort:
        ref_steps_h, ref_steps = read_csv(ref / "steps.csv.gz")
        early = steps[:, col["t"]] <= workload.compare_until_t
        ref_early = ref_steps[:, col["t"]] <= workload.compare_until_t
        found["steps_dev"] = max_deviation(steps_h, steps[early], ref_steps_h,
                                           ref_steps[ref_early])
        if not found["steps_dev"] <= REF_RTOL:
            failures.append(f"steps up to t={workload.compare_until_t} deviate "
                            f"{found['steps_dev']:.3e} from the reference (> {REF_RTOL:.0e})")
        t_stop, ref_stop = steps[-1, col["t"]], ref_steps[-1, col["t"]]
        found["stop_t_dev"] = abs(t_stop - ref_stop) / ref_stop
        if not found["stop_t_dev"] <= STOP_T_RTOL:
            failures.append(f"stopped at t={t_stop!r}, reference t={ref_stop!r}")
        peak, ref_peak = steps[-1, col["max_density"]], ref_steps[-1, col["max_density"]]
        if not peak >= BLOWUP_PEAK_FRAC * ref_peak:
            failures.append(f"peak density {peak:.4g} at the stop is below "
                            f"{BLOWUP_PEAK_FRAC} x the reference {ref_peak:.4g}")
    else:
        ref_steps_h, ref_steps = read_csv(ref / "steps.csv.gz")
        found["steps_dev"] = max_deviation(steps_h, steps, ref_steps_h, ref_steps)
        found["final_dev"] = max_deviation(final_h, final, *read_csv(ref / "final_state.csv.gz"))
        for part in ("steps", "final"):
            if not found[f"{part}_dev"] <= REF_RTOL:
                failures.append(f"{part} deviates {found[f'{part}_dev']:.3e} from the "
                                f"reference (> {REF_RTOL:.0e})")
    found["failures"] = failures
    return found
