"""The benchmark's workloads: a preset plus config overrides, and what each checks.

Every workload goes through the public configuration API: the overrides are
written as a flat ``key = value`` document on top of the named preset and
parsed by ``lagflow.config.parse_config``, exactly as ``lagflow run`` does.

This module imports nothing from numpy or lagflow, so the set-up probe can
import it before it starts its clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    overrides: dict = field(default_factory=dict)
    seeded: bool = False          # the seed changes the inputs (config key ``seed``)
    conservative: bool = True     # mass drift is checked
    dim: int = 1
    expect_abort: str = ""        # substring of the one abort reason that counts as success
    # steps.csv rows after this time are compared loosely: in a blow-up the
    # rejection pattern depends on rounding, so the tail is not reproducible
    compare_until_t: float = math.inf
    probe: str = "small-arrays"   # speed probe in calibrate.py that slows down as this does

    def config_text(self, seed: int) -> str:
        lines = [f"preset = {self.preset}"]
        lines += [f"{key} = {value}" for key, value in self.overrides.items()]
        if self.seeded:
            lines.append(f"seed = {seed}")
        return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (
    Workload("ac-interface", "ac-interface", {"grid.mx": 400}, conservative=False),
    Workload("ks1d-blowup", "ks-blowup-1d", {"grid.mx": 256},
             expect_abort="tau collapsed to tau_min", compare_until_t=1.3, probe="dense-1d"),
    Workload("pme1d-random", "pme-convergence",
             {"time.mode": "random", "grid.mx": 1600, "time.n_steps": 3200}, seeded=True,
             probe="banded-1d"),
    # the 2D horizons are shortened so that several runs fit one measuring window
    Workload("pme2d-implicit", "barenblatt-2d", {"scheme": "implicit", "time.t_final": 0.5},
             dim=2, probe="sparse-2d"),
    Workload("ks2d", "ks-2d", {"time.t_final": 0.02}, dim=2, probe="pairwise-2d"),
)}
