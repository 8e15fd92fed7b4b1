"""Hypothesis profiles and the fixtures that several test modules share.

``HYPOTHESIS_PROFILE=ci`` selects the CI profile: derandomized, so a failure
reproduces on rerun, and printing the blob that replays a failing example.
``HYPOTHESIS_PROFILE=random`` draws afresh on every run, as the default
profile does, and also prints that blob.  Without either the default profile
applies."""

import os
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import settings

from lagflow import experiments
from lagflow.config import preset_defaults

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.register_profile("random", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


class Sweep(NamedTuple):
    tables: dict      # what sweep_experiment returned
    built: list       # config.mx of each build_sim call, in call order
    out_dir: Path     # where it wrote its tables


@pytest.fixture(scope="session")
def pme_sweep(tmp_path_factory):
    """The pme-convergence study, run once per session through ``sweep_experiment``."""
    built = []
    build_sim = experiments.build_sim

    def counting_build_sim(config):
        built.append(config.mx)
        return build_sim(config)

    out_dir = tmp_path_factory.mktemp("pme-sweep")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "build_sim", counting_build_sim)
        tables = experiments.sweep_experiment(preset_defaults("pme-convergence"),
                                              out_dir=str(out_dir))
    return Sweep(tables, built, out_dir)
