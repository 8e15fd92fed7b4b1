"""Write the reference artifacts that ``checks.py`` compares every run against.

    python3 perfbench/make_references.py

Run it from the root of a lagflow checkout, only when a change to the
solver's numerics is intended, and commit the result with that change.  It
stores ``steps.csv`` and ``final_state.csv`` (gzipped) of one run of each
workload; the seeded workload stores its seed-0 final state only, and the
blow-up workload its steps only.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gzip  # noqa: E402
import logging  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import REF_DIR  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    from lagflow.config import parse_config
    from lagflow.experiments import run_experiment

    logging.getLogger("lagflow").addHandler(logging.NullHandler())
    logging.getLogger("lagflow").propagate = False
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        config = parse_config(workload.config_text(0))
        tmp = Path(tempfile.mkdtemp(prefix="ref-", dir=out))
        try:
            run_experiment(config, out_dir=str(tmp))
            target = REF_DIR / workload.name
            target.mkdir(parents=True, exist_ok=True)
            # a seeded run has no fixed steps; a blow-up's final state is not reproducible
            files = (["final_state.csv"] if workload.seeded else ["steps.csv"]
                     if workload.expect_abort else ["steps.csv", "final_state.csv"])
            for name in files:
                data = (tmp / config.preset / name).read_bytes()
                with open(target / f"{name}.gz", "wb") as raw:
                    with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                        fh.write(data)
            print(f"{workload.name}: wrote {', '.join(files)}")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
