"""One set-up of a workload in a fresh interpreter; prints its times as JSON.

Set-up is what a user pays before the first step: importing lagflow's
public modules (numpy and scipy with them), parsing the workload's config
and building the problem with ``experiments.build_sim``.  ``run.py`` starts
this script several times per benchmark run and reports the median, since
an import can only be timed once per process.

    python3 perfbench/setup_probe.py <workload> <seed>

The caller pins the BLAS thread variables and puts ``src`` on PYTHONPATH.
"""

import json
import sys
from time import perf_counter

from workloads import WORKLOADS


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    text = workload.config_text(int(sys.argv[2]))
    t0 = perf_counter()
    from lagflow import config, experiments
    t1 = perf_counter()
    cfg = config.parse_config(text)
    t2 = perf_counter()
    experiments.build_sim(cfg)
    t3 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "build_s": t3 - t2,
                      "setup_s": t3 - t0}))


if __name__ == "__main__":
    main()
