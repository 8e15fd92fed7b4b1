"""lagflow benchmark: time to solution of five solver workloads, with a traced layer split.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a lagflow checkout; the solver is imported from
``src/``.  Load shape: a closed loop, one run at a time in one process, BLAS
pinned to one thread.  Each run goes through the public API,
``config.parse_config`` then ``experiments.run_experiment(config,
out_dir=<tmp>)``, writes its artifacts as ``lagflow run`` does, and has them
checked (``checks.py``).  Runs repeat while the next one is expected to end
within ``--seconds``; at least one run is made.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: medians over
the passing runs of wall times normalized by the machine's speed, which a
probe measures during each run (``calibrate.py``).  ``--trace 1`` spends half
the window on untraced runs and half on traced runs and prints the per-layer
metrics (means over the traced runs, so the self times add up) plus the
tracing overhead (fastest traced minus fastest untraced wall time).  Every
invocation also writes its run record to ``perfbench/out/``.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# must precede the first numpy import, here and in the set-up probes
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
LAGFLOW_MODULES = ("config", "experiments", "allen_cahn", "wgf1d", "wgf2d", "models",
                   "plots")


# --- one run ---------------------------------------------------------------------

class _StepTimer:
    """Wraps a sim adapter's ``bdf2_step``: wall ms per accepted step.

    A rejected attempt raises; its time is carried into the next accepted
    step, so each sample is one accepted step including its retries.  With a
    calibrator, a speed probe runs between steps (outside the samples) and
    each step's time is also weighted by the speed its latest probe saw.
    """

    def __init__(self, samples, calibrator=None):
        self.samples = samples
        self.calibrator = calibrator
        self.pending = 0.0
        self.step_s = 0.0
        self.weighted_s = 0.0

    def _account(self, seconds):
        self.step_s += seconds
        if self.calibrator is not None:
            self.weighted_s += seconds * self.calibrator.latest_speed()

    def speed(self) -> float:
        """Step-time-weighted speed factor of the run."""
        return self.weighted_s / self.step_s

    def wrap(self, step):
        def timed(tau):
            if self.calibrator is not None:
                self.calibrator.maybe_sample()
            t0 = perf_counter()
            try:
                info = step(tau)
            except BaseException:
                self.pending += perf_counter() - t0
                self._account(perf_counter() - t0)
                raise
            seconds = perf_counter() - t0
            self._account(seconds)
            self.samples.append(1e3 * (self.pending + seconds))
            self.pending = 0.0
            return info
        return timed


def kernel_pairs(workload, problem) -> int:
    """Computed pair evaluations of one interaction-kernel call (0 without one)."""
    import kernels

    if workload.preset == "ks-blowup-1d":
        return kernels.ks1d_pairs(problem.grid.m_x)
    if workload.preset == "ks-2d":
        return kernels.ks2d_pairs(problem.rho0)
    return 0


def one_run(workload, seed, mods, tracer=None) -> dict:
    from calibrate import Calibrator
    from checks import check_run
    from tracer import ROOT as ROOT_SPAN, STEP, quiet_lagflow_logger

    experiments = mods["experiments"]
    text = workload.config_text(seed)
    run = {"steps_ms": [], "failures": [], "log_counts": Counter()}
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    build_sim = experiments.build_sim
    # traced runs take no speed samples, which would land in their spans
    calibrator = None if tracer is not None else Calibrator(workload.probe)
    timer = _StepTimer(run["steps_ms"], calibrator)

    def instrumented_build(config):
        t0 = perf_counter()
        sim = build_sim(config)
        run["build_s"] = perf_counter() - t0
        sim.bdf2_step = timer.wrap(sim.bdf2_step)
        if tracer is not None:
            sim.bdf2_step = tracer.wrap(STEP, sim.bdf2_step)
        return sim

    experiments.build_sim = instrumented_build
    try:
        with quiet_lagflow_logger(run["log_counts"]):
            if tracer is None:
                config = mods["config"].parse_config(text)
                calibrator.sample()
                spent = calibrator.spent
                t0 = perf_counter()
                record = experiments.run_experiment(config, out_dir=str(tmp))
                run["total_s"] = perf_counter() - t0 - (calibrator.spent - spent)
            else:
                config = tracer.wrap("config.parse", mods["config"].parse_config)(text)
                with tracer.installed(mods):
                    t0 = perf_counter()
                    record = tracer.wrap(ROOT_SPAN, experiments.run_experiment)(
                        config, out_dir=str(tmp))
                    run["total_s"] = perf_counter() - t0
        run["wall_s"] = run["total_s"] - run["build_s"]
        if calibrator is not None:
            run["speed"] = timer.speed()
            run["run_s"] = run["wall_s"] * run["speed"]
        problem = record.sim.problem
        run["pairs_per_call"] = kernel_pairs(workload, problem)
        initial = problem.rho0_mid if workload.preset == "ac-interface" else problem.rho0
        run.update(check_run(workload, config, tmp / config.preset, initial))
    except Exception:  # a failing run is counted, reported and the loop goes on
        run["failures"].append(traceback.format_exc(limit=3).strip().splitlines()[-1])
    finally:
        experiments.build_sim = build_sim
        shutil.rmtree(tmp, ignore_errors=True)
    return run


def measure(workload, seed, mods, window, traced=False) -> list:
    """Closed loop: repeat runs while the next is expected to end within ``window``."""
    from tracer import Tracer

    runs = []
    start = perf_counter()
    while True:
        tracer = Tracer() if traced else None
        run = one_run(workload, seed, mods, tracer)
        if tracer is not None:
            run["tracer"] = tracer
        runs.append(run)
        elapsed = perf_counter() - start
        if elapsed * (len(runs) + 1) / len(runs) > window:
            return runs


# --- set-up ----------------------------------------------------------------------

def setup_times(workload, seed) -> list:
    """Set-up seconds of ``SETUP_PROBES`` fresh interpreters, one after another.

    Each is normalized by speed samples taken just before and after it.
    """
    from calibrate import Calibrator

    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(SETUP_PROBES):
        calibrator = Calibrator("small-arrays")
        calibrator.sample(3)
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload.name,
                               str(seed)], env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        calibrator.sample(3)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        probe["wall_s"] = probe["setup_s"]
        probe["speed"] = calibrator.speed()
        probe["setup_s"] = probe["wall_s"] * probe["speed"]
        out.append(probe)
    return out


# --- metrics ---------------------------------------------------------------------

def end_to_end(runs, probes) -> dict:
    """Medians over the passing runs of speed-normalized times (see calibrate.py)."""
    import numpy as np

    failed = sum(bool(r["failures"]) for r in runs)
    values = {
        "setup_s": statistics.median([p["setup_s"] for p in probes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (len(runs) - failed) / len(runs),
    }
    passed = [r for r in runs if not r["failures"]]
    if passed:
        median = statistics.median
        values["run_s"] = median([r["run_s"] for r in passed])
        values["step_ms_mean"] = median([float(np.mean(r["steps_ms"])) * r["speed"]
                                         for r in passed])
        # not gated: step times are multi-modal, so their p90 jumps between modes
        values["step_ms_p90"] = median([float(np.percentile(r["steps_ms"], 90)) * r["speed"]
                                        for r in passed])
        values["wall_s"] = median([r["wall_s"] for r in passed])
        values["speed"] = median([r["speed"] for r in passed])
    return values


def per_layer(workload, traced, untraced, exponents) -> tuple:
    """Mean over traced runs of every layer metric; also the full span tables."""
    keys = Counter()
    tables = []
    for run in traced:
        tracer = run["tracer"]
        table = tracer.layer_table()
        tables.append(table)
        root = table["experiments.run_experiment"]
        build = table.get("experiments.build_sim", {"s": 0.0})
        run_s = root["s"] - build["s"]
        attempts = table.get("experiments.bdf2_step", {"calls": 0})["calls"]
        rejections = sum(1 for sid, name in enumerate(tracer.names)
                         if name == "experiments.bdf2_step" and sid in tracer.errors)
        counts = Counter(tracer.counts)
        counts.update(run["log_counts"])
        v = Counter()
        for name, row in table.items():
            if name not in ("experiments.run_experiment", "experiments.build_sim",
                            "config.parse"):
                v[f"{name}.self_s"] = row["self_s"]
            v[f"{name}.calls"] = row["calls"]
            v[f"{name}.s"] = row["s"]
        v["trace.run_s"] = run_s
        v["trace.unattributed_s"] = root["self_s"]
        v["allen_cahn.newton_iters"] = counts["allen_cahn.newton_iters"]
        v["wgf1d.newton_iters"] = counts["wgf1d.newton_iters"]
        v["wgf1d.hessian_shifts"] = counts["wgf1d.banded_solves"] - counts["wgf1d.newton_iters"]
        v["wgf1d.objective_evals"] = counts["wgf1d.objective_evals"]
        v["wgf2d.cg.iters"] = counts["wgf2d.cg.iters"]
        v["wgf2d.cg_fallbacks"] = counts["wgf2d.cg_fallbacks"]
        v["wgf2d.newton_iters"] = counts["wgf2d.newton_iters"]
        v["adaptive.attempts"] = attempts
        v["adaptive.rejections"] = rejections
        v["adaptive.accept_ratio"] = (attempts - rejections) / attempts if attempts else 0.0
        v["adaptive.self_s"] = table.get("adaptive.run_adaptive", {"self_s": 0.0})["self_s"]
        v["adaptive.warnings"] = counts["adaptive.warnings"]
        v["experiments.write_artifacts.bytes"] = counts["experiments.write_artifacts.bytes"]
        v["config.parse.s"] = table["config.parse"]["s"]
        for preset, label, spans in (
                ("ks-blowup-1d", "ks1d", ("energy_1d", "grad_1d", "hess_1d")),
                ("ks-2d", "ks2d", ("ks2d_energy", "ks2d_force"))):
            per_call = run.get("pairs_per_call", 0) if workload.preset == preset else 0
            calls = sum(table.get(f"models.{s}", {"calls": 0})["calls"] for s in spans)
            v[f"models.{label}.pairs_per_call"] = per_call
            v[f"models.{label}.pairs"] = per_call * calls
        keys.update(v.keys())
        run["layer_values"] = v
    means = {k: sum(r["layer_values"][k] for r in traced) / len(traced) for k in keys}
    untraced_s = [r["wall_s"] for r in untraced if not r["failures"]]
    if untraced_s:
        means["trace.overhead_s"] = (min(r["layer_values"]["trace.run_s"] for r in traced)
                                     - min(untraced_s))
    means["models.ks1d.pair_bytes"] = 8 * means.get("models.ks1d.pairs_per_call", 0)
    means["models.ks2d.pair_bytes"] = 8 * means.get("models.ks2d.pairs_per_call", 0)
    means.update(exponents)
    return means, tables


# --- run record and output -------------------------------------------------------

def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpuinfo(field: str) -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(field):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_record(args) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "cpu_model": _cpuinfo("model name"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "l3_cache": _cpuinfo("cache size"),
    }


def select(spec, values, runs) -> dict:
    """The metrics BENCHMARK.json lists, by name with their units.

    Times need a passing run; when every run failed they are left out and
    the result says ``correct: false``.
    """
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing and all(not r["failures"] for r in runs):
        raise KeyError(f"metrics not computed: {missing}")
    out = {}
    for m in spec:
        value = values.get(m["name"])
        if value is None:
            continue
        if m["unit"] in ("count", "B") and float(value).is_integer():
            value = int(value)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def run_workload(workload, args, mods, spec) -> dict:
    from tracer import LAYER_NAMES, quiet_lagflow_logger
    import kernels

    result = {"workload": workload.name}
    if args.trace == 0:
        probes = setup_times(workload, args.seed)
        runs = measure(workload, args.seed, mods, args.seconds)
        values = end_to_end(runs, probes)
        result["setup_probes"] = probes
        metrics = select(spec["end_to_end"], values, runs)
        result["ungated"] = {k: v for k, v in values.items() if k not in metrics}
    else:
        untraced = measure(workload, args.seed, mods, args.seconds / 2)
        traced = measure(workload, args.seed, mods, args.seconds / 2, traced=True)
        with quiet_lagflow_logger(Counter()):
            exponents = kernels.scaling_exponents(mods)
        values, tables = per_layer(workload, traced, untraced, exponents)
        known = {span for _, _, span, _ in LAYER_NAMES if span} | {
            "experiments.run_experiment", "experiments.bdf2_step", "config.parse",
            "wgf2d.cg", "wgf2d.spsolve"}
        for m in spec["per_layer"]:
            # a layer the workload never enters reads 0
            stem, _, kind = m["name"].rpartition(".")
            if m["name"] not in values and stem in known and kind in ("calls", "s", "self_s"):
                values[m["name"]] = 0
        metrics = select(spec["per_layer"], values, traced)
        result["layer_table"] = tables[-1]
        result["spans"] = [run.pop("tracer").dump() for run in traced]
        runs = untraced + traced
    result["runs"] = [{k: v for k, v in r.items() if k not in ("steps_ms", "tracer")}
                      | {"accepted_step_samples": len(r["steps_ms"])} for r in runs]
    result["attempted"] = len(runs)
    result["failed"] = sum(bool(r["failures"]) for r in runs)
    result["metrics"] = metrics
    return result


def print_report(result):
    print(f"== {result['workload']}: {result['attempted']} runs, {result['failed']} failed")
    for run in result["runs"]:
        status = "ok" if not run["failures"] else "FAILED: " + "; ".join(run["failures"])
        speed = (f"speed={run['speed']:.3f}  run_s={run['run_s']:.3f}" if "speed" in run
                 else "traced" if "wall_s" in run else "")
        print(f"   wall_s={run.get('wall_s', float('nan')):.3f}  {speed}  "
              f"steps={run.get('accepted_steps', '-')}  "
              f"steps_dev={run.get('steps_dev', '-')}  final_dev={run.get('final_dev', '-')}  "
              f"sha256(steps.csv)={run.get('steps_sha256', '-')[:16]}  {status}")
    if "layer_table" in result:
        table = result["layer_table"]
        root = table["experiments.run_experiment"]
        run_s = root["s"] - table["experiments.build_sim"]["s"]
        print(f"   last traced run: run_s={run_s:.4f} s; self time by span:")
        rows = [(n, r) for n, r in table.items()
                if n not in ("experiments.run_experiment", "experiments.build_sim",
                             "config.parse")]
        rows.append(("(unattributed)", {"calls": 1, "s": root["self_s"],
                                        "self_s": root["self_s"]}))
        for name, row in sorted(rows, key=lambda item: -item[1]["self_s"]):
            print(f"   {name:32s} calls={row['calls']:8d}  self={row['self_s']:9.4f} s  "
                  f"{100.0 * row['self_s'] / run_s:6.2f}%")
        total = sum(row["self_s"] for _, row in rows)
        print(f"   sum of self times = {total:.6f} s (run_s {run_s:.6f} s)")
    for name, metric in result["metrics"].items():
        print(f"   {name:40s} {metric['value']!r} {metric['unit']}")
    for name, value in result.get("ungated", {}).items():
        print(f"   {name:40s} {value!r} (not in BENCHMARK.json)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lagflow" / "__init__.py").is_file():
        print(f"perfbench: no lagflow sources under {SRC}; run from a lagflow checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("perfbench: BENCHMARK.json and workloads.py name different workloads",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")

    mods = {name: importlib.import_module(f"lagflow.{name}") for name in LAGFLOW_MODULES}
    OUT.mkdir(exist_ok=True)
    record = run_record(args)
    print("run record: " + json.dumps(record))
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args, mods, spec)
        print_report(result)
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        spans = result.pop("spans", None)
        if spans is not None:
            with gzip.open(OUT / f"{stem}-spans.json.gz", "wt", encoding="utf-8") as fh:
                json.dump(spans, fh)
        (OUT / f"{stem}.json").write_text(json.dumps(dict(record, **result), indent=1,
                                                     default=str), encoding="utf-8")
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
