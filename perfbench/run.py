"""Benchmark launcher.

    python3 perfbench/run.py --workload derive|infer|rewrite|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the engine is imported from its ``src``.
Each workload runs in its own single-threaded process (``worker.py``),
started with the BLAS and OpenMP pools pinned to one thread and a fixed
hash seed. With ``--trace 0`` the launcher starts ``SETUP_REPEATS``
set-up-only processes and then the timed process, and reports the median
set-up time of all of them with the timed process's end-to-end metrics.
With ``--trace 1`` it starts one traced process and reports the per-layer
metrics. ``--workload all`` runs the three timed workloads and prints the
named metrics of each.

Every run prints a ``run-record`` line (seed, nproc, versions, calibration
kernels and the named metrics) and writes it to ``.perfbench_out/``. The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import END_TO_END, OUT_DIR, PER_LAYER, ROOT  # noqa: E402

WORKLOADS = ("derive", "infer", "rewrite")
SETUP_REPEATS = 2
BUDGET_S = 170          # every process of one run ends within this
PINNED_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# the named metrics each workload reports in its run record, with units
NAMED_UNITS = {
    "setup_s": "s", "derive_per_s": "1/s", "gibbs_sweeps_per_s": "1/s",
    "cavi_iters_per_s": "1/s", "rewrite_graphs_per_s": "1/s",
    "rewrite_ms_p50": "ms", "rewrite_ms_p90": "ms", "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


class Failed(Exception):
    pass


def child(mode, workload, seed, seconds, deadline):
    """Run one worker process to completion; its JSON result."""
    env = dict(os.environ, **PINNED_ENV)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Failed("time budget exhausted")
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload,
           str(seed), str(seconds)]
    try:
        proc = subprocess.run(cmd + [str(time.monotonic_ns())], env=env,
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise Failed(f"{mode} process of {workload} timed out")
    if proc.returncode != 0:
        raise Failed(f"{mode} process of {workload} exited "
                     f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_timed(workload, seed, seconds, deadline):
    setups = [child("setup", workload, seed, seconds, deadline)["setup_s"]
              for _ in range(SETUP_REPEATS)]
    res = child("timed", workload, seed, seconds, deadline)
    setups.append(res["metrics"]["setup_s"])
    res["metrics"]["setup_s"] = statistics.median(setups)
    res["record"].update(res.pop("extra"), setup_samples_s=setups,
                         setup_s=res["metrics"]["setup_s"],
                         peak_rss_mb=res["metrics"]["peak_rss_mb"])
    return res


def run_traced(workload, seed, seconds, deadline):
    res = child("traced", workload, seed, seconds, deadline)
    res["record"].update(res.pop("extra"), metrics=res["metrics"])
    return res


def result_line(attempted, failed, metrics, units):
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units}})


def save_record(record, trace):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / (f"run-{record['workload']}-seed{record['seed']}"
                      f"-trace{trace}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print("run-record " + json.dumps(record, sort_keys=True))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "symconj").is_dir():
        sys.exit(f"perfbench: no symconj sources under {ROOT / 'src'}")
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.workload == "all":
            return run_all(args, deadline)
        if args.trace:
            res = run_traced(args.workload, args.seed, args.seconds, deadline)
            units = {n: u for n, u, _ in PER_LAYER}
        else:
            res = run_timed(args.workload, args.seed, args.seconds, deadline)
            units = dict(END_TO_END)
    except Failed as exc:
        sys.exit(f"perfbench: {exc}")
    save_record(res["record"], args.trace)
    print(result_line(res["attempted"], res["failed"], res["metrics"], units))
    return 0


def run_all(args, deadline):
    """The three timed workloads in turn, with the named metrics of each."""
    deadline += BUDGET_S * (len(WORKLOADS) - 1)
    attempted = failed = 0
    merged = {}
    units = {}
    for w in WORKLOADS:
        res = run_timed(w, args.seed, args.seconds, deadline)
        save_record(res["record"], 0)
        attempted += res["attempted"]
        failed += res["failed"]
        for name, unit in NAMED_UNITS.items():
            if res["record"].get(name) is not None:
                merged[f"{w}.{name}"] = res["record"][name]
                units[f"{w}.{name}"] = unit
                print(f"{w:8s} {name:22s} {res['record'][name]:14.6g} {unit}")
    print(result_line(attempted, failed, merged, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
