"""One workload process: ``worker.py MODE WORKLOAD SEED SECONDS LAUNCH_NS``.

``run.py`` starts it with the BLAS and OpenMP pools pinned to one thread.
``LAUNCH_NS`` is the launcher's ``time.monotonic_ns()`` just before the
start, so set-up time runs from process start to the first timed
operation. The process prints one JSON object as its last line. Modes:

- ``setup``: import and set up the workload, then report set-up time.
- ``timed``: set up, then run cycles of operations until ``SECONDS`` have
  passed (a rewrite run is one pass over its corpus), and report the
  end-to-end metrics. Nothing is traced.
- ``traced``: set up traced, then run a fixed number of cycles untraced
  and as many traced, alternating; time the CLI once, and report the
  per-layer metrics. The work is fixed, so the exact counts repeat.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
TRACED_CYCLES = {"derive": 2, "infer": 4, "rewrite": 1}
CLI_ARGS = ["infer", "gmm", "--algo", "cavi", "--iters", "100"]
CLI_TIMEOUT_S = 60

REFERENCE = ("beta_bernoulli", "normal_gamma", "logistic_jj", "kalman",
             "factor_analysis", "gmm")
RULES = ("distribute_einsum", "log_product", "log_reciprocal", "log_sqrt",
         "log_power")


def _per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    m = [("import.symconj_s", "s", "lower"),
         ("models.build.ms", "ms", "lower")]

    def calls_and(layer, *parts):
        m.append((layer + ".calls", "count", "lower"))
        for part in parts:
            unit = "ms" if part.endswith("ms") else "count"
            m.append((f"{layer}.{part}", unit, "lower"))

    calls_and("graph.evaluate", "self_ms", "nodes")
    calls_and("graph.grad", "ms", "nodes_out")
    for f in ("cse", "splice", "structural_hashes"):
        calls_and("graph." + f, "ms")
    calls_and("tensor.einsum", "ms")
    m += [("tensor.einsum.flops", "flop", "lower"),
          ("tensor.einsum.bytes", "B", "lower")]
    calls_and("tensor.map_unary", "ms")
    calls_and("pattern.apply_rule", "applied", "ms")
    m.append(("pattern.apply_rule.hit_ratio", "ratio", "higher"))
    calls_and("canonicalize.canonicalize", "ms")
    calls_and("canonicalize.normalize_graph", "ms")
    calls_and("canonicalize.local_simplify", "self_ms")
    m += [("canonicalize.fired." + r, "count", "lower") for r in RULES]
    m += [("canonicalize." + k, "count", "lower")
          for k in ("nodes_in", "nodes_out", "monomials")]
    for f in ("complete_conditional", "marginalize", "multilinear_repr",
              "find_sufficient_statistics", "extract_natural_parameters"):
        calls_and("conjugacy." + f, "ms")
    m += [("conjugacy.eta_nodes", "count", "lower"),
          ("conjugacy.eta_const_elems", "count", "lower")]
    for f in ("sample", "mean_params", "log_normalizer", "check_domain"):
        calls_and("expfam." + f, "ms")
    for f in ("gibbs_sweep", "cavi_update", "elbo"):
        calls_and("inference." + f, "self_ms")
    m += [("inference.make_gibbs.ms", "ms", "lower"),
          ("inference.init_meanfield.ms", "ms", "lower"),
          ("cli.infer_gmm_cavi_s", "s", "lower")]
    m += [(f"derive.{n}.ms", "ms", "lower")
          for n in REFERENCE + ("kalman_marginal",)]
    m += [(f"infer.{n}.{k}", "ms", "lower")
          for n in REFERENCE for k in ("gibbs_sweep_ms", "cavi_iter_ms")]
    m += [("rewrite.graphs_no_firing", "count", "higher"),
          ("rewrite.graphs_100plus_firings", "count", "lower"),
          ("rewrite.top3_time_share", "ratio", "lower"),
          ("calibration.py_ms", "ms", "lower"),
          ("calibration.np_ms", "ms", "lower"),
          ("trace.untraced_ops_per_s", "1/s", "higher"),
          ("trace.traced_ops_per_s", "1/s", "higher"),
          ("trace.overhead_pct", "%", "lower")]
    return m


PER_LAYER = _per_layer_metrics()
END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms_p50", "ms"),
              ("op_ms_p90", "ms"), ("peak_rss_mb", "MB")]


def import_symconj():
    """Import the engine from the checkout's ``src``; seconds taken."""
    src = ROOT / "src"
    if not (src / "symconj" / "__init__.py").is_file():
        sys.exit(f"perfbench: no symconj sources under {src}")
    sys.path.insert(0, str(src))
    t = time.perf_counter()
    import symconj  # noqa: F401
    return time.perf_counter() - t


def calibrate():
    """Medians of five runs of a pure-Python loop and a numpy einsum
    loop, in ms, so readers can tell machine drift from a change."""
    import numpy as np
    a = np.random.default_rng(0).standard_normal((64, 64))
    py, npy = [], []
    for _ in range(5):
        t = time.perf_counter()
        s = 0
        for i in range(300_000):
            s += i * i % 7
        py.append((time.perf_counter() - t) * 1e3)
        t = time.perf_counter()
        for _ in range(100):
            np.einsum("ij,jk->ik", a, a)
        npy.append((time.perf_counter() - t) * 1e3)
    return statistics.median(py), statistics.median(npy)


def measure(wl, seconds=None, cycles=None, tracer=None):
    """Run cycles of operations until ``cycles`` are done or ``seconds``
    have passed. Returns (monotonic ns at the first operation, records),
    a record being (key, ms, ok, rules fired while traced)."""
    records = []
    first_ns = None
    deadline = time.perf_counter() + (seconds or 0)
    done = 0
    while True:
        for key in wl.cycle():
            if tracer is not None:
                tracer.op += 1
                tracer.active = True
                fired_before = tracer.fired()
            if first_ns is None:
                first_ns = time.monotonic_ns()
            t0 = time.perf_counter_ns()
            try:
                out, ran = wl.run(key), True
            except Exception:  # a failed operation counts; the run goes on
                out, ran = traceback.format_exc(), False
            ms = (time.perf_counter_ns() - t0) / 1e6
            fired = 0
            if tracer is not None:
                tracer.active = False
                fired = tracer.fired() - fired_before
            ok = False
            if not ran:
                sys.stderr.write(out)
            else:
                try:
                    ok = bool(wl.check(key, out))
                except Exception:  # a failed check counts the same way
                    traceback.print_exc()
            records.append((key, ms, ok, fired))
        done += 1
        if cycles is not None:
            if done >= cycles:
                break
        elif time.perf_counter() >= deadline:
            break
    return first_ns, records


def rates(wl, records):
    """Per-key median times and, from them, rates and percentiles over
    the weighted mix of one cycle. Medians make a stray slow operation
    harmless, and each key keeps its share of the mix. Returns
    ({kind or None: operations per second}, {key: median ms},
    {q: ms at percentile q})."""
    samples = defaultdict(list)
    for key, ms, _, _ in records:
        samples[key].append(ms)
    weight = Counter(wl.cycle())
    med = {k: statistics.median(v) for k, v in samples.items()}
    out = {}
    for kind in [None] + sorted({k[1] for k in med}):
        keys = [k for k in med if kind is None or k[1] == kind]
        out[kind] = 1e3 * (sum(weight[k] for k in keys)
                           / sum(weight[k] * med[k] for k in keys))
    return out, med, {q: weighted_percentile(med, weight, q)
                      for q in (50, 90)}


def weighted_percentile(med, weight, q):
    """The median time of the key holding the q-th percentile operation
    when every operation of a key takes that key's median time. Unlike a
    percentile of raw times, it never falls between two keys whose times
    differ tenfold, where noise would decide which side it lands on."""
    total = sum(weight.values())
    seen = 0
    for k in sorted(med, key=med.get):
        seen += weight[k]
        if seen >= q / 100 * total:
            return med[k]


def timed(name, seed, seconds, launch_ns):
    from workloads import WORKLOADS
    wl = WORKLOADS[name](seed)
    single_pass = name == "rewrite"
    first_ns, records = measure(wl, seconds=None if single_pass else seconds,
                                cycles=1 if single_pass else None)
    setup_s = (first_ns - launch_ns) / 1e9
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    py_ms, np_ms = calibrate()
    per_kind, med, pct = rates(wl, records)
    failed = sum(not r[2] for r in records)
    metrics = {"setup_s": setup_s, "ops_per_s": per_kind[None],
               "op_ms_p50": pct[50], "op_ms_p90": pct[90],
               "peak_rss_mb": peak_mb}
    named = {"derive": {"derive_per_s": per_kind[None]},
             "infer": {"gibbs_sweeps_per_s": per_kind.get("gibbs"),
                       "cavi_iters_per_s": per_kind.get("cavi")},
             "rewrite": {"rewrite_graphs_per_s": per_kind[None],
                         "rewrite_ms_p50": metrics["op_ms_p50"],
                         "rewrite_ms_p90": metrics["op_ms_p90"]}}[name]
    extra = dict(named, error_rate=failed / len(records),
                 samples=len(records), calibration_py_ms=py_ms,
                 calibration_np_ms=np_ms)
    if not single_pass:
        extra["key_median_ms"] = {"/".join(k): v for k, v in med.items()}
    return {"attempted": len(records), "failed": failed, "metrics": metrics,
            "extra": extra}


def _cli_seconds():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "symconj.cli"] + CLI_ARGS,
                          cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          timeout=CLI_TIMEOUT_S)
    elapsed = time.perf_counter() - t
    if proc.returncode != 0:
        sys.exit(f"perfbench: symconj cli exited {proc.returncode}")
    return elapsed


def traced_run(name, seed, import_s):
    """Per-layer metrics, exact counts and the Gibbs/CAVI trace digests."""
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    tracer.install()
    try:
        wl = WORKLOADS[name](seed)
    finally:
        tracer.uninstall()
    # untraced and traced cycles alternate in ABBA order, so warm-up and
    # machine drift fall on both sides alike
    plain, records = [], []
    for i in range(TRACED_CYCLES[name]):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced:
                plain += measure(wl, cycles=1)[1]
                continue
            tracer.install()
            try:
                records += measure(wl, cycles=1, tracer=tracer)[1]
            finally:
                tracer.uninstall()
    plain_rate, plain_med, _ = rates(wl, plain)
    traced_rate, _, _ = rates(wl, records)

    m = dict.fromkeys((n for n, _, _ in PER_LAYER), 0.0)
    m["import.symconj_s"] = import_s
    for span, (calls, incl_ms, self_ms) in tracer.layer_totals().items():
        m[span + ".calls"] = calls
        m[span + ".ms"] = incl_ms
        m[span + ".self_ms"] = self_ms
    m.update(tracer.counts)
    applied = m["pattern.apply_rule.applied"]
    calls = m["pattern.apply_rule.calls"]
    m["pattern.apply_rule.hit_ratio"] = applied / calls if calls else 0.0
    for (fx, kind), v in plain_med.items():
        if name == "derive":
            m[f"derive.{fx}.ms"] = v
        elif name == "infer":
            m[f"infer.{fx}." + {"gibbs": "gibbs_sweep_ms",
                                "cavi": "cavi_iter_ms"}[kind]] = v
    if name == "rewrite":
        fired = [r[3] for r in records]
        times = sorted((r[1] for r in plain), reverse=True)
        m["rewrite.graphs_no_firing"] = sum(f == 0 for f in fired)
        m["rewrite.graphs_100plus_firings"] = sum(f >= 100 for f in fired)
        m["rewrite.top3_time_share"] = sum(times[:3]) / sum(times)
    m["cli.infer_gmm_cavi_s"] = _cli_seconds()
    m["calibration.py_ms"], m["calibration.np_ms"] = calibrate()
    m["trace.untraced_ops_per_s"] = plain_rate[None]
    m["trace.traced_ops_per_s"] = traced_rate[None]
    m["trace.overhead_pct"] = 100 * (plain_rate[None] / traced_rate[None] - 1)
    known = {n for n, _, _ in PER_LAYER}
    metrics = {k: v for k, v in m.items() if k in known}

    digests = {}
    if name == "infer":
        digests = {k: hashlib.sha256(v.encode()).hexdigest()
                   for k, v in wl.traces().items()}
    exact = {k: v for k, v in tracer.counts.items()}
    exact.update({k: metrics[k] for k in metrics if k.endswith(".calls")})
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.tsv.gz")
    all_records = plain + records
    failed = sum(not r[2] for r in all_records)
    return {"attempted": len(all_records), "failed": failed,
            "metrics": metrics,
            "extra": {"exact_counts": exact, "trace_digests": digests,
                      "spans": len(tracer.spans)}}


def main(argv):
    mode, name, seed, seconds, launch_ns = argv
    seed, seconds, launch_ns = int(seed), float(seconds), int(launch_ns)
    import_s = import_symconj()
    if mode == "setup":
        from workloads import WORKLOADS
        WORKLOADS[name](seed)
        result = {"setup_s": (time.monotonic_ns() - launch_ns) / 1e9}
    elif mode == "timed":
        result = timed(name, seed, seconds, launch_ns)
    elif mode == "traced":
        result = traced_run(name, seed, import_s)
    else:
        sys.exit(f"perfbench: unknown mode {mode!r}")
    import numpy
    import scipy
    result["record"] = {
        "workload": name, "mode": mode, "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__}
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
