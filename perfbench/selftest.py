"""The benchmark's own tests. Run from the root of a checkout:

    python3 -m pytest perfbench/selftest.py

They check that the tracing wrappers see every rule firing, that two traced
runs with one seed repeat their exact counts and traces, and that
``BENCHMARK.json`` lists the metrics the benchmark reports.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

worker.import_symconj()

from symconj.canonicalize import canonicalize  # noqa: E402
from symconj.models import fixtures  # noqa: E402

from spans import Tracer  # noqa: E402


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == worker.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == worker.PER_LAYER


@pytest.mark.parametrize("fx", fixtures(), ids=lambda fx: fx.name)
def test_wrappers_see_every_firing(fx):
    g = fx.graph()
    log = []
    canonicalize(g, firing_log=log)
    tracer = Tracer()
    tracer.install()
    try:
        canonicalize(g)
    finally:
        tracer.uninstall()
    assert tracer.counts["pattern.apply_rule.applied"] == len(log)
    assert tracer.fired() == len(log)
    totals = tracer.layer_totals()
    assert totals["canonicalize.canonicalize"][0] == 1
    assert totals["pattern.apply_rule"][0] >= len(log)


def test_uninstall_restores_the_library():
    from symconj import graph
    originals = (graph.evaluate, graph.TermGraph.structural_hashes)
    tracer = Tracer()
    tracer.install()
    assert graph.evaluate is not originals[0]
    tracer.uninstall()
    assert (graph.evaluate, graph.TermGraph.structural_hashes) == originals


def traced_record(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=worker.ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
        check=True)
    lines = proc.stdout.splitlines()
    record = json.loads(next(line for line in lines
                             if line.startswith("run-record "))
                        .split(" ", 1)[1])
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    return record


@pytest.mark.parametrize("workload", ["derive", "infer", "rewrite"])
def test_traced_runs_repeat_exactly(workload):
    first = traced_record(workload, 3)
    second = traced_record(workload, 3)
    assert first["exact_counts"] == second["exact_counts"]
    assert first["trace_digests"] == second["trace_digests"]
    if workload == "infer":
        assert len(first["trace_digests"]) == 12
