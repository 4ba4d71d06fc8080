"""Pinned Gibbs and CAVI traces of the six reference fixtures.

``data/trace_digests.json`` holds, per reference fixture, the sha256 of
the trace sink text (``iter<TAB>repr(value)`` lines) of 20 Gibbs sweeps
(``make_gibbs`` seed 0) and of 20 CAVI iterations (``tol=0``, so every
iteration runs), both started from ``example_args(0)``. A change that
must leave inference byte-identical keeps these digests; one that alters
traces on purpose regenerates the file with

    PYTHONPATH=src python tests/test_trace_digests.py

and says so in CHANGES.md; it prints each key whose digest changed before
it writes.
"""

import hashlib
import io
import json
import os

import pytest

from symconj.conjugacy import multilinear_repr
from symconj.inference import make_gibbs, run_cavi, run_gibbs
from symconj.models import fixture

DATA = os.path.join(os.path.dirname(__file__), "data", "trace_digests.json")
REFERENCE = ("beta_bernoulli", "normal_gamma", "logistic_jj", "kalman",
             "factor_analysis", "gmm")
ITERS = 20


def trace_digests(name):
    fx = fixture(name)
    g = fx.graph()
    values = fx.example_args(0)
    latents = [g.input_names[a] for a, _ in fx.latents]
    data = {k: v for k, v in values.items() if k not in latents}
    init = {k: values[k] for k in latents}
    gibbs, cavi = io.StringIO(), io.StringIO()
    state = make_gibbs(g, fx.latents, init, data, seed=0)
    run_gibbs(g, state, ITERS, sink=gibbs)
    mrepr = multilinear_repr(g, argnums=[a for a, _ in fx.latents],
                             supports=[s for _, s in fx.latents])
    run_cavi(mrepr, data, init_values=init, max_iters=ITERS, tol=0.0,
             sink=cavi)
    return {f"{name}/{kind}": hashlib.sha256(sink.getvalue().encode()).hexdigest()
            for kind, sink in (("gibbs", gibbs), ("cavi", cavi))}


def all_trace_digests():
    out = {}
    for name in REFERENCE:
        out.update(trace_digests(name))
    return out


@pytest.mark.parametrize("name", REFERENCE)
def test_traces_match_pinned_digests(name):
    with open(DATA) as f:
        want = json.load(f)
    got = trace_digests(name)
    assert got == {k: want[k] for k in got}


def test_pin_covers_the_reference_fixtures():
    with open(DATA) as f:
        want = json.load(f)
    assert sorted(want) == sorted(
        f"{n}/{kind}" for n in REFERENCE for kind in ("gibbs", "cavi"))


if __name__ == "__main__":
    got = all_trace_digests()
    want = {}
    if os.path.exists(DATA):
        with open(DATA) as f:
            want = json.load(f)
    changed = sorted(k for k in got if k in want and got[k] != want[k])
    for title, keys in (("changed", changed),
                        ("added", sorted(set(got) - set(want))),
                        ("removed", sorted(set(want) - set(got)))):
        print(f"{title}: {len(keys)}")
        for k in keys:
            print(f"  {k}")
    with open(DATA, "w") as f:
        json.dump(got, f, indent=1, sort_keys=True)
        f.write("\n")
