"""Pinned structure of every derived graph of the bundled fixtures.

``data/derived_digests.json`` holds, for each fixture's canonical graph
and, for the reference models, each complete-conditional eta graph, each
marginal, and each multilinear energy, statistic and eta graph: the
sha256 of ``G.dump`` (``dump``), the structural hash of the output node
(``root``) and the input names in order (``inputs``). The test pins the
dump sha; on a mismatch it reports which changed graphs kept their
structure and were only renumbered. A change that alters derived forms on
purpose regenerates the file with

    PYTHONPATH=src python tests/test_derived_digests.py

and says so in CHANGES.md; it prints each key whose dump changed,
renumbered or restructured, before it writes, and for a changed
``*/canonical`` key the largest relative difference, scaled as C05
scales it, between the new form and ``direct_log_joint`` at
``example_args(0..2)``.
"""

import hashlib
import json
import os

from symconj import graph as G
from symconj.canonicalize import canonicalize
from symconj.conjugacy import (complete_conditional, marginalize,
                               multilinear_repr)
from symconj.models import fixture, fixtures

DATA = os.path.join(os.path.dirname(__file__), "data", "derived_digests.json")


def _record(g):
    return {"dump": hashlib.sha256(G.dump(g).encode()).hexdigest(),
            "root": g.structural_hashes()[g.output].hex(),
            "inputs": list(g.input_names)}


def derived_digests():
    out = {}
    for fx in fixtures():
        g = fx.graph()
        out[f"{fx.name}/canonical"] = _record(canonicalize(g).graph)
        for argnum, support in fx.latents:
            var = g.input_names[argnum]
            cc = complete_conditional(g, argnum, support)
            for desc, eg in sorted(cc.eta_graphs.items()):
                out[f"{fx.name}/conditional/{var}/{desc}"] = _record(eg)
            out[f"{fx.name}/marginal/{var}"] = _record(
                marginalize(g, argnum, support))
        if fx.latents:
            mr = multilinear_repr(g, argnums=[a for a, _ in fx.latents],
                                  supports=[s for _, s in fx.latents])
            out[f"{fx.name}/multilinear/energy"] = _record(mr.neg_energy)
            for blk in mr.blocks:
                for s in blk.stats:
                    key = f"{fx.name}/multilinear/{blk.name}/{s.descriptor}"
                    out[key + "/stat"] = _record(s.stat_graph)
                    out[key + "/eta"] = _record(s.eta_graph)
    return out


def classify_changes(want, got):
    """Keys of ``want`` whose dump changed in ``got``, split into those
    that kept their root hash (renumbered) and those that did not
    (restructured); a renumbered key whose inputs changed says so."""
    changed = [k for k in want
               if k in got and got[k]["dump"] != want[k]["dump"]]
    renumbered = [k if got[k]["inputs"] == want[k]["inputs"]
                  else k + " (inputs changed)" for k in changed
                  if got[k]["root"] == want[k]["root"]]
    restructured = [k for k in changed if got[k]["root"] != want[k]["root"]]
    return renumbered, restructured


def canonical_error(name):
    """The largest relative difference between a fixture's canonical form
    and its numpy mirror over ``example_args(0..2)``."""
    fx = fixture(name)
    form = canonicalize(fx.graph()).graph
    errs = []
    for seed in range(3):
        args = fx.example_args(seed)
        want = fx.direct_log_joint(args)
        got = float(G.evaluate(form, args))
        errs.append(abs(got - want) / max(1.0, abs(want)))
    return max(errs)


def test_derived_graphs_match_pinned_digests():
    with open(DATA) as f:
        want = json.load(f)
    got = derived_digests()
    assert sorted(got) == sorted(want)
    renumbered, restructured = classify_changes(want, got)
    assert not (renumbered or restructured), (
        f"derived graphs changed; same structure, renumbered: {renumbered}; "
        f"structure changed: {restructured}")


if __name__ == "__main__":
    got = derived_digests()
    want = {}
    if os.path.exists(DATA):
        with open(DATA) as f:
            want = json.load(f)
    renumbered, restructured = classify_changes(want, got)
    for title, keys in (("renumbered (same root)", renumbered),
                        ("restructured", restructured),
                        ("added", sorted(set(got) - set(want))),
                        ("removed", sorted(set(want) - set(got)))):
        print(f"{title}: {len(keys)}")
        for k in keys:
            name, kind = k.split("/")[:2]
            print(f"  {k}" + (f": largest relative difference "
                              f"{canonical_error(name):.1e} against "
                              f"direct_log_joint" if kind == "canonical"
                              else ""))
    with open(DATA, "w") as f:
        json.dump(got, f, indent=1, sort_keys=True)
        f.write("\n")
