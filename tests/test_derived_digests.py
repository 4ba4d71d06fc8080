"""Pinned structure of every derived graph of the bundled fixtures.

``data/derived_digests.json`` holds the sha256 of ``G.dump`` of each
fixture's canonical graph and, for the reference models, of each
complete-conditional eta graph, each marginal, and each multilinear
energy, statistic and eta graph. A change that alters derived forms on
purpose regenerates the file with

    PYTHONPATH=src python tests/test_derived_digests.py

and says so in CHANGES.md.
"""

import hashlib
import json
import os

from symconj import graph as G
from symconj.canonicalize import canonicalize
from symconj.conjugacy import (complete_conditional, marginalize,
                               multilinear_repr)
from symconj.models import fixtures

DATA = os.path.join(os.path.dirname(__file__), "data", "derived_digests.json")


def _sha(g):
    return hashlib.sha256(G.dump(g).encode()).hexdigest()


def derived_digests():
    out = {}
    for fx in fixtures():
        g = fx.graph()
        out[f"{fx.name}/canonical"] = _sha(canonicalize(g).graph)
        for argnum, support in fx.latents:
            var = g.input_names[argnum]
            cc = complete_conditional(g, argnum, support)
            for desc, eg in sorted(cc.eta_graphs.items()):
                out[f"{fx.name}/conditional/{var}/{desc}"] = _sha(eg)
            out[f"{fx.name}/marginal/{var}"] = _sha(
                marginalize(g, argnum, support))
        if fx.latents:
            mr = multilinear_repr(g, argnums=[a for a, _ in fx.latents],
                                  supports=[s for _, s in fx.latents])
            out[f"{fx.name}/multilinear/energy"] = _sha(mr.neg_energy)
            for blk in mr.blocks:
                for s in blk.stats:
                    key = f"{fx.name}/multilinear/{blk.name}/{s.descriptor}"
                    out[key + "/stat"] = _sha(s.stat_graph)
                    out[key + "/eta"] = _sha(s.eta_graph)
    return out


def test_derived_graphs_match_pinned_digests():
    with open(DATA) as f:
        want = json.load(f)
    got = derived_digests()
    assert sorted(got) == sorted(want)
    changed = [k for k in want if got[k] != want[k]]
    assert not changed, f"derived graphs changed: {changed}"


if __name__ == "__main__":
    with open(DATA, "w") as f:
        json.dump(derived_digests(), f, indent=1, sort_keys=True)
        f.write("\n")
