"""Pinned canonical forms of the rewrite corpus.

``data/corpus_digests.json`` holds the sha256 of ``G.dump`` of the
canonical form of each of the first 150 graphs C05 checks: the graphs
``TestSoundnessFuzz.random_graph`` draws at structure seed 2024, skipping
those whose value at C05's input values is not finite, as C05 does. A
change to how the canonicalizer builds its graphs must leave every form
byte-identical. A change that alters forms on purpose regenerates the file
with

    PYTHONPATH=src:perfbench python tests/test_corpus_digests.py

and says so in CHANGES.md; before it writes, it lists each changed
position with the largest relative difference, scaled as C05 scales it,
between the new form and the original graph at C05's input values.
"""

import hashlib
import json
import os

import numpy as np

from symconj import graph as G
from symconj.canonicalize import canonicalize
from symconj.errors import SymconjError

import test_canonicalize

DATA = os.path.join(os.path.dirname(__file__), "data", "corpus_digests.json")
STRUCTURE_SEED = 2024
COUNT = 150


def corpus_graphs(n=COUNT):
    """The first ``n`` graphs C05 checks, drawn as C05 draws them, each
    with the input values C05 checks it at."""
    rng = np.random.default_rng(STRUCTURE_SEED)
    out = []
    while len(out) < n:
        g, specs = test_canonicalize.TestSoundnessFuzz.random_graph(rng)
        env = {nm: np.abs(rng.standard_normal(sh)) + 0.2 for nm, sh in specs}
        try:
            v0 = float(G.evaluate(g, env))
        except SymconjError:
            continue
        if np.isfinite(v0):
            out.append((g, env))
    return out


def digest(g):
    return hashlib.sha256(G.dump(g).encode()).hexdigest()


def corpus_digests():
    return [digest(canonicalize(g).graph) for g, _ in corpus_graphs()]


def test_corpus_canonical_forms_match_pinned_digests():
    with open(DATA) as f:
        want = json.load(f)
    got = corpus_digests()
    assert len(got) == len(want) == COUNT
    changed = [i for i, (a, b) in enumerate(zip(want, got)) if a != b]
    assert not changed, f"canonical forms changed at positions {changed}"


if __name__ == "__main__":
    want = []
    if os.path.exists(DATA):
        with open(DATA) as f:
            want = json.load(f)
    cases = corpus_graphs()
    forms = [canonicalize(g).graph for g, _ in cases]
    got = [digest(form) for form in forms]
    changed = [i for i, (a, b) in enumerate(zip(want, got)) if a != b]
    print(f"changed: {len(changed)}")
    for i in changed:
        (g, env), form = cases[i], forms[i]
        v0, v1 = float(G.evaluate(g, env)), float(G.evaluate(form, env))
        print(f"  {i}: largest relative difference "
              f"{abs(v0 - v1) / max(1.0, abs(v0)):.1e}")
    with open(DATA, "w") as f:
        json.dump(got, f, indent=1)
        f.write("\n")
