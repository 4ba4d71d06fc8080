"""Rewrite corpus for the ``rewrite`` workload.

``draw_graph`` makes the same random draws as the soundness fuzzer of the
acceptance suite (criterion C05, ``TestSoundnessFuzz.random_graph``): at
most four nonnegative inputs of extent at most 4, expression trees of depth
at most 8, and an expansion-mass cap of 32. So a draw from one rng state
gives the same graph as C05 does.

With every graph node the generator also builds a numpy mirror of its
value. The soundness reference of a graph therefore comes from plain numpy
and never from ``symconj.graph.evaluate``.

The cost of canonicalizing a C05 graph is heavy-tailed: of C05's own 500
graphs, 311 fire no rule and take about 0.3 ms, while three fire
``distribute_einsum`` 190 to 610 times and take 2.5 to 15 s. Resampled from
that draw, graphs/s over a fresh draw per seed spread by 30 to 90 per cent
(quartile spread over ten seeds), far beyond any useful regression bound.
So the graph structures are one fixed draw: the first ``CORPUS_SIZE``
graphs C05 checks (structure seed 2024, C05's own). The benchmark seed
draws each graph's input values and the order of the pass. Canonicalizing
never reads input values, so the seed changes the correctness references
and not the rewrite work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from symconj import graph as G
from symconj.errors import GraphError

STRUCTURE_SEED = 2024  # the seed of C05's draw
CORPUS_SIZE = 150      # p90 keeps 15 graphs beyond it; 3 fire 100+ rules
MAX_MASS = 32          # C05's cap on the expansion mass of one node
MAX_DEPTH = 8
OPS = ["add", "sub", "mul", "div", "square", "log", "sqrt", "neg", "sum",
       "pow", "scale"]


@dataclass(frozen=True)
class CorpusGraph:
    graph: object          # TermGraph with a scalar output
    env: dict              # input name -> ndarray inside the declared support
    reference: float       # numpy-mirror value of the graph at ``env``


class _Node:
    """A graph handle with its numpy mirror."""

    __slots__ = ("h", "value")

    def __init__(self, h, value):
        self.h = h
        self.value = value


def draw_graph(rng):
    """One graph drawn as C05 draws it. Returns (graph, specs, mirror);
    ``mirror(env)`` computes the graph's value with numpy."""
    gb = G.GraphBuilder()
    n_inputs = int(rng.integers(1, 5))
    specs = []
    leaves = []
    for i in range(n_inputs):
        shape = tuple(int(d) for d in
                      rng.integers(1, 5, size=rng.integers(0, 3)))
        name = f"x{i}"
        specs.append((name, shape))
        leaves.append(_Node(gb.input(name, shape, "NONNEGATIVE"),
                            lambda env, name=name: env[name]))
    mass = {n.h.nid: 1 for n in leaves}

    def grow(depth):
        if depth >= MAX_DEPTH or rng.random() < 0.25:
            return leaves[int(rng.integers(len(leaves)))]
        op = rng.choice(OPS)
        a = grow(depth + 1)
        ma = mass.get(a.h.nid, 1)
        out = a
        if op in ("add", "sub", "mul"):
            b = grow(depth + 1)
            mb = mass.get(b.h.nid, 1)
            grown = ma + mb if op != "mul" else ma * mb
            if grown <= MAX_MASS:
                try:
                    if op == "add":
                        out = _Node(a.h + b.h,
                                    lambda env: a.value(env) + b.value(env))
                    elif op == "sub":
                        out = _Node(a.h - b.h,
                                    lambda env: a.value(env) - b.value(env))
                    else:
                        out = _Node(a.h * b.h,
                                    lambda env: a.value(env) * b.value(env))
                    mass[out.h.nid] = grown
                except GraphError:
                    out = a
        elif op == "div":
            b = grow(depth + 1)
            try:
                out = _Node(a.h / (G.square(b.h) + 0.5),
                            lambda env: a.value(env)
                            / (np.square(b.value(env)) + 0.5))
                mass[out.h.nid] = ma
            except GraphError:
                out = a
        elif op == "square":
            if ma * ma <= MAX_MASS:
                out = _Node(G.square(a.h), lambda env: np.square(a.value(env)))
                mass[out.h.nid] = ma * ma
        elif op == "log":
            out = _Node(G.log(G.square(a.h) + 0.5),
                        lambda env: np.log(np.square(a.value(env)) + 0.5))
            mass[out.h.nid] = 1
        elif op == "sqrt":
            out = _Node(G.sqrt(G.square(a.h) + 0.1),
                        lambda env: np.sqrt(np.square(a.value(env)) + 0.1))
            mass[out.h.nid] = 1
        elif op == "neg":
            out = _Node(-a.h, lambda env: -a.value(env))
            mass[out.h.nid] = ma
        elif op == "sum":
            if a.h.shape:
                out = _Node(G.sum_all(a.h), lambda env: np.sum(a.value(env)))
            mass[out.h.nid] = ma
        elif op == "pow":
            n = int(rng.integers(2, 4))
            if ma ** n <= MAX_MASS:
                out = _Node(a.h ** float(n),
                            lambda env: a.value(env) ** float(n))
                mass[out.h.nid] = ma ** n
        else:
            c = float(rng.uniform(-2, 2))
            out = _Node(c * a.h, lambda env: c * a.value(env))
            mass[out.h.nid] = ma
        return out

    top = grow(0)
    if top.h.shape != ():
        top = _Node(G.sum_all(top.h), lambda env, v=top.value: np.sum(v(env)))
    return gb.finish(top.h), specs, top.value


def draw_env(rng, specs):
    """Input values as C05 draws them: positive, inside NONNEGATIVE."""
    return {name: np.abs(rng.standard_normal(shape)) + 0.2
            for name, shape in specs}


def _reference(mirror, env):
    with np.errstate(all="ignore"):
        return float(mirror(env))


def structures(n=CORPUS_SIZE):
    """The first ``n`` graphs C05 checks: draws whose value at C05's own
    input values is not finite are skipped, as C05 skips them."""
    rng = np.random.default_rng(STRUCTURE_SEED)
    out = []
    while len(out) < n:
        g, specs, mirror = draw_graph(rng)
        if np.isfinite(_reference(mirror, draw_env(rng, specs))):
            out.append((g, specs, mirror))
    return out


def corpus(seed, n=CORPUS_SIZE):
    """The corpus of one run: the fixed structures in an order drawn from
    ``seed``, each with input values drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    items = structures(n)
    out = []
    for i in rng.permutation(len(items)):
        g, specs, mirror = items[i]
        while True:
            env = draw_env(rng, specs)
            ref = _reference(mirror, env)
            if np.isfinite(ref):
                break
        out.append(CorpusGraph(g, env, ref))
    return out
