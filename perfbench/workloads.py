"""The three workloads: one per way the engine is used.

Each workload is a closed loop: one caller makes synchronous library calls,
and the next operation starts when the previous one returns. A workload
object does its set-up in ``__init__``, lists one cycle of operation keys in
``cycle``, runs one operation in ``run`` (the timed part) and checks that
operation's output in ``check`` (untimed). ``check`` returns False or
raises when the output is wrong.

Per-fixture costs differ up to 17x, so each cycle repeats every fixture a
fixed number of times, chosen so that each fixture takes about an equal
share of a cycle at the commit that defined the benchmark (measured on a
2-core x86-64 virtual machine). Otherwise the light fixtures vanish from
the rates.
"""

from __future__ import annotations

import io

import numpy as np
from scipy import special as sp

from symconj import graph as G
from symconj.canonicalize import canonicalize, is_canonical
from symconj.conjugacy import (complete_conditional, marginalize,
                               multilinear_repr)
from symconj.inference import (cavi_update, elbo, init_meanfield, make_gibbs,
                               run_gibbs)
from symconj.models import fixture, make_kalman_marginal

import corpus

REFERENCE = ("beta_bernoulli", "normal_gamma", "logistic_jj", "kalman",
             "factor_analysis", "gmm")
KALMAN_MARGINAL = "kalman_marginal"
KALMAN_T = 10

# operations per cycle; a derive cycle takes about 3.5 s, an infer cycle
# about 0.45 s
DERIVE_COUNTS = {"beta_bernoulli": 14, "normal_gamma": 2, "logistic_jj": 3,
                 "kalman": 3, "factor_analysis": 3, "gmm": 2,
                 KALMAN_MARGINAL: 4}
GIBBS_COUNTS = {"beta_bernoulli": 80, "normal_gamma": 30, "logistic_jj": 9,
                "kalman": 45, "factor_analysis": 9, "gmm": 5}
CAVI_COUNTS = {"beta_bernoulli": 100, "normal_gamma": 27, "logistic_jj": 8,
               "kalman": 32, "factor_analysis": 7, "gmm": 5}


def round_robin(counts):
    """(name, kind) keys taking one operation from each entry in turn
    until every entry has had its count. ``counts`` maps (name, kind) to
    a count."""
    left = dict(counts)
    keys = []
    while left:
        for key in list(left):
            keys.append(key)
            left[key] -= 1
            if not left[key]:
                del left[key]
    return keys


def close(got, want, rel):
    return abs(got - want) <= rel * max(1.0, abs(want))


def _split(fx, g, values):
    latents = [g.input_names[a] for a, _ in fx.latents]
    data = {k: v for k, v in values.items() if k not in latents}
    return latents, data


class Derive:
    """Compile phase: every transform of one reference fixture per
    operation, plus building the Kalman filter's evidence function."""

    name = "derive"

    def __init__(self, seed):
        self.fixtures = {n: fixture(n) for n in REFERENCE}
        self.graphs = {n: fx.graph() for n, fx in self.fixtures.items()}
        self.args = {n: fx.example_args(seed)
                     for n, fx in self.fixtures.items()}
        rng = np.random.default_rng(seed)
        self.kalman_inputs = [
            (rng.standard_normal(KALMAN_T), rng.uniform(0.5, 2.0),
             rng.uniform(0.5, 2.0)) for _ in range(3)]

    def cycle(self):
        return round_robin({(n, "derive"): c
                            for n, c in DERIVE_COUNTS.items()})

    def run(self, key):
        name = key[0]
        if name == KALMAN_MARGINAL:
            return make_kalman_marginal()
        fx, g = self.fixtures[name], self.graphs[name]
        factories = {g.input_names[a]: complete_conditional(g, a, s)
                     for a, s in fx.latents}
        marginals = [marginalize(g, a, s) for a, s in fx.latents]
        mrepr = multilinear_repr(g, argnums=[a for a, _ in fx.latents],
                                 supports=[s for _, s in fx.latents])
        return factories, marginals, mrepr

    def check(self, key, out):
        name = key[0]
        if name == KALMAN_MARGINAL:
            return all(close(out(ys, xs, ysd), kalman_evidence(ys, xs, ysd),
                             1e-8) for ys, xs, ysd in self.kalman_inputs)
        fx, g, args = self.fixtures[name], self.graphs[name], self.args[name]
        factories, marginals, mrepr = out
        families = {v: f.family.name for v, f in factories.items()}
        if families != fx.expected_families:
            return False
        latents, data = _split(fx, g, args)
        got = float(mrepr.reconstruct({v: args[v] for v in latents}, data))
        if not close(got, fx.direct_log_joint(args), 1e-10):
            return False
        if name == "beta_bernoulli":
            a, b = args["prior_a"], args["prior_b"]
            h, n = args["n_heads"], args["n_draws"]
            want = sp.betaln(a + h, b + n - h) - sp.betaln(a, b)
            return close(float(G.evaluate(marginals[0], data)), want, 1e-8)
        return True


def kalman_evidence(ys, x_scale, y_scale):
    """log p(y_1:T) of the random-walk chain from its joint covariance:
    x_1 ~ N(0, 1), x_t ~ N(x_t-1, x_scale^2), y_t ~ N(x_t, y_scale^2)."""
    t = len(ys)
    cov = np.fromfunction(lambda i, j: 1.0 + np.minimum(i, j) * x_scale ** 2,
                          (t, t)) + y_scale ** 2 * np.eye(t)
    _, logdet = np.linalg.slogdet(cov)
    return float(-0.5 * ys @ np.linalg.solve(cov, ys) - 0.5 * logdet
                 - 0.5 * t * np.log(2 * np.pi))


class _Chain:
    """One fixture's compiled Gibbs chain and CAVI state."""

    def __init__(self, name, seed):
        self.fx = fixture(name)
        self.g = self.fx.graph()
        values = self.fx.example_args(0)
        latents, self.data = _split(self.fx, self.g, values)
        init = {k: values[k] for k in latents}
        self.gibbs = make_gibbs(self.g, self.fx.latents, init, self.data,
                                seed=seed)
        self.mrepr = multilinear_repr(
            self.g, argnums=[a for a, _ in self.fx.latents],
            supports=[s for _, s in self.fx.latents])
        self.cavi = init_meanfield(self.mrepr, self.data, init_values=init)
        self.elbo = elbo(self.cavi)
        self.cavi_iter = 0
        self.gibbs_trace = io.StringIO()
        self.cavi_trace = io.StringIO()


class Infer:
    """Run phase: one Gibbs sweep or one CAVI iteration per operation, on
    factories and representations compiled in set-up. CAVI takes a fixed
    number of iterations, never stopping on tolerance, so the work of an
    operation does not depend on convergence."""

    name = "infer"

    def __init__(self, seed):
        self.chains = {n: _Chain(n, seed) for n in REFERENCE}

    def cycle(self):
        counts = {}
        for n in REFERENCE:
            counts[(n, "gibbs")] = GIBBS_COUNTS[n]
            counts[(n, "cavi")] = CAVI_COUNTS[n]
        return round_robin(counts)

    def run(self, key):
        ch = self.chains[key[0]]
        if key[1] == "gibbs":
            trace, ch.gibbs = run_gibbs(ch.g, ch.gibbs, 1, sink=ch.gibbs_trace)
            return trace[-1][1]
        state = ch.cavi
        for blk in ch.mrepr.blocks:
            state = cavi_update(state, blk.name)
        ch.cavi = state
        return elbo(state)

    def check(self, key, value):
        ch = self.chains[key[0]]
        if key[1] == "gibbs":
            env = dict(ch.data)
            env.update(ch.gibbs.values)
            return close(value, ch.fx.direct_log_joint(env), 1e-10)
        ch.cavi_iter += 1
        ch.cavi_trace.write(f"{ch.cavi_iter}\t{value!r}\n")
        ok = value - ch.elbo >= -1e-9 * max(1.0, abs(ch.elbo))
        ch.elbo = value
        return ok

    def traces(self):
        """The Gibbs and CAVI ``iter<TAB>value`` traces, per fixture."""
        return {f"{n}.{kind}": getattr(ch, kind + "_trace").getvalue()
                for n, ch in self.chains.items() for kind in ("gibbs", "cavi")}


class Rewrite:
    """Canonicalize one graph of the C05-distributed corpus per
    operation. A cycle is one pass, and each graph is canonicalized once
    per run, so no operation repeats another's input."""

    name = "rewrite"

    def __init__(self, seed):
        self.graphs = corpus.corpus(seed)

    def cycle(self):
        return [(i, "canonicalize") for i in range(len(self.graphs))]

    def run(self, key):
        return canonicalize(self.graphs[key[0]].graph)

    def check(self, key, cf):
        item = self.graphs[key[0]]
        return (is_canonical(cf.graph) and close(
            float(G.evaluate(cf.graph, item.env)), item.reference, 1e-10))


WORKLOADS = {w.name: w for w in (Derive, Infer, Rewrite)}
