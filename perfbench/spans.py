"""Span tracing from outside the program, for the traced benchmark run.

``Tracer.install`` replaces each traced function with a wrapper in every
loaded module that holds it: ``canonicalize`` imports ``apply_rule`` by
name, ``conjugacy`` imports ``canonicalize``, ``normalize_graph`` and
``grad`` by name, the package re-exports most of them, and the benchmark's
own workloads import the transforms by name. Methods are wrapped on their
class. Nothing under ``src/`` changes.

Each call records one span: name, start, end, parent span and operation id.
Spans stay in memory until the run ends. A span's self time is its duration
minus the time its child spans cover. The process is single-threaded, so
children never overlap and the layers never wait on each other.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
import types
from collections import Counter

import numpy as np

SETUP_OP = -1   # operation id of spans recorded during set-up; the
                # benchmark numbers its operations 0, 1, ... from there


def _einsum_cost(spec, operands, out):
    """Multiply-adds of the nested-loop definition and bytes touched,
    computed from operand shapes."""
    formula = spec if isinstance(spec, str) else spec.formula
    lhs = formula.split("->")[0].split(",")
    extents = {}
    nbytes = out.nbytes
    for subs, op in zip(lhs, operands):
        op = np.asarray(op)
        nbytes += op.nbytes
        extents.update(zip(subs, op.shape))
    points = 1
    for d in extents.values():
        points *= d
    return 2 * max(1, len(lhs) - 1) * points, nbytes


def _eta_size(etas):
    from symconj.graph import ConstNode
    nodes = consts = 0
    for g in etas.values():
        nodes += len(g.nodes)
        consts += sum(n.value.size for n in g.nodes
                      if isinstance(n, ConstNode))
    return nodes, consts


class Tracer:
    """Records spans and exact counters while installed."""

    def __init__(self):
        self.spans = []        # [name, start_ns, end_ns, parent, op]
        self.counts = Counter()
        self.op = SETUP_OP
        self.active = True     # False while the benchmark checks outputs
        self._stack = []
        self._undo = []

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0, 0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        return span

    def _close(self, span):
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """A wrapper recording one span per call; ``after(result, args,
        kwargs)`` updates counters once the call returns."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(result, args, kwargs)
            return result
        return traced

    def _wrap_normalize(self, fn):
        # every rule firing happens inside normalize_graph; its firing log
        # counts them independently of the apply_rule wrapper
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            caller_log = bound.arguments.get("firing_log")
            log = []
            bound.arguments["firing_log"] = log
            span = self._open("canonicalize.normalize_graph")
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                self._close(span)
            self.counts.update("canonicalize.fired." + r for r in log)
            if caller_log is not None:
                caller_log.extend(log)
            return result
        return traced

    # -- installation -------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for mod in list(sys.modules.values()):
            if not isinstance(mod, types.ModuleType):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _replace_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        # the package re-exports a function named canonicalize, which
        # hides the submodule of that name from attribute imports
        (canonicalize, conjugacy, expfam, graph, inference, models, pattern,
         tensor) = (importlib.import_module("symconj." + m) for m in (
             "canonicalize", "conjugacy", "expfam", "graph", "inference",
             "models", "pattern", "tensor"))
        c = self.counts

        def count(key, amount=1):
            c[key] += amount

        def einsum_after(out, args, kwargs):
            flops, nbytes = _einsum_cost(args[0], args[1], out)
            count("tensor.einsum.flops", flops)
            count("tensor.einsum.bytes", nbytes)

        def canon_after(cf, args, kwargs):
            count("canonicalize.nodes_in", len(args[0].nodes))
            count("canonicalize.nodes_out", len(cf.graph.nodes))
            count("canonicalize.monomials", len(cf.monomials))

        def eta_after(etas, args, kwargs):
            nodes, consts = _eta_size(etas)
            count("conjugacy.eta_nodes", nodes)
            count("conjugacy.eta_const_elems", consts)

        functions = [
            (graph.evaluate, "graph.evaluate",
             lambda out, a, k: count("graph.evaluate.nodes", len(a[0].nodes))),
            (graph.grad, "graph.grad",
             lambda out, a, k: count("graph.grad.nodes_out", len(out.nodes))),
            (graph.cse, "graph.cse", None),
            (graph.splice, "graph.splice", None),
            (tensor.einsum, "tensor.einsum", einsum_after),
            (tensor.map_unary, "tensor.map_unary", None),
            (pattern.apply_rule, "pattern.apply_rule",
             lambda out, a, k: count("pattern.apply_rule.applied",
                                     int(out[1]))),
            (canonicalize.canonicalize, "canonicalize.canonicalize",
             canon_after),
            (canonicalize.local_simplify, "canonicalize.local_simplify", None),
            (conjugacy.complete_conditional, "conjugacy.complete_conditional",
             None),
            (conjugacy.marginalize, "conjugacy.marginalize", None),
            (conjugacy.multilinear_repr, "conjugacy.multilinear_repr", None),
            (conjugacy.find_sufficient_statistics,
             "conjugacy.find_sufficient_statistics", None),
            (conjugacy.extract_natural_parameters,
             "conjugacy.extract_natural_parameters", eta_after),
            (inference.gibbs_sweep, "inference.gibbs_sweep", None),
            (inference.cavi_update, "inference.cavi_update", None),
            (inference.elbo, "inference.elbo", None),
            (inference.make_gibbs, "inference.make_gibbs", None),
            (inference.init_meanfield, "inference.init_meanfield", None),
        ]
        for fn, name, after in functions:
            self._replace_everywhere(fn, self.wrap(name, fn, after))
        norm = canonicalize.normalize_graph
        self._replace_everywhere(norm, self._wrap_normalize(norm))

        self._replace_method(
            graph.TermGraph, "structural_hashes",
            self.wrap("graph.structural_hashes",
                      graph.TermGraph.structural_hashes))
        self._replace_method(models.ModelFixture, "graph",
                             self.wrap("models.build",
                                       models.ModelFixture.graph))
        families = [cls for cls in vars(expfam).values()
                    if isinstance(cls, type)
                    and issubclass(cls, expfam.FamilySpec)]
        for cls in families:
            for attr in ("sample", "mean_params", "log_normalizer",
                         "check_domain"):
                if attr in cls.__dict__:
                    self._replace_method(
                        cls, attr,
                        self.wrap("expfam." + attr, cls.__dict__[attr]))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def fired(self):
        """Rule firings counted so far."""
        return sum(v for k, v in self.counts.items()
                   if k.startswith("canonicalize.fired."))

    def layer_totals(self):
        """Per span name: calls, inclusive ms and self ms. Inclusive time
        counts only spans with no ancestor of the same name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = Counter()
        incl = Counter()
        self_ns = Counter()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                incl[name] += end - start
        return {name: (calls[name], incl[name] / 1e6, self_ns[name] / 1e6)
                for name in calls}

    def write(self, path):
        """Write the spans as tab-separated text, one per line."""
        with gzip.open(path, "wt") as f:
            f.write("index\tname\tstart_ns\tend_ns\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{op}\n")
