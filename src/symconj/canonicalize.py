"""Rewrite strategy turning a scalar log-density graph into a sum of
einsum monomials.

The driver alternates two phases until a fixed point:

1. a single input-to-output sweep of local, one-primitive simplifications
   with hash-consing: every polynomial primitive (subtract, multiply,
   divide, negate, square, integer powers, sum_axis, broadcast_to) is
   rewritten into einsum form, constants are folded, nested einsums are
   merged flat, scalar factors sharing a base collect their exponents,
   einsums multiply out their sum operands into sums of einsums, sums
   collect like monomials (a scalar coefficient is set apart, so x - x
   cancels), add-trees flatten into right-leaning chains ordered by
   structural hash, and einsum index names are canonically renamed;
2. a rule phase that fires the first matching log rule from an ordered
   registry anywhere in the graph, searching from the output, after which
   the sweep runs again. Each rule is a direct matcher of one log redex
   with its rewriter: log of an einsum product of two or more operands
   with no repeated or summed-out index, of a reciprocal, of a square
   root, and of a power with a constant exponent.

The fixed point is the canonical form: the output is an add-tree whose
leaves are einsum monomials (or lone atoms/constants), each einsum
argument being a constant, an input, or a non-polynomial node (an atom).
Nonlinear atoms are never rewritten away: they are the candidate
sufficient statistics. There is no termination proof; a rewrite budget
bounds the rule firings and expansion steps of one normalize_graph call,
and revisiting an earlier graph state stops the loop as a livelock.

The log-splitting rules (log of a product/quotient/root) assume positive
factors, which is the standing convention for the scale and probability
quantities log densities are built from.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import graph as G
from .errors import (CanonicalizationError, GraphError, NonTerminationError,
                     SymconjError)
from .graph import (
    ConstNode, GraphBuilder, InputNode, PrimNode, TermGraph, espec,
)
from .pattern import Rule, apply_rule
from .tensor import INDEX_ALPHABET

__all__ = ["CanonicalForm", "Monomial", "canonicalize", "is_canonical",
           "local_simplify", "normalize_graph", "index_monomials", "REGISTRY"]

# polynomial primitives: always eliminable in favor of einsum/add
POLY_OPS = {"subtract", "multiply", "divide", "negate", "square",
            "sum_axis", "broadcast_to"}
# non-polynomial roots allowed as einsum arguments in canonical form
ATOM_OPS = {"log", "log1p", "exp", "sqrt", "reciprocal", "logistic",
            "log_gamma", "digamma", "one_hot", "logsumexp", "power",
            "inverse", "logdet"}


@dataclass(frozen=True)
class Monomial:
    """One additive term of a canonical graph: its root node, the constant
    einsum operands (coefficients) and the remaining operands (factors)."""
    root: int
    coefficients: tuple
    factors: tuple


@dataclass(frozen=True)
class CanonicalForm:
    graph: TermGraph
    monomials: tuple
    atoms: frozenset


# ---------------------------------------------------------------------------
# local simplification sweep


def _letters(n):
    if n > len(INDEX_ALPHABET):
        raise GraphError("einsum index alphabet exhausted")
    return INDEX_ALPHABET[:n]


def _fresh_pool(used):
    """Iterator over unused index letters; raises only when drawn dry."""
    def gen():
        for c in INDEX_ALPHABET:
            if c not in used:
                yield c
        raise GraphError("einsum index alphabet exhausted")
    return gen()


# op -> the op it undoes: 1/(1/x), log(exp x) and exp(log x) unwrap
_INVERSE = {"reciprocal": "reciprocal", "log": "exp", "exp": "log"}


class _LettersExhausted(Exception):
    """Merging nested einsums needs ``args[0]`` letters, more than exist."""


class _Budget:
    """Rewrite work one ``normalize_graph`` call may do: rule firings plus
    expansion steps. Multiplying a term by a sum of n leaves forms n
    products, n - 1 steps: the terms a binary distribution rule would have
    added. Spending past ``limit`` raises :class:`NonTerminationError`
    naming the most recent rules."""

    __slots__ = ("limit", "used", "recent")

    def __init__(self, limit):
        self.limit = limit
        self.used = 0
        self.recent = deque(maxlen=10)

    def spend(self, rule, n=1):
        self.used += n
        self.recent.append(rule)
        if self.used > self.limit:
            raise NonTerminationError(
                f"rewrite budget of {self.limit} rule firings and expansion "
                "steps exhausted",
                recent_rules=self.recent)


class _LazySum:
    """Deferred sum of leaves: non-constant monomials with real
    multiplicities plus a folded constant, materialized on demand. A leaf
    is keyed by its monomial without the scalar coefficient, which joins
    the multiplicity, so ``x`` and ``-1 * x`` cancel. ``counts`` maps node
    id to ``(monomial, multiplicity, whole)`` in first-insertion order,
    where ``whole`` is a known handle of the product or None; a leaf whose
    multiplicity reaches zero leaves it."""

    __slots__ = ("counts", "const", "shape", "realized")

    def __init__(self, shape):
        self.counts = {}
        self.const = None
        self.shape = tuple(shape)
        self.realized = None

    def add_leaf(self, h, k, whole=None):
        old = self.counts.get(h.nid)
        if old is not None:
            h, k, whole = old[0], old[1] + k, None
        if k == 0:
            self.counts.pop(h.nid, None)
        else:
            self.counts[h.nid] = (h, k, whole)

    def terms(self):
        """(handle, multiplicity) per leaf, the whole product if known."""
        return [(h, k) if whole is None else (whole, 1.0)
                for h, k, whole in self.counts.values()]


class _Simplifier:
    def __init__(self, budget):
        self.gb = GraphBuilder(dedup=True)
        self.budget = budget
        self._const_kind = {}  # nid -> (is_all_ones, is_any_zero_annihilator)

    # -- small helpers ----------------------------------------------------

    def node(self, h):
        return self.gb.node(h)

    def is_const(self, h):
        return (not isinstance(h, _LazySum)
                and isinstance(self.node(h), ConstNode))

    def op_of(self, x):
        node = None if isinstance(x, _LazySum) else self.node(x)
        return node.op if isinstance(node, PrimNode) else None

    def is_sum(self, x):
        return isinstance(x, _LazySum) or self.op_of(x) == "add"

    def cval(self, h):
        return self.node(h).value

    def const(self, v):
        return self.gb.constant(v)

    def const_kind(self, h):
        kind = self._const_kind.get(h.nid)
        if kind is None:
            v = self.cval(h)
            kind = (v.shape != () and bool(np.all(v == 1.0)),
                    bool(v.size) and not np.any(v))
            self._const_kind[h.nid] = kind
        return kind

    def _try_fold(self, op, attrs, args):
        if all(self.is_const(a) for a in args):
            try:
                return self.const(
                    G._eval_prim(op, attrs, [self.cval(a) for a in args]))
            except SymconjError:
                return None
        return None

    def add_leaf(self, lazy, h, k):
        """lazy += k * h, with h's scalar coefficient moved into k."""
        whole, c = h if k == 1 else None, 1.0
        node = self.node(h)
        if isinstance(node, PrimNode) and node.op == "einsum":
            spec = espec(node.attrs[0])
            rest = []
            for subs, a in zip(spec.operand_subscripts, node.args):
                ah = G.ExprHandle(self.gb, a)
                if subs == "" and self.is_const(ah):
                    c *= float(self.cval(ah))
                else:
                    rest.append((subs, ah))
            if len(rest) == 1 and rest[0][0] == spec.output:
                h = rest[0][1]
            elif len(rest) < len(node.args):
                # constants sort first and the coefficient has no letters,
                # so the rest keeps emit_einsum's order and naming
                h = self.gb.prim("einsum", [a for _, a in rest], (
                    ",".join(subs for subs, _ in rest) + "->" + spec.output,))
        lazy.add_leaf(h, k * c, whole)

    # -- elementwise/broadcast formula construction -----------------------

    def _ew_parts(self, shapes):
        """Trailing-broadcast subscripts for elementwise products. Size-1
        axes of an operand get private letters (summed over harmlessly)."""
        out_shape = tuple(np.broadcast_shapes(*[tuple(s) for s in shapes]))
        rank = len(out_shape)
        out_letters = _letters(rank)
        pool = _fresh_pool(set(out_letters))
        subs = []
        for s in shapes:
            off = rank - len(s)
            chars = []
            for i, d in enumerate(s):
                if d == out_shape[off + i]:
                    chars.append(out_letters[off + i])
                else:  # d == 1 broadcast against a larger extent
                    chars.append(next(pool))
            subs.append("".join(chars))
        return subs, out_letters

    def ew_product(self, args):
        subs, out = self._ew_parts([a.shape for a in args])
        return self.emit_einsum(",".join(subs) + "->" + out, list(args))

    def scale(self, coef, h):
        """coef * h as an einsum with a scalar constant coefficient."""
        return self.ew_product([self.const(float(coef)), h])

    def broadcast(self, h, target):
        """Broadcast a handle to a target shape via einsum with ones
        factors (the IR has no reshape)."""
        target = tuple(target)
        if tuple(h.shape) == target:
            return h
        (sub, _), out = self._ew_parts([h.shape, target])
        missing = [c for c in out if c not in sub]
        ones = [self.const(np.ones(target[out.index(c)])) for c in missing]
        return self.emit_einsum(",".join([sub] + missing) + "->" + out,
                                [h] + ones)

    # -- einsum emission with merging/collection/renaming -----------------

    def emit_einsum(self, formula, args):
        """Einsum of handles and sums. When an operand is a sum the einsum
        is multiplied out and the result is a _LazySum of monomials."""
        spec = espec(formula)
        out = spec.output
        operands = list(zip(spec.operand_subscripts, args))

        # inline nested einsums (arguments are already simplified)
        nested = [espec(self.node(h).attrs[0]) if self.op_of(h) == "einsum"
                  else None for h in args]
        used = set("".join(spec.operand_subscripts) + out)
        need = len(used) + sum(
            len(set("".join(inner.operand_subscripts)) - set(inner.output))
            for inner in nested if inner is not None)
        if need > len(INDEX_ALPHABET):
            raise _LettersExhausted(need)
        merged = []
        for (subs, h), inner in zip(operands, nested):
            if inner is None:
                merged.append((subs, h))
                continue
            mapping = dict(zip(inner.output, subs))
            fresh = _fresh_pool(used)
            for ch in "".join(inner.operand_subscripts):
                if ch not in mapping:
                    mapping[ch] = next(fresh)
                    used.add(mapping[ch])
            for isubs, anid in zip(inner.operand_subscripts,
                                   self.node(h).args):
                ah = G.ExprHandle(self.gb, anid)
                merged.append(("".join(mapping[c] for c in isubs), ah))
        operands = merged
        if any(self.is_sum(h) for _, h in operands):
            return self._multiply_out(operands, out)

        # constant folding: zeros annihilate, scalars multiply into a
        # single coefficient, all-ones factors fold or slim down
        extents = {}
        for subs, h in operands:
            for ch, d in zip(subs, h.shape):
                extents[ch] = d
        out_shape = tuple(extents[c] for c in out)
        coef = 1.0

        # (is_all_ones, is_annihilator) of constant operands, else None
        kinds = [self.const_kind(h) if self.is_const(h) else None
                 for _, h in operands]

        # duplicate copies of one all-ones factor multiply to itself
        deduped = []
        seen_ones = set()
        for (subs, h), kind in zip(operands, kinds):
            if kind is not None and kind[0]:
                key = (subs, h.nid)
                if key in seen_ones:
                    continue
                seen_ones.add(key)
            deduped.append((subs, h, kind))
        operands = [(subs, h) for subs, h, _ in deduped]

        kept = []
        for j, (subs, h, kind) in enumerate(deduped):
            if kind is None:
                kept.append((subs, h))
                continue
            if kind[1]:
                return self.const(np.zeros(out_shape))
            v = self.cval(h)
            if subs == "":
                coef *= float(v)
            elif kind[0]:
                elsewhere = set(out)
                for j2, (s2, _h2) in enumerate(operands):
                    if j2 != j:
                        elsewhere.update(s2)
                needed = [c for c in dict.fromkeys(subs) if c in elsewhere]
                for c in dict.fromkeys(subs):
                    if c not in elsewhere:
                        coef *= extents[c]
                needed = "".join(needed)
                if needed == subs:  # nothing to slim: the factor itself
                    kept.append((subs, h))
                elif needed:
                    kept.append((needed,
                                 self.const(np.ones([extents[c] for c in needed]))))
            else:
                kept.append((subs, h))
        operands = kept

        # collect exponents of scalar factors sharing a base node
        scalars = [(s, h) for s, h in operands if s == ""]
        if len(scalars) > 1:
            rest = [(s, h) for s, h in operands if s != ""]
            groups = {}  # base nid -> [base, exponent], first seen first
            for _, h in scalars:
                base, e = self._base_exp(h)
                groups.setdefault(base.nid, [base, 0.0])[1] += e
            operands = rest
            for base, e in groups.values():
                for h in self._power_factors(base, e):
                    operands.append(("", h))
            # a collected base can be a sum or an einsum, as in
            # sqrt(a+b) * sqrt(a+b): emit again to multiply it out or merge it
            if any(self.op_of(h) in ("add", "einsum") for _, h in operands):
                if coef != 1.0:
                    operands.append(("", self.const(coef)))
                return self.emit_einsum(
                    ",".join(s for s, _ in operands) + "->" + out,
                    [h for _, h in operands])

        if not operands:
            return self.const(np.full(out_shape, coef))
        if all(self.is_const(h) for _, h in operands):
            lhs = ",".join(s for s, _ in operands)
            val = coef * G._eval_prim(
                "einsum", (lhs + "->" + out,), [self.cval(h) for _, h in operands])
            return self.const(val)
        if coef != 1.0:
            operands.append(("", self.const(coef)))

        # identity contraction unwraps
        if len(operands) == 1 and operands[0][0] == out:
            return operands[0][1]

        # deterministic operand order, then canonical index renaming
        def key(item):
            subs, h = item
            node = self.node(h)
            name = node.name if isinstance(node, InputNode) else ""
            return (0 if self.is_const(h) else 1, name, self.gb.digest(h), subs)

        operands.sort(key=key)
        formula = ",".join(s for s, _ in operands) + "->" + out
        return self.gb.prim("einsum", [h for _, h in operands],
                            (G.rename_formula(formula),))

    def _multiply_out(self, operands, out):
        """Distribute an einsum over its sum operands. The other operands
        multiply into one partial product; each sum in turn multiplies
        every partial term by every leaf, keeping only the index letters
        that later operands or the output still need. Partial terms are
        collected by node id with multiplicity before the next sum, so
        equal products are formed once."""
        plain = [(s, h) for s, h in operands if not self.is_sum(h)]
        sums = [(s, self._as_lazy(h)) for s, h in operands if self.is_sum(h)]
        if not plain and len(sums) == 1 and sums[0][0] == out:
            return sums[0][1]  # identity contraction
        extents = {}
        for subs, h in operands:
            extents.update(zip(subs, h.shape))

        def needed(have, j):
            if j == len(sums):
                return out
            later = set(out).union(*(s for s, _ in sums[j:]))
            return "".join(c for c in dict.fromkeys(have) if c in later)

        letters = needed("".join(s for s, _ in plain), 0)
        acc = _LazySum([extents[c] for c in letters])
        self._add_to(acc, self.emit_einsum(
            ",".join(s for s, _ in plain) + "->" + letters,
            [h for _, h in plain]) if plain else self.const(1.0), 1)
        for j, (subs, lazy) in enumerate(sums):
            new = needed(letters + subs, j + 1)
            formula = f"{letters},{subs}->{new}"
            left, right = self._leaves(acc), self._leaves(lazy)
            if len(right) > 1:
                self.budget.spend("distribute_einsum",
                                  len(left) * (len(right) - 1))
            acc = _LazySum([extents[c] for c in new])
            for h, k in left:
                for leaf, m in right:
                    self._add_to(acc, self.emit_einsum(formula, [h, leaf]),
                                 k * m)
            letters = new
        return acc

    def _leaves(self, lazy):
        """(handle, multiplicity) terms of a sum, each at the sum's shape."""
        terms = [(self.broadcast(h, lazy.shape), k) for h, k in lazy.terms()]
        if lazy.const is not None and np.any(lazy.const):
            terms.append(
                (self.const(np.broadcast_to(lazy.const, lazy.shape)), 1))
        return terms

    def _add_to(self, acc, x, k):
        """acc += k * x, for a handle or a sum x of acc's shape."""
        terms = self._leaves(x) if isinstance(x, _LazySum) else [(x, 1)]
        for h, m in terms:
            if self.is_const(h):
                v = k * m * self.cval(h)
                acc.const = v if acc.const is None else acc.const + v
            else:
                self.add_leaf(acc, h, k * m)

    def _base_exp(self, h):
        op, node = self.op_of(h), self.node(h)
        if op in ("reciprocal", "sqrt"):
            base, e = self._base_exp(G.ExprHandle(self.gb, node.args[0]))
            return base, (-e if op == "reciprocal" else 0.5 * e)
        if op == "power":
            exp_node = self.node(G.ExprHandle(self.gb, node.args[1]))
            if isinstance(exp_node, ConstNode) and exp_node.value.shape == ():
                base, e = self._base_exp(G.ExprHandle(self.gb, node.args[0]))
                return base, e * float(exp_node.value)
        return h, 1.0

    def _power_factors(self, base, e):
        """Scalar factors realizing base**e after exponent collection."""
        if e == 0:
            return []
        if e == round(e):
            n = int(round(e))
            if n > 0:
                return [base] * n
            rec = self.gb.prim("reciprocal", (base,))
            return [rec] * (-n)
        if e == 0.5:
            return [self.gb.prim("sqrt", (base,))]
        if e == -0.5:
            return [self.gb.prim("reciprocal", (self.gb.prim("sqrt", (base,)),))]
        return [self.gb.prim("power", (base, self.const(float(e))))]

    # -- add flattening ----------------------------------------------------
    #
    # Sums are accumulated lazily during the sweep (a multiset of leaves
    # plus a folded constant) and materialized as one sorted right-leaning
    # chain only when a non-add consumer needs a node, so rebuilding a long
    # add spine costs one chain, not one per spine step.

    def _as_lazy(self, x):
        if isinstance(x, _LazySum):
            return x
        lazy = _LazySum(x.shape)
        stack = [x]  # add-tree leaves, left to right
        while stack:
            h = stack.pop()
            node = self.node(h)
            if isinstance(node, PrimNode) and node.op == "add":
                stack.extend(G.ExprHandle(self.gb, a) for a in node.args[::-1])
            elif isinstance(node, ConstNode):
                lazy.const = (node.value if lazy.const is None
                              else lazy.const + node.value)
            else:
                self.add_leaf(lazy, h, 1.0)
        return lazy

    def lazy_sum(self, *parts):
        """Sum of c * x over the (c, x) pairs, x a handle or a sum."""
        parts = [(c, self._as_lazy(x)) for c, x in parts]
        out = _LazySum(np.broadcast_shapes(*(x.shape for _, x in parts)))
        for c, x in parts:
            for h, k, whole in x.counts.values():
                out.add_leaf(h, c * k, whole if c == 1.0 else None)
            if x.const is not None:
                v = x.const if c == 1.0 else c * x.const
                out.const = v if out.const is None else out.const + v
        return out

    def realize(self, x):
        if not isinstance(x, _LazySum):
            return x
        if x.realized is not None:
            return x.realized
        terms = [h if k == 1.0 else self.scale(k, h) for h, k in x.terms()]
        if x.const is not None and np.any(x.const):
            terms.append(self.const(x.const))
        if not terms:
            acc = self.const(np.zeros(x.shape))
        else:
            terms.sort(key=self.gb.digest)
            acc = terms[-1]
            for h in reversed(terms[:-1]):
                acc = self.gb.prim("add", (h, acc))
            if tuple(acc.shape) != x.shape:  # broadcasting multiplies out
                acc = self.realize(self.broadcast(acc, x.shape))
        x.realized = acc
        return acc

    # -- per-node emission -------------------------------------------------

    def emit(self, op, attrs, args):
        if op in ("add", "subtract"):
            sign = 1.0 if op == "add" else -1.0
            return self.lazy_sum((1.0, args[0]), (sign, args[1]))
        if op == "negate":
            return self.lazy_sum((-1.0, args[0]))
        # the einsum-building ops take a sum of two or more terms as it is,
        # and emit_einsum multiplies it out
        keep = op in ("multiply", "divide", "square", "sum_axis",
                      "broadcast_to", "einsum")
        args = [a if keep and isinstance(a, _LazySum)
                and len(a.counts) + (a.const is not None) > 1
                else self.realize(a) for a in args]
        folded = self._try_fold(op, attrs, args)
        if folded is not None:
            return folded
        if op == "multiply":
            return self.ew_product(args)
        if op == "divide":
            return self.ew_product(
                [args[0], self.emit("reciprocal", (), [args[1]])])
        if op == "square":
            return self.ew_product([args[0], args[0]])
        if op == "power":
            exp_node = self.node(args[1])
            if isinstance(exp_node, ConstNode) and exp_node.value.shape == ():
                c = float(exp_node.value)
                if c == round(c) and -8 <= c <= 8:
                    n = int(round(c))
                    if n == 0:
                        return self.const(np.ones(args[0].shape))
                    if n > 0:
                        return self.ew_product([args[0]] * n)
                    inv = self.emit("reciprocal", (), [args[0]])
                    return self.ew_product([inv] * (-n))
                if c == 0.5:
                    return self.emit("sqrt", (), [args[0]])
                if c == -0.5:
                    return self.emit(
                        "reciprocal", (), [self.emit("sqrt", (), [args[0]])])
            return self.gb.prim("power", args)
        if op == "sum_axis":
            rank = len(args[0].shape)
            axis = int(attrs[0]) % rank
            sub = _letters(rank)
            out = sub[:axis] + sub[axis + 1:]
            return self.emit_einsum(f"{sub}->{out}", [args[0]])
        if op == "broadcast_to":
            return self.broadcast(args[0], attrs[0])
        if op == "einsum":
            return self.emit_einsum(attrs[0], args)
        if op in _INVERSE and self.op_of(args[0]) == _INVERSE[op]:
            return G.ExprHandle(self.gb, self.node(args[0]).args[0])
        return self.gb.prim(op, args, attrs)


def local_simplify(g: TermGraph, budget: _Budget | None = None) -> TermGraph:
    """One input-to-output sweep of single-primitive rewrites into einsum
    form, with constant folding, nested-einsum merging, multiplying einsums
    out over sums, and hash-consing. Evaluation-preserving. Expansion steps
    are charged to ``budget``, the enclosing :func:`normalize_graph` call's
    (a lone sweep gets 10000)."""
    s = _Simplifier(_Budget(10000) if budget is None else budget)
    memo = {}
    for i in g.inputs:
        node = g.nodes[i]
        memo[i] = s.gb.input(node.name, node.shape, node.support)
    reach = g.reachable()
    for i, node in enumerate(g.nodes):
        if not reach[i] or i in memo:
            continue
        if isinstance(node, ConstNode):
            memo[i] = s.const(node.value)
        elif isinstance(node, InputNode):
            memo[i] = s.gb.input(node.name, node.shape, node.support)
        else:
            try:
                memo[i] = s.emit(node.op, node.attrs,
                                 [memo[a] for a in node.args])
            except _LettersExhausted as exc:
                raise CanonicalizationError(
                    f"the einsum form of {node.op} node n{i} needs "
                    f"{exc.args[0]} index letters; there are "
                    f"{len(INDEX_ALPHABET)}") from None
    return G.cse(s.gb.finish(s.realize(memo[g.output])))


# ---------------------------------------------------------------------------
# log rule registry


def _log_product_rewriter(b, gb):
    spec = espec(b["formula"])
    args = b["args"]
    extents = {}
    for subs, h in zip(spec.operand_subscripts, args):
        extents.update(zip(subs, h.shape))
    total = None
    for subs, h in zip(spec.operand_subscripts, args):
        term = gb.prim("log", (h,))
        if subs != spec.output:
            ops = [term]
            parts = [subs]
            for c in spec.output:
                if c not in subs:
                    ops.append(gb.constant(np.ones(extents[c])))
                    parts.append(c)
            term = gb.prim("einsum", ops,
                           (",".join(parts) + "->" + spec.output,))
        total = term if total is None else gb.prim("add", (total, term))
    return total


def _log_of(op, bind):
    """Matcher of ``log(op(...))``: ``bind(g, inner)`` gives the bindings
    at the ``op`` node, or None when its operands do not fit the rule."""
    def match(g, nid):
        node = g.nodes[nid]
        if not (isinstance(node, PrimNode) and node.op == "log"):
            return None
        inner = g.nodes[node.args[0]]
        if not (isinstance(inner, PrimNode) and inner.op == op):
            return None
        return bind(g, inner)
    return match


def _bind_product(g, e):
    """An einsum of two or more operands, none with a repeated or
    summed-out index, is a broadcast product: its log splits."""
    spec = espec(e.attrs[0])
    if spec.operand_count < 2 or any(
            len(set(subs)) != len(subs) or not set(subs) <= set(spec.output)
            for subs in spec.operand_subscripts):
        return None
    return {"formula": e.attrs[0], "args": list(e.args)}


def _bind_power(g, p):
    if not isinstance(g.nodes[p.args[1]], ConstNode):
        return None
    return {"x": p.args[0], "c": p.args[1]}


def _bind_x(g, node):
    return {"x": node.args[0]}


LOG_PRODUCT = Rule(
    "log_product", _log_of("einsum", _bind_product), _log_product_rewriter)

LOG_RECIPROCAL = Rule(
    "log_reciprocal", _log_of("reciprocal", _bind_x),
    lambda b, gb: gb.prim("negate", (gb.prim("log", (b["x"],)),)))

LOG_SQRT = Rule(
    "log_sqrt", _log_of("sqrt", _bind_x),
    lambda b, gb: gb.prim("multiply",
                          (gb.constant(0.5), gb.prim("log", (b["x"],)))))

LOG_POWER = Rule(
    "log_power", _log_of("power", _bind_power),
    lambda b, gb: gb.prim("multiply", (b["c"], gb.prim("log", (b["x"],)))))

REGISTRY = (LOG_PRODUCT, LOG_RECIPROCAL, LOG_SQRT, LOG_POWER)


# ---------------------------------------------------------------------------
# canonical-form predicate and index


def _add_leaves(g, root):
    """Monomial roots: leaves of the maximal add-tree at ``root``, left to
    right."""
    leaves = []
    stack = [root]
    while stack:
        i = stack.pop()
        node = g.nodes[i]
        if isinstance(node, PrimNode) and node.op == "add":
            stack.extend(node.args[::-1])
        else:
            leaves.append(i)
    return leaves


def is_canonical(g: TermGraph) -> bool:
    """Structural predicate: the output is an add-tree of monomials, every
    monomial an einsum over atoms (constants, inputs, or non-polynomial
    nodes), a lone atom, or a constant; no polynomial primitive survives
    on the spine."""
    for root in _add_leaves(g, g.output):
        node = g.nodes[root]
        if isinstance(node, (InputNode, ConstNode)):
            continue
        if node.op in POLY_OPS:
            return False
        if node.op == "einsum":
            for a in node.args:
                arg = g.nodes[a]
                if isinstance(arg, (InputNode, ConstNode)):
                    continue
                if arg.op in POLY_OPS or arg.op in ("einsum", "add"):
                    return False
        elif node.op not in ATOM_OPS:
            return False
    return True


def index_monomials(g: TermGraph):
    """Monomial index and atom set of a graph already in canonical form."""
    monomials = []
    atoms = set()
    for root in _add_leaves(g, g.output):
        node = g.nodes[root]
        if isinstance(node, ConstNode):
            monomials.append(Monomial(root, (root,), ()))
            continue
        if isinstance(node, InputNode) or node.op != "einsum":
            monomials.append(Monomial(root, (), (root,)))
            atoms.add(root)
            continue
        coeffs = tuple(a for a in node.args
                       if isinstance(g.nodes[a], ConstNode))
        factors = tuple(a for a in node.args
                        if not isinstance(g.nodes[a], ConstNode))
        monomials.append(Monomial(root, coeffs, factors))
        atoms.update(factors)
    return tuple(monomials), frozenset(atoms)


# ---------------------------------------------------------------------------
# driver


def canonicalize(g: TermGraph, max_rules: int = 10000,
                 firing_log: list | None = None) -> CanonicalForm:
    """Drive the alternating rewrite strategy to its canonical fixed point.

    Raises :class:`NonTerminationError` listing the last rules fired when
    the budget is exhausted. Deterministic for a given input graph. Pass a
    list as ``firing_log`` to collect the names of the rules fired.
    """
    if g.shapes[g.output] != ():
        raise CanonicalizationError("canonicalize requires a scalar output")
    g = normalize_graph(g, max_rules=max_rules, firing_log=firing_log)
    if not is_canonical(g):
        raise CanonicalizationError(
            "rewriting reached a fixed point that is not canonical")
    monomials, atoms = index_monomials(g)
    return CanonicalForm(graph=g, monomials=monomials, atoms=atoms)


def normalize_graph(g: TermGraph, max_rules: int = 10000,
                    firing_log: list | None = None) -> TermGraph:
    """The rewrite loop behind :func:`canonicalize`, without its
    scalar-output requirement, so it also takes tensor-valued graphs.
    ``max_rules`` bounds the rule firings plus expansion steps of all its
    sweeps; ``firing_log`` receives the log-rule firings."""
    budget = _Budget(max_rules)
    g = local_simplify(g, budget)
    fired: list[str] = []
    seen_states = {g.structural_hashes()[g.output]}
    misses = {rule.name: set() for rule in REGISTRY}
    while True:
        applied = False
        for rule in REGISTRY:
            g2, applied = apply_rule(rule, g, misses[rule.name])
            if applied:
                fired.append(rule.name)
                budget.spend(rule.name)
                g = local_simplify(g2, budget)
                break
        if not applied:
            break
        # the driver is deterministic, so revisiting a graph state is a
        # certain livelock
        digest = g.structural_hashes()[g.output]
        if digest in seen_states:
            raise NonTerminationError(
                "rewriting revisited a previous graph state",
                recent_rules=budget.recent)
        seen_states.add(digest)
    if firing_log is not None:
        firing_log.extend(fired)
    return g
