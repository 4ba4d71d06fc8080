"""Rewrite strategy turning a scalar log-density graph into a sum of
einsum monomials.

The driver alternates two phases until a fixed point:

1. a single input-to-output sweep of local, one-primitive simplifications
   with hash-consing: every polynomial primitive (subtract, multiply,
   divide, negate, square, integer powers, sum_axis, broadcast_to) is
   rewritten into einsum form, constants are folded, nested einsums are
   merged flat, the constant operands of a product contract into one,
   scalar factors sharing a base collect their exponents, einsums
   multiply out their sum operands into sums of einsums, sums collect
   monomials that differ only in their constant by summing it (so x - x
   cancels), add-trees flatten into right-leaning chains ordered by
   structural hash, and einsum index names are canonically renamed. A
   product stays a factor list (:class:`_Mono`) until a non-einsum op
   needs its node, so partial products are merged as lists and each
   monomial is built once;
2. a rule phase that fires the first matching log rule from an ordered
   registry anywhere in the graph, searching from the output, after which
   the sweep runs again. Each rule is a direct matcher of one log redex
   with its rewriter: log of an einsum product of two or more operands
   with no repeated or summed-out index, of a reciprocal, of a square
   root, and of a power with a constant exponent.

The fixed point is the canonical form: the output is an add-tree whose
leaves are einsum monomials (or lone atoms/constants), each einsum
argument being a constant, an input, or a non-polynomial node (an atom).
A :class:`CanonicalForm` is that graph plus its monomial roots, the
add-tree's leaves (:func:`monomials`). Nonlinear atoms are never
rewritten away: they are the candidate sufficient statistics. There is
no termination proof; a rewrite budget bounds the rule firings and
expansion steps of one normalize_graph call, and revisiting an earlier
graph state stops the loop as a livelock.

The log-splitting rules (log of a product/quotient/root) assume positive
factors, which is the standing convention for the scale and probability
quantities log densities are built from. Binding a model's data is one
more sweep, :func:`bind`, the only binder: the data stand in as constants.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import graph as G
from .errors import (
    CanonicalizationError, GraphError, NonTerminationError, SymconjError,
)
from .graph import (
    ConstNode, GraphBuilder, InputNode, PrimNode, TermGraph, espec,
)
from .pattern import Rule, apply_rule
from .tensor import INDEX_ALPHABET

__all__ = ["CanonicalForm", "canonicalize", "is_canonical", "monomials",
           "local_simplify", "normalize_graph", "bind", "REGISTRY"]

# polynomial primitives: always eliminable in favor of einsum/add
POLY_OPS = {"subtract", "multiply", "divide", "negate", "square",
            "sum_axis", "broadcast_to"}
# non-polynomial roots allowed as einsum arguments in canonical form
ATOM_OPS = set(G.OPS) - POLY_OPS - {"einsum", "add"}


@dataclass(frozen=True)
class CanonicalForm:
    """A graph in canonical form and the node ids of its monomials, lone
    atoms and constants, left to right (:func:`monomials`)."""
    graph: TermGraph
    monomials: tuple


# ---------------------------------------------------------------------------
# local simplification sweep


class _LettersExhausted(Exception):
    """An einsum form needs ``args[0]`` index letters, more than exist."""


def _letters(n):
    if n > len(INDEX_ALPHABET):
        raise _LettersExhausted(n)
    return INDEX_ALPHABET[:n]


@functools.lru_cache(maxsize=None)
def _summed(formula):
    """How many distinct letters an einsum formula sums out."""
    spec = espec(formula)
    return len(set("".join(spec.operand_subscripts)) - set(spec.output))


@functools.lru_cache(maxsize=None)
def _ew_parts(*shapes):
    """Trailing-broadcast subscripts for elementwise products. Size-1
    axes of an operand get private letters (summed over harmlessly)."""
    out_shape = tuple(np.broadcast_shapes(*shapes))
    rank = len(out_shape)
    letters = _letters(rank + sum(d != out_shape[rank - len(s) + i]
                                  for s in shapes for i, d in enumerate(s)))
    out_letters, pool = letters[:rank], iter(letters[rank:])
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
    return tuple(subs), out_letters


# op -> the op it undoes: 1/(1/x), log(exp x) and exp(log x) unwrap
_INVERSE = {"reciprocal": "reciprocal", "log": "exp", "exp": "log"}


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


class _Mono:
    """An einsum product not yet built: the formula and operand handles of
    the node it would be, operands in the node's order."""

    __slots__ = ("formula", "args", "shape")

    def __init__(self, formula, args, shape):
        self.formula, self.args, self.shape = formula, args, shape


class _LazySum:
    """Deferred sum of leaves plus a folded constant. A leaf is a
    non-constant monomial with a constant factor (subscripts, value) in its
    letters, keyed by the hash-cons key of the monomial less its constant
    operand (a lone factor: its id), so like terms sum their factors.
    ``counts`` maps the key to (monomial, factor, whole product or None)."""

    __slots__ = ("counts", "const", "shape")

    def __init__(self, shape):
        self.counts = {}
        self.const = None
        self.shape = tuple(shape)

    def add_leaf(self, key, h, f, whole=None):
        old = self.counts.get(key)
        if old is not None:
            h, f, whole = old[0], _plus(old[1], f), None
        if f[1] == 0 if f[0] == "" else not f[1].any():
            self.counts.pop(key, None)
        else:
            self.counts[key] = (h, f, whole)


def _plus(f1, f2):
    """The sum of two constant factors, aligned by index name."""
    if f1[0] == f2[0]:
        return f1[0], f1[1] + f2[1]
    sub = "".join(sorted(set(f1[0] + f2[0])))
    return sub, sum(np.expand_dims(
        np.einsum(f"{s}->{''.join(sorted(s))}", v),
        [i for i, c in enumerate(sub) if c not in s]) for s, v in (f1, f2))


class _Simplifier:
    def __init__(self, budget):
        self.gb = GraphBuilder()
        self.budget = budget
        self._rank = {}  # nid -> _order's key less the subscripts

    # -- small helpers ----------------------------------------------------

    def node(self, h):
        return self.gb.node(h)

    def is_const(self, h):
        return (isinstance(h, G.ExprHandle)
                and isinstance(self.gb._nodes[h.nid], ConstNode))

    def op_of(self, x):
        node = None if isinstance(x, _LazySum) else self.gb._nodes[x.nid]
        return node.op if isinstance(node, PrimNode) else None

    def is_sum(self, x):
        return isinstance(x, _LazySum) or self.op_of(x) == "add"

    def cval(self, h):
        return self.node(h).value

    def const(self, v):
        return self.gb.constant(v)

    def einsum_parts(self, x):
        """(EinsumSpec, operand handles) of a product or einsum node."""
        if isinstance(x, _Mono):
            return espec(x.formula), x.args
        node = None if isinstance(x, _LazySum) else self.gb._nodes[x.nid]
        if isinstance(node, PrimNode) and node.op == "einsum":
            return espec(node.attrs[0]), [
                G.ExprHandle(self.gb, a) for a in node.args]
        return None

    def _order(self, item):
        """Operand sort key: constants, inputs by name, digest, subscripts."""
        if item[1].nid not in self._rank:
            node = self.gb._nodes[item[1].nid]
            self._rank[item[1].nid] = (
                not isinstance(node, ConstNode), getattr(node, "name", ""),
                self.gb.digest(item[1]))
        return self._rank[item[1].nid], item[0]

    def _try_fold(self, op, attrs, args):
        if all(self.is_const(a) for a in args):
            try:
                return self.const(
                    G._eval_prim(op, attrs, [self.cval(a) for a in args]))
            except SymconjError:
                return None
        return None

    def add_leaf(self, lazy, x, k):
        """lazy += k * x, for a handle or product x, with x's constant
        operand times k as the leaf's factor."""
        whole, parts = x if k == 1 else None, self.einsum_parts(x)
        if parts is None:
            return lazy.add_leaf(x.nid, x, ("", k), whole)
        spec, args = parts
        rest, f = [], ("", k)
        for subs, a in zip(spec.operand_subscripts, args):
            if self.is_const(a):  # the product's one constant
                v = self.cval(a)
                f = (subs, float(v) * k if subs == "" else v * k)
            else:
                rest.append((subs, a))
        formula, sub = G.rename_formula(
            ",".join([s for s, _ in rest]) + "->" + spec.output, f[0])
        if len(rest) == 1 and rest[0][0] == spec.output:
            return lazy.add_leaf(rest[0][1].nid, rest[0][1], (sub, f[1]),
                                 whole)
        args = tuple([a for _, a in rest])
        lazy.add_leaf(("einsum", (formula,), tuple([a.nid for a in args])),
                      _Mono(formula, args, x.shape), (sub, f[1]), whole)

    def _times(self, h, f):
        """The product of leaf monomial ``h`` and its factor ``f``; ``h``'s
        output may hold letters that only ``f`` holds."""
        if not isinstance(h, _Mono):  # a lone factor
            out = INDEX_ALPHABET[:len(h.shape)]
            h = _Mono(out + "->" + out, (h,), h.shape)
        lhs, out = h.formula.split("->")
        ops = [*zip(lhs.split(","), h.args), (f[0], self.const(f[1]))]
        if f[0] or f[1] == 1.0:  # a tensor, or no coefficient: the rule
            return self._product(ops, out)
        return self._sorted(ops, out, h.shape)  # h is a product already

    def _sorted(self, ops, out, shape):
        """The product of (subscripts, handle) operands, in deterministic
        operand order and with canonical index names."""
        ops.sort(key=self._order)
        formula = G.rename_formula(",".join([s for s, _ in ops]) + "->" + out)
        return _Mono(formula, tuple([a for _, a in ops]), shape)

    # -- elementwise/broadcast formula construction -----------------------

    def ew_product(self, args):
        subs, out = _ew_parts(*[tuple(a.shape) for a in args])
        return self.emit_einsum(",".join(subs) + "->" + out, list(args))

    def broadcast(self, h, target):
        """Broadcast a handle to a target shape via einsum with ones
        factors (the IR has no reshape)."""
        target = tuple(target)
        if tuple(h.shape) == target:
            return h
        (sub, _), out = _ew_parts(tuple(h.shape), target)
        missing = [c for c in out if c not in sub]
        ones = [self.const(np.ones(target[out.index(c)])) for c in missing]
        return self.emit_einsum(",".join([sub] + missing) + "->" + out,
                                [h] + ones)

    # -- einsum products: merging, folding, collection, renaming ----------

    def emit_einsum(self, formula, args):
        """Einsum of handles, products and sums, nested einsums and
        products inlined: a handle, a product left unbuilt
        (:class:`_Mono`), or the _LazySum a sum operand multiplies out to."""
        spec = espec(formula)
        nested, fresh = [self.einsum_parts(h) for h in args], None
        if any(nested):
            used = set(formula) - set(",->")
            _letters(len(used) + sum(_summed(p[0].formula)
                                     for p in nested if p))
            fresh = iter([c for c in INDEX_ALPHABET if c not in used])
        return self._product([f for subs, h, parts in zip(
            spec.operand_subscripts, args, nested)
            for f in self._relabel(subs, h, parts, fresh)], spec.output)

    @staticmethod
    def _relabel(subs, h, parts, fresh):
        """Operand ``h`` at ``subs`` as factors: h itself, or the operands
        of a product or einsum node (``parts``) with its output letters
        renamed to ``subs`` and its summed letters drawn from ``fresh`` in
        order of first appearance."""
        if parts is None:
            return [(subs, h)]
        spec, args = parts
        names = dict(zip(spec.output, subs))
        for ch in "".join(spec.operand_subscripts):
            if ch not in names:
                names[ch] = next(fresh)
        return [("".join([names[c] for c in s]), a)
                for s, a in zip(spec.operand_subscripts, args)]

    def _product(self, operands, out):
        """The einsum of (subscripts, factor) operands, none a product or
        an einsum node, as emit_einsum returns it. Its constant operands,
        the scalar coefficient among them, contract into one constant over
        the letters that the output or another operand reads: a zero
        annihilates the product, and a uniform one is the coefficient,
        held as ones only over output letters no other operand holds."""
        nodes = self.gb._nodes
        extents, kept, consts = {}, [], []
        for item in operands:
            subs, h = item
            node = None if type(h) is _LazySum else nodes[h.nid]
            if node is None or type(node) is PrimNode and node.op == "add":
                return self._multiply_out(operands, out)
            extents.update(zip(subs, h.shape))
            (consts if type(node) is ConstNode else kept).append(item)
        out_shape = tuple([extents[c] for c in out])

        # collect exponents of scalar factors sharing a base node; lone
        # atoms collect to themselves, so only roots, reciprocals and powers
        # set it going
        scalars = [h for s, h in kept if s == ""]
        if len(scalars) > 1 and any(
                self.op_of(h) in ("reciprocal", "sqrt", "power")
                for h in scalars):
            groups = {}  # base nid -> [base, exponent], first seen first
            for h in scalars:
                base, e = self._base_exp(h)
                groups.setdefault(base.nid, [base, 0.0])[1] += e
            kept = [(s, h) for s, h in kept if s != ""] + [
                ("", h) for base, e in groups.values()
                for h in self._power_factors(base, e)]
            # a collected base can be a sum or an einsum, as in
            # sqrt(a+b) * sqrt(a+b): emit again to multiply it out or merge it
            if any(self.op_of(h) in ("add", "einsum") for _, h in kept):
                kept += consts
                return self.emit_einsum(",".join([s for s, _ in kept])
                                        + "->" + out, [h for _, h in kept])

        if not kept:
            return self.const(self._contract(consts, out) if consts
                              else np.ones(out_shape))
        sub, v = "", 1.0
        if any(s for s, _ in consts):
            held = set(out).union(*[s for s, _ in kept])
            sub = "".join(dict.fromkeys(
                [c for s, _ in consts for c in s if c in held]))
            v = self._contract(consts, sub)
            if v.size and (v == v.flat[0]).all():  # coefficient and ones
                held = set().union(*[s for s, _ in kept])
                sub = "".join([c for c in sub if c not in held])
                v = np.full([extents[c] for c in sub], v.flat[0])
        else:
            for _, h in consts:
                v *= float(nodes[h.nid].value)
        if not (v.any() if sub else v):
            return self.const(np.zeros(out_shape))
        if sub or v != 1.0:
            kept.append((sub, self.const(v)))
        if len(kept) == 1 and kept[0][0] == out:
            return kept[0][1]  # identity contraction unwraps
        return self._sorted(kept, out, out_shape)

    def _contract(self, consts, sub):
        """The (subscripts, handle) constants contracted to ``sub``."""
        if [s for s, _ in consts if s] == [sub]:  # scalars scale a tensor
            return math.prod([float(self.cval(h)) for s, h in consts if not s],
                             start=next(self.cval(h) for s, h in consts if s))
        return G._eval_prim("einsum", (",".join([s for s, _ in consts])
                                       + "->" + sub,),
                            [self.cval(h) for _, h in consts])

    def _multiply_out(self, operands, out):
        """Distribute an einsum over its sum operands. The other operands
        multiply into one partial product; each sum in turn multiplies
        every partial term by every leaf, keeping only the index letters
        that later operands or the output still need. Partial products are
        factor lists (:class:`_Mono`), merged without building a node, and
        are collected as like terms with multiplicity before the next sum,
        so equal products are multiplied further once."""
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
            left, right = self._leaves(acc), self._leaves(lazy)
            if len(right) > 1:
                self.budget.spend("distribute_einsum",
                                  len(left) * (len(right) - 1))
            # emit_einsum(f"{letters},{subs}->{new}", [term, leaf]) for
            # each pair: a term is relabeled once, a leaf once per count of
            # summed letters its term draws first
            used = set(letters + subs)
            free = [c for c in INDEX_ALPHABET if c not in used]
            right = [(leaf, m, self.einsum_parts(leaf)) for leaf, m in right]
            relabeled, acc = {}, _LazySum([extents[c] for c in new])
            for h, k in left:
                parts = self.einsum_parts(h)
                n = _summed(parts[0].formula) if parts else 0
                factors = self._relabel(letters, h, parts, iter(free))
                for i, (leaf, m, lparts) in enumerate(right):
                    _letters(len(used) + n
                             + (_summed(lparts[0].formula) if lparts else 0))
                    if (i, n) not in relabeled:
                        relabeled[i, n] = self._relabel(
                            subs, leaf, lparts, iter(free[n:]))
                    self._add_to(acc, self._product(
                        factors + relabeled[i, n], new), k * m)
            letters = new
        return acc

    def _leaves(self, lazy):
        """(monomial, multiplicity) terms of a sum, each at the sum's shape:
        per leaf, its whole product if known, else its monomial and scalar
        factor, or its product with a tensor factor."""
        terms = [(self.broadcast(h, lazy.shape), k) for h, k in [
            (whole, 1.0) if whole is not None else (h, f[1]) if f[0] == ""
            else (self._times(h, f), 1.0)
            for h, f, whole in lazy.counts.values()]]
        if lazy.const is not None and np.any(lazy.const):
            terms.append(
                (self.const(np.broadcast_to(lazy.const, lazy.shape)), 1))
        return terms

    def _add_to(self, acc, x, k):
        """acc += k * x, for a handle, product or sum x of acc's shape."""
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
        """Factors whose product is base**e: the base or its reciprocal
        |e| times, a (reciprocal) square root, or one power atom."""
        if e == round(e):
            n = int(round(e))
            return ([base] * n if n >= 0
                    else [self.emit("reciprocal", (), [base])] * -n)
        if abs(e) == 0.5:
            root = self.emit("sqrt", (), [base])
            return [root if e > 0 else self.emit("reciprocal", (), [root])]
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
        if isinstance(x, _Mono):
            self.add_leaf(lazy, x, 1.0)
            return lazy
        nodes = self.gb._nodes
        for i in _add_leaves(nodes, x.nid):
            node = nodes[i]
            if isinstance(node, ConstNode):
                lazy.const = (node.value if lazy.const is None
                              else lazy.const + node.value)
            else:
                self.add_leaf(lazy, G.ExprHandle(self.gb, i), 1.0)
        return lazy

    def lazy_sum(self, *parts):
        """Sum of c * x over the (c, x) pairs, x a handle, product or
        sum."""
        parts = [(c, self._as_lazy(x)) for c, x in parts]
        out = _LazySum(np.broadcast_shapes(*(x.shape for _, x in parts)))
        for c, x in parts:
            for key, (h, f, whole) in x.counts.items():
                out.add_leaf(key, h, f if c == 1.0 else (f[0], c * f[1]),
                             whole if c == 1.0 else None)
            if x.const is not None:
                v = x.const if c == 1.0 else c * x.const
                out.const = v if out.const is None else out.const + v
        return out

    def realize(self, x):
        """The node of a handle, product or sum: each monomial of a sum is
        built once, its coefficient included, into an add chain sorted by
        structural digest."""
        if isinstance(x, _Mono):
            return self.gb.prim("einsum", x.args, (x.formula,))
        if not isinstance(x, _LazySum):
            return x
        terms = [self.realize(whole if whole is not None
                              else self._times(h, f))
                 for h, f, whole in x.counts.values()]
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
        return acc

    # -- per-node emission -------------------------------------------------

    def emit(self, op, attrs, args):
        if op in ("add", "subtract"):
            sign = 1.0 if op == "add" else -1.0
            return self.lazy_sum((1.0, args[0]), (sign, args[1]))
        if op == "negate":
            return self.lazy_sum((-1.0, args[0]))
        # the einsum-building ops take a product, or a sum of two or more
        # terms, as it is: emit_einsum merges the one, multiplies out the
        # other
        keep = op in ("multiply", "divide", "square", "sum_axis",
                      "broadcast_to", "einsum")
        args = [a if keep and (isinstance(a, _Mono) or (
                    isinstance(a, _LazySum)
                    and len(a.counts) + (a.const is not None) > 1))
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
            # a constant exponent: 0 gives ones, an integer beyond ±8 stays
            # an atom, the rest goes the way of a collected exponent
            exp_node = self.node(args[1])
            if isinstance(exp_node, ConstNode) and exp_node.value.shape == ():
                c = float(exp_node.value)
                if c == 0:
                    return self.const(np.ones(args[0].shape))
                if c != round(c) or -8 <= c <= 8:
                    return self.ew_product(self._power_factors(args[0], c))
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
    memo = {i: s.gb.input(g.nodes[i].name, g.shapes[i], g.nodes[i].support)
            for i in g.inputs}
    return G.cse(s.gb.finish(_sweep(s, g, memo)))


def _sweep(s, g, memo, plus=(), fold_only=False):
    """Emit via ``s`` the nodes of ``g`` its output reaches and ``memo`` (id
    -> handle) lacks; return the output plus the pairs ``plus``, realized.
    When ``fold_only``, only an einsum with two or more constant operands
    is emitted, so they contract; other nodes are folded or copied."""
    reach = g.reachable()
    try:
        for i, node in enumerate(g.nodes):
            if not reach[i] or i in memo:
                continue
            if isinstance(node, ConstNode):
                memo[i] = s.const(node.value)
            elif not fold_only or node.op == "einsum" and sum(
                    s.is_const(memo[a]) for a in node.args) > 1:
                memo[i] = s.emit(node.op, node.attrs,
                                 [memo[a] for a in node.args])
            else:  # copied or folded, so its operands are nodes
                args = [s.realize(memo[a]) for a in node.args]
                memo[i] = (s._try_fold(node.op, node.attrs, args)
                           or s.gb.prim(node.op, args, node.attrs))
        i = g.output
        out = memo[i]
        return s.realize(s.lazy_sum((1.0, out), *plus) if plus else out)
    except _LettersExhausted as exc:
        raise CanonicalizationError(
            f"the einsum form of {G.render(g, i)} needs {exc.args[0]} "
            f"index letters; there are {len(INDEX_ALPHABET)}") from None


def bind(graphs, env, fold_only=False) -> G.EvalPlan:
    """One plan of ``graphs`` with the inputs named in ``env`` bound for
    good: checked copies of their values stand in as constants, and one
    sweep (:func:`_sweep`) folds what they decide, contracts each
    product's constants and collects the terms that differ only in their
    constant (not with ``fold_only``, so a graph with no einsum keeps its
    bits). A step left with only constant operands is a fold that failed:
    it runs here once, so its kernel raises. Later changes to the arrays in
    ``env`` are not seen."""
    s, handles = _Simplifier(_Budget(10000)), {}
    for node in {g.nodes[i].name: g.nodes[i]
                 for g in graphs for i in g.inputs}.values():
        if node.name not in env:
            handles[node.name] = s.gb.input(**vars(node))
            continue
        v = np.array(env[node.name], dtype=np.float64)
        if v.shape != node.shape:
            raise GraphError(f"input {node.name!r} expects shape "
                             f"{node.shape}, got {v.shape}")
        handles[node.name] = s.const(v)
    plan = G.EvalPlan([s.gb.finish(_sweep(
        s, g, {i: handles[g.nodes[i].name] for i in g.inputs},
        fold_only=fold_only)) for g in graphs])
    for kernel, args, _ in plan.steps:
        if all([plan.initial[a] is not None for a in args]):
            kernel(*[plan.initial[a] for a in args])
    return plan


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
# canonical-form predicate and monomial roots


def _add_leaves(nodes, root):
    """Leaves of the add-tree at ``root`` in a node table, left to right."""
    leaves = []
    stack = [root]
    while stack:
        i = stack.pop()
        node = nodes[i]
        if isinstance(node, PrimNode) and node.op == "add":
            stack.extend(node.args[::-1])
        else:
            leaves.append(i)
    return leaves


def monomials(g: TermGraph) -> tuple:
    """Monomial roots of a graph: the leaves of the add-tree at its output,
    left to right."""
    return tuple(_add_leaves(g.nodes, g.output))


def is_canonical(g: TermGraph) -> bool:
    """Structural predicate: the output is an add-tree of monomials, every
    monomial an einsum over atoms (constants, inputs, or non-polynomial
    nodes), a lone atom, or a constant; no polynomial primitive survives
    on the spine."""
    for root in monomials(g):
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
    return _form(normalize_graph(g, max_rules, firing_log))


def _form(g: TermGraph) -> CanonicalForm:
    if not is_canonical(g):
        raise CanonicalizationError(
            "rewriting reached a fixed point that is not canonical")
    return CanonicalForm(graph=g, monomials=monomials(g))


def normalize_graph(g: TermGraph, max_rules: int = 10000,
                    firing_log: list | None = None) -> TermGraph:
    """The rewrite loop behind :func:`canonicalize`, without its
    scalar-output requirement, so it also takes tensor-valued graphs.
    ``max_rules`` bounds the rule firings plus expansion steps of all its
    sweeps; ``firing_log`` receives the log-rule firings."""
    budget = _Budget(max_rules)
    return _fire_rules(local_simplify(g, budget), budget, firing_log)


def _fire_rules(g: TermGraph, budget: _Budget, firing_log=None):
    """The rule phase on a swept graph: fire the first matching log rule,
    sweep the whole graph again, repeat until none matches."""
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
