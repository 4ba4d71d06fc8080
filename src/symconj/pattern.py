"""Declarative patterns over term graphs with backtracking matchers.

A pattern is a tree of combinators matched against a node of a TermGraph.
``OpPat`` matches a primitive application; its part-patterns cover the
node's static attributes first (e.g. an einsum formula, matched by
``Str``) and then its argument list, where ``Segment`` may absorb any run
of arguments. ``Choice`` tries alternatives in order, ``Val`` binds a node,
``Bind`` names whatever its inner pattern matched, and ``Const`` matches
constant nodes, optionally under a predicate.

Matching is generator-driven, so backtracking falls out of the Python call
stack: enumeration order is deterministic (argument positions left to
right, Choice alternatives in listed order, Segment preferring the
shortest prefix). A binding name used twice must match the same node id or
a structurally equal subgraph.

A :class:`Rule` pairs a pattern with a rewriter callback. Rewriters never
traverse the graph: they receive the bound nodes as opaque handles of a
fresh builder and compose a replacement expression, which
:func:`apply_rule` splices over the matched node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import PatternError, RuleApplicationError
from .graph import (
    ConstNode, ExprHandle, GraphBuilder, InputNode, PrimNode, TermGraph,
    splice,
)

__all__ = [
    "Pattern", "OpPat", "Val", "Str", "Const", "Choice", "Segment", "Bind",
    "Bindings", "Rule", "match_first", "match_all", "apply_rule",
]


class Pattern:
    """Base class for pattern combinators."""


@dataclass(frozen=True)
class Val(Pattern):
    """Match any node (or attribute value) and bind it."""
    name: str | None = None


@dataclass(frozen=True)
class Str(Pattern):
    """Match a string attribute, optionally under a predicate."""
    name: str | None = None
    predicate: Callable | None = None


@dataclass(frozen=True)
class Const(Pattern):
    """Match a constant node whose value satisfies the predicate."""
    predicate: Callable | None = None
    name: str | None = None


@dataclass(frozen=True)
class Choice(Pattern):
    alternatives: tuple

    def __init__(self, *alternatives):
        object.__setattr__(self, "alternatives", tuple(alternatives))


@dataclass(frozen=True)
class Segment(Pattern):
    """Match any number of consecutive arguments, binding the list."""
    name: str | None = None


@dataclass(frozen=True)
class OpPat(Pattern):
    """Match an application of ``op``; ``parts`` match the node's static
    attributes followed by its arguments. ``as_op`` binds the op name,
    letting a rewriter re-apply whichever op a Choice matched."""
    op: str
    parts: tuple = ()
    as_op: str | None = None

    def __init__(self, op, parts=(), as_op=None):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "parts", tuple(parts))
        object.__setattr__(self, "as_op", as_op)


@dataclass(frozen=True)
class Bind(Pattern):
    name: str
    inner: Pattern


class Bindings(dict):
    """Immutable-by-convention match result: name -> node id, attribute
    value, or list of node ids (for Segment)."""


def _bind(binds, name, value, g):
    if name is None:
        return binds
    if name in binds:
        if _same(binds[name], value, g):
            return binds
        return None
    out = dict(binds)
    out[name] = value
    return out


def _same(a, b, g):
    if a == b:
        return True
    # nonlinear patterns: distinct ids naming structurally equal subgraphs
    if isinstance(a, int) and isinstance(b, int) and g is not None:
        hashes = g.structural_hashes()
        return hashes[a] == hashes[b]
    return False


def _match_value(pattern, value, binds, g):
    """Match a pattern against an attribute value (not a node)."""
    if isinstance(pattern, Str):
        if not isinstance(value, str):
            return
        if pattern.predicate is not None and not pattern.predicate(value):
            return
        out = _bind(binds, pattern.name, value, g)
        if out is not None:
            yield out
    elif isinstance(pattern, Val):
        out = _bind(binds, pattern.name, value, g)
        if out is not None:
            yield out
    elif isinstance(pattern, Choice):
        for alt in pattern.alternatives:
            yield from _match_value(alt, value, binds, g)
    elif isinstance(pattern, Bind):
        for b in _match_value(pattern.inner, value, binds, g):
            out = _bind(b, pattern.name, value, g)
            if out is not None:
                yield out
    elif isinstance(pattern, Segment):
        raise PatternError("Segment may appear only inside an argument list")
    else:
        # literal attribute (exact equality)
        if not isinstance(pattern, Pattern) and pattern == value:
            yield binds


def _match_node(pattern, g, nid, binds):
    node = g.nodes[nid]
    if isinstance(pattern, Val):
        out = _bind(binds, pattern.name, nid, g)
        if out is not None:
            yield out
    elif isinstance(pattern, Const):
        if isinstance(node, ConstNode):
            if pattern.predicate is None or pattern.predicate(node.value):
                out = _bind(binds, pattern.name, nid, g)
                if out is not None:
                    yield out
    elif isinstance(pattern, Choice):
        for alt in pattern.alternatives:
            yield from _match_node(alt, g, nid, binds)
    elif isinstance(pattern, Bind):
        for b in _match_node(pattern.inner, g, nid, binds):
            out = _bind(b, pattern.name, nid, g)
            if out is not None:
                yield out
    elif isinstance(pattern, OpPat):
        if not isinstance(node, PrimNode) or node.op != pattern.op:
            return
        parts = list(node.attrs) + list(node.args)
        n_attrs = len(node.attrs)
        start = _bind(binds, pattern.as_op, node.op, g)
        if start is None:
            return
        yield from _match_parts(pattern.parts, parts, n_attrs, g, start)
    elif isinstance(pattern, Segment):
        raise PatternError("Segment may appear only inside an argument list")
    elif isinstance(pattern, Str):
        return
    else:
        raise PatternError(f"cannot match {pattern!r} against a node")


def _match_parts(patterns, parts, n_attrs, g, binds):
    """Sequence matcher over a node's attrs+args with Segment support."""
    if not patterns:
        if not parts:
            yield binds
        return
    head, rest = patterns[0], patterns[1:]
    if isinstance(head, Choice):
        for alt in head.alternatives:
            yield from _match_parts((alt,) + tuple(rest), parts, n_attrs, g,
                                    binds)
        return
    if isinstance(head, Segment):
        if n_attrs > 0:
            raise PatternError("Segment may appear only inside an argument list")
        for take in range(len(parts) + 1):
            out = _bind(binds, head.name, list(parts[:take]), g)
            if out is None:
                continue
            yield from _match_parts(rest, parts[take:], 0, g, out)
    else:
        if not parts:
            return
        subject = parts[0]
        if n_attrs > 0:
            for b in _match_value(head, subject, binds, g):
                yield from _match_parts(rest, parts[1:], n_attrs - 1, g, b)
        else:
            for b in _match_node(head, g, subject, binds):
                yield from _match_parts(rest, parts[1:], 0, g, b)


def matches(pattern, g: TermGraph, root: int):
    """Iterator over all bindings of the pattern at one node, in
    deterministic search order."""
    seen = []
    for b in _match_node(pattern, g, root, {}):
        if b not in seen:
            seen.append(b)
            yield Bindings(b)


def match_first(pattern, g: TermGraph, root: int):
    """First binding under the deterministic search order, or None."""
    return next(iter(matches(pattern, g, root)), None)


def match_all(pattern, g: TermGraph, root: int):
    """All distinct bindings at a node; the first equals match_first."""
    return list(matches(pattern, g, root))


@dataclass(frozen=True)
class Rule:
    """A named rewrite: a pattern plus a rewriter callback.

    The rewriter receives the bindings (node ids replaced by opaque
    handles of a fresh builder, Segment bindings by handle lists) and the
    builder itself, and returns the replacement handle.
    """
    name: str
    pattern: Pattern
    rewriter: Callable


def _preorder(g: TermGraph):
    """Output-first depth-first node order, arguments left to right."""
    seen = set()
    order = []
    stack = [g.output]
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        order.append(i)
        node = g.nodes[i]
        if isinstance(node, PrimNode):
            stack.extend(reversed(node.args))
    return order


def apply_rule(rule: Rule, g: TermGraph, misses: set | None = None):
    """Apply a rule at the first matching subterm searching from the
    output downward; returns (graph, applied). A match depends on structure
    alone, so subterms whose structural hash is in ``misses`` are skipped;
    the set is cut back to ``g``'s hashes and extended with new misses."""
    misses = set() if misses is None else misses
    hashes = g.structural_hashes()
    misses.intersection_update(hashes)
    for nid in _preorder(g):
        if hashes[nid] in misses:
            continue
        binds = match_first(rule.pattern, g, nid)
        if binds is None:
            misses.add(hashes[nid])
            continue
        gb = GraphBuilder(dedup=True)
        ext: dict[str, int] = {}

        def as_handle(v):
            if isinstance(v, int):
                name = f"_b{v}"
                if name not in ext:
                    ext[name] = v
                    node = g.nodes[v]
                    support = node.support if isinstance(node, InputNode) else None
                    h = gb.input(name, g.shapes[v], support)
                    as_handle.cache[name] = h
                return as_handle.cache[name]
            return v

        as_handle.cache = {}
        wrapped = Bindings()
        for k, v in binds.items():
            if isinstance(v, list):
                wrapped[k] = [as_handle(x) for x in v]
            else:
                wrapped[k] = as_handle(v)
        out = rule.rewriter(wrapped, gb)
        if not isinstance(out, ExprHandle):
            raise RuleApplicationError(
                f"rule {rule.name!r}: rewriter must return a handle", rule=rule.name)
        if out.shape != g.shapes[nid]:
            raise RuleApplicationError(
                f"rule {rule.name!r}: rewriter shape {out.shape} != matched "
                f"shape {g.shapes[nid]}", rule=rule.name)
        fragment = gb.finish(out)
        return splice(g, nid, fragment, bindings=ext), True
    return g, False
