"""Named rewrite rules and the driver that fires one over a term graph.

A :class:`Rule` pairs a matcher with a rewriter callback. The matcher is a
plain function of a graph and a node id that returns the bindings at that
node (name -> node id, attribute value, or list of node ids) or None; it
reads only the subterm below the node, so whether it matches depends on
structure alone. Rewriters never traverse the graph: they receive the
bound nodes as opaque handles of a fresh builder and compose a
replacement expression, which :func:`apply_rule` splices over the matched
node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import RuleApplicationError
from .graph import (
    ExprHandle, GraphBuilder, InputNode, PrimNode, TermGraph, splice,
)

__all__ = ["Rule", "apply_rule"]


@dataclass(frozen=True)
class Rule:
    """A named rewrite: a matcher plus a rewriter callback.

    ``match(g, nid)`` returns the bindings at node ``nid`` or None. The
    rewriter receives the bindings (node ids replaced by opaque handles of
    a fresh builder, lists of node ids by handle lists) and the builder
    itself, and returns the replacement handle.
    """
    name: str
    match: Callable
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
        binds = rule.match(g, nid)
        if binds is None:
            misses.add(hashes[nid])
            continue
        gb = GraphBuilder()
        ext: dict[str, int] = {}
        handles: dict[str, ExprHandle] = {}

        def as_handle(v):
            if not isinstance(v, int):
                return v
            name = f"_b{v}"
            if name not in ext:
                ext[name] = v
                node = g.nodes[v]
                support = node.support if isinstance(node, InputNode) else None
                handles[name] = gb.input(name, g.shapes[v], support)
            return handles[name]

        wrapped = {k: [as_handle(x) for x in v] if isinstance(v, list)
                   else as_handle(v) for k, v in binds.items()}
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
