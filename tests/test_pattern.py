import numpy as np
import pytest

from symconj import graph as G
from symconj.errors import RuleApplicationError
from symconj.graph import PrimNode
from symconj.pattern import Rule, apply_rule


def op_match(op):
    """Matcher of any application of ``op`` to two arguments x and y."""
    def match(g, nid):
        node = g.nodes[nid]
        if isinstance(node, PrimNode) and node.op == op:
            return {"x": node.args[0], "y": node.args[1]}
        return None
    return match


def match_distribute(g, nid):
    """An einsum with an add or subtract operand, split at the first one."""
    node = g.nodes[nid]
    if not (isinstance(node, PrimNode) and node.op == "einsum"):
        return None
    for j, a in enumerate(node.args):
        arg = g.nodes[a]
        if isinstance(arg, PrimNode) and arg.op in ("add", "subtract"):
            return {"formula": node.attrs[0], "args1": list(node.args[:j]),
                    "op": arg.op, "x": arg.args[0], "y": arg.args[1],
                    "args2": list(node.args[j + 1:])}
    return None


def distribute_rewriter(b, gb):
    lhs = gb.prim("einsum", list(b["args1"]) + [b["x"]] + list(b["args2"]),
                  (b["formula"],))
    rhs = gb.prim("einsum", list(b["args1"]) + [b["y"]] + list(b["args2"]),
                  (b["formula"],))
    return gb.prim(b["op"], (lhs, rhs))


DISTRIBUTE = Rule("distribute_einsum", match_distribute, distribute_rewriter)


def simple_graph():
    gb = G.GraphBuilder()
    a = gb.input("a", (3,))
    b = gb.input("b", (3,))
    s = gb.prim("add", (a, b))
    return gb.finish(s), a, b, s


class TestApplyRule:
    def test_distribute_einsum(self):
        gb = G.GraphBuilder()
        a = gb.input("a", (3,))
        b = gb.input("b", (3,))
        c = gb.input("c", (3,))
        e = G.einsum("i,i->", a, gb.prim("add", (b, c)))
        g = gb.finish(e)
        out, applied = apply_rule(DISTRIBUTE, g)
        assert applied
        top = out.nodes[out.output]
        assert top.op == "add"
        for arg in top.args:
            assert out.nodes[arg].op == "einsum"
        rng = np.random.default_rng(0)
        env = dict(a=rng.standard_normal(3), b=rng.standard_normal(3),
                   c=rng.standard_normal(3))
        assert abs(G.evaluate(out, env) - G.evaluate(g, env)) < 1e-12

    def test_misses_skip_subterms_and_drop_stale_hashes(self):
        gb = G.GraphBuilder()
        a, b, c = (gb.input(n, (3,)) for n in "abc")
        g = gb.finish(G.einsum("i,i->", a, gb.prim("add", (b, c))))
        hashes = g.structural_hashes()
        misses = {hashes[g.output], b"gone"}
        out, applied = apply_rule(DISTRIBUTE, g, misses)
        assert not applied
        assert G.graph_equal(out, g)
        assert misses == set(hashes)

    def test_non_matching_rule_returns_graph_unchanged(self):
        g, a, b, s = simple_graph()
        rule = Rule("noop", op_match("multiply"),
                    lambda bnd, gb: gb.prim("multiply", (bnd["x"], bnd["y"])))
        out, applied = apply_rule(rule, g)
        assert not applied
        assert G.graph_equal(out, g)

    def test_shape_violation_names_rule(self):
        g, a, b, s = simple_graph()
        rule = Rule("bad_rule", op_match("add"),
                    lambda bnd, gb: G.sum_all(bnd["x"]))
        with pytest.raises(RuleApplicationError, match="bad_rule"):
            apply_rule(rule, g)

    def test_registry_rules_preserve_evaluation(self):
        # soundness of every registered canonicalization rule where it fires
        from symconj.canonicalize import REGISTRY
        from symconj.models import fixtures

        rng = np.random.default_rng(1)
        for fx in fixtures():
            g = fx.graph()
            for rule in REGISTRY:
                out, applied = apply_rule(rule, g)
                if not applied:
                    continue
                for seed in range(3):
                    env = fx.example_args(seed + 1)
                    v0 = float(G.evaluate(g, env))
                    v1 = float(G.evaluate(out, env))
                    assert abs(v0 - v1) <= 1e-10 * max(1.0, abs(v0)), (
                        fx.name, rule.name)
