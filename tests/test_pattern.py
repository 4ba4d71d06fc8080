import numpy as np
import pytest

from symconj import graph as G
from symconj.errors import PatternError, RuleApplicationError
from symconj.pattern import (
    Bind, Choice, Const, OpPat, Rule, Segment, Str, Val, apply_rule,
    match_all, match_first,
)

DISTRIBUTE_PAT = OpPat("einsum", [
    Str("formula"), Segment("args1"),
    Choice(OpPat("subtract", [Val("x"), Val("y")], as_op="op"),
           OpPat("add", [Val("x"), Val("y")], as_op="op")),
    Segment("args2")])


def distribute_rewriter(b, gb):
    lhs = gb.prim("einsum", list(b["args1"]) + [b["x"]] + list(b["args2"]),
                  (b["formula"],))
    rhs = gb.prim("einsum", list(b["args1"]) + [b["y"]] + list(b["args2"]),
                  (b["formula"],))
    return gb.prim(b["op"], (lhs, rhs))


def simple_graph():
    gb = G.GraphBuilder()
    a = gb.input("a", (3,))
    b = gb.input("b", (3,))
    s = gb.prim("add", (a, b))
    return gb.finish(s), a, b, s


class TestMatchFirst:
    def test_binds_add_arguments(self):
        g, a, b, s = simple_graph()
        m = match_first(OpPat("add", [Val("x"), Val("y")]), g, s.nid)
        assert m == {"x": a.nid, "y": b.nid}

    def test_listing_style_einsum_pattern(self):
        gb = G.GraphBuilder()
        A = gb.input("A", (2, 3))
        B = gb.input("B", (3, 4))
        C = gb.input("C", (3, 4))
        s = gb.prim("add", (B, C))
        e = G.einsum("ij,jk->ik", A, s)
        g = gb.finish(e, scalar=False)
        m = match_first(DISTRIBUTE_PAT, g, e.nid)
        assert m["formula"] == "ij,jk->ik"
        assert m["args1"] == [A.nid]
        assert m["op"] == "add"
        assert m["x"] == B.nid and m["y"] == C.nid
        assert m["args2"] == []

    def test_nonlinear_pattern(self):
        gb = G.GraphBuilder()
        a = gb.input("a", ())
        b = gb.input("b", ())
        same = gb.prim("multiply", (a, a))
        diff = gb.prim("multiply", (a, b))
        g = gb.finish(gb.prim("add", (same, diff)))
        pat = OpPat("multiply", [Val("x"), Val("x")])
        assert match_first(pat, g, same.nid) == {"x": a.nid}
        assert match_first(pat, g, diff.nid) is None

    def test_nonlinear_matches_structurally_equal_duplicates(self):
        # without CSE, two log(x) nodes are distinct ids but equal subgraphs
        gb = G.GraphBuilder()
        x = gb.input("x", ())
        l1 = gb.prim("log", (x,))
        l2 = gb.prim("log", (x,))
        top = gb.prim("add", (l1, l2))
        g = gb.finish(top)
        pat = OpPat("add", [Val("u"), Val("u")])
        assert match_first(pat, g, top.nid) is not None

    def test_no_match_returns_none(self):
        g, a, b, s = simple_graph()
        assert match_first(OpPat("multiply", [Val("x"), Val("y")]), g, s.nid) is None

    def test_const_predicate(self):
        gb = G.GraphBuilder()
        x = gb.input("x", ())
        c = gb.constant(2.0)
        m = gb.prim("multiply", (c, x))
        g = gb.finish(m)
        pat = OpPat("multiply", [Const(lambda v: float(v) == 2.0), Val("x")])
        assert match_first(pat, g, m.nid) == {"x": x.nid}
        pat_bad = OpPat("multiply", [Const(lambda v: float(v) == 3.0), Val("x")])
        assert match_first(pat_bad, g, m.nid) is None


class TestMatchAll:
    def three_arg_einsum(self):
        gb = G.GraphBuilder()
        a = gb.input("a", ())
        b = gb.input("b", ())
        c = gb.input("c", ())
        e = G.einsum(",,->", a, b, c)
        return gb.finish(e), (a.nid, b.nid, c.nid), e.nid

    def test_segment_val_segment_yields_one_per_position(self):
        g, ids, root = self.three_arg_einsum()
        pat = OpPat("einsum", [Str("f"), Segment("pre"), Val("x"), Segment("post")])
        ms = match_all(pat, g, root)
        assert len(ms) == 3
        assert [m["x"] for m in ms] == list(ids)
        # shortest-prefix Segment preference puts the empty prefix first
        assert ms[0]["pre"] == []
        assert match_first(pat, g, root) == ms[0]

    def test_choice_yields_alternatives_in_order(self):
        g, ids, root = self.three_arg_einsum()
        pat = OpPat("einsum", [Str("f"),
                               Choice(Segment("s"), Segment("t"))])
        ms = match_all(pat, g, root)
        assert len(ms) == 2
        assert "s" in ms[0] and "t" in ms[1]

    def test_determinism(self):
        g, ids, root = self.three_arg_einsum()
        pat = OpPat("einsum", [Str("f"), Segment("pre"), Val("x"), Segment("post")])
        a = match_all(pat, g, root)
        b = match_all(pat, g, root)
        assert a == b

    @pytest.mark.parametrize("n_args", [2, 3, 4])
    def test_count_matches_exhaustive_enumeration(self, n_args):
        gb = G.GraphBuilder()
        args = [gb.input(f"x{i}", ()) for i in range(n_args)]
        e = G.einsum(",".join([""] * n_args) + "->", *args)
        g = gb.finish(e)
        pat = OpPat("einsum", [Str("f"), Segment("pre"), Val("u"),
                               Segment("mid"), Val("v"), Segment("post")])
        got = match_all(pat, g, e.nid)
        # independent enumeration: all (i, j) positions with i < j
        expected = [(i, j) for i in range(n_args) for j in range(n_args)
                    if i < j]
        assert len(got) == len(expected)
        assert [(g_.get("u"), g_.get("v")) for g_ in got] == [
            (args[i].nid, args[j].nid) for i, j in expected]

    def test_bind_names_matched_node(self):
        g, a, b, s = simple_graph()
        pat = Bind("whole", OpPat("add", [Val("x"), Val("y")]))
        m = match_first(pat, g, s.nid)
        assert m["whole"] == s.nid

    def test_segment_outside_argument_list_rejected(self):
        g, a, b, s = simple_graph()
        with pytest.raises(PatternError):
            match_first(Segment("s"), g, s.nid)


class TestApplyRule:
    def test_distribute_einsum(self):
        gb = G.GraphBuilder()
        a = gb.input("a", (3,))
        b = gb.input("b", (3,))
        c = gb.input("c", (3,))
        e = G.einsum("i,i->", a, gb.prim("add", (b, c)))
        g = gb.finish(e)
        rule = Rule("distribute_einsum", DISTRIBUTE_PAT, distribute_rewriter)
        out, applied = apply_rule(rule, g)
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
        rule = Rule("distribute_einsum", DISTRIBUTE_PAT, distribute_rewriter)
        hashes = g.structural_hashes()
        misses = {hashes[g.output], b"gone"}
        out, applied = apply_rule(rule, g, misses)
        assert not applied
        assert G.graph_equal(out, g)
        assert misses == set(hashes)

    def test_non_matching_rule_returns_graph_unchanged(self):
        g, a, b, s = simple_graph()
        rule = Rule("noop", OpPat("multiply", [Val("x"), Val("y")]),
                    lambda bnd, gb: gb.prim("multiply", (bnd["x"], bnd["y"])))
        out, applied = apply_rule(rule, g)
        assert not applied
        assert G.graph_equal(out, g)

    def test_shape_violation_names_rule(self):
        g, a, b, s = simple_graph()
        rule = Rule("bad_rule", OpPat("add", [Val("x"), Val("y")]),
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
