import re

import numpy as np
import pytest

from symconj import graph as G
from symconj.canonicalize import bind, canonicalize
from symconj.conjugacy import (complete_conditional, marginalize,
                               multilinear_repr)
from symconj.errors import (GraphError, NonDifferentiableError,
                            NumericDomainError, SymconjError)
from symconj.models import fixture, fixtures
from symconj.tensor import as_tensor

from oracles import central_diff


def beta_bernoulli_graph():
    def model(z, heads, draws, a, b):
        lp = (a - 1.0) * G.log(z) + (b - 1.0) * G.log1p(-z)
        lp = lp + heads * G.log(z) + (draws - heads) * G.log1p(-z)
        lp = lp - G.log_gamma(a) - G.log_gamma(b) + G.log_gamma(a + b)
        return lp
    return G.build(model, [("z", (), "UNIT_INTERVAL"), ("heads", ()),
                           ("draws", ()), ("a", ()), ("b", ())])


BB_ENV = dict(z=0.5, heads=60.0, draws=100.0, a=0.5, b=0.5)


def with_constant(g, nid, value):
    """``g`` with node ``nid`` swapped for a constant through the
    ``substitute`` callback of :func:`graph.rebuild`."""
    gb = G.GraphBuilder()

    def substitute(i):
        return gb.constant(value) if i == nid else None

    return gb.finish(G.rebuild(gb, g, g.output, {}, substitute))


def bb_direct(z, heads, draws, a, b):
    from scipy.special import gammaln
    return ((a - 1) * np.log(z) + (b - 1) * np.log1p(-z)
            + heads * np.log(z) + (draws - heads) * np.log1p(-z)
            - gammaln(a) - gammaln(b) + gammaln(a + b))


class TestBuild:
    def test_identity_callback(self):
        g = G.build(lambda x: x, [("x", (3,))], scalar=False)
        assert len(g.inputs) == 1
        assert g.output == g.inputs[0]

    def test_beta_bernoulli_transcription(self):
        g = beta_bernoulli_graph()
        ops = {n.op for n in g.nodes if isinstance(n, G.PrimNode)}
        assert {"log", "log1p", "log_gamma", "multiply", "add"} <= ops
        got = G.evaluate(g, BB_ENV)
        assert abs(got - bb_direct(**BB_ENV)) < 1e-12

    def test_dot_plus_scalar(self):
        g = G.build(lambda w, x, b: G.einsum("i,i->", w, x) + b,
                    [("w", (3,)), ("x", (3,)), ("b", ())])
        assert len(g.inputs) == 3
        env = dict(w=[1.0, 2, 3], x=[4.0, 5, 6], b=0.5)
        assert G.evaluate(g, env) == 1 * 4 + 2 * 5 + 3 * 6 + 0.5

    def test_scalar_requirement(self):
        with pytest.raises(GraphError):
            G.build(lambda x: x, [("x", (3,))], scalar=True)

    def test_mixing_builders_rejected(self):
        gb1 = G.GraphBuilder()
        gb2 = G.GraphBuilder()
        x = gb1.input("x", ())
        y = gb2.input("y", ())
        with pytest.raises(GraphError):
            x + y

    def test_shape_inconsistency_at_construction(self):
        gb = G.GraphBuilder()
        x = gb.input("x", (3,))
        y = gb.input("y", (2,))
        with pytest.raises(SymconjError, match="'i'"):
            G.einsum("i,i->", x, y)
        with pytest.raises(GraphError):
            gb.prim("add", (x, y))

    def test_acyclicity_structural(self):
        # every argument comes before its node: the table is its own
        # topological order
        g = beta_bernoulli_graph()
        assert all(a < i for i, node in enumerate(g.nodes)
                   if isinstance(node, G.PrimNode) for a in node.args)


class TestBuilderChecks:
    """Every node is checked against its ``OPS`` row as it is built, and
    each error names the op."""

    @pytest.mark.parametrize("build, message", [
        (lambda gb, a, b, m, s: gb.prim("log", (a, a)),
         "log: argument count 2, expected 1"),
        (lambda gb, a, b, m, s: gb.prim("add", (a,)),
         "add: argument count 1, expected 2"),
        (lambda gb, a, b, m, s: gb.prim("inverse", (s, a)),
         "inverse: argument count 2, expected 1"),
        (lambda gb, a, b, m, s: gb.prim("einsum", (), ("->",)),
         "einsum: argument count 0, expected at least 1"),
        (lambda gb, a, b, m, s: gb.prim("log", (a,), ("x",)),
         "log: attribute count 1, expected 0"),
        (lambda gb, a, b, m, s: gb.prim("sum_axis", (a,)),
         "sum_axis: attribute count 0, expected 1"),
        (lambda gb, a, b, m, s: gb.prim("einsum", (a,)),
         "einsum: attribute count 0, expected 1"),
        (lambda gb, a, b, m, s: G.one_hot(a, 0),
         "one_hot: depth must be positive, got 0"),
        (lambda gb, a, b, m, s: G.one_hot(a, -1),
         "one_hot: depth must be positive, got -1"),
        (lambda gb, a, b, m, s: a * b,
         "multiply: shapes (3,) and (2,) do not broadcast"),
        (lambda gb, a, b, m, s: G.sum_axis(m, 2),
         "sum_axis: axis 2 out of bounds for shape (2, 3)"),
        (lambda gb, a, b, m, s: G.logsumexp(m, -3),
         "logsumexp: axis -3 out of bounds for shape (2, 3)"),
        (lambda gb, a, b, m, s: G.broadcast_to(m, (1, 3)),
         "broadcast_to: (2, 3) does not broadcast to (1, 3)"),
        (lambda gb, a, b, m, s: G.broadcast_to(m, (3, 3)),
         "broadcast_to: shapes (2, 3) and (3, 3) do not broadcast"),
        (lambda gb, a, b, m, s: G.inverse(m),
         "inverse: needs square trailing axes, got (2, 3)"),
        (lambda gb, a, b, m, s: G.logdet(a),
         "logdet: needs square trailing axes, got (3,)"),
        (lambda gb, a, b, m, s: gb.prim("bogus", (a,)),
         "unknown primitive 'bogus'"),
        (lambda gb, a, b, m, s: gb.prim("one_hot", (a,), (2.5,)),
         "one_hot: needs an integer attribute, got 2.5"),
        (lambda gb, a, b, m, s: gb.prim("one_hot", (a,), (True,)),
         "one_hot: needs an integer attribute, got True"),
        (lambda gb, a, b, m, s: gb.prim("sum_axis", (m,), ("a",)),
         "sum_axis: needs an integer attribute, got 'a'"),
        (lambda gb, a, b, m, s: gb.prim("logsumexp", (m,), (0.0,)),
         "logsumexp: needs an integer attribute, got 0.0"),
        (lambda gb, a, b, m, s: gb.prim("broadcast_to", (a,), ((2.5,),)),
         "broadcast_to: needs an integer attribute, got 2.5"),
        (lambda gb, a, b, m, s: gb.prim("broadcast_to", (m,), (3,)),
         "broadcast_to: needs a shape sequence, got 3"),
        (lambda gb, a, b, m, s: gb.input("a", (3,)),
         "duplicate input name 'a'"),
        (lambda gb, a, b, m, s: gb.input("2a", ()),
         "invalid input name '2a'"),
        (lambda gb, a, b, m, s: gb.prim(
            "log", (G.GraphBuilder().input("z", ()),)),
         "log: cannot combine handles from different builders"),
        (lambda gb, a, b, m, s: gb.finish(G.GraphBuilder().input("z", ())),
         "finish() requires a handle from this builder"),
        (lambda gb, a, b, m, s: gb.input_handle("q"),
         "builder has no input named 'q'"),
        (lambda gb, a, b, m, s: G.einsum("->"),
         "einsum needs at least one operand"),
        (lambda gb, a, b, m, s: a + G.GraphBuilder().input("z", (3,)),
         "add: cannot combine handles from different builders"),
        (lambda gb, a, b, m, s: 2.0 * G.GraphBuilder().input("z", (3,)) - a,
         "subtract: cannot combine handles from different builders"),
        (lambda gb, a, b, m, s: G.one_hot(a, 2.7),
         "one_hot: needs an integer attribute, got 2.7"),
        pytest.param(lambda gb, a, b, m, s: G.one_hot(a, True),
                     "one_hot: needs an integer attribute, got True",
                     id="combinator-one_hot-True"),
        (lambda gb, a, b, m, s: G.sum_axis(m, 0.9),
         "sum_axis: needs an integer attribute, got 0.9"),
        (lambda gb, a, b, m, s: G.logsumexp(m, False),
         "logsumexp: needs an integer attribute, got False"),
        pytest.param(lambda gb, a, b, m, s: G.broadcast_to(m, 3),
                     "broadcast_to: needs a shape sequence, got 3",
                     id="combinator-broadcast_to-3"),
        (lambda gb, a, b, m, s: G.einsum("i->", np.ones(3)),
         "einsum needs at least one handle operand"),
    ])
    def test_malformed_node_rejected(self, build, message):
        gb = G.GraphBuilder()
        handles = [gb.input(n, shape) for n, shape in
                   [("a", (3,)), ("b", (2,)), ("m", (2, 3)), ("s", (3, 3))]]
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            build(gb, *handles)
        assert len(gb.finish(handles[0]).nodes) == 4

    def test_numpy_integer_attributes_accepted(self):
        gb = G.GraphBuilder()
        m = gb.input("m", (2, 3))
        assert gb.prim("one_hot", (m,), (np.int64(4),)).shape == (2, 3, 4)
        assert gb.prim("sum_axis", (m,), (np.int32(1),)).shape == (2,)
        assert gb.prim("broadcast_to", (m,),
                       ((np.int64(5), 2, 3),)).shape == (5, 2, 3)

        def root_hash(op, attr):  # one node and one digest per spelling
            gb = G.GraphBuilder()
            g = gb.finish(gb.prim(op, (gb.input("m", (2, 3)),), (attr,)))
            return g.structural_hashes()[g.output]
        assert root_hash("sum_axis", np.int64(1)) == root_hash("sum_axis", 1)
        assert (root_hash("broadcast_to", (np.int64(5), 2, 3))
                == root_hash("broadcast_to", (5, 2, 3)))

    def test_einsum_takes_the_builder_of_its_first_handle(self):
        gb = G.GraphBuilder()
        x = gb.input("x", (3,))
        h = G.einsum("i,i->", np.ones(3), x)
        assert h.builder is gb and h.shape == ()
        g = gb.finish(h)
        assert float(G.evaluate(g, {"x": np.arange(3.0)})) == 3.0

    def test_build_hash_conses(self):
        g = beta_bernoulli_graph()
        logs = [n for n in g.nodes if isinstance(n, G.PrimNode)
                and n.op == "log"]
        assert len(logs) == 1

    @pytest.mark.parametrize("record, message", [
        ("prim n1 log [junk] x", "log: attribute count 1, expected 0"),
        ("prim n1 sum_axis x", "sum_axis: attribute count 0, expected 1"),
        ("prim n1 log x y", "log: argument count 2, expected 1"),
        ("prim n1 einsum [junk] x",
         "formula 'junk' must contain exactly one '->'"),
        ("bogus n1 x", "unknown record 'bogus'"),
        ("input z 3", "bad shape token '3'"),
        ("input x (3,)", "label 'x' is defined twice"),
        ("const x () 2.0", "label 'x' is defined twice"),
        ("prim y log x", "label 'y' is defined twice"),
    ])
    def test_parse_reports_the_op_and_line(self, record, message):
        text = f"input x (3,)\ninput y (3,)\n{record}\noutput n1\n"
        with pytest.raises(GraphError, match=re.escape(
                f"parse error at line 3: {message}")):
            G.parse(text)

    def test_dump_labels_never_shadow_an_input(self):
        g = G.build(lambda n2, n2_: G.sum_all(G.log(n2) * n2_),
                    [("n2", (3,)), ("n2_", (3,))])
        text = G.dump(g)
        assert "prim n2__ log n2\n" in text
        assert G.graph_equal(G.parse(text), g)

    def test_parse_rejects_a_second_output(self):
        with pytest.raises(GraphError, match=re.escape(
                "parse error at line 4: a second output record")):
            G.parse("input x ()\nprim y log x\noutput y\noutput x\n")

    def test_lookups_name_what_is_missing(self):
        with pytest.raises(GraphError, match="^parse error: no output record$"):
            G.parse("input x (3,)\n")
        g = G.build(lambda x, y: G.sum_all(x * y), [("x", (3,)), ("y", (3,))])
        with pytest.raises(GraphError, match="^no input named 'q'$"):
            g.input_id("q")
        gb = G.GraphBuilder()
        with pytest.raises(GraphError,
                           match="^import_graph: unbound input 'y'$"):
            G.import_graph(gb, g, {"x": gb.input("x", (3,))})
        with pytest.raises(GraphError, match="^unknown dump format 'yaml'$"):
            G.dump(g, "yaml")


class TestEvaluate:
    def test_constant_only_graph(self):
        gb = G.GraphBuilder()
        c = gb.constant([1.0, 2.0])
        g = gb.finish(c)
        assert np.array_equal(G.evaluate(g, {}), [1, 2])
        assert np.array_equal(G.evaluate(g, {"junk": 3.0}), [1, 2])

    def test_missing_binding(self):
        g = beta_bernoulli_graph()
        with pytest.raises(GraphError, match="missing binding"):
            G.evaluate(g, {"z": 0.5})

    def test_shape_mismatch(self):
        g = G.build(lambda x: G.sum_all(x), [("x", (3,))])
        with pytest.raises(GraphError, match="shape"):
            G.evaluate(g, {"x": np.ones(4)})

    def test_input_checks_run_on_every_call(self):
        g = beta_bernoulli_graph()
        assert abs(G.evaluate(g, BB_ENV) - bb_direct(**BB_ENV)) < 1e-9
        with pytest.raises(GraphError, match="missing binding"):
            G.evaluate(g, {"z": 0.5})
        with pytest.raises(GraphError, match="shape"):
            G.evaluate(g, dict(BB_ENV, z=np.ones(2)))

    def test_kernel_domain_error_propagates(self):
        from symconj.errors import NumericDomainError
        g = G.build(lambda x: G.log(x), [("x", ())])
        with pytest.raises(NumericDomainError):
            G.evaluate(g, {"x": -1.0})

    def test_compositionality_at_cut_nodes(self):
        rng = np.random.default_rng(0)
        g = beta_bernoulli_graph()
        env = dict(z=0.3, heads=7.0, draws=11.0, a=1.5, b=2.5)
        full = G.evaluate(g, env)
        # evaluate a subgraph at an interior node, then splice its value in
        for nid in range(len(g.nodes)):
            node = g.nodes[nid]
            if not isinstance(node, G.PrimNode):
                continue
            sub = G.subgraph(g, nid)
            cut_value = G.evaluate(sub, env)
            replaced = with_constant(g, nid, cut_value)
            assert abs(G.evaluate(replaced, env) - full) < 1e-12


def reference_evaluate(g, env):
    """Node-by-node walk of the reachable nodes through ``_eval_prim``."""
    values = {}
    reach = g.reachable()
    for i, node in enumerate(g.nodes):
        if not reach[i]:
            continue
        if isinstance(node, G.InputNode):
            values[i] = as_tensor(env[node.name])
        elif isinstance(node, G.ConstNode):
            values[i] = node.value
        else:
            values[i] = G._eval_prim(node.op, node.attrs,
                                     [values[a] for a in node.args])
    return values[g.output]


def assert_same_bits(g, env, got=None):
    """The plan's value of ``g`` (or ``got``) equals the reference walk's
    bit for bit, or both raise the same error."""
    try:
        want = reference_evaluate(g, env)
    except SymconjError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            G.evaluate(g, env)
        return
    if got is None:
        got = G.evaluate(g, env)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


def derived_graphs(fx):
    """Every graph derived from a fixture, with one environment binding
    all of their inputs: the example arguments plus, per latent block, its
    statistic inputs at the example value."""
    g = fx.graph()
    env = dict(fx.example_args(0))
    graphs = {"log_joint": g, "canonical": canonicalize(g).graph}
    blocks = []
    for argnum, support in fx.latents:
        var = g.input_names[argnum]
        block = complete_conditional(g, argnum, support).block
        blocks.append(block)
        for s in block.stats:
            graphs[f"conditional/{var}/{s.descriptor}"] = s.eta_graph
        graphs[f"marginal/{var}"] = marginalize(g, argnum, support)
    if fx.latents:
        mr = multilinear_repr(g, argnums=[a for a, _ in fx.latents],
                              supports=[s for _, s in fx.latents])
        graphs["neg_energy"] = mr.neg_energy
        env.update(mr.energy_env(
            {b.name: b.statistic_values(env[b.name]) for b in mr.blocks}, {}))
        blocks.extend(mr.blocks)
        for b in mr.blocks:
            for s in b.stats:
                graphs[f"multilinear/{b.name}/{s.descriptor}/stat"] = (
                    s.stat_graph)
                graphs[f"multilinear/{b.name}/{s.descriptor}/eta"] = (
                    s.eta_graph)
    return graphs, blocks, env


class TestEvalPlan:
    @pytest.mark.parametrize("fx", fixtures(), ids=lambda fx: fx.name)
    def test_plan_matches_reference_walk_bit_for_bit(self, fx):
        graphs, blocks, env = derived_graphs(fx)
        for g in graphs.values():
            assert_same_bits(g, env)
        for b in blocks:
            for s, got in zip(b.stats, b.eta_plan.run(env)):
                assert_same_bits(s.eta_graph, env, got)

    def test_plan_built_once_and_reused(self, monkeypatch):
        built = []

        class CountingPlan(G.EvalPlan):
            def __init__(self, graphs):
                built.append(graphs)
                super().__init__(graphs)

        monkeypatch.setattr(G, "EvalPlan", CountingPlan)
        g = beta_bernoulli_graph()
        first = G.evaluate(g, BB_ENV)
        plan = g.plan()
        for _ in range(3):
            assert G.evaluate(g, BB_ENV) == first
        assert g.plan() is plan
        assert len(built) == 1

    def test_block_plan_shares_inputs_and_subexpressions(self):
        fx = fixture("kalman")
        g = fx.graph()
        block = complete_conditional(g, 0, fx.latents[0][1]).block
        plan = block.eta_plan
        assert block.eta_plan is plan
        assert len(plan.outputs) == len(block.stats)
        names = [name for name, _, _ in plan.inputs]
        assert len(names) == len(set(names))
        etas = [s.eta_graph.plan() for s in block.stats]
        assert len(plan.inputs) < sum(len(p.inputs) for p in etas)
        assert len(plan.steps) < sum(len(p.steps) for p in etas)

    @pytest.mark.parametrize("fx", fixtures(), ids=lambda fx: fx.name)
    def test_bound_plan_matches_unbound_bit_for_bit(self, fx):
        """The log joint bound as a Gibbs chain binds it, folding only,
        gives its unbound plan's value to the bit."""
        graphs, _, env = derived_graphs(fx)
        g = graphs["log_joint"]
        latents = {g.input_names[a] for a, _ in fx.latents}
        data = {k: v for k, v in fx.example_args(0).items()
                if k not in latents}
        bound = bind([g], data, fold_only=True)
        assert not {name for name, _, _ in bound.inputs} & data.keys()
        assert len(bound.steps) < len(g.plan().steps)
        got, want = bound.run(env)[0], g.plan().run(env)[0]
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)

    def test_bind_contracts_the_bound_operands_of_an_einsum_once(self):
        g = G.build(lambda w, a, m: G.einsum("bc,a,a,ab,ac,dd->",
                                             w, a, a, m, m, m),
                    [("w", (2, 2)), ("a", (2,)), ("m", (2, 2))])
        plan = g.plan()
        w = np.array([[1.0, 2.0], [3.0, -1.0]])
        a, m = np.array([1.0, -2.0]), np.array([[0.5, 1.5], [-1.0, 2.0]])
        bound = bind([g], {"a": a, "m": m})
        (_, args, slot), = bound.steps
        spec, shapes = bound.einsums[slot]
        assert spec.formula == "ab,ab->" and shapes == ((2, 2), (2, 2))
        # the index d is summed, and a, read by no free operand, too
        assert np.array_equal(bound.initial[args[0]], np.einsum(
            "a,a,ab,ac,dd->bc", a, a, m, m, m))
        got = bound.run({"w": w})[0]
        np.testing.assert_allclose(got, plan.run({"w": w, "a": a, "m": m})[0],
                                   rtol=1e-13)

    @pytest.mark.parametrize("formula,factor", [
        ("i,ij,jk->ik", "ik"),      # an output index only bound ones read
        ("ii,ij,j->i", "i"),        # a diagonal of the free operand
        ("ij,ij,jk,k->", "ij"),     # a bound operand read twice
        ("j,ij,jk,k->", "j"),       # the factor is reduced to a vector
    ])
    def test_split_einsum_matches_the_whole_one(self, formula, factor):
        subs = formula.split("->")[0].split(",")
        names = [f"x{k}" for k in range(len(subs))]
        shapes = [(3,) * len(sub) for sub in subs]
        g = G.build(lambda *xs: G.einsum(formula, *xs),
                    list(zip(names, shapes)), scalar=False)
        rng = np.random.default_rng(0)
        env = {n: rng.standard_normal(s) for n, s in zip(names, shapes)}
        bound = bind([g], {n: env[n] for n in names[1:]})
        (_, _, slot), = bound.steps
        assert bound.einsums[slot][0].formula == G.rename_formula(
            f"{factor},{subs[0]}->" + formula.split("->")[1])
        np.testing.assert_allclose(bound.run(env)[0], G.evaluate(g, env),
                                   rtol=1e-13)

    def test_bind_leaves_an_einsum_with_one_bound_operand_whole(self):
        g = G.build(lambda z, a: G.einsum("i,ij,j->", z, a, z),
                    [("z", (2,)), ("a", (2, 2))])
        plan = g.plan()
        bound = bind([g], {"a": np.eye(2)})
        (_, _, slot), = bound.steps
        spec, shapes = bound.einsums[slot]
        assert spec.formula == G.rename_formula("ij,i,j->")
        assert shapes == ((2, 2), (2,), (2,))
        assert len(bound.initial) == len(plan.initial)

    def test_bind_runs_what_reads_only_bound_inputs(self):
        g = G.build(lambda z, a: G.sum_all(z * a + G.exp(G.log(a))),
                    [("z", ()), ("a", (2,))])
        plan = g.plan()
        a = np.array([1.0, 2.0])
        bound = bind([g], {"a": a, "unused": 0.0}, fold_only=True)
        assert [name for name, _, _ in bound.inputs] == ["z"]
        assert len(bound.steps) == len(plan.steps) - 2  # log(a), exp(.)
        want = plan.run({"z": 3.0, "a": a})[0]
        a[:] = 5.0  # the bound plan holds its own copy
        assert bound.run({"z": 3.0})[0] == want
        with pytest.raises(GraphError, match="missing binding for input 'z'"):
            bound.run({"a": a})

    def test_bind_checks_shapes_and_domains_once(self):
        g = G.build(lambda z, a: G.sum_all(z * G.log(a)),
                    [("z", ()), ("a", (2,))])
        with pytest.raises(GraphError,
                           match=r"input 'a' expects shape \(2,\), got"):
            bind([g], {"a": [1.0]})
        with pytest.raises(NumericDomainError,
                           match=r"^log: domain violation at flat index 1"):
            bind([g], {"a": [1.0, -1.0]})

    def test_interior_domain_violation_names_flat_index(self):
        g = G.build(lambda x: G.log(x - 2.0), [("x", (2,))], scalar=False)
        assert np.array_equal(G.evaluate(g, {"x": [3.0, 4.0]}),
                              np.log([1.0, 2.0]))
        with pytest.raises(NumericDomainError,
                           match=r"log: domain violation at flat index 1 "
                                 r"\(value .*-1\.0\)"):
            G.evaluate(g, {"x": [3.0, 1.0]})

    def test_non_finite_unary_result_raises(self):
        g = G.build(lambda x: G.exp(x), [("x", ())], scalar=False)
        assert G.evaluate(g, {"x": 1.0}) == np.exp(1.0)
        with pytest.raises(NumericDomainError, match="exp: .*flat index 0"):
            G.evaluate(g, {"x": 1000.0})

    # per op, arguments whose second element makes the result non-finite;
    # a kernel that overflows must raise without numpy warning first
    NON_FINITE = {
        "log": [np.inf], "log1p": [np.inf], "exp": [1000.0],
        "sqrt": [np.inf], "square": [1e200], "reciprocal": [1e-320],
        "logistic": [np.nan], "log_gamma": [1e308], "digamma": [np.inf],
        "negate": [np.inf], "power/divide": [0.0, -1.0],
        "power/overflow": [10.0, 1000.0], "power/invalid": [-1.0, 0.5],
    }

    def test_non_finite_table_covers_every_unary_op(self):
        assert set(G.UNARY_OPS) <= set(self.NON_FINITE)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_result_raises_without_warning(self, case):
        gb = G.GraphBuilder()
        bad = self.NON_FINITE[case]
        args = [gb.input(f"a{j}", (2,)) for j in range(len(bad))]
        g = gb.finish(gb.prim(case.split("/")[0], args), scalar=False)
        env = {f"a{j}": [0.5, v] for j, v in enumerate(bad)}
        with pytest.raises(NumericDomainError, match="flat index 1") as exc:
            G.evaluate(g, env)
        assert exc.type is NumericDomainError

    @pytest.mark.filterwarnings("error")
    def test_power_non_finite_result_names_flat_index(self):
        g = G.build(lambda x, y: x ** y, [("x", (2,)), ("y", ())],
                    scalar=False)
        assert np.array_equal(G.evaluate(g, {"x": [2.0, 4.0], "y": -1.0}),
                              [0.5, 0.25])
        with pytest.raises(
                NumericDomainError,
                match=r"power: non-finite result at flat index 1 "
                      r"\(value .*0\.0\).* \*\* .*-1\.0"):
            G.evaluate(g, {"x": [2.0, 0.0], "y": -1.0})

    def test_binding_checks_fire_on_later_calls(self):
        g = beta_bernoulli_graph()
        for _ in range(3):
            assert G.evaluate(g, BB_ENV) == G.evaluate(g, BB_ENV)
            with pytest.raises(GraphError,
                               match="missing binding for input 'a'"):
                G.evaluate(g, {k: v for k, v in BB_ENV.items() if k != "a"})
            with pytest.raises(GraphError, match=r"input 'z' expects shape "
                                                 r"\(\), got \(2,\)"):
                G.evaluate(g, dict(BB_ENV, z=np.ones(2)))

    def test_block_plan_checks_bindings(self):
        fx = fixture("beta_bernoulli")
        g = fx.graph()
        block = complete_conditional(g, 0, fx.latents[0][1]).block
        env = fx.example_args(0)
        block.distribution(env)
        with pytest.raises(GraphError, match="missing binding"):
            block.distribution({k: v for k, v in env.items()
                                if k != "n_heads"})


class TestCSE:
    def test_duplicate_logs_merge(self):
        # the builder hash-conses; a graph assembled directly keeps both
        gb = G.GraphBuilder()
        x = gb.input("x", ())
        assert gb.prim("log", (x,)).nid == gb.prim("log", (x,)).nid
        log = G.PrimNode("log", (), (0,))
        g = G.TermGraph([gb.node(x), log, log,
                         G.PrimNode("add", (), (1, 2))],
                        [(), (), (), ()], [0], 3)
        out = G.cse(g)
        logs = [n for n in out.nodes
                if isinstance(n, G.PrimNode) and n.op == "log"]
        assert len(logs) == 1
        add = [n for n in out.nodes
               if isinstance(n, G.PrimNode) and n.op == "add"][0]
        assert add.args[0] == add.args[1]

    def test_keeps_unused_inputs_and_valid_hashes(self):
        gb = G.GraphBuilder()
        x = gb.input("x", (3,))
        gb.input("y", (3,))  # unused inputs are kept
        gb.prim("exp", (x,))  # unreachable, dropped
        logs = [gb.prim("log", (x,)) for _ in range(2)]
        g = gb.finish(G.sum_all(gb.prim("add", logs)))
        out = G.cse(g)
        assert out.input_names == ("x", "y")
        assert [n.op for n in out.nodes if isinstance(n, G.PrimNode)] == [
            "log", "add", "einsum"]
        fresh = G.TermGraph(out.nodes, out.shapes, out.inputs, out.output)
        assert out.structural_hashes() == fresh.structural_hashes()

    def test_idempotent(self):
        g = beta_bernoulli_graph()
        once = G.cse(g)
        twice = G.cse(once)
        assert G.graph_equal(once, twice)

    def test_hundred_random_graphs_preserved(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            gb = G.GraphBuilder()
            pool = [gb.input("x", (3,)), gb.input("y", (3,))]
            for _ in range(50):
                op = rng.choice(["add", "multiply", "square", "einsum"])
                a = pool[rng.integers(len(pool))]
                if op == "einsum":
                    b = pool[rng.integers(len(pool))]
                    h = G.einsum("i,i->i", a, b)
                elif op == "square":
                    h = G.square(a)
                else:
                    b = pool[rng.integers(len(pool))]
                    h = gb.prim(op, (a, b))
                pool.append(h)
            g = gb.finish(G.sum_all(pool[-1]))
            env = dict(x=rng.standard_normal(3), y=rng.standard_normal(3))
            before = G.evaluate(g, env)
            after = G.evaluate(G.cse(g), env)
            assert abs(before - after) <= 1e-12 * max(1.0, abs(before))
            assert len(G.cse(g)) <= len(g)


class TestGrad:
    def test_linear_form(self):
        g = G.build(lambda c, t: G.einsum("i,i->", c, t),
                    [("c", (3,)), ("t", (3,))])
        gr = G.grad(g, g.input_id("t"))
        env = dict(c=[1.0, 2, 3], t=[0.0, 0, 0])
        assert np.array_equal(G.evaluate(gr, env), [1, 2, 3])

    def test_sum_of_squares(self):
        g = G.build(lambda t: G.sum_all(G.square(t)), [("t", (2,))])
        gr = G.grad(g, g.input_id("t"))
        assert np.array_equal(G.evaluate(gr, {"t": [1.0, 2.0]}), [2, 4])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)

        def model(x, w):
            q = G.einsum("i,ij,j->", x, w, x)
            return q + G.sum_all(G.log(G.square(x) + 0.5)) + G.logsumexp(x, 0)

        g = G.build(model, [("x", (3,)), ("w", (3, 3))])
        x0 = rng.standard_normal(3)
        w0 = rng.standard_normal((3, 3))
        gr = G.grad(g, g.input_id("x"))
        got = G.evaluate(gr, dict(x=x0, w=w0))
        fd = central_diff(lambda v: float(G.evaluate(g, dict(x=v, w=w0))), x0)
        assert np.abs(got - fd).max() < 1e-5

    @pytest.mark.parametrize("formula,shapes,k", [
        ("ii->", [(3, 3)], 0),
        ("iij->j", [(3, 3, 2)], 0),
        ("ij->i", [(3, 2)], 0),
        ("i,j->i", [(3,), (2,)], 1),
        ("ij,jk->ik", [(2, 3), (3, 4)], 0),
        ("ij,jk->ik", [(2, 3), (3, 4)], 1),
    ])
    def test_einsum_vjp_matches_finite_differences(self, formula, shapes, k):
        rng = np.random.default_rng(3)
        names = [f"x{j}" for j in range(len(shapes))]
        weights = rng.standard_normal(
            np.einsum(formula, *(np.zeros(s) for s in shapes)).shape)

        def model(*xs):
            return G.sum_all(G.einsum(formula, *xs) * weights)

        g = G.build(model, list(zip(names, shapes)))
        env = {n: rng.standard_normal(s) for n, s in zip(names, shapes)}
        got = G.evaluate(G.grad(g, g.input_id(names[k])), env)
        fd = central_diff(
            lambda v: float(G.evaluate(g, dict(env, **{names[k]: v}))),
            env[names[k]])
        assert np.abs(got - fd).max() < 1e-6

    def test_interior_node(self):
        def model(x):
            return G.sum_all(G.square(x))
        gb = G.GraphBuilder()
        x = gb.input("x", (2,))
        sq = G.square(x)
        g = gb.finish(G.sum_all(sq))
        gr = G.grad(g, sq.nid, wrt_name="t")
        # d(sum t)/dt = ones, independent of x
        out = G.evaluate(gr, {"x": [5.0, 6.0], "t": [0.0, 0.0]})
        assert np.array_equal(out, [1.0, 1.0])

    def test_grad_linearity(self):
        rng = np.random.default_rng(7)
        a, b = 2.5, -1.25

        def f(t, c):
            return G.einsum("i,i->", t, c)

        def h(t, c):
            return G.sum_all(G.square(t))

        gf = G.build(lambda t, c: f(t, c), [("t", (3,)), ("c", (3,))])
        gh = G.build(lambda t, c: h(t, c), [("t", (3,)), ("c", (3,))])
        gcomb = G.build(lambda t, c: a * f(t, c) + b * h(t, c),
                        [("t", (3,)), ("c", (3,))])
        env = dict(t=rng.standard_normal(3), c=rng.standard_normal(3))
        lhs = G.evaluate(G.grad(gcomb, gcomb.input_id("t")), env)
        rhs = (a * G.evaluate(G.grad(gf, gf.input_id("t")), env)
               + b * G.evaluate(G.grad(gh, gh.input_id("t")), env))
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_one_hot_not_differentiable(self):
        g = G.build(lambda z, v: G.einsum("k,k->", G.one_hot(z, 3), v),
                    [("z", ()), ("v", (3,))])
        with pytest.raises(NonDifferentiableError):
            G.grad(g, g.input_id("z"))

    def test_nonscalar_output_rejected(self):
        g = G.build(lambda x: G.square(x), [("x", (3,))], scalar=False)
        with pytest.raises(GraphError):
            G.grad(g, g.input_id("x"))

    def test_broadcast_binary_grads(self):
        rng = np.random.default_rng(9)

        def model(s, v):
            return G.sum_all((s + v) * (v - s) / (s + 2.0))

        g = G.build(model, [("s", ()), ("v", (4,))])
        s0 = 0.7
        v0 = rng.standard_normal(4)
        for name, x0 in (("s", np.asarray(s0)), ("v", v0)):
            gr = G.grad(g, g.input_id(name))
            got = G.evaluate(gr, dict(s=s0, v=v0))
            def f(val):
                env = dict(s=s0, v=v0)
                env[name] = val if name == "v" else float(val)
                return float(G.evaluate(g, env))
            fd = central_diff(f, x0)
            assert np.abs(np.asarray(got) - fd).max() < 1e-5


class TestSplice:
    def test_constant_for_constant(self):
        gb = G.GraphBuilder()
        x = gb.input("x", ())
        c = gb.constant(2.0)
        g = gb.finish(gb.prim("add", (x, c)))
        rb = G.GraphBuilder()
        frag = rb.finish(rb.constant(2.0))
        out = G.splice(g, c.nid, frag)
        assert G.evaluate(out, {"x": 1.0}) == 3.0

    def test_square_for_product(self):
        gb = G.GraphBuilder()
        x = gb.input("x", (3,))
        prod = gb.prim("multiply", (x, x))
        g = gb.finish(G.sum_all(prod))
        rb = G.GraphBuilder()
        xr = rb.input("x", (3,))
        frag = rb.finish(G.square(xr))
        out = G.splice(g, prod.nid, frag)
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.standard_normal(3)
            assert abs(G.evaluate(out, {"x": v})
                       - G.evaluate(g, {"x": v})) < 1e-12

    def test_zero_splice_drops_linear_terms(self):
        # c1*t + c2*t^2 + c3: zeroing the statistic node drops terms in it
        gb = G.GraphBuilder()
        t = gb.input("t", ())
        c1 = gb.input("c1", ())
        c2 = gb.input("c2", ())
        expr = c1 * t + c2 * (t * t) + 5.0
        g = gb.finish(expr)
        replaced = with_constant(g, t.nid, 0.0)
        env = dict(c1=3.0, c2=4.0)
        assert G.evaluate(replaced, env) == 5.0

    def test_shape_mismatch_rejected(self):
        gb = G.GraphBuilder()
        x = gb.input("x", (3,))
        g = gb.finish(G.sum_all(x))
        rb = G.GraphBuilder()
        frag = rb.finish(rb.constant(np.ones(2)))
        with pytest.raises(GraphError):
            G.splice(g, x.nid, frag)

    def test_binding_that_reaches_target_is_a_cycle(self):
        gb = G.GraphBuilder()
        x = gb.input("x", ())
        y = G.log(x)
        z = G.exp(y)
        g = gb.finish(z + 1.0)
        rb = G.GraphBuilder()
        frag = rb.finish(G.square(rb.input("u", ())))
        with pytest.raises(GraphError, match="cycle"):
            G.splice(g, y.nid, frag, bindings={"u": z.nid})


class TestRebuild:
    def test_rebuilt_digests_equal_structural_hashes(self):
        from symconj.models import fixtures
        for fx in fixtures():
            g = fx.graph()
            hashes = g.structural_hashes()
            for nid in range(len(g.nodes)):
                gb = G.GraphBuilder()
                h = G.rebuild(gb, g, nid, {})
                assert gb.digest(h) == hashes[nid], (fx.name, nid)


class TestTracedBenchmarkNames:
    def test_tracer_installs_and_uninstalls(self):
        # the traced benchmark binds library functions by name, so a
        # deleted or renamed one fails here, not only in that run
        from spans import Tracer
        original = G.evaluate
        tracer = Tracer()
        try:
            tracer.install()
            assert G.evaluate is not original
        finally:
            tracer.uninstall()
        assert G.evaluate is original


def recursive_render(g, nid, names=None):
    """render's text by plain recursion, with no length limit: the
    reference for texts within the limit."""
    node = g.nodes[nid]
    if isinstance(node, G.InputNode):
        return (names or {}).get(node.name, node.name)
    if isinstance(node, G.ConstNode):
        v = node.value
        return format(float(v), "g") if v.shape == () else (
            f"const({','.join(str(d) for d in v.shape)})")
    return (f"{node.op}("
            f"{', '.join(recursive_render(g, a, names) for a in node.args)})")


class TestRender:
    def test_short_text_is_written_out(self):
        g = G.build(lambda a, b: G.log(a * b + 2.0) - G.sum_all(a),
                    [("a", (3,)), ("b", ())], scalar=False)
        assert G.render(g, g.output) == (
            "subtract(log(add(multiply(a, b), 2)), einsum(a))")
        assert G.render(g, g.output, {"a": "x[0]"}).endswith("einsum(x[0]))")

    def test_fixture_texts_match_the_recursive_text(self):
        for fx in fixtures():
            for g in (fx.graph(), canonicalize(fx.graph()).graph):
                for nid in range(len(g)):
                    want = recursive_render(g, nid)
                    if len(want) <= G.RENDER_LIMIT:
                        assert G.render(g, nid) == want

    def test_shared_subterms_stop_at_the_limit(self):
        gb = G.GraphBuilder()
        h = gb.input("y", ())
        for _ in range(18):  # 2**18 copies of y when written out
            h = G.log(h + h)
        text = G.render(gb.finish(h), h.nid)
        assert len(text) == G.RENDER_LIMIT + len("...")
        assert text.startswith("log(add(log(add(") and text.endswith("...")

    def test_deep_chain_renders_without_recursion(self):
        gb = G.GraphBuilder()
        h = gb.input("z", ())
        for _ in range(1500):
            h = G.logistic(h)
        text = G.render(gb.finish(h), h.nid)
        assert text == ("logistic(" * 1500)[:G.RENDER_LIMIT] + "..."


class TestDump:
    def test_single_input_identity(self):
        g = G.build(lambda x: x, [("x", (3,))], scalar=False)
        txt = G.dump(g, "text")
        assert sum(1 for line in txt.splitlines()
                   if line.startswith("input ")) == 1

    def test_roundtrip_fixed_point(self):
        g = beta_bernoulli_graph()
        txt = G.dump(g, "text")
        g2 = G.parse(txt)
        assert G.dump(g2, "text") == txt
        assert abs(G.evaluate(g2, BB_ENV) - G.evaluate(g, BB_ENV)) < 1e-15

    def test_dot_is_valid_digraph(self):
        g = beta_bernoulli_graph()
        dot = G.dump(g, "dot")
        lines = [ln.strip() for ln in dot.splitlines() if ln.strip()]
        assert lines[0] == "digraph termgraph {"
        assert lines[-1] == "}"
        assert dot.count("{") == dot.count("}")
        declared = set()
        for ln in lines[1:-1]:
            if "[" in ln and "->" not in ln:
                declared.add(ln.split()[0])
        for ln in lines[1:-1]:
            if "->" in ln:
                src, dst = ln.rstrip(";").split("->")
                assert src.strip() in declared
                assert dst.strip() in declared

    def test_parse_error_has_line_number(self):
        with pytest.raises(GraphError, match="line 3"):
            G.parse("# symconj-graph v1\ninput x ()\nprim n1 bogus x\noutput n1")
