import numpy as np
import pytest

from symconj import graph as G
from symconj.canonicalize import (
    LOG_POWER, LOG_PRODUCT, LOG_RECIPROCAL, LOG_SQRT, REGISTRY, canonicalize,
    is_canonical, local_simplify,
)
from symconj.errors import (
    CanonicalizationError, NonTerminationError, NumericDomainError,
)
from symconj.graph import ConstNode, PrimNode
from symconj.models import fixture, fixtures


def env_scale_err(g1, g2, env):
    a = np.asarray(G.evaluate(g1, env))
    b = np.asarray(G.evaluate(g2, env))
    return float(np.abs(a - b).max() / max(1.0, np.abs(a).max()))


class TestLocalSimplify:
    def test_multiply_becomes_einsum(self):
        g = G.build(lambda a, b: a * b, [("a", (3,)), ("b", (3,))],
                    scalar=False)
        out = local_simplify(g)
        assert out.nodes[out.output].op == "einsum"
        env = dict(a=[1.0, 2, 3], b=[4.0, 5, 6])
        assert np.array_equal(G.evaluate(out, env), [4, 10, 18])

    def test_nested_einsum_collapse(self):
        g = G.build(
            lambda A, B: G.einsum("ij->i", G.einsum("ik,kj->ij", A, B)),
            [("A", (3, 4)), ("B", (4, 2))], scalar=False)
        out = local_simplify(g)
        einsums = [n for n in out.nodes
                   if isinstance(n, PrimNode) and n.op == "einsum"]
        assert len(einsums) == 1
        rng = np.random.default_rng(0)
        env = dict(A=rng.standard_normal((3, 4)), B=rng.standard_normal((4, 2)))
        assert env_scale_err(g, out, env) < 1e-12

    def test_constant_folding(self):
        gb = G.GraphBuilder()
        x = gb.input("x", ())
        prod = gb.prim("multiply", (gb.constant(2.0), gb.constant(3.0)))
        g = gb.finish(gb.prim("add", (x, prod)))
        out = local_simplify(g)
        consts = [n for n in out.nodes if isinstance(n, ConstNode)]
        assert any(float(c.value) == 6.0 for c in consts)

    def test_sum_axis_becomes_einsum(self):
        g = G.build(lambda x: G.sum_axis(x, 1), [("x", (2, 3))], scalar=False)
        out = local_simplify(g)
        assert out.nodes[out.output].op == "einsum"
        env = dict(x=np.arange(6.0).reshape(2, 3))
        assert np.array_equal(G.evaluate(out, env), [3.0, 12.0])

    def test_scalar_power_collection(self):
        # tau * tau / tau collapses to tau inside one einsum
        def model(t, c):
            return (t * t * c) / t
        g = G.build(model, [("t", ()), ("c", ())])
        out = local_simplify(g)
        env = dict(t=3.0, c=2.0)
        assert abs(G.evaluate(out, env) - 6.0) < 1e-12
        recips = [n for n in out.nodes
                  if isinstance(n, PrimNode) and n.op == "reciprocal"]
        assert not recips


    def test_domain_error_leaves_atom_unfolded(self):
        # log(-1) cannot fold: the kernel raises a NumericDomainError
        g = G.build(lambda x: G.sum_all(x) + G.log(x.builder.constant(-1.0)),
                    [("x", (3,))])
        out = canonicalize(g).graph
        logs = [n for n in out.nodes
                if isinstance(n, PrimNode) and n.op == "log"]
        assert len(logs) == 1
        arg = out.nodes[logs[0].args[0]]
        assert isinstance(arg, ConstNode) and float(arg.value) == -1.0


class TestCanonicalize:
    def test_fixed_point_for_single_einsum(self):
        g = G.build(lambda x, y: G.einsum("i,i->", x, y),
                    [("x", (3,)), ("y", (3,))])
        cf = canonicalize(g)
        assert is_canonical(cf.graph)
        assert len(cf.monomials) == 1
        cf2 = canonicalize(cf.graph)
        assert G.graph_equal(cf.graph, cf2.graph)

    def test_scaled_quadratic_expands_to_three_monomials(self):
        def model(y, x, beta, c):
            return c * G.square(y - G.einsum("i,i->", x, beta))
        g = G.build(model, [("y", ()), ("x", (3,)), ("beta", (3,)), ("c", ())])
        cf = canonicalize(g)
        assert len(cf.monomials) == 3
        rng = np.random.default_rng(0)
        env = dict(y=rng.standard_normal(), x=rng.standard_normal(3),
                   beta=rng.standard_normal(3), c=rng.standard_normal())
        assert env_scale_err(g, cf.graph, env) < 1e-10

    def test_gmm_atoms(self):
        fx = fixture("gmm")
        g = fx.graph()
        cf = canonicalize(g)
        assert is_canonical(cf.graph)
        ops = {}
        for nid in cf.atoms:
            node = cf.graph.nodes[nid]
            if isinstance(node, PrimNode):
                ops.setdefault(node.op, 0)
                ops[node.op] += 1
        # the statistic atoms of the mixture: one_hot(z), log pi, log tau,
        # plus the raw inputs (tau, x, mu appear linearly)
        assert "one_hot" in ops
        assert "log" in ops

    @pytest.mark.parametrize("name", [f.name for f in fixtures()])
    def test_corpus_converges_and_preserves_evaluation(self, name):
        fx = fixture(name)
        g = fx.graph()
        fired = []
        cf = canonicalize(g, firing_log=fired)
        assert is_canonical(cf.graph)
        assert len(fired) <= 2000
        for seed in (1, 2, 3):
            env = fx.example_args(seed)
            assert env_scale_err(g, cf.graph, env) < 1e-10

    @pytest.mark.xfail(strict=True, raises=NumericDomainError, reason=(
        "splitting log(z * z) into 2 log(z) assumes z > 0, but z is REAL"))
    def test_log_of_square_keeps_value_on_negative_reals(self):
        g = G.build(lambda z: G.sum_all(G.log(G.square(z))),
                    [("z", (3,), "REAL")])
        env = {"z": np.array([-1.5, 2.0, -0.3])}
        want = float(G.evaluate(g, env))
        got = float(G.evaluate(canonicalize(g).graph, env))
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("name", [f.name for f in fixtures()])
    def test_idempotence(self, name):
        g = fixture(name).graph()
        cf = canonicalize(g)
        cf2 = canonicalize(cf.graph)
        assert G.graph_equal(cf.graph, cf2.graph)

    def test_budget_exhaustion_reports_rules(self):
        def model(u, v, w):
            s = u + v + w
            return G.sum_all(G.square(s) * G.square(s + 1.0))
        g = G.build(model, [("u", (3,)), ("v", (3,)), ("w", (3,))])
        with pytest.raises(NonTerminationError) as err:
            canonicalize(g, max_rules=2)
        assert len(err.value.recent_rules) > 0

    def test_determinism(self):
        g = fixture("gmm").graph()
        a = G.dump(canonicalize(g).graph, "text")
        b = G.dump(canonicalize(fixture("gmm").graph()).graph, "text")
        assert a == b

    def test_long_add_spine(self):
        # square(x0 + ... + x49) has 50 * 51 / 2 monomials, an add spine
        # longer than the interpreter's recursion limit
        gb = G.GraphBuilder()
        xs = [gb.input(f"x{i}", ()) for i in range(50)]
        s = xs[0]
        for x in xs[1:]:
            s = gb.prim("add", (s, x))
        g = gb.finish(gb.prim("square", (s,)))
        cf = canonicalize(g)
        assert len(cf.monomials) == 1275
        rng = np.random.default_rng(0)
        env = {f"x{i}": rng.standard_normal() for i in range(50)}
        assert env_scale_err(g, cf.graph, env) < 1e-12


# the log rules each fixture fires, in order
FIRING_LOGS = {
    "beta_bernoulli": [],
    "normal_gamma": ["log_reciprocal", "log_reciprocal", "log_sqrt",
                     "log_sqrt", "log_product"],
    "logistic_jj": [],
    "kalman": [],
    "factor_analysis": [],
    "gmm": [],
    "poly_stress": [],
    "log_stress": ["log_product", "log_reciprocal", "log_sqrt", "log_power"],
    "share_stress": [],
    "contract_stress": [],
}


def log_graph(inner_op, shapes, attrs=()):
    """log(inner_op(a0, a1, ...)) over NONNEGATIVE inputs of the shapes."""
    gb = G.GraphBuilder()
    args = [gb.input(f"a{j}", s, "NONNEGATIVE") for j, s in enumerate(shapes)]
    inner = gb.prim(inner_op, args, attrs)
    top = gb.prim("log", (inner,))
    return gb.finish(G.sum_all(top)), top.nid, [a.nid for a in args]


class TestLogRules:
    @pytest.mark.parametrize("name", [f.name for f in fixtures()])
    def test_fixture_firing_log_is_pinned(self, name):
        fired = []
        canonicalize(fixture(name).graph(), firing_log=fired)
        assert fired == FIRING_LOGS[name]

    @pytest.mark.parametrize("rule, inner_op, shapes, attrs, want", [
        (LOG_PRODUCT, "einsum", [(2,), (3,)], ("i,j->ij",),
         lambda a: {"formula": "i,j->ij", "args": [a[0], a[1]]}),
        (LOG_RECIPROCAL, "reciprocal", [(2,)], (), lambda a: {"x": a[0]}),
        (LOG_SQRT, "sqrt", [(2,)], (), lambda a: {"x": a[0]}),
    ], ids=["log_product", "log_reciprocal", "log_sqrt"])
    def test_matcher_binds_operands(self, rule, inner_op, shapes, attrs,
                                    want):
        g, top, args = log_graph(inner_op, shapes, attrs)
        assert rule.match(g, top) == want(args)
        assert [r.match(g, top) is None for r in REGISTRY].count(False) == 1

    def test_log_power_binds_base_and_constant_exponent(self):
        gb = G.GraphBuilder()
        x = gb.input("x", (2,), "NONNEGATIVE")
        c = gb.constant(1.5)
        top = gb.prim("log", (gb.prim("power", (x, c)),))
        g = gb.finish(G.sum_all(top))
        assert LOG_POWER.match(g, top.nid) == {"x": x.nid, "c": c.nid}

    # each graph is one step from a log redex and must fire no rule
    @pytest.mark.parametrize("inner_op, shapes, attrs", [
        ("einsum", [(2, 2), (2,)], ("ii,i->i",)),
        ("einsum", [(2, 3), (3,)], ("ij,j->i",)),
        ("power", [(2,), (2,)], ()),
        ("add", [(2,), (2,)], ()),
    ], ids=["repeated_letter", "summed_out_letter", "variable_exponent",
            "log_of_add"])
    def test_near_miss_fires_no_rule(self, inner_op, shapes, attrs):
        g, top, _ = log_graph(inner_op, shapes, attrs)
        assert all(rule.match(g, top) is None for rule in REGISTRY)
        fired = []
        cf = canonicalize(g, firing_log=fired)
        assert fired == []
        env = {f"a{j}": np.full(s, 0.5 + j) for j, s in enumerate(shapes)}
        assert env_scale_err(g, cf.graph, env) < 1e-12


# C05's generator, rng seed 0, 330th graph checked: (y**2 + 0.1)**12 with
# y = sum(x0 - x0). Distributing over one sum at a time without collecting
# equal products exceeds the default budget.
POWER_OF_SUM = """\
# symconj-graph v1
input x0 (1) NONNEGATIVE
input x1 () NONNEGATIVE
prim n2 subtract x0 x0
prim n3 einsum [a->] n2
prim n4 square n3
const n5 () 0.1
prim n6 add n4 n5
prim n7 sqrt n6
const n8 () 3.0
prim n9 power n7 n8
const n10 () 2.0
prim n11 power n9 n10
prim n12 square n11
const n13 () 2.0
prim n14 power n12 n13
output n14
"""

# C05's generator, rng seed 5, 134th graph checked: (sum x1)**16 merges into
# one einsum with 32 index letters.
TOO_MANY_LETTERS = """\
# symconj-graph v1
input x0 () NONNEGATIVE
input x1 (1,2) NONNEGATIVE
input x2 () NONNEGATIVE
prim n3 subtract x0 x2
prim n4 square n3
const n5 () 0.1
prim n6 add n4 n5
prim n7 sqrt n6
const n8 () 2.0
prim n9 power n7 n8
prim n10 square n9
const n11 () 0.1
prim n12 add n10 n11
prim n13 sqrt n12
prim n14 square n13
const n15 () 0.5
prim n16 add n14 n15
prim n17 divide x2 n16
prim n18 add n17 x1
prim n19 einsum [ab->] x1
prim n20 square n19
const n21 () 2.0
prim n22 power n20 n21
const n23 () 2.0
prim n24 power n22 n23
prim n25 square n24
const n26 () 0.5
prim n27 add n25 n26
prim n28 log n27
prim n29 subtract n18 n28
prim n30 square n29
const n31 () 0.1
prim n32 add n30 n31
prim n33 sqrt n32
prim n34 einsum [ab->] n33
output n34
"""

# C05's generator, rng seed 8, 90th graph checked
CANCEL_SEED8 = """\
# symconj-graph v1
input x0 (4,2) NONNEGATIVE
input x1 () NONNEGATIVE
input x2 () NONNEGATIVE
prim n3 negate x1
prim n4 square n3
const n5 () 2.0
prim n6 power n4 n5
prim n7 square n6
prim n8 subtract x1 x1
prim n9 square n8
const n10 () 0.1
prim n11 add n9 n10
prim n12 sqrt n11
prim n13 square n12
const n14 () 2.0
prim n15 power n13 n14
prim n16 square n15
prim n17 square n16
prim n18 negate x2
prim n19 square n18
const n20 () 0.5
prim n21 add n19 n20
prim n22 divide n17 n21
prim n23 square n22
const n24 () 0.5
prim n25 add n23 n24
prim n26 divide n7 n25
output n26
"""
CANCEL_SEED8_ENV = dict(
    x0=[[0.8255462170943773, 0.3849862729976109],
        [1.077041732611134, 1.015635492170933],
        [0.3084405726092009, 1.8476976586039526],
        [1.0926735030485617, 0.4322844689951246]],
    x1=1.0833875897279925,
    x2=1.3814381153000483)


# C05's generator, rng seed 1, 102nd graph checked
CANCEL_SEED1 = """\
# symconj-graph v1
input x0 (1,4) NONNEGATIVE
prim n1 einsum [ab->] x0
prim n2 subtract x0 x0
prim n3 multiply n1 n2
const n4 () 2.0
prim n5 power n3 n4
prim n6 add n5 x0
prim n7 square n6
prim n8 square n7
const n9 () 0.5
prim n10 add n8 n9
prim n11 log n10
prim n12 einsum [ab->] n11
prim n13 square x0
const n14 () 0.1
prim n15 add n13 n14
prim n16 sqrt n15
prim n17 subtract n16 x0
prim n18 add n12 n17
prim n19 einsum [ab->] n18
output n19
"""
CANCEL_SEED1_ENV = dict(
    x0=[[0.5126077482557285,
         0.8136364454251854,
         0.5057915631137995,
         1.674984270697301]])


# C05's generator, rng seed 11, 140th graph checked
CANCEL_SEED11 = """\
# symconj-graph v1
input x0 (3,4) NONNEGATIVE
input x1 (3,4) NONNEGATIVE
input x2 () NONNEGATIVE
prim n3 einsum [ab->] x0
prim n4 square x1
const n5 () 0.5
prim n6 add n4 n5
prim n7 divide x1 n6
prim n8 multiply n3 n7
prim n9 square x1
const n10 () 0.1
prim n11 add n9 n10
prim n12 sqrt n11
const n13 () 3.0
prim n14 power n12 n13
prim n15 subtract n8 n14
prim n16 square x0
const n17 () 0.5
prim n18 add n16 n17
prim n19 log n18
prim n20 square n19
prim n21 add n15 n20
prim n22 square x2
prim n23 add n22 x0
prim n24 add x0 x0
prim n25 einsum [ab->] n24
prim n26 add n23 n25
prim n27 square n26
const n28 () 0.5
prim n29 add n27 n28
prim n30 log n29
prim n31 add n21 n30
prim n32 einsum [ab->] x1
prim n33 subtract x1 x0
prim n34 square x0
const n35 () 0.1
prim n36 add n34 n35
prim n37 sqrt n36
prim n38 add n33 n37
const n39 () 3.0
prim n40 power n38 n39
prim n41 add n40 x2
prim n42 multiply n32 n41
prim n43 subtract n31 n42
const n44 () 1.8065671081181875
prim n45 multiply n44 n43
prim n46 square n45
const n47 () 0.5
prim n48 add n46 n47
prim n49 divide x1 n48
prim n50 einsum [ab->] n49
output n50
"""
CANCEL_SEED11_ENV = dict(
    x0=[[0.44430808476614575,
         0.3778657964197244,
         1.2133463824469362,
         2.0160255617765848],
        [1.367875504000681,
         0.2761206238492059,
         0.3670328168820658,
         1.0101052270546198],
        [1.021675905943155,
         1.698503003628945,
         1.0942722641341933,
         0.4184572276349862]],
    x1=[[0.9130377802102159,
         1.0232052405336198,
         0.7039431271337291,
         0.44234653324438783],
        [0.5492788836449328,
         1.2229249055965585,
         0.3276164515732104,
         0.3649840490195365],
        [0.9173846105016834,
         0.2789261045476619,
         2.2409779286847487,
         1.1308256578308684]],
    x2=1.4515534391549676)


def einsums_with_add_operand(g):
    return [i for i, n in enumerate(g.nodes)
            if isinstance(n, PrimNode) and n.op == "einsum"
            and any(isinstance(g.nodes[a], PrimNode)
                    and g.nodes[a].op == "add" for a in n.args)]


class TestMultiplyOut:
    def test_power_of_sum_within_default_budget(self):
        g = G.parse(POWER_OF_SUM)
        cf = canonicalize(g)
        assert is_canonical(cf.graph)
        env = dict(x0=np.array([0.6692228837845462]), x1=0.7381609540049892)
        v0 = float(G.evaluate(g, env))
        v1 = float(G.evaluate(cf.graph, env))
        assert abs(v0 - v1) <= 1e-10 * max(1.0, abs(v0))

    def test_collected_exponent_of_sum_multiplies_out(self):
        def model(a, b, c):
            r = G.sqrt(a + b)
            return G.einsum(",,->", r, c, r)
        g = G.build(model, [("a", ()), ("b", ()), ("c", ())])
        fired = []
        cf = canonicalize(g, firing_log=fired)
        assert fired == []
        assert einsums_with_add_operand(local_simplify(g)) == []
        assert len(cf.monomials) == 2
        env = dict(a=0.7, b=1.9, c=-1.3)
        assert env_scale_err(g, cf.graph, env) < 1e-12

    @pytest.mark.parametrize("name", [f.name for f in fixtures()])
    def test_one_sweep_leaves_no_sum_under_einsum(self, name):
        out = local_simplify(fixture(name).graph())
        assert einsums_with_add_operand(out) == []

    def test_budget_counts_expansion_steps(self):
        # each of 1 then 3 partial terms times a 3-leaf sum: 2 + 6 steps,
        # the firings a binary distribution rule needed
        def model(u, v, w):
            s = u + v + w
            return G.einsum("i,i->", s, s)
        g = G.build(model, [("u", (3,)), ("v", (3,)), ("w", (3,))])
        canonicalize(g, max_rules=8)
        with pytest.raises(NonTerminationError) as err:
            canonicalize(g, max_rules=7)
        assert "distribute_einsum" in err.value.recent_rules

    def test_alphabet_exhaustion_names_op_and_letters(self):
        with pytest.raises(CanonicalizationError,
                           match="square node n25 needs 32 index letters"):
            canonicalize(G.parse(TOO_MANY_LETTERS))


class TestLikeTerms:
    def test_term_and_its_negation_cancel(self):
        g = G.build(lambda x, y: G.log(x - x + y), [("x", ()), ("y", ())])
        want = G.build(lambda x, y: G.log(y), [("x", ()), ("y", ())])
        assert G.graph_equal(canonicalize(g).graph,
                             canonicalize(want).graph)

    def test_scaled_copies_collect(self):
        g = G.build(lambda x: 2.0 * x + 3.0 * x - x, [("x", (3,))],
                    scalar=False)
        out = local_simplify(g)
        node = out.nodes[out.output]
        assert node.op == "einsum"
        assert float(out.nodes[node.args[0]].value) == 4.0

    @pytest.mark.parametrize("graph, env", [
        pytest.param(CANCEL_SEED8, CANCEL_SEED8_ENV, id="seed8"),
        pytest.param(CANCEL_SEED1, CANCEL_SEED1_ENV, id="seed1"),
        pytest.param(CANCEL_SEED11, CANCEL_SEED11_ENV, id="seed11",
                     marks=pytest.mark.xfail(strict=True, reason=(
                         "multiplying out the polynomial inside the "
                         "reciprocal is ill-conditioned: terms near 1e5 "
                         "cancel to 0.12"))),
    ])
    def test_c05_graphs_within_c05_tolerance(self, graph, env):
        g = G.parse(graph)
        cf = canonicalize(g)
        assert is_canonical(cf.graph)
        env = {k: np.asarray(v) for k, v in env.items()}
        v0 = float(G.evaluate(g, env))
        v1 = float(G.evaluate(cf.graph, env))
        assert abs(v0 - v1) <= 1e-10 * max(1.0, abs(v0))


class TestIsCanonical:
    def test_add_of_einsums_true(self):
        gb = G.GraphBuilder()
        x = gb.input("x", (3,))
        y = gb.input("y", (3,))
        e1 = G.einsum("i,i->", x, y)
        e2 = G.einsum("i,i->", x, x)
        g = gb.finish(gb.prim("add", (e1, e2)))
        assert is_canonical(g)

    def test_einsum_with_add_argument_false(self):
        gb = G.GraphBuilder()
        x = gb.input("x", (3,))
        y = gb.input("y", (3,))
        s = gb.prim("add", (x, y))
        g = gb.finish(G.einsum("i,i->", x, s))
        assert not is_canonical(g)

    def test_surviving_polynomial_false(self):
        g = G.build(lambda x: G.sum_all(x * x), [("x", (3,))])
        assert not is_canonical(g)

    def test_atom_monomials_allowed(self):
        gb = G.GraphBuilder()
        a = gb.input("a", ())
        g = gb.finish(gb.prim("add", (gb.prim("log_gamma", (a,)),
                                      gb.prim("log", (a,)))))
        assert is_canonical(g)


class TestSoundnessFuzz:
    """Random expression graphs canonicalize with evaluation preserved.

    The generator draws positive inputs so the log-splitting rules stay
    inside their domain (depth <= 8, at most 4 inputs, extents <= 4) and
    caps the expansion mass so canonical forms stay desk-sized.
    """

    MAX_MASS = 32

    @staticmethod
    def random_graph(rng):
        gb = G.GraphBuilder()
        n_inputs = int(rng.integers(1, 5))
        specs = []
        handles = []
        for i in range(n_inputs):
            shape = tuple(int(d) for d in rng.integers(1, 5, size=rng.integers(0, 3)))
            specs.append((f"x{i}", shape))
            handles.append(gb.input(f"x{i}", shape, "NONNEGATIVE"))
        mass = {h.nid: 1 for h in handles}
        cap = TestSoundnessFuzz.MAX_MASS

        def grow(depth):
            if depth >= 8 or rng.random() < 0.25:
                return handles[int(rng.integers(len(handles)))]
            op = rng.choice(["add", "sub", "mul", "div", "square", "log",
                             "sqrt", "neg", "sum", "pow", "scale"])
            a = grow(depth + 1)
            ma = mass.get(a.nid, 1)
            out = a
            if op in ("add", "sub", "mul"):
                b = grow(depth + 1)
                mb = mass.get(b.nid, 1)
                grown = ma + mb if op != "mul" else ma * mb
                if grown <= cap:
                    try:
                        out = {"add": a.__add__, "sub": a.__sub__,
                               "mul": a.__mul__}[op](b)
                        mass[out.nid] = grown
                    except Exception:
                        out = a
            elif op == "div":
                b = grow(depth + 1)
                try:
                    out = a / (G.square(b) + 0.5)
                    mass[out.nid] = ma
                except Exception:
                    out = a
            elif op == "square":
                if ma * ma <= cap:
                    out = G.square(a)
                    mass[out.nid] = ma * ma
            elif op == "log":
                out = G.log(G.square(a) + 0.5)
                mass[out.nid] = 1
            elif op == "sqrt":
                out = G.sqrt(G.square(a) + 0.1)
                mass[out.nid] = 1
            elif op == "neg":
                out = -a
                mass[out.nid] = ma
            elif op == "sum":
                out = G.sum_all(a) if a.shape else a
                mass[out.nid] = ma
            elif op == "pow":
                n = int(rng.integers(2, 4))
                if ma ** n <= cap:
                    out = a ** float(n)
                    mass[out.nid] = ma ** n
            else:
                out = float(rng.uniform(-2, 2)) * a
                mass[out.nid] = ma
            return out

        out = grow(0)
        if out.shape != ():
            out = G.sum_all(out)
        return gb.finish(out), specs

    @pytest.mark.parametrize("chunk", range(5))
    def test_fuzz(self, chunk):
        rng = np.random.default_rng(100 + chunk)
        for _ in range(40):
            g, specs = self.random_graph(rng)
            env = {nm: np.abs(rng.standard_normal(sh)) + 0.2
                   for nm, sh in specs}
            try:
                v0 = float(G.evaluate(g, env))
            except Exception:
                continue
            if not np.isfinite(v0):
                continue
            cf = canonicalize(g)
            assert is_canonical(cf.graph)
            v1 = float(G.evaluate(cf.graph, env))
            assert abs(v0 - v1) <= 1e-10 * max(1.0, abs(v0))
