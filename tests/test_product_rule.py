"""The simplifier's product rule: an einsum monomial has at most one
constant operand.

A product's constants, its scalar coefficient among them, contract into
one constant over the letters that the output or a non-constant operand
reads, so no constant of ones multiplies by one. Binding data sweeps the
eta graphs and the energy through the same rule, so no bound step is left
that reads known values only.
"""

import numpy as np
import pytest

from symconj import graph as G
from symconj.canonicalize import bind, canonicalize
from symconj.conjugacy import complete_conditional, multilinear_repr
from symconj.graph import ConstNode, PrimNode
from symconj.models import fixtures

from test_corpus_digests import corpus_graphs
from test_inference import REFERENCE, reference_plans

LATENT = [fx for fx in fixtures() if fx.latents]


def constant_faults(g):
    """The formulas of the einsums of ``g`` with two or more constant
    operands, or with a constant of ones whose every letter a
    non-constant operand holds."""
    faults = []
    for node in g.nodes:
        if not (isinstance(node, PrimNode) and node.op == "einsum"):
            continue
        ops = [(s, g.nodes[a]) for s, a in zip(
            G.espec(node.attrs[0]).operand_subscripts, node.args)]
        consts = [(s, n.value) for s, n in ops if isinstance(n, ConstNode)]
        held = set().union(*[s for s, n in ops
                             if not isinstance(n, ConstNode)])
        if len(consts) > 1 or any(s and set(s) <= held and np.all(v == 1.0)
                                  for s, v in consts):
            faults.append(node.attrs[0])
    return faults


@pytest.mark.parametrize("fx", fixtures(), ids=lambda fx: fx.name)
def test_fixture_canonical_forms(fx):
    assert constant_faults(canonicalize(fx.graph()).graph) == []


@pytest.mark.parametrize("fx", LATENT, ids=lambda fx: fx.name)
def test_eta_graphs_and_energies(fx):
    g = fx.graph()
    graphs = [eg for argnum, support in fx.latents
              for eg in complete_conditional(
                  g, argnum, support).eta_graphs.values()]
    mr = multilinear_repr(g, argnums=[a for a, _ in fx.latents],
                          supports=[s for _, s in fx.latents])
    graphs += [s.eta_graph for b in mr.blocks for s in b.stats]
    graphs.append(mr.neg_energy)
    for eg in graphs:
        assert constant_faults(eg) == [], fx.name


def test_corpus_forms():
    faults = {i: f for i, (g, _) in enumerate(corpus_graphs())
              if (f := constant_faults(canonicalize(g).graph))}
    assert faults == {}


@pytest.mark.parametrize("name", REFERENCE)
def test_bound_plans_run_no_step_of_known_operands(name):
    *_, gibbs, cavi = reference_plans(name)
    gibbs, cavi = gibbs.plans, cavi.plans
    for plan in [gibbs.joint, cavi.joint, *gibbs.etas.values(),
                 *cavi.etas.values()]:
        for _, args, slot in plan.steps:
            assert any(plan.initial[a] is None for a in args), (
                name, plan.einsums.get(slot))


def test_terms_that_differ_in_their_constant_collect_when_bound():
    g = G.build(lambda pi, alpha: G.einsum("k,k->", alpha, G.log(pi))
                - G.sum_all(G.log(pi)), [("pi", (3,)), ("alpha", (3,))])
    alpha = np.array([2.0, 3.0, 0.5])
    plan = bind([g], {"alpha": alpha})
    log, (_, args, slot) = plan.steps
    assert plan.einsums[slot][0].formula == "a,a->"
    assert np.array_equal(plan.initial[args[0]], alpha - 1.0)
    pi = np.array([0.2, 0.3, 0.5])
    np.testing.assert_allclose(plan.run({"pi": pi})[0],
                               G.evaluate(g, {"pi": pi, "alpha": alpha}),
                               rtol=1e-15)


def test_tensor_factors_align_by_index_name():
    g = G.build(lambda x, a, v, b: G.einsum("ij,ij->", a, x)
                + G.einsum("i,ij->", v, x) + G.einsum("ji,ij->", b, x),
                [("x", (2, 3)), ("a", (2, 3)), ("v", (2,)), ("b", (3, 2))])
    rng = np.random.default_rng(0)
    env = {"x": rng.standard_normal((2, 3)), "a": rng.standard_normal((2, 3)),
           "v": rng.standard_normal(2), "b": rng.standard_normal((3, 2))}
    plan = bind([g], {k: v for k, v in env.items() if k != "x"})
    (_, args, _), = plan.steps
    np.testing.assert_allclose(plan.initial[args[0]],
                               env["a"] + env["v"][:, None] + env["b"].T,
                               rtol=1e-15)
    np.testing.assert_allclose(plan.run(env)[0], G.evaluate(g, env),
                               rtol=1e-13)
