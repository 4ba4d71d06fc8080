import dataclasses
import importlib
from collections import Counter

import numpy as np
import pytest
from scipy import integrate

from symconj import conjugacy, expfam, models
from symconj import graph as G
from symconj.canonicalize import (
    canonicalize, local_simplify, monomials, normalize_graph,
)
from symconj.conjugacy import (
    complete_conditional, extract_natural_parameters,
    find_sufficient_statistics, marginalize, multilinear_repr,
)
from symconj.errors import (
    CanonicalizationError, ConjugacyError, NonMultiaffineError,
    UnknownFamilyError,
)
from symconj.expfam import DESCRIPTORS, SupportType
from symconj.graph import ConstNode, InputNode, PrimNode
from symconj.models import fixture, fixtures

from oracles import (
    central_diff, gauss_hermite_integral, gmm_conditionals, log_quad,
)

LOG2PI = np.log(2 * np.pi)


def bb_graph():
    return fixture("beta_bernoulli").graph()


BB_REST = dict(n_heads=60.0, n_draws=100.0, prior_a=0.5, prior_b=0.5)


class TestDiscovery:
    def test_beta_bernoulli_atoms(self):
        cf = canonicalize(bb_graph())
        stats, energy = find_sufficient_statistics(cf, "prob")
        assert stats.descriptors == {"log", "log1p_neg"}
        assert not stats.residual

    def test_gmm_tau_atoms(self):
        cf = canonicalize(fixture("gmm").graph())
        stats, energy = find_sufficient_statistics(cf, "tau")
        assert stats.descriptors == {"identity", "log"}

    def test_quadratic_form_becomes_outer_statistic(self):
        def model(z, Q):
            return G.einsum("i,ij,j->", z, Q, z)
        g = G.build(model, [("z", (3,)), ("Q", (3, 3))])
        cf = canonicalize(g)
        stats, energy = find_sufficient_statistics(cf, "z")
        assert stats.descriptors == {"outer"}
        # the statistic graph computes z z^T, and the energy <Q, z z^T>
        rng = np.random.default_rng(0)
        env = dict(z=rng.standard_normal(3), Q=rng.standard_normal((3, 3)))
        outer = G.evaluate(stats.graphs["outer"], env)
        assert np.abs(outer - np.outer(env["z"], env["z"])).max() < 1e-12
        want = env["z"] @ env["Q"] @ env["z"]
        got = G.evaluate(energy, dict(env, _stat_z_outer=outer))
        assert abs(got - want) < 1e-12

    def test_elementwise_square_statistic(self):
        def model(z, c):
            return G.einsum("i,i,i->", c, z, z)
        g = G.build(model, [("z", (4,)), ("c", (4,))])
        cf = canonicalize(g)
        stats, energy = find_sufficient_statistics(cf, "z")
        assert stats.descriptors == {"square"}

    def test_log_one_minus_written_without_log1p(self):
        def model(z, b):
            return b * G.log(1.0 - z)
        g = G.build(model, [("z", (), "UNIT_INTERVAL"), ("b", ())])
        cf = canonicalize(g)
        stats, _ = find_sufficient_statistics(cf, "z")
        assert stats.descriptors == {"log1p_neg"}

    def test_raw_graph_is_rejected(self):
        # a raw graph lists no monomials; read as one, it would give no
        # statistics and the whole expression as residual
        g = G.build(lambda a, z: a * z - 0.5 * G.square(z),
                    [("a", ()), ("z", (), "REAL")])
        with pytest.raises(ConjugacyError, match=(
                "takes a CanonicalForm, got TermGraph; canonicalize the "
                "graph first")):
            find_sufficient_statistics(g, "z")

    def test_variable_outside_the_density_has_no_statistics(self):
        # no monomial holds z, so the analysis reads an empty blanket
        g = G.build(lambda z, c: -0.5 * c * c,
                    [("z", (), "REAL"), ("c", ())])
        with pytest.raises(UnknownFamilyError,
                           match="no sufficient statistics discovered"):
            complete_conditional(g, 0, SupportType.REAL)

    def test_entangled_atom_is_residual(self):
        def model(z1, z2):
            return G.log(z1 + z2)
        g = G.build(model, [("z1", ()), ("z2", ())])
        cf = canonicalize(g)
        stats, _ = find_sufficient_statistics(cf, "z1")
        assert stats.residual

    def test_cube_is_unknown_family(self):
        def model(z):
            return z * z * z
        g = G.build(model, [("z", (), "REAL")])
        with pytest.raises(UnknownFamilyError):
            complete_conditional(g, 0, SupportType.REAL)

    def test_lone_scalar_statistic(self):
        # log(z) is a monomial on its own, with no einsum around it
        g = G.build(lambda z: G.log(z) - z, [("z", (), "NONNEGATIVE")])
        d = complete_conditional(g, 0, SupportType.NONNEGATIVE)()
        assert d.family.name == "Gamma"
        std = d.standard()
        assert float(std["shape"]) == 2.0 and float(std["rate"]) == 1.0

    def test_two_statistics_under_one_descriptor_rejected(self):
        def model(z, c):
            return (G.sum_all(G.one_hot(z, 3)) * c
                    + G.sum_all(G.one_hot(z, 4)))
        g = G.build(model, [("z", (2,), "INTEGER"), ("c", ())])
        with pytest.raises(ConjugacyError, match=(
                "couples through multiple distinct one_hot statistics")):
            complete_conditional(g, 0, SupportType.INTEGER)


class TestExtraction:
    def test_beta_bernoulli_constant_folds(self):
        fac = complete_conditional(bb_graph(), 0, SupportType.UNIT_INTERVAL)
        d = fac(60.0, 100.0, 0.5, 0.5)
        assert float(d.nat["log"]) == 59.5
        assert float(d.nat["log1p_neg"]) == 39.5

    def test_linear_form_eta_is_coefficient(self):
        g = G.build(lambda c, t: G.einsum("i,i->", c, t),
                    [("c", (3,)), ("t", (3,), "REAL")])
        cf = canonicalize(g)
        stats, energy = find_sufficient_statistics(cf, "t")
        etas = extract_natural_parameters(energy, stats)
        out = G.evaluate(etas["identity"], {"c": [1.0, 2.0, 3.0]})
        assert np.array_equal(out, [1, 2, 3])

    @pytest.mark.parametrize("seed", range(5))
    def test_random_multilinear_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)

        def model(t, u, v, c1, c2, c3):
            return (G.einsum("i,i->", c1, t) + G.einsum("i,i,->", c2, t, u)
                    + c3 * u * v + G.einsum("i,i->", t, t) * 0.0
                    + v * G.einsum("i,i->", c1, c2))

        g = G.build(model, [("t", (3,)), ("u", ()), ("v", ()),
                            ("c1", (3,)), ("c2", (3,)), ("c3", ())])
        env = dict(t=rng.standard_normal(3), u=rng.standard_normal(),
                   v=rng.standard_normal(), c1=rng.standard_normal(3),
                   c2=rng.standard_normal(3), c3=rng.standard_normal())
        for var in ("t", "u", "v"):
            cf = canonicalize(g)
            stats, energy = find_sufficient_statistics(cf, var)
            etas = extract_natural_parameters(energy, stats)
            eta = G.evaluate(etas["identity"], env)
            fd = central_diff(
                lambda x: float(G.evaluate(g, dict(env, **{var: x}))),
                np.asarray(env[var], dtype=np.float64))
            assert np.abs(np.asarray(eta) - fd).max() < 1e-5

    def test_non_multiaffine_rejected(self):
        def model(z, c):
            return c * z * G.log(z)
        g = G.build(model, [("z", (), "NONNEGATIVE"), ("c", ())])
        with pytest.raises(NonMultiaffineError,
                           match="identity and log") as exc:
            complete_conditional(g, 0, SupportType.NONNEGATIVE)
        assert str(exc.value) == (
            "log density is not multiaffine in the statistics of 'z': one "
            "monomial, einsum(log(z), c, z), holds identity and log")

    def test_non_multiaffine_names_other_targets_atoms(self):
        # the joint analysis has put w's statistic input into the energy
        # too; the error names it by its statistic, w
        def model(z, w, c):
            return c * w * z * G.log(z)
        g = G.build(model, [("z", (), "NONNEGATIVE"), ("w", (), "REAL"),
                            ("c", ())])
        with pytest.raises(NonMultiaffineError) as exc:
            multilinear_repr(g, [0, 1], ["NONNEGATIVE", "REAL"])
        assert "one monomial, einsum(log(z), c, w, z), holds" in str(
            exc.value)


class TestCompleteConditional:
    def test_listing_style_beta(self):
        fac = complete_conditional(bb_graph(), 0, SupportType.UNIT_INTERVAL)
        d = fac(60.0, 100.0, 0.5, 0.5)
        std = d.standard()
        assert (d.family.name, float(std["a"]), float(std["b"])) == \
            ("Beta", 60.5, 40.5)

    def test_gmm_family_assignments(self):
        fx = fixture("gmm")
        g = fx.graph()
        got = {}
        for argnum, support in fx.latents:
            var = g.input_names[argnum]
            got[var] = complete_conditional(g, argnum, support).family.name
        assert got == {"pi": "Dirichlet", "z": "Categorical",
                       "mu": "Normal", "tau": "Gamma"}

    def test_linear_regression_posterior_closed_form(self):
        fx = fixture("normal_gamma")
        g = fx.graph()
        rng = np.random.default_rng(5)
        v = fx.example_args(5)
        fac = complete_conditional(g, 1, SupportType.REAL)
        d = fac(v["tau"], v["x"], v["y"], v["a"], v["b"], v["kappa"], v["mu0"])
        D = len(v["mu0"])
        Sigma = np.linalg.inv(v["tau"] * v["x"].T @ v["x"]
                              + v["kappa"] * v["tau"] * np.eye(D))
        mean = Sigma @ (v["tau"] * v["x"].T @ v["y"]
                        + v["kappa"] * v["tau"] * v["mu0"])
        std = d.standard()
        assert np.abs(std["mean"] - mean).max() < 1e-8
        assert np.abs(std["cov"] - Sigma).max() < 1e-8

    @pytest.mark.parametrize("form", ["input", "constant", "sum"])
    def test_quadratic_coefficient_forms(self, form):
        # z.C.z + z.b has mean solve(-(C + C^T), b) whether the coefficient
        # is an input, a constant matrix or a sum of two inputs
        rng = np.random.default_rng(4)
        k = rng.standard_normal((3, 3))
        c1, c2, b = -0.5 * _spd(rng, 3) + k, -k.T, rng.standard_normal(3)
        C = c1 + c2

        def model(z, b, c1, c2):
            coef = (c1 if form == "input" else c1 + c2 if form == "sum"
                    else z.builder.constant(C))
            return G.einsum("i,ij,j->", z, coef, z) + G.einsum("i,i->", z, b)

        g = G.build(model, [("z", (3,)), ("b", (3,)), ("c1", (3, 3)),
                            ("c2", (3, 3))])
        env = dict(b=b, c1=C if form == "input" else c1, c2=c2)
        d = complete_conditional(g, 0, SupportType.REAL).from_env(env)
        want = np.linalg.solve(-(C + C.T), b)
        assert np.abs(d.standard()["mean"] - want).max() <= 1e-12

    def test_factory_argument_count_checked(self):
        fac = complete_conditional(bb_graph(), 0, SupportType.UNIT_INTERVAL)
        with pytest.raises(ConjugacyError):
            fac(60.0, 100.0)

    def test_conditional_correctness_grid_continuous(self):
        g = bb_graph()
        fac = complete_conditional(g, 0, SupportType.UNIT_INTERVAL)
        rng = np.random.default_rng(1)
        grid = np.linspace(0.004, 0.996, 200)
        for _ in range(20):
            heads = float(rng.integers(1, 30))
            rest = dict(n_heads=heads,
                        n_draws=heads + float(rng.integers(1, 30)),
                        prior_a=rng.uniform(0.5, 4),
                        prior_b=rng.uniform(0.5, 4))
            d = fac.from_env(rest)
            norm, _ = integrate.quad(
                lambda z: np.exp(G.evaluate(g, dict(rest, prob=z))), 0, 1)
            errs = [abs(float(d.log_prob(z))
                        - (G.evaluate(g, dict(rest, prob=z)) - np.log(norm)))
                    for z in grid]
            assert max(errs) < 1e-6

    def test_conditional_correctness_discrete_enumeration(self):
        K = 3

        def model(z, mu, x):
            oh = G.one_hot(z, K)
            return (-float(np.log(K))
                    - 0.5 * G.einsum("k,k->", oh, G.square(x - mu)))

        g = G.build(model, [("z", (), "INTEGER"), ("mu", (K,)), ("x", ())])
        fac = complete_conditional(g, 0, SupportType.INTEGER)
        rng = np.random.default_rng(2)
        for _ in range(10):
            rest = dict(mu=rng.standard_normal(K), x=rng.standard_normal())
            d = fac.from_env(rest)
            joints = np.array([G.evaluate(g, dict(rest, z=float(k)))
                               for k in range(K)])
            lognorm = np.log(np.exp(joints).sum())
            for k in range(K):
                want = joints[k] - lognorm
                assert abs(float(d.log_prob(float(k))) - want) < 1e-10


def _spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + np.eye(d)


# models holding a strict subset of their family's statistics (a missing
# statistic has natural parameter 0): family, model, inputs, support, draw
OMITTED = {
    "beta_log_only": (
        "Beta",
        lambda z, a: (a - 1.0) * G.log(z),
        [("z", ()), ("a", ())], SupportType.UNIT_INTERVAL,
        lambda rng: dict(z=rng.uniform(0.05, 0.95), a=rng.uniform(0.5, 4))),
    "gamma_identity_only": (
        "Gamma",
        lambda z, b: -b * z,
        [("z", ()), ("b", ())], SupportType.NONNEGATIVE,
        lambda rng: dict(z=rng.uniform(0.1, 3), b=rng.uniform(0.5, 3))),
    "normal_square_only": (
        "Normal",
        lambda z, c: -0.5 * c * G.sum_all(G.square(z)),
        [("z", (3,)), ("c", ())], SupportType.REAL,
        lambda rng: dict(z=rng.standard_normal(3), c=rng.uniform(0.5, 3))),
    "mvn_outer_and_square": (
        "MultivariateNormal",
        lambda z, q, c: (-0.5 * G.einsum("i,ij,j->", z, q, z)
                         - 0.5 * G.einsum("i,i,i->", c, z, z)),
        [("z", (3,)), ("q", (3, 3)), ("c", (3,))], SupportType.REAL,
        lambda rng: dict(z=rng.standard_normal(3), q=_spd(rng, 3),
                         c=rng.uniform(0.5, 3, 3))),
}


class TestMarginalize:
    def test_beta_marginal_matches_quadrature(self):
        g = bb_graph()
        marg = marginalize(g, 0, SupportType.UNIT_INTERVAL)
        rng = np.random.default_rng(3)
        for _ in range(10):
            heads = float(rng.integers(1, 40))
            rest = dict(n_heads=heads,
                        n_draws=heads + float(rng.integers(1, 40)),
                        prior_a=rng.uniform(0.4, 4),
                        prior_b=rng.uniform(0.4, 4))
            got = float(G.evaluate(marg, rest))
            want = log_quad(lambda z: G.evaluate(g, dict(rest, prob=z)), 0, 1)
            assert abs(got - want) < 1e-8

    def test_categorical_marginal_is_enumeration(self):
        K = 3

        def model(z, mu, x):
            oh = G.one_hot(z, K)
            return (-float(np.log(K))
                    - 0.5 * G.einsum("k,k->", oh, G.square(x - mu))
                    - 0.5 * LOG2PI)

        g = G.build(model, [("z", (), "INTEGER"), ("mu", (K,)), ("x", ())])
        marg = marginalize(g, 0, SupportType.INTEGER)
        rng = np.random.default_rng(4)
        for _ in range(10):
            rest = dict(mu=rng.standard_normal(K), x=rng.standard_normal())
            got = float(G.evaluate(marg, rest))
            joints = [G.evaluate(g, dict(rest, z=float(k))) for k in range(K)]
            want = np.log(np.sum(np.exp(joints)))
            assert abs(got - want) < 1e-12

    def test_gaussian_chain_step_matches_gauss_hermite(self):
        fx = fixture("kalman")
        g = fx.graph()
        marg = marginalize(g, 0, SupportType.REAL)  # integrate x_t
        rng = np.random.default_rng(6)
        rest = dict(xtt=0.4, ytt=-0.3, xt_prior_mean=0.2,
                    xt_prior_scale=1.1, x_scale=0.8, y_scale=1.3)
        got = float(G.evaluate(marg, rest))
        want = np.log(gauss_hermite_integral(
            lambda v: float(G.evaluate(g, dict(rest, xt=float(v[0])))), 1))
        assert abs(got - want) < 1e-8
        # marginalize twice: p(ytt | ...) by 2-D quadrature over (xt, xtt)
        marg2 = marginalize(marg, 0, SupportType.REAL)
        rest2 = {k: v for k, v in rest.items() if k != "xtt"}
        got2 = float(G.evaluate(marg2, rest2))
        want2 = np.log(gauss_hermite_integral(
            lambda v: float(G.evaluate(
                g, dict(rest2, xt=float(v[0]), xtt=float(v[1])))), 2))
        assert abs(got2 - want2) < 1e-8

    @pytest.mark.parametrize("name", ["beta_bernoulli", "normal_gamma",
                                      "logistic_jj", "kalman",
                                      "factor_analysis", "gmm"])
    def test_marginal_consistency_chain_rule(self, name):
        fx = fixture(name)
        g = fx.graph()
        for argnum, support in fx.latents:
            var = g.input_names[argnum]
            marg = marginalize(g, argnum, support)
            fac = complete_conditional(g, argnum, support)
            n_points = 3 if name == "factor_analysis" else 20
            for seed in range(1, n_points + 1):
                args = fx.example_args(seed)
                full = float(G.evaluate(g, args))
                rest = {k: v for k, v in args.items() if k != var}
                total = (float(G.evaluate(marg, rest))
                         + float(np.sum(fac.from_env(rest).log_prob(args[var]))))
                assert abs(total - full) <= 1e-8 * max(1.0, abs(full)), (
                    name, var, seed)

    @pytest.mark.parametrize("name", sorted(OMITTED))
    def test_chain_rule_with_omitted_statistics(self, name):
        family, model, inputs, support, draw = OMITTED[name]
        g = G.build(model, inputs)
        marg = marginalize(g, 0, support)
        fac = complete_conditional(g, 0, support)
        assert fac.family.name == family
        rng = np.random.default_rng(5)
        for _ in range(5):
            args = draw(rng)
            full = float(G.evaluate(g, args))
            rest = {k: v for k, v in args.items() if k != "z"}
            total = (float(G.evaluate(marg, rest))
                     + float(np.sum(fac.from_env(rest).log_prob(args["z"]))))
            assert abs(total - full) <= 1e-12 * max(1.0, abs(full))

    def test_chain_rule_with_asymmetric_quadratic_coefficient(self):
        def model(z, q, m):
            return (-0.5 * G.einsum("i,ij,j->", z, q, z)
                    + G.einsum("i,i->", m, z))

        g = G.build(model, [("z", (3,)), ("q", (3, 3)), ("m", (3,))])
        marg = marginalize(g, 0, SupportType.REAL)
        fac = complete_conditional(g, 0, SupportType.REAL)
        rng = np.random.default_rng(0)
        k = rng.standard_normal((3, 3))
        rest = dict(q=_spd(rng, 3) + (k - k.T), m=rng.standard_normal(3))
        z = rng.standard_normal(3)
        full = float(G.evaluate(g, dict(rest, z=z)))
        total = (float(G.evaluate(marg, rest))
                 + float(fac.from_env(rest).log_prob(z)))
        assert abs(total - full) <= 1e-10

    def test_order_invariance_for_gaussian_chain(self):
        def model(z1, z2, y):
            lp = -0.5 * G.square(z1) - 0.5 * LOG2PI
            lp = lp - 0.5 * G.square(z2 - z1) - 0.5 * LOG2PI
            lp = lp - 0.5 * G.square(y - z2) - 0.5 * LOG2PI
            return lp

        g = G.build(model, [("z1", (), "REAL"), ("z2", (), "REAL"), ("y", ())])
        m12 = marginalize(marginalize(g, 0, SupportType.REAL), 0,
                          SupportType.REAL)
        m21 = marginalize(marginalize(g, 1, SupportType.REAL), 0,
                          SupportType.REAL)
        rng = np.random.default_rng(8)
        for _ in range(10):
            y = float(rng.standard_normal())
            a = float(G.evaluate(m12, {"y": y}))
            b = float(G.evaluate(m21, {"y": y}))
            # direct: y ~ N(0, 3)
            want = -0.5 * y * y / 3 - 0.5 * np.log(3) - 0.5 * LOG2PI
            assert abs(a - b) < 1e-8
            assert abs(a - want) < 1e-8


class TestMultilinearRepr:
    def test_single_gaussian_recovery(self):
        def model(z, m, Q):
            d = z - m
            return -0.5 * G.einsum("i,ij,j->", d, Q, d)

        g = G.build(model, [("z", (3,), "REAL"), ("m", (3,)), ("Q", (3, 3))])
        mrepr = multilinear_repr(g, argnums=(0,), supports=(SupportType.REAL,))
        blk = mrepr.blocks[0]
        assert blk.family.name == "MultivariateNormal"
        assert {"identity", "outer"} <= set(blk.descriptors)
        rng = np.random.default_rng(9)
        for _ in range(5):
            z = rng.standard_normal(3)
            a = rng.standard_normal((3, 3))
            data = dict(m=rng.standard_normal(3), Q=a @ a.T + np.eye(3))
            want = float(G.evaluate(g, dict(data, z=z)))
            got = float(mrepr.reconstruct({"z": z}, data))
            assert abs(got - want) < 1e-10

    def test_elementwise_gaussian_recovers_diagonal_normal(self):
        def model(z, m, s):
            return -0.5 * G.einsum("i,i->", z - m, z - m) * s

        g = G.build(model, [("z", (3,), "REAL"), ("m", (3,)), ("s", ())])
        mrepr = multilinear_repr(g, argnums=(0,), supports=(SupportType.REAL,))
        assert mrepr.blocks[0].family.name == "Normal"

    def test_logistic_bound_statistics(self):
        fx = fixture("logistic_jj")
        mrepr = multilinear_repr(fx.graph(), argnums=(0,),
                                 supports=(SupportType.REAL,))
        blk = mrepr.blocks[0]
        assert blk.family.name == "MultivariateNormal"
        assert "identity" in blk.descriptors
        assert "outer" in blk.descriptors

    def test_reconstruction_on_bound_that_is_not_a_density(self):
        fx = fixture("logistic_jj")
        g = fx.graph()
        mrepr = multilinear_repr(g, argnums=(0,), supports=(SupportType.REAL,))
        v = fx.example_args(3)
        data = {k: v[k] for k in ("xi", "x", "y")}
        want = float(G.evaluate(g, v))
        got = float(mrepr.reconstruct({"beta": v["beta"]}, data))
        assert abs(got - want) < 1e-10

    def test_independent_latents_have_no_cross_monomials(self):
        def model(a, b, c):
            return -0.5 * G.square(a) - 0.5 * G.square(b) + c

        g = G.build(model, [("a", (), "REAL"), ("b", (), "REAL"), ("c", ())])
        mrepr = multilinear_repr(
            g, argnums=(0, 1),
            supports=(SupportType.REAL, SupportType.REAL))
        stat_inputs = {s.input_name for blk in mrepr.blocks for s in blk.stats}
        by_var = {blk.name: {s.input_name for s in blk.stats}
                  for blk in mrepr.blocks}
        ne = mrepr.neg_energy
        from symconj.canonicalize import monomials
        for root in monomials(ne):
            node = ne.nodes[root]
            factors = (node.args if getattr(node, "op", None) == "einsum"
                       else (root,))
            touched = set()
            for fid in factors:
                node = ne.nodes[fid]
                for var, names in by_var.items():
                    if isinstance(node, InputNode) and node.name in names:
                        touched.add(var)
            assert len(touched) <= 1

    @pytest.mark.parametrize(
        "name", [f.name for f in models.fixtures() if f.latents])
    def test_one_walk_for_all_targets(self, name):
        # the joint walk finds each target's statistics as a walk for that
        # target alone does, and its energy keeps the canonical monomials
        fx = fixture(name)
        g = fx.graph()
        cf = canonicalize(g)
        names = [g.input_names[a] for a, _ in fx.latents]
        *joint, _ = find_sufficient_statistics(cf, *names)
        for var, stats in zip(names, joint):
            alone, _ = find_sufficient_statistics(cf, var)
            assert stats.var == var and stats.residual == alone.residual
            assert list(stats.graphs) == list(alone.graphs)
            for d, sg in alone.graphs.items():
                assert G.graph_equal(stats.graphs[d], sg)
        mr = multilinear_repr(g, [a for a, _ in fx.latents],
                              [s for _, s in fx.latents])
        assert len(monomials(mr.neg_energy)) == len(cf.monomials)

    def test_unknown_block_name_raises(self):
        g = G.build(lambda a, c: c * a - 0.5 * G.square(a),
                    [("a", (), "REAL"), ("c", ())])
        mrepr = multilinear_repr(g, argnums=(0,), supports=(SupportType.REAL,))
        with pytest.raises(ConjugacyError,
                           match="^no latent block named 'c'$"):
            mrepr.block("c")

    def test_support_tag_conflict_warns(self):
        # input tagged REAL, but the caller asks NONNEGATIVE: the explicit
        # argument wins (Gamma statistics match), with a warning
        def model(z, a, b):
            return (a - 1.0) * G.log(z) - b * z

        g = G.build(model, [("z", (), "REAL"), ("a", ()), ("b", ())])
        with pytest.warns(UserWarning, match="support tag"):
            fac = complete_conditional(g, 0, SupportType.NONNEGATIVE)
        assert fac.family.name == "Gamma"


# each transform analyzed for one argument; all three share one analysis
TRANSFORMS = {
    "complete_conditional": lambda g, a, s: complete_conditional(g, a, s),
    "marginalize": lambda g, a, s: marginalize(g, a, s),
    "multilinear_repr": lambda g, a, s: multilinear_repr(g, [a], [s]),
}


class TestSharedAnalysis:
    @pytest.mark.parametrize("argnum", [99, -1])
    @pytest.mark.parametrize("transform", sorted(TRANSFORMS))
    def test_out_of_range_argnum_rejected(self, transform, argnum):
        g = fixture("normal_gamma").graph()
        with pytest.raises(ConjugacyError, match="out of range"):
            TRANSFORMS[transform](g, argnum, SupportType.REAL)

    @pytest.mark.parametrize("argnum", ["tau", 0.0, True])
    @pytest.mark.parametrize("transform", sorted(TRANSFORMS))
    def test_non_integer_argnum_rejected(self, transform, argnum):
        g = fixture("normal_gamma").graph()
        with pytest.raises(ConjugacyError,
                           match=r"not an integer .*'tau', 'beta'"):
            TRANSFORMS[transform](g, argnum, "NONNEGATIVE")

    @pytest.mark.parametrize("transform", sorted(TRANSFORMS))
    def test_unknown_support_lists_the_supports(self, transform):
        g = fixture("normal_gamma").graph()
        with pytest.raises(ConjugacyError,
                           match=r"unknown support 'NONNEG'.*'NONNEGATIVE'"):
            TRANSFORMS[transform](g, 0, "NONNEG")

    def test_argnums_must_be_a_sequence(self):
        g = fixture("normal_gamma").graph()
        with pytest.raises(ConjugacyError, match="aligned sequences"):
            multilinear_repr(g, 0, [SupportType.NONNEGATIVE])

    def test_duplicate_argnums_rejected(self):
        g = fixture("normal_gamma").graph()
        with pytest.raises(ConjugacyError, match="duplicate"):
            multilinear_repr(g, argnums=[0, 0],
                             supports=[SupportType.NONNEGATIVE] * 2)

    def test_misaligned_supports_rejected(self):
        g = fixture("normal_gamma").graph()
        with pytest.raises(ConjugacyError, match="align"):
            multilinear_repr(g, argnums=[0, 1],
                             supports=[SupportType.NONNEGATIVE])

    @pytest.mark.parametrize("transform", sorted(TRANSFORMS))
    def test_unknown_family_lists_discovered_statistics(self, transform):
        def model(z, c):
            return -0.5 * G.square(z) + G.log1p(G.exp(z * c))

        g = G.build(model, [("z", (), "REAL"), ("c", ())])
        with pytest.raises(UnknownFamilyError,
                           match=r"discovered statistics \['square'\]") as e:
            TRANSFORMS[transform](g, 0, SupportType.REAL)
        assert e.value.atoms == ("log1p(exp(einsum(c, z)))",)
        assert "log1p(exp(einsum(c, z)))" in str(e.value)

    @pytest.mark.parametrize("transform, args", [
        (complete_conditional, (0, SupportType.NONNEGATIVE)),
        (marginalize, (0, SupportType.NONNEGATIVE)),
        (multilinear_repr, ([0], [SupportType.NONNEGATIVE])),
    ], ids=["complete_conditional", "marginalize", "multilinear_repr"])
    def test_support_tag_warning_names_the_caller(self, transform, args):
        def model(z, a, b):
            return (a - 1.0) * G.log(z) - b * z

        g = G.build(model, [("z", (), "REAL"), ("a", ()), ("b", ())])
        with pytest.warns(UserWarning, match="support tag") as w:
            transform(g, *args)  # called here, so the warning names this file
        assert w[0].filename == __file__

    def test_conditional_factory_reads_its_block(self):
        g = fixture("normal_gamma").graph()
        fac = complete_conditional(g, 1, SupportType.REAL)
        mrepr = multilinear_repr(g, [1], [SupportType.REAL])
        assert fac.var == "beta" and fac.arg_names == mrepr.arg_names
        assert fac.family is mrepr.blocks[0].family
        assert {d: G.dump(eg) for d, eg in fac.eta_graphs.items()} == {
            s.descriptor: G.dump(s.eta_graph) for s in mrepr.blocks[0].stats}

    @pytest.mark.parametrize(
        "name", [f.name for f in models.fixtures() if f.latents])
    def test_one_statistic_order(self, name):
        # a block lists its statistics in DESCRIPTORS order, alone or joint
        fx = fixture(name)
        g = fx.graph()
        joint = multilinear_repr(g, [a for a, _ in fx.latents],
                                 [s for _, s in fx.latents])
        for argnum, support in fx.latents:
            fac = complete_conditional(g, argnum, support)
            order = tuple(fac.eta_graphs)
            assert order == joint.block(fac.var).descriptors
            assert order == tuple(sorted(order, key=DESCRIPTORS.index))


REFERENCE = ("beta_bernoulli", "normal_gamma", "logistic_jj", "kalman",
             "factor_analysis", "gmm")


def _holds_identity(g):
    return any(isinstance(n, ConstNode) and n.value.ndim == 2
               and n.value.shape[0] == n.value.shape[1] > 1
               and np.array_equal(n.value, np.eye(n.value.shape[0]))
               for n in g.nodes)


class TestEtaGraphConstants:
    @pytest.mark.parametrize("name", REFERENCE)
    def test_no_identity_constant(self, name):
        # einsum gradients need an identity only for a repeated subscript,
        # which no reference fixture's energy contains
        fx = fixture(name)
        g = fx.graph()
        etas = [eg for argnum, support in fx.latents
                for eg in complete_conditional(
                    g, argnum, support).eta_graphs.values()]
        mrepr = multilinear_repr(g, argnums=[a for a, _ in fx.latents],
                                 supports=[s for _, s in fx.latents])
        etas += [s.eta_graph for blk in mrepr.blocks for s in blk.stats]
        assert etas and not any(_holds_identity(eg) for eg in etas)


class TestEtaIsSweepFixedPoint:
    """Extraction emits each eta graph through the simplifier, so one more
    sweep leaves it as it is."""

    @pytest.mark.parametrize(
        "name", [fx.name for fx in models.fixtures() if fx.latents])
    def test_conditional_and_joint_etas(self, name):
        fx = fixture(name)
        g = fx.graph()
        etas = [eg for argnum, support in fx.latents
                for eg in complete_conditional(
                    g, argnum, support).eta_graphs.values()]
        mrepr = multilinear_repr(g, argnums=[a for a, _ in fx.latents],
                                 supports=[s for _, s in fx.latents])
        etas += [s.eta_graph for blk in mrepr.blocks for s in blk.stats]
        for eg in etas:
            assert G.graph_equal(local_simplify(eg), eg), name


class TestGradientOracle:
    @pytest.mark.parametrize("name", REFERENCE)
    def test_eta_graphs_equal_energy_gradients(self, name):
        # each eta graph read off the monomials equals the symbolic
        # gradient of the energy at its statistic input, both for the
        # one-latent analysis behind complete_conditional and the joint one
        fx = fixture(name)
        g = fx.graph()
        analyses = [multilinear_repr(g, [a], [s]) for a, s in fx.latents]
        analyses.append(multilinear_repr(
            g, [a for a, _ in fx.latents], [s for _, s in fx.latents]))
        for mr in analyses:
            energy = mr.neg_energy
            for blk in mr.blocks:
                for s in blk.stats:
                    oracle = normalize_graph(
                        G.grad(energy, energy.input_id(s.input_name)))
                    for seed in range(3):
                        args = fx.example_args(seed)
                        env = mr.energy_env(
                            {b.name: b.statistic_values(args[b.name])
                             for b in mr.blocks}, args)
                        got = np.asarray(G.evaluate(s.eta_graph, env))
                        want = np.asarray(G.evaluate(oracle, env))
                        scale = max(1.0, float(np.abs(want).max()))
                        assert np.abs(got - want).max() <= 1e-12 * scale, (
                            name, blk.name, s.descriptor, seed)


class TestAffineOracle:
    @pytest.mark.parametrize("name", REFERENCE)
    def test_energy_differences_equal_eta_pairings(self, name):
        # the energy is affine in one block's statistics, with the etas as
        # slope: energy(t) - energy(t') = <eta, t - t'> for the block's
        # statistics at two draws, the other blocks fixed: the example
        # value and a draw from the block's own conditional. Unlike the
        # gradient oracle, this reads no vector-Jacobian product.
        fx = fixture(name)
        g = fx.graph()
        analyses = [multilinear_repr(g, [a], [s]) for a, s in fx.latents]
        analyses.append(multilinear_repr(
            g, [a for a, _ in fx.latents], [s for _, s in fx.latents]))
        for mr in analyses:
            for blk in mr.blocks:
                for seed in range(3):
                    args = fx.example_args(seed)
                    stats = {b.name: b.statistic_values(args[b.name])
                             for b in mr.blocks}
                    env = mr.energy_env(stats, args)
                    t = stats[blk.name]
                    t2 = blk.statistic_values(blk.distribution(env).sample(
                        np.random.default_rng(seed)))
                    assert any(not np.array_equal(t[d], t2[d]) for d in t)
                    e = float(G.evaluate(mr.neg_energy, env))
                    e2 = float(G.evaluate(mr.neg_energy, mr.energy_env(
                        {**stats, blk.name: t2}, args)))
                    pairing = sum(
                        float(np.sum(G.evaluate(s.eta_graph, env)
                                     * (t[s.descriptor] - t2[s.descriptor])))
                        for s in blk.stats)
                    scale = max(1.0, abs(e), abs(e2))
                    assert abs(e - e2 - pairing) <= 1e-10 * scale, (
                        name, blk.name, seed)


class TestHandDerivedOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_gmm_conditionals_match_hand_derivation(self, seed):
        # each extracted conditional against the textbook one, which reads
        # neither the canonical form nor the energy
        fx = fixture("gmm")
        g = fx.graph()
        args = fx.example_args(seed)
        want = gmm_conditionals(args)
        for argnum, support in fx.latents:
            var = g.input_names[argnum]
            got = complete_conditional(g, argnum, support).from_env(
                args).standard()
            assert sorted(got) == sorted(want[var]), var
            for k, w in want[var].items():
                assert np.shape(got[k]) == np.shape(w), (var, k)
                scale = max(1.0, float(np.abs(w).max()))
                assert np.abs(got[k] - w).max() <= 1e-10 * scale, (
                    var, k, seed)


def gaussian_chain(T):
    """An unrolled chain of T scalar REAL latents x_t, each Normal around
    x_{t-1} (x_0 around 0) with scale q, and T observations y_t, each
    Normal around x_t with scale r."""
    def model(*a):
        xs, ys, q, r = a[:T], a[T:2 * T], a[2 * T], a[2 * T + 1]

        def norm_lp(v, loc, scale):
            zz = (v - loc) * G.reciprocal(scale)
            return -0.5 * G.square(zz) - 0.5 * LOG2PI - G.log(scale)
        lp = norm_lp(xs[0], 0.0, q)
        for t in range(1, T):
            lp = lp + norm_lp(xs[t], xs[t - 1], q)
        for t in range(T):
            lp = lp + norm_lp(ys[t], xs[t], r)
        return lp
    return G.build(model, [(f"x{t}", (), "REAL") for t in range(T)]
                   + [(f"y{t}", ()) for t in range(T)]
                   + [("q", ()), ("r", ())])


class TestWorkIsLinearInLatents:
    """Nodes appended through GraphBuilder, not time: a conditional reads
    only the monomials that hold its target, and an eta declares only the
    inputs it reaches, so on the Gaussian chain doubling T at most about
    doubles the work of all T conditionals and of the joint repr."""

    @staticmethod
    def appended(T, monkeypatch):
        count = [0]
        real = G.GraphBuilder._append

        def counted(gb, node, shape):
            before = len(gb._nodes)
            h = real(gb, node, shape)
            count[0] += len(gb._nodes) - before
            return h

        g = gaussian_chain(T)
        complete_conditional(g, 0, SupportType.REAL)  # canonicalizes g
        with monkeypatch.context() as m:
            m.setattr(G.GraphBuilder, "_append", counted)
            for t in range(T):
                complete_conditional(g, t, SupportType.REAL)
            conditionals, count[0] = count[0], 0
            multilinear_repr(g, range(T), [SupportType.REAL] * T)
        return conditionals, count[0]

    def test_doubling_the_chain_at_most_doubles_the_nodes(self, monkeypatch):
        cc32, mr32 = self.appended(32, monkeypatch)
        cc64, mr64 = self.appended(64, monkeypatch)
        assert cc64 <= 2.2 * cc32, (cc32, cc64)
        assert mr64 <= 2.2 * mr32, (mr32, mr64)


class TestCanonicalMemo:
    """The transforms canonicalize each graph object once between them."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = conjugacy.canonicalize

        def counted(g, *args, **kwargs):
            seen.append(g)
            return real(g, *args, **kwargs)

        monkeypatch.setattr(conjugacy, "canonicalize", counted)
        return seen

    def test_deriving_gmm_canonicalizes_its_log_joint_once(self, calls):
        fx = fixture("gmm")
        g = fx.graph()
        assert len(fx.latents) == 4
        for argnum, support in fx.latents:
            complete_conditional(g, argnum, support)
        for argnum, support in fx.latents:
            marginalize(g, argnum, support)
        multilinear_repr(g, [a for a, _ in fx.latents],
                         [s for _, s in fx.latents])
        # the log joint once; each marginal is born canonical
        assert calls == [g]

    def test_marginal_carries_its_canonical_form(self, calls):
        g = models._kalman_step_graph()
        step = marginalize(g, 0, SupportType.REAL)
        marginalize(step, 0, SupportType.REAL)
        complete_conditional(step, 0, SupportType.REAL)
        # the step graph only: no marginal is canonicalized as a whole
        assert calls == [g]

    def test_memoized_form_runs_no_simplifier_sweep(self, monkeypatch):
        fx = fixture("gmm")
        g = fx.graph()
        complete_conditional(g, *fx.latents[0])  # memoizes the form
        sweeps = []
        canon = importlib.import_module("symconj.canonicalize")
        real = canon.local_simplify

        def counted(*args, **kwargs):
            sweeps.append(args[0])
            return real(*args, **kwargs)

        for mod in (canon, conjugacy, expfam):  # wherever the name is bound
            if getattr(mod, "local_simplify", None) is real:
                monkeypatch.setattr(mod, "local_simplify", counted)
        for argnum, support in fx.latents:
            complete_conditional(g, argnum, support)
        multilinear_repr(g, [a for a, _ in fx.latents],
                         [s for _, s in fx.latents])
        assert sweeps == []

    def test_support_tag_warning_on_every_call(self):
        def model(z, a, b):
            return (a - 1.0) * G.log(z) - b * z

        g = G.build(model, [("z", (), "REAL"), ("a", ()), ("b", ())])
        for _ in range(2):
            with pytest.warns(UserWarning, match="support tag") as w:
                complete_conditional(g, 0, SupportType.NONNEGATIVE)
            assert w[0].filename == __file__

    def test_family_errors_on_every_call(self):
        unknown = G.build(lambda z, c: -0.5 * G.square(z)
                          + G.log1p(G.exp(z * c)), [("z", (), "REAL"),
                                                    ("c", ())])
        coupled = G.build(lambda z, c: c * z * G.log(z),
                          [("z", (), "NONNEGATIVE"), ("c", ())])
        for _ in range(2):
            with pytest.raises(UnknownFamilyError):
                complete_conditional(unknown, 0, SupportType.REAL)
            with pytest.raises(NonMultiaffineError):
                complete_conditional(coupled, 0, SupportType.NONNEGATIVE)

    def test_failed_canonicalization_is_not_memoized(self, calls):
        gb = G.GraphBuilder()
        g = gb.finish(gb.input("z", (3,), "REAL"))  # not a scalar density
        for _ in range(2):
            with pytest.raises(CanonicalizationError, match="scalar output"):
                complete_conditional(g, 0, SupportType.REAL)
        assert calls == [g, g]

    def test_canonical_form_is_frozen(self):
        cf = canonicalize(bb_graph())
        with pytest.raises(dataclasses.FrozenInstanceError):
            cf.graph = None


class TestMarginalIsCanonicalFixedPoint:
    """A marginal may carry its own canonical form because canonicalizing
    it again gives an equal graph."""

    @pytest.mark.parametrize("name", REFERENCE)
    def test_reference_marginals(self, name):
        fx = fixture(name)
        g = fx.graph()
        for argnum, support in fx.latents:
            m = marginalize(g, argnum, support)
            assert G.graph_equal(canonicalize(m).graph, m), (name, argnum)

    def test_kalman_step_marginals(self):
        step = marginalize(models._kalman_step_graph(), 0, SupportType.REAL)
        evidence = marginalize(step, 0, SupportType.REAL)
        for m in (step, evidence):
            assert G.graph_equal(canonicalize(m).graph, m)


class TestAnalysisMemo:
    """Work counts, not time: each graph keeps its successful one-target
    analyses by (argnum, support), so the two one-target transforms share
    one in either order; the joint repr is analyzed on every call."""

    @pytest.fixture
    def analyses(self, monkeypatch):
        seen = []
        real = conjugacy.find_sufficient_statistics

        def counted(form, *names):
            seen.append(names)
            return real(form, *names)

        monkeypatch.setattr(conjugacy, "find_sufficient_statistics", counted)
        return seen

    @pytest.mark.parametrize("conditional_first", [True, False])
    def test_one_analysis_per_target_in_either_order(self, analyses,
                                                     conditional_first):
        fx = fixture("gmm")
        g = fx.graph()
        order = [complete_conditional, marginalize]
        if not conditional_first:
            order.reverse()
        for argnum, support in fx.latents:
            for transform in order * 2:
                transform(g, argnum, support)
        assert analyses == [(g.input_names[a],) for a, _ in fx.latents]

    def test_argnum_and_support_spellings_share_the_analysis(self, analyses):
        g = fixture("normal_gamma").graph()
        complete_conditional(g, 0, "NONNEGATIVE")
        marginalize(g, np.int64(0), SupportType.NONNEGATIVE)
        assert analyses == [("tau",)]

    def test_a_different_support_runs_its_own_analysis(self, analyses):
        g = G.build(lambda z, c: c * z, [("z", ()), ("c", ())])
        families = [complete_conditional(g, 0, support).family.name
                    for support in (SupportType.BINARY,
                                    SupportType.NONNEGATIVE) * 2]
        assert families == ["Bernoulli", "Gamma"] * 2
        assert analyses == [("z",), ("z",)]

    def test_the_joint_repr_is_analyzed_on_every_call(self, analyses):
        fx = fixture("normal_gamma")
        g = fx.graph()
        argnums, supports = zip(*fx.latents)
        complete_conditional(g, argnums[0], supports[0])
        for _ in range(2):
            multilinear_repr(g, argnums, supports)
        multilinear_repr(g, argnums[:1], supports[:1])
        assert analyses == [("tau",), ("tau", "beta"), ("tau", "beta"),
                            ("tau",)]

    def test_a_failed_analysis_runs_again(self, analyses):
        g = G.build(lambda z, c: c * z * G.log(z),
                    [("z", (), "NONNEGATIVE"), ("c", ())])
        for _ in range(2):
            with pytest.raises(NonMultiaffineError):
                marginalize(g, 0, SupportType.NONNEGATIVE)
        assert analyses == [("z",), ("z",)]


def whole_marginal(g, argnum, support):
    """The marginal as g0 + A(eta) built raw and canonicalized as a whole,
    from the public pieces: the conditional's family and eta graphs, and
    the monomials of g's canonical form that do not hold the target."""
    fac = complete_conditional(g, argnum, support)
    form = canonicalize(g)
    cg = form.graph
    dep = cg.depends_on([cg.input_id(fac.var)])
    gb, memo = G.GraphBuilder(), {}
    data = {n: G.rebuild(gb, cg, cg.input_id(n), memo) for n in fac.arg_names}
    out = fac.family.lognorm_graph(gb, {
        d: G.import_graph(gb, eg, data) for d, eg in fac.eta_graphs.items()})
    for root in form.monomials:
        if not dep[root]:
            out = gb.prim("add", (G.rebuild(gb, cg, root, memo), out))
    return canonicalize(gb.finish(out, scalar=True)).graph


def chain_evidence(ys, q, r):
    """log p(y) of :func:`gaussian_chain` from its joint covariance."""
    t = np.arange(len(ys))
    cov = q * q * (np.minimum.outer(t, t) + 1.0) + r * r * np.eye(len(ys))
    _, logdet = np.linalg.slogdet(cov)
    return float(-0.5 * ys @ np.linalg.solve(cov, ys) - 0.5 * logdet
                 - 0.5 * len(ys) * LOG2PI)


class TestMarginalEqualsWholeCanonicalization:
    """Merging g0 with A(eta) in one simplifier gives the graph that
    canonicalizing the whole sum gives."""

    @pytest.mark.parametrize("name", REFERENCE)
    def test_reference_marginals(self, name):
        fx = fixture(name)
        g = fx.graph()
        for argnum, support in fx.latents:
            assert G.graph_equal(marginalize(g, argnum, support),
                                 whole_marginal(g, argnum, support)), (
                name, argnum)

    def test_every_step_of_the_gaussian_chain(self):
        m = gaussian_chain(6)
        for t in range(6):
            want = whole_marginal(m, 0, SupportType.REAL)
            m = marginalize(m, 0, SupportType.REAL)
            assert G.graph_equal(m, want), t
        assert m.input_names == tuple(f"y{t}" for t in range(6)) + ("q", "r")

    def test_chain_evidence_matches_joint_covariance(self):
        T = 8
        m = gaussian_chain(T)
        for _ in range(T):
            m = marginalize(m, 0, SupportType.REAL)
        rng = np.random.default_rng(11)
        for _ in range(3):
            ys = rng.standard_normal(T)
            q, r = rng.uniform(0.5, 2.0, size=2)
            got = float(G.evaluate(m, dict(
                {f"y{t}": ys[t] for t in range(T)}, q=q, r=r)))
            want = chain_evidence(ys, q, r)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


class TestMarginalRulePhase:
    """A marginal runs the log rule phase only when a log of g0 + A(eta)
    matches a rule, and then gives the graph canonicalizing it whole
    gives."""

    @staticmethod
    def rule_phases(monkeypatch):
        phases = []
        real = conjugacy._fire_rules

        def logged(g, budget, firing_log=None):
            fired = []
            out = real(g, budget, fired)
            phases.append(fired)
            return out

        monkeypatch.setattr(conjugacy, "_fire_rules", logged)
        return phases

    def test_log_of_product_in_the_normalizer_still_splits(self, monkeypatch):
        # integrating z out leaves lgamma(a) - a log(b c)
        def model(z, a, b, c):
            return (a - 1.0) * G.log(z) - b * c * z
        g = G.build(model, [("z", ()), ("a", ()), ("b", ()), ("c", ())])
        want = whole_marginal(g, 0, SupportType.NONNEGATIVE)
        phases = self.rule_phases(monkeypatch)
        m = marginalize(g, 0, SupportType.NONNEGATIVE)
        assert phases == [["log_product"]]
        assert G.graph_equal(m, want)

    def test_reference_marginals_skip_the_empty_phase(self, monkeypatch):
        phases = self.rule_phases(monkeypatch)
        for name in REFERENCE:
            fx = fixture(name)
            g = fx.graph()
            for argnum, support in fx.latents:
                marginalize(g, argnum, support)
        assert phases == []


class TestAppendedNodes:
    """Nodes appended through GraphBuilder, not time: multiplying out
    builds each distinct monomial once, and compiling the fixtures
    appends fewer nodes than when every partial product was a node (1,782
    for the ten canonical forms, 1,820 for the reference marginals)."""

    @staticmethod
    def appending(m, into):
        real = G.GraphBuilder._append

        def counted(gb, node, shape):
            before = len(gb._nodes)
            h = real(gb, node, shape)
            if len(gb._nodes) > before:
                into.append((id(gb), node))
            return h

        m.setattr(G.GraphBuilder, "_append", counted)

    def test_power_of_sum_builds_each_monomial_once(self, monkeypatch):
        g = G.build(lambda u, v, w: G.sum_all((u + v + w) ** 3.0),
                    [("u", (3,)), ("v", (3,)), ("w", (3,))])
        appended = []
        with monkeypatch.context() as m:
            self.appending(m, appended)
            cf = canonicalize(g)
        assert len(cf.monomials) == 10
        einsums = Counter(gb for gb, node in appended if isinstance(
            node, PrimNode) and node.op == "einsum")
        # the sweep's builder, then the copy that renumbers its graph
        assert list(einsums.values()) == [10, 10]

    def test_fixture_compile_work_stays_under_node_products(self, monkeypatch):
        graphs = {fx.name: fx.graph() for fx in fixtures()}
        for name in REFERENCE:
            for argnum, support in fixture(name).latents:
                complete_conditional(graphs[name], argnum, support)
        canonical, marginals = [], []
        with monkeypatch.context() as m:
            self.appending(m, canonical)
            for g in graphs.values():
                canonicalize(g)
        with monkeypatch.context() as m:
            self.appending(m, marginals)
            for name in REFERENCE:
                for argnum, support in fixture(name).latents:
                    marginalize(graphs[name], argnum, support)
        assert len(canonical) < 1782
        assert len(marginals) < 1820


class TestRenderedAtoms:
    def test_deeply_nested_atom_names_its_family_error(self):
        def model(z, x):
            h = z
            for _ in range(1500):
                h = G.logistic(h)
            return G.einsum(",->", h, x)
        g = G.build(model, [("z", ()), ("x", ())])
        with pytest.raises(UnknownFamilyError) as err:
            complete_conditional(g, 0, SupportType.REAL)
        (atom,) = err.value.atoms
        assert atom.startswith("logistic(logistic(") and atom.endswith("...")
