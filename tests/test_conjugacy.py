import numpy as np
import pytest
from scipy import integrate

from symconj import graph as G
from symconj.canonicalize import canonicalize, normalize_graph
from symconj.conjugacy import (
    complete_conditional, extract_natural_parameters,
    find_sufficient_statistics, marginalize, multilinear_repr,
)
from symconj.errors import (
    ConjugacyError, NonMultiaffineError, UnknownFamilyError,
)
from symconj.expfam import SupportType
from symconj.graph import ConstNode, InputNode
from symconj.models import fixture

from oracles import central_diff, gauss_hermite_integral, log_quad

LOG2PI = np.log(2 * np.pi)


def bb_graph():
    return fixture("beta_bernoulli").graph()


BB_REST = dict(n_heads=60.0, n_draws=100.0, prior_a=0.5, prior_b=0.5)


def stat_inputs(stats):
    """Descriptor -> name of the energy input standing for the statistic."""
    return {d: f"_stat_{stats.var}_{d}" for d in stats.graphs}


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
        etas = extract_natural_parameters(energy, stat_inputs(stats), "t")
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
            etas = extract_natural_parameters(energy, stat_inputs(stats), var)
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
        assert ("one monomial, einsum(_stat_z_log, c, _stat_z_identity), "
                "holds identity and log" in str(exc.value))


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

    @pytest.mark.xfail(strict=True, reason=(
        "the graph-side MVN log-normalizer inverts the quadratic "
        "coefficient unsymmetrized (ROADMAP)"))
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
        from symconj.canonicalize import index_monomials
        monomials, _ = index_monomials(ne)
        for m in monomials:
            touched = set()
            for fid in m.factors:
                node = ne.nodes[fid]
                for var, names in by_var.items():
                    if isinstance(node, InputNode) and node.name in names:
                        touched.add(var)
            assert len(touched) <= 1

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
