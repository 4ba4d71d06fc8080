import zlib

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln

from symconj import expfam as E
from symconj import graph as G
from symconj.errors import NaturalDomainError, SupportError, UnknownFamilyError

REG = E.register_builtin_families()


def random_nat(name, rng):
    fam = REG.get(name)
    if name == "Beta":
        return fam.from_standard(a=rng.uniform(0.5, 5), b=rng.uniform(0.5, 5))
    if name == "Gamma":
        return fam.from_standard(shape=rng.uniform(0.5, 5),
                                 rate=rng.uniform(0.5, 3))
    if name == "Normal":
        return fam.from_standard(mean=rng.normal(), sd=rng.uniform(0.5, 2))
    if name == "Bernoulli":
        return {"identity": np.asarray(rng.normal())}
    if name == "Categorical":
        return {"one_hot": rng.standard_normal(4)}
    if name == "Dirichlet":
        return fam.from_standard(alpha=rng.uniform(0.5, 3, 3))
    if name == "MultivariateNormal":
        a = rng.standard_normal((3, 3))
        cov = a @ a.T + 3 * np.eye(3)
        return fam.from_standard(mean=rng.standard_normal(3), cov=cov)
    raise KeyError(name)


class TestRegistry:
    def test_log_on_simplex_is_dirichlet(self):
        assert REG.lookup(E.SupportType.SIMPLEX, {"log"}).name == "Dirichlet"

    def test_value_and_log_on_nonnegative_is_gamma(self):
        fam = REG.lookup(E.SupportType.NONNEGATIVE, {"identity", "log"})
        assert fam.name == "Gamma"

    def test_unknown_signature_errors(self):
        with pytest.raises(UnknownFamilyError):
            REG.lookup(E.SupportType.REAL, {"cube"})
        with pytest.raises(UnknownFamilyError):
            REG.lookup(E.SupportType.REAL, {"outer", "log"})

    def test_subset_matching(self):
        assert REG.lookup(E.SupportType.NONNEGATIVE, {"identity"}).name == "Gamma"
        assert REG.lookup(E.SupportType.UNIT_INTERVAL, {"log"}).name == "Beta"

    def test_outer_selects_mvn(self):
        fam = REG.lookup(E.SupportType.REAL, {"identity", "square", "outer"})
        assert fam.name == "MultivariateNormal"
        assert REG.lookup(E.SupportType.REAL, {"square", "outer"}).name == (
            "MultivariateNormal")
        assert REG.lookup(E.SupportType.REAL, {"identity", "square"}).name == "Normal"

    def test_all_seven_registered(self):
        assert {f.name for f in REG} == {
            "Bernoulli", "Categorical", "Beta", "Gamma", "Dirichlet",
            "Normal", "MultivariateNormal"}


class TestLogNormalizer:
    def test_uniform_categorical(self):
        d = E.Distribution(REG.get("Categorical"),
                           {"one_hot": np.zeros(3)})
        assert abs(d.log_normalizer() - np.log(3)) < 1e-12

    def test_exponential_unit(self):
        # eta = (-1, 0) in the (z, log z) convention is Exponential(1)
        d = E.Distribution(REG.get("Gamma"),
                           {"identity": np.asarray(-1.0),
                            "log": np.asarray(0.0)})
        assert abs(d.log_normalizer()) < 1e-12

    def test_beta_posterior_values(self):
        fam = REG.get("Beta")
        d = E.Distribution(fam, fam.from_standard(a=60.5, b=40.5))
        want = gammaln(60.5) + gammaln(40.5) - gammaln(101.0)
        assert abs(d.log_normalizer() - want) < 1e-12
        val, _ = integrate.quad(
            lambda z: np.exp(59.5 * np.log(z) + 39.5 * np.log1p(-z)), 0, 1)
        assert abs(d.log_normalizer() - np.log(val)) < 1e-8

    @pytest.mark.parametrize("name, nat, message", [
        pytest.param("Gamma", {"identity": 1.0, "log": 0.0},
                     "rate-side parameter", id="Gamma-rate"),
        pytest.param("Gamma", {"identity": -1.0, "log": -2.0},
                     "shape-side parameter", id="Gamma-shape"),
        pytest.param("Normal", {"identity": 0.0, "square": 0.5},
                     "square-statistic parameter", id="Normal-square"),
        pytest.param("Normal", {"identity": np.inf, "square": -0.5},
                     "location parameter", id="Normal-location"),
        pytest.param("Bernoulli", {"identity": np.nan}, "logit",
                     id="Bernoulli"),
        pytest.param("Categorical", {"one_hot": [0.0, np.inf, 1.0]},
                     "logits", id="Categorical"),
        pytest.param("Beta", {"log": 0.0, "log1p_neg": -2.0},
                     "pseudo-count", id="Beta"),
        pytest.param("Dirichlet", {"log": [0.0, -1.5, 2.0]},
                     "parameters must exceed", id="Dirichlet"),
        pytest.param("MultivariateNormal", {
            "identity": np.zeros(2),
            "outer": np.array([[-0.5, 0.0], [0.0, 0.5]])},
            "not positive definite", id="MultivariateNormal"),
    ])
    def test_domain_violation(self, name, nat, message):
        nat = {k: np.asarray(v, dtype=np.float64) for k, v in nat.items()}
        with pytest.raises(NaturalDomainError, match=f"^{name}: .*{message}"):
            E.Distribution(REG.get(name), nat)


def _mvn_partial(rng):
    a = rng.standard_normal((3, 3))
    return {"outer": -0.5 * (a @ a.T + np.eye(3)),
            "square": -rng.uniform(0.1, 1.0, 3)}


# family, natural parameters (a subset of the family's statistics)
LOGNORM_CASES = {
    **{name: (name, lambda rng, name=name: random_nat(name, rng))
       for name in sorted(f.name for f in REG)},
    "Beta_log_only": ("Beta", lambda rng: {
        "log": rng.uniform(-0.5, 3, 4)}),
    "Gamma_identity_only": ("Gamma", lambda rng: {
        "identity": -rng.uniform(0.5, 3, 4)}),
    "Normal_square_only": ("Normal", lambda rng: {
        "square": -rng.uniform(0.2, 2, 4)}),
    "MultivariateNormal_outer_square": ("MultivariateNormal", _mvn_partial),
}


class TestLogNormalizerGraph:
    """``lognorm_graph`` is the closed form on values, over handles."""

    @pytest.mark.parametrize("case", sorted(LOGNORM_CASES))
    def test_matches_closed_form_on_values(self, case):
        name, draw = LOGNORM_CASES[case]
        fam = REG.get(name)
        nat = {d: np.asarray(v, dtype=np.float64)
               for d, v in draw(np.random.default_rng(2)).items()}
        gb = G.GraphBuilder()
        etas = {d: gb.input(f"eta_{d}", v.shape) for d, v in nat.items()}
        g = gb.finish(fam.lognorm_graph(gb, etas))
        got = G.evaluate(g, {f"eta_{d}": v for d, v in nat.items()})
        want = np.sum(fam.log_normalizer(fam.pad_nat(nat)))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_mvn_keeps_common_scalar_outside_logdet(self):
        fam = REG.get("MultivariateNormal")
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3))
        r = -0.5 * (a @ a.T + np.eye(3))
        env = dict(s=2.5, r=r, e1=rng.standard_normal(3))
        gb = G.GraphBuilder()
        s, rh = gb.input("s", ()), gb.input("r", (3, 3))
        etas = {"outer": s * rh, "identity": gb.input("e1", (3,))}
        g = gb.finish(fam.lognorm_graph(gb, etas))
        want = fam.log_normalizer(fam.pad_nat(
            {"outer": env["s"] * r, "identity": env["e1"]}))
        assert abs(G.evaluate(g, env) - want) <= 1e-12 * max(1.0, abs(want))
        logdets = [i for i, n in enumerate(g.nodes)
                   if isinstance(n, G.PrimNode) and n.op == "logdet"]
        assert logdets and "log(s)" in G.render(g, g.output)
        assert not any("log(s)" in G.render(g, i) for i in logdets)


class TestMeanParams:
    def test_symmetric_categorical(self):
        d = E.Distribution(REG.get("Categorical"), {"one_hot": np.zeros(2)})
        assert np.abs(d.mean_params()["one_hot"] - 0.5).max() < 1e-12

    def test_standard_normal_moments(self):
        fam = REG.get("Normal")
        d = E.Distribution(fam, fam.from_standard(mean=0.0, sd=1.0))
        m = d.mean_params()
        assert abs(m["identity"]) < 1e-12
        assert abs(m["square"] - 1.0) < 1e-12

    def test_beta_mc(self):
        fam = REG.get("Beta")
        n = 10 ** 6
        nat = {k: np.full(n, v) for k, v in
               fam.from_standard(a=60.5, b=40.5).items()}
        draws = fam.sample(nat, np.random.default_rng(0))
        m = fam.mean_params(fam.from_standard(a=60.5, b=40.5))
        for k, stat in (("log", np.log(draws)),
                        ("log1p_neg", np.log1p(-draws))):
            se = stat.std() / np.sqrt(n)
            assert abs(stat.mean() - m[k]) < 3 * se

    @pytest.mark.parametrize("name", ["Beta", "Gamma", "Normal", "Bernoulli",
                                      "Categorical", "Dirichlet",
                                      "MultivariateNormal"])
    def test_mean_map_is_gradient_of_log_normalizer(self, name):
        rng = np.random.default_rng(zlib.crc32(name.encode()) % 2 ** 31)
        fam = REG.get(name)
        for _ in range(3):
            nat = random_nat(name, rng)
            means = fam.mean_params(nat)
            for k in nat:
                flat = np.asarray(nat[k], dtype=np.float64).ravel()
                for i in range(flat.size):
                    up = {kk: np.array(vv, dtype=np.float64, copy=True)
                          for kk, vv in nat.items()}
                    dn = {kk: np.array(vv, dtype=np.float64, copy=True)
                          for kk, vv in nat.items()}
                    up[k].ravel()[i] += 1e-6
                    dn[k].ravel()[i] -= 1e-6
                    fd = (np.sum(fam.log_normalizer(up))
                          - np.sum(fam.log_normalizer(dn))) / 2e-6
                    got = np.asarray(means[k]).ravel()[i]
                    if name == "MultivariateNormal" and k == "outer":
                        # A depends on the symmetrized matrix parameter:
                        # the finite difference sees both (i,j) and (j,i)
                        d = int(np.sqrt(flat.size))
                        r, c = divmod(i, d)
                        got = (np.asarray(means[k])[r, c]
                               + np.asarray(means[k])[c, r]) / 2
                    assert abs(got - fd) < 1e-5, (name, k, i)


class TestSamplers:
    @pytest.mark.parametrize("name", ["Beta", "Gamma", "Normal", "Bernoulli",
                                      "Categorical", "Dirichlet"])
    def test_moment_consistency(self, name):
        fam = REG.get(name)
        n = 10 ** 5
        offset = zlib.crc32(name.encode()) % 1000
        for trial in range(5):
            rng = np.random.default_rng(1000 * trial + offset)
            nat0 = random_nat(name, rng)
            nat = {k: np.broadcast_to(v, (n,) + np.shape(v)).copy()
                   for k, v in nat0.items()}
            draws = fam.sample(nat, rng)
            means = fam.mean_params(nat0)
            if name == "Categorical":
                stats = {"one_hot": np.eye(4)[draws.astype(int)]}
            else:
                stats = fam.statistic_values(draws)
            for k, target in means.items():
                sample_stats = stats[k].reshape(n, -1)
                mu = sample_stats.mean(axis=0)
                sd = sample_stats.std(axis=0)
                bound = 4 * sd / np.sqrt(n) + 1e-12
                assert np.all(np.abs(mu - np.ravel(target)) <= bound), (
                    name, k, trial)

    def test_mvn_moment_consistency(self):
        fam = REG.get("MultivariateNormal")
        n = 10 ** 5
        rng = np.random.default_rng(0)
        nat0 = fam.from_standard(mean=np.zeros(2), cov=np.eye(2))
        nat = {k: np.broadcast_to(v, (n,) + np.shape(v)).copy()
               for k, v in nat0.items()}
        draws = fam.sample(nat, rng)
        cov = np.cov(draws.T)
        se = 4.0 / np.sqrt(n)
        assert np.abs(cov - np.eye(2)).max() < 3 * se + 1e-3
        assert np.abs(draws.mean(axis=0)).max() < 3 / np.sqrt(n)

    def test_near_degenerate_categorical(self):
        fam = REG.get("Categorical")
        nat = {"one_hot": np.broadcast_to(
            np.array([100.0, 0.0, 0.0]), (10 ** 4, 3)).copy()}
        draws = fam.sample(nat, np.random.default_rng(0))
        assert (draws == 0).mean() > 0.999

    def test_beta_posterior_mean(self):
        fam = REG.get("Beta")
        n = 10 ** 5
        nat = {k: np.full(n, v) for k, v in
               fam.from_standard(a=60.5, b=40.5).items()}
        draws = fam.sample(nat, np.random.default_rng(1))
        se = draws.std() / np.sqrt(n)
        assert abs(draws.mean() - 60.5 / 101.0) < 3 * se

    def test_deterministic_given_seed(self):
        fam = REG.get("Gamma")
        nat = fam.from_standard(shape=2.0, rate=1.0)
        a = fam.sample(nat, np.random.default_rng(7))
        b = fam.sample(nat, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_samples_lie_in_support(self):
        rng = np.random.default_rng(3)
        for name in ("Beta", "Gamma", "Dirichlet", "Bernoulli", "Categorical"):
            fam = REG.get(name)
            nat = random_nat(name, rng)
            value = fam.sample(nat, rng)
            if name == "Categorical":
                fam.check_support(value, fam.num_classes(nat))
            else:
                fam.check_support(value)


class TestLogProb:
    def test_bernoulli_even_odds(self):
        d = E.Distribution(REG.get("Bernoulli"), {"identity": np.asarray(0.0)})
        assert abs(d.log_prob(1.0) - np.log(0.5)) < 1e-15

    def test_beta_matches_direct_formula(self):
        fam = REG.get("Beta")
        d = E.Distribution(fam, fam.from_standard(a=60.5, b=40.5))
        z = 0.6
        direct = (59.5 * np.log(z) + 39.5 * np.log1p(-z)
                  - (gammaln(60.5) + gammaln(40.5) - gammaln(101.0)))
        assert abs(d.log_prob(z) - direct) < 1e-10

    def test_categorical_grid_sum_is_one(self):
        rng = np.random.default_rng(4)
        d = E.Distribution(REG.get("Categorical"),
                           {"one_hot": rng.standard_normal(5)})
        total = sum(np.exp(d.log_prob(float(k))) for k in range(5))
        assert abs(total - 1.0) < 1e-12

    def test_support_violation(self):
        fam = REG.get("Beta")
        d = E.Distribution(fam, fam.from_standard(a=2.0, b=2.0))
        with pytest.raises(SupportError):
            d.log_prob(1.5)


class TestNormalization:
    @pytest.mark.parametrize("name,bounds", [
        ("Beta", (0.0, 1.0)),
        ("Gamma", (0.0, np.inf)),
        ("Normal", (-np.inf, np.inf)),
    ])
    def test_continuous_families_integrate_to_one(self, name, bounds):
        fam = REG.get(name)
        rng = np.random.default_rng(11)
        for _ in range(20):
            nat = random_nat(name, rng)
            total, _err = integrate.quad(
                lambda z: float(np.exp(fam.log_prob(nat, np.asarray(z)))),
                *bounds)
            assert 1 - 1e-4 <= total <= 1 + 1e-4

    def test_mvn_1d_member_integrates_to_one(self):
        fam = REG.get("MultivariateNormal")
        nat = fam.from_standard(mean=np.array([0.3]), cov=np.array([[2.0]]))
        total, _err = integrate.quad(
            lambda z: float(np.exp(fam.log_prob(nat, np.array([z])))),
            -np.inf, np.inf)
        assert abs(total - 1.0) < 1e-6

    def test_discrete_families_sum_to_one(self):
        rng = np.random.default_rng(12)
        bern = REG.get("Bernoulli")
        nat = {"identity": np.asarray(rng.normal())}
        assert abs(sum(np.exp(bern.log_prob(nat, v)) for v in (0.0, 1.0))
                   - 1.0) < 1e-12
        cat = REG.get("Categorical")
        natc = {"one_hot": rng.standard_normal(6)}
        assert abs(sum(np.exp(cat.log_prob(natc, float(k))) for k in range(6))
                   - 1.0) < 1e-12

    def test_dirichlet_integrates_to_one(self):
        fam = REG.get("Dirichlet")
        nat = fam.from_standard(alpha=np.array([2.0, 3.0, 1.5]))

        def dens(a, b):
            z = np.array([a, b, 1 - a - b])
            return float(np.exp(fam.log_prob(nat, z)))

        total, _err = integrate.dblquad(dens, 0, 1, 0, lambda a: 1 - a,
                                        epsabs=1e-10)
        assert abs(total - 1.0) < 1e-4


class TestConverters:
    @pytest.mark.parametrize("name", ["Beta", "Gamma", "Normal", "Bernoulli",
                                      "Categorical", "Dirichlet",
                                      "MultivariateNormal"])
    def test_standard_natural_standard_roundtrip(self, name):
        rng = np.random.default_rng(21)
        fam = REG.get(name)
        std = fam.to_standard(random_nat(name, rng))
        back = fam.to_standard(fam.from_standard(**std))
        for k in std:
            assert np.abs(np.asarray(back[k])
                          - np.asarray(std[k])).max() < 1e-12, (name, k)
