"""Acceptance suite: one test per criterion, each printing a PASS line
(run with ``pytest tests/test_acceptance.py -s`` to see them live)."""

import time

import numpy as np
import pytest

from symconj import graph as G
from symconj.canonicalize import canonicalize, is_canonical
from symconj.conjugacy import (
    complete_conditional, marginalize, multilinear_repr,
)
from symconj.expfam import SupportType, register_builtin_families
from symconj.inference import (
    cavi_update, elbo, gibbs_sweep, init_meanfield, make_gibbs,
)
from symconj.models import (
    LOGIT_N, fixture, jj_xi_update, make_kalman_marginal,
)

from oracles import batch_means_se, log_quad
from test_expfam import random_nat

LOG2PI = np.log(2 * np.pi)


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS - {text}")


def test_c01_beta_bernoulli_exactness():
    t0 = time.perf_counter()
    g = fixture("beta_bernoulli").graph()
    fac = complete_conditional(g, 0, SupportType.UNIT_INTERVAL)
    d = fac(60.0, 100.0, 0.5, 0.5)
    std = d.standard()
    elapsed = time.perf_counter() - t0
    assert d.family.name == "Beta"
    assert float(std["a"]) == 60.5
    assert float(std["b"]) == 40.5
    assert elapsed < 1.0, f"took {elapsed:.2f}s, bound 1.0s"
    report(1, f"Beta(60.5, 40.5) exactly, in {elapsed:.2f}s")


def test_c02_marginal_matches_quadrature():
    t0 = time.perf_counter()
    g = fixture("beta_bernoulli").graph()
    marg = marginalize(g, 0, SupportType.UNIT_INTERVAL)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        heads = float(rng.integers(1, 40))
        rest = dict(n_heads=heads, n_draws=heads + float(rng.integers(1, 40)),
                    prior_a=rng.uniform(0.4, 4.0),
                    prior_b=rng.uniform(0.4, 4.0))
        got = float(G.evaluate(marg, rest))
        want = log_quad(lambda z: G.evaluate(g, dict(rest, prob=z)), 0.0, 1.0)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 5.0, f"took {elapsed:.2f}s, bound 5.0s"
    report(2, f"marginal vs quadrature, max err {worst:.2e}, {elapsed:.2f}s")


def test_c03_normal_gamma_pipeline():
    fx = fixture("normal_gamma")
    g = fx.graph()
    v = fx.example_args(11)
    n, d = v["x"].shape
    # beta | tau conditional against the textbook posterior
    fac_b = complete_conditional(g, 1, SupportType.REAL)
    db = fac_b(v["tau"], v["x"], v["y"], v["a"], v["b"], v["kappa"], v["mu0"])
    Sigma = np.linalg.inv(v["tau"] * v["x"].T @ v["x"]
                          + v["kappa"] * v["tau"] * np.eye(d))
    mean = Sigma @ (v["tau"] * v["x"].T @ v["y"]
                    + v["kappa"] * v["tau"] * v["mu0"])
    stdb = db.standard()
    err_b = max(np.abs(stdb["mean"] - mean).max(),
                np.abs(stdb["cov"] - Sigma).max())
    assert err_b < 1e-8
    # tau posterior after marginalizing beta
    marg = marginalize(g, 1, SupportType.REAL)
    fac_t = complete_conditional(marg, 0, SupportType.NONNEGATIVE)
    dt = fac_t(v["x"], v["y"], v["a"], v["b"], v["kappa"], v["mu0"])
    stdt = dt.standard()
    w = v["x"].T @ v["y"] + v["kappa"] * v["mu0"]
    K = v["x"].T @ v["x"] + v["kappa"] * np.eye(d)
    shape_want = v["a"] + n / 2
    rate_want = v["b"] + 0.5 * (v["y"] @ v["y"] + v["kappa"] * v["mu0"] @ v["mu0"]
                                - w @ np.linalg.solve(K, w))
    err_t = max(abs(float(stdt["shape"]) - shape_want),
                abs(float(stdt["rate"]) - rate_want))
    assert dt.family.name == "Gamma"
    assert err_t < 1e-8
    report(3, f"normal-gamma pipeline, beta err {err_b:.2e}, tau err {err_t:.2e}")


def test_c04_kalman_recursion():
    t0 = time.perf_counter()
    marginal = make_kalman_marginal()
    rng = np.random.default_rng(1)
    T = 10
    P = np.fromfunction(lambda t, u: 1.0 + np.minimum(t, u), (T, T))
    C = P + np.eye(T)
    Cinv = np.linalg.inv(C)
    _, ld = np.linalg.slogdet(C)
    worst = 0.0
    for _ in range(10):
        ys = rng.standard_normal(T)
        got = marginal(ys, 1.0, 1.0)
        want = -0.5 * ys @ Cinv @ ys - 0.5 * ld - T / 2 * LOG2PI
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 10.0, f"took {elapsed:.2f}s, bound 10.0s"
    report(4, f"Kalman evidence, max err {worst:.2e}, {elapsed:.2f}s")


def test_c05_rewrite_soundness_fuzz():
    from test_canonicalize import TestSoundnessFuzz

    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    attempts = 0
    while checked < 500:
        attempts += 1
        g, specs = TestSoundnessFuzz.random_graph(rng)
        env = {nm: np.abs(rng.standard_normal(sh)) + 0.2 for nm, sh in specs}
        try:
            v0 = float(G.evaluate(g, env))
        except Exception:
            continue
        if not np.isfinite(v0):
            continue
        cf = canonicalize(g)  # any NonTerminationError fails the test
        assert is_canonical(cf.graph)
        v1 = float(G.evaluate(cf.graph, env))
        assert abs(v0 - v1) <= 1e-10 * max(1.0, abs(v0))
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s, bound 60.0s"
    report(5, f"{checked} random graphs sound ({attempts} drawn), {elapsed:.1f}s")


@pytest.mark.parametrize("name", ["beta_bernoulli", "normal_gamma",
                                  "logistic_jj", "kalman", "factor_analysis",
                                  "gmm"])
def test_c06_natural_parameter_gradient_check(name):
    fx = fixture(name)
    g = fx.graph()
    mrepr = multilinear_repr(g, argnums=[a for a, _ in fx.latents],
                             supports=[s for _, s in fx.latents])
    args = fx.example_args(7)
    latents = {blk.name for blk in mrepr.blocks}
    data = {k: v for k, v in args.items() if k not in latents}
    stat_values = {blk.name: blk.statistic_values(args[blk.name])
                   for blk in mrepr.blocks}
    env = mrepr.energy_env(stat_values, data)
    rng = np.random.default_rng(0)
    worst = 0.0
    for blk in mrepr.blocks:
        for s in blk.stats:
            eta = np.asarray(G.evaluate(s.eta_graph, env), dtype=np.float64)
            base = np.array(env[s.input_name], dtype=np.float64)
            flat = base.ravel()
            idx = np.arange(flat.size)
            if flat.size > 64:
                idx = rng.choice(flat.size, size=64, replace=False)
            for i in idx:
                for sign in (+1.0, -1.0):
                    pert = flat.copy()
                    pert[i] += sign * 1e-6
                    env2 = dict(env)
                    env2[s.input_name] = pert.reshape(base.shape)
                    if sign > 0:
                        up = float(G.evaluate(mrepr.neg_energy, env2))
                    else:
                        dn = float(G.evaluate(mrepr.neg_energy, env2))
                fd = (up - dn) / 2e-6
                worst = max(worst, abs(eta.ravel()[i] - fd))
    assert worst < 1e-5
    report(6, f"{name}: eta vs finite differences, max err {worst:.2e}")


def test_c07_gmm_family_recognition():
    fx = fixture("gmm")
    g = fx.graph()
    got = {}
    for argnum, support in fx.latents:
        var = g.input_names[argnum]
        got[var] = complete_conditional(g, argnum, support).family.name
    assert got == {"z": "Categorical", "pi": "Dirichlet",
                   "tau": "Gamma", "mu": "Normal"}
    report(7, f"GMM families {got}")


@pytest.mark.parametrize("name", ["gmm", "factor_analysis"])
def test_c08_cavi_monotonicity(name):
    fx = fixture(name)
    g = fx.graph()
    values = fx.example_args(0)
    latents = [g.input_names[a] for a, _ in fx.latents]
    data = {k: v for k, v in values.items() if k not in latents}
    mrepr = multilinear_repr(g, argnums=[a for a, _ in fx.latents],
                             supports=[s for _, s in fx.latents])
    state = init_meanfield(mrepr, data,
                           init_values={k: values[k] for k in latents})
    prev = elbo(state)
    worst = 0.0
    for _ in range(100):
        for blk in mrepr.blocks:
            state = cavi_update(state, blk.name)
            cur = elbo(state)
            worst = min(worst, cur - prev)
            assert cur - prev >= -1e-9 * max(1.0, abs(prev))
            prev = cur
    report(8, f"{name}: 100 sweeps, worst update delta {worst:.2e}, "
              f"final elbo {prev:.3f}")


def test_c09_gibbs_correctness():
    # exact single-latent chain
    fx = fixture("beta_bernoulli")
    g = fx.graph()
    data = dict(n_heads=60.0, n_draws=100.0, prior_a=0.5, prior_b=0.5)
    state = make_gibbs(g, fx.latents, {"prob": 0.5}, data, seed=0)
    draws = np.empty(10 ** 4)
    for i in range(draws.size):
        state = gibbs_sweep(state)
        draws[i] = float(state.values["prob"])
    se = draws.std() / np.sqrt(draws.size)
    err1 = abs(draws.mean() - 60.5 / 101.0)
    assert err1 < 3 * se

    # bivariate Gaussian chain: lag-1 autocovariance of z1 equals rho^2
    rho = 0.5

    def model(z1, z2, r):
        c = 1.0 / (1.0 - rho ** 2)
        return -0.5 * c * (G.square(z1) - 2.0 * r * z1 * z2 + G.square(z2))

    g2 = G.build(model, [("z1", (), "REAL"), ("z2", (), "REAL"), ("r", ())])
    state = make_gibbs(g2, ((0, SupportType.REAL), (1, SupportType.REAL)),
                       {"z1": 0.0, "z2": 0.0}, {"r": rho}, seed=1)
    chain = np.empty(10 ** 4)
    for i in range(chain.size):
        state = gibbs_sweep(state)
        chain[i] = float(state.values["z1"])
    prods = chain[:-1] * chain[1:]
    se2 = batch_means_se(prods)
    err2 = abs(prods.mean() - rho ** 2)
    assert err2 < 3 * se2
    report(9, f"Gibbs: posterior mean err {err1:.2e} (3se={3*se:.2e}), "
              f"lag-1 autocov err {err2:.2e} (3se={3*se2:.2e})")


def test_c10_exponential_family_table():
    from scipy import integrate

    reg = register_builtin_families()
    rng = np.random.default_rng(5)
    # normalization
    for name, bounds in (("Beta", (0.0, 1.0)), ("Gamma", (0.0, np.inf)),
                         ("Normal", (-np.inf, np.inf))):
        fam = reg.get(name)
        for _ in range(20):
            nat = random_nat(name, rng)
            total, _err = integrate.quad(
                lambda z: float(np.exp(fam.log_prob(nat, np.asarray(z)))),
                *bounds)
            assert 1 - 1e-4 <= total <= 1 + 1e-4, name
    bern = reg.get("Bernoulli")
    cat = reg.get("Categorical")
    for _ in range(20):
        nb = {"identity": np.asarray(rng.normal())}
        assert abs(sum(np.exp(bern.log_prob(nb, v)) for v in (0.0, 1.0))
                   - 1.0) < 1e-12
        nc = {"one_hot": rng.standard_normal(4)}
        assert abs(sum(np.exp(cat.log_prob(nc, float(k))) for k in range(4))
                   - 1.0) < 1e-12
    # mean map = finite differences of A
    for name in ("Beta", "Gamma", "Normal", "Bernoulli", "Categorical",
                 "Dirichlet", "MultivariateNormal"):
        fam = reg.get(name)
        nat = random_nat(name, rng)
        means = fam.mean_params(nat)
        for k in nat:
            flat = np.asarray(nat[k], dtype=np.float64)
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
                    d = int(np.sqrt(flat.size))
                    r, c = divmod(int(i), d)
                    got = (np.asarray(means[k])[r, c]
                           + np.asarray(means[k])[c, r]) / 2
                assert abs(got - fd) < 1e-5, (name, k)
    # sampler moments at 1e5 draws, 4 standard errors
    n = 10 ** 5
    for name in ("Beta", "Gamma", "Normal", "Bernoulli", "Categorical",
                 "Dirichlet"):
        fam = reg.get(name)
        for trial in range(5):
            r2 = np.random.default_rng(100 * trial + 7)
            nat0 = random_nat(name, r2)
            nat = {k: np.broadcast_to(v, (n,) + np.shape(v)).copy()
                   for k, v in nat0.items()}
            draws = fam.sample(nat, r2)
            means = fam.mean_params(nat0)
            if name == "Categorical":
                stats = {"one_hot": np.eye(4)[draws.astype(int)]}
            else:
                stats = fam.statistic_values(draws)
            for k, target in means.items():
                ss = stats[k].reshape(n, -1)
                bound = 4 * ss.std(axis=0) / np.sqrt(n) + 1e-12
                assert np.all(np.abs(ss.mean(axis=0) - np.ravel(target))
                              <= bound), (name, k)
    report(10, "family table: normalization, mean map, sampler moments")


def test_c11_jaakkola_jordan_loop():
    fx = fixture("logistic_jj")
    g = fx.graph()
    v = fx.example_args(0)
    assert v["x"].shape[0] == LOGIT_N
    mrepr = multilinear_repr(g, argnums=(0,), supports=(SupportType.REAL,))
    # reconstruction invariant
    data = {k: v[k] for k in ("xi", "x", "y")}
    rec_err = abs(float(mrepr.reconstruct({"beta": v["beta"]}, data))
                  - float(G.evaluate(g, v)))
    assert rec_err < 1e-10
    # alternating bound-parameter / variational updates are monotone
    state = init_meanfield(mrepr, data, init_values={"beta": v["beta"]})
    import dataclasses
    vals = []
    for _ in range(100):
        m = state.means["beta"]
        xi = jj_xi_update(m["identity"], m["outer"], v["x"])
        state = dataclasses.replace(state, data=dict(state.data, xi=xi))
        state = cavi_update(state, "beta")
        vals.append(elbo(state))
    vals = np.array(vals)
    deltas = np.diff(vals)
    assert np.all(deltas >= -1e-9 * np.maximum(1.0, np.abs(vals[:-1])))
    report(11, f"JJ loop monotone over 100 iterations, reconstruction err "
               f"{rec_err:.2e}, final bound {vals[-1]:.4f}")
