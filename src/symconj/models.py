"""Bundled model fixtures: the canonicalization corpus and the reference
models exercised by the acceptance suite.

Six fixtures transcribe the reference models (a Beta-Bernoulli coin, a
Bayesian linear regression with a normal-gamma compound prior, variational
logistic regression through the quadratic lower bound on the logistic
log-likelihood, a one-dimensional Kalman chain step, a linear factor
model, and a mixture of diagonal Gaussians); four more are synthetic
stress graphs for the rewriter. Every fixture carries an independent
numpy mirror of its log density (``direct_log_joint``) and a
support-respecting argument generator, so tests can cross-check the graph
path against plain array code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special as sp

from . import graph as G
from .expfam import SupportType

__all__ = ["ModelFixture", "fixtures", "fixture", "kalman_initial_graph",
           "make_kalman_marginal"]

LOG2PI = float(np.log(2.0 * np.pi))

# desk scales
GMM_N, GMM_K, GMM_D = 100, 3, 2
FA_N, FA_D, FA_K = 50, 10, 5
NG_N, NG_D = 20, 3
LOGIT_N, LOGIT_D = 100, 5
KALMAN_T = 10


@dataclass(frozen=True)
class ModelFixture:
    name: str
    build: object                      # () -> TermGraph
    latents: tuple = ()                # ((argnum, SupportType), ...)
    expected_families: dict = field(default_factory=dict)
    example_args: object = None        # (seed) -> dict name -> ndarray
    direct_log_joint: object = None    # (args) -> float, numpy mirror

    def graph(self):
        return self.build()


# ---------------------------------------------------------------------------
# Beta-Bernoulli coin


def _beta_bernoulli_graph():
    def model(prob, n_heads, n_draws, prior_a, prior_b):
        lp = (prior_a - 1.0) * G.log(prob) + (prior_b - 1.0) * G.log1p(-prob)
        lp = lp + n_heads * G.log(prob) + (n_draws - n_heads) * G.log1p(-prob)
        lp = lp - G.log_gamma(prior_a) - G.log_gamma(prior_b) \
            + G.log_gamma(prior_a + prior_b)
        return lp
    return G.build(model, [
        ("prob", (), "UNIT_INTERVAL"), ("n_heads", ()), ("n_draws", ()),
        ("prior_a", ()), ("prior_b", ())])


def _beta_bernoulli_args(seed=0):
    rng = np.random.default_rng(seed)
    if seed == 0:
        return dict(prob=0.5, n_heads=60.0, n_draws=100.0,
                    prior_a=0.5, prior_b=0.5)
    heads = float(rng.integers(1, 50))
    return dict(prob=rng.uniform(0.1, 0.9), n_heads=heads,
                n_draws=heads + float(rng.integers(1, 50)),
                prior_a=rng.uniform(0.3, 4.0), prior_b=rng.uniform(0.3, 4.0))


def _beta_bernoulli_direct(a):
    return float(
        (a["prior_a"] - 1) * np.log(a["prob"])
        + (a["prior_b"] - 1) * np.log1p(-a["prob"])
        + a["n_heads"] * np.log(a["prob"])
        + (a["n_draws"] - a["n_heads"]) * np.log1p(-a["prob"])
        - sp.gammaln(a["prior_a"]) - sp.gammaln(a["prior_b"])
        + sp.gammaln(a["prior_a"] + a["prior_b"]))


# ---------------------------------------------------------------------------
# Bayesian linear regression, normal-gamma compound prior


def _normal_gamma_graph():
    n, d = NG_N, NG_D

    def model(tau, beta, x, y, a, b, kappa, mu0):
        lp = a * G.log(b) - G.log_gamma(a) + (a - 1.0) * G.log(tau) - b * tau
        scale_b = 1.0 / G.sqrt(kappa * tau)
        lp = lp - 0.5 * G.sum_all(G.square((beta - mu0) * G.reciprocal(scale_b))) \
            - d * 0.5 * LOG2PI - float(d) * G.log(scale_b)
        scale_y = 1.0 / G.sqrt(tau)
        yhat = G.einsum("nd,d->n", x, beta)
        lp = lp - 0.5 * G.sum_all(G.square((y - yhat) * G.reciprocal(scale_y))) \
            - n * 0.5 * LOG2PI - float(n) * G.log(scale_y)
        return lp

    return G.build(model, [
        ("tau", (), "NONNEGATIVE"), ("beta", (NG_D,), "REAL"),
        ("x", (NG_N, NG_D)), ("y", (NG_N,)), ("a", ()), ("b", ()),
        ("kappa", ()), ("mu0", (NG_D,))])


def _normal_gamma_args(seed=0):
    rng = np.random.default_rng(seed)
    return dict(
        tau=rng.uniform(0.5, 2.0),
        beta=rng.standard_normal(NG_D),
        x=rng.standard_normal((NG_N, NG_D)),
        y=rng.standard_normal(NG_N),
        a=rng.uniform(1.5, 3.0), b=rng.uniform(1.0, 3.0),
        kappa=rng.uniform(0.5, 2.0), mu0=rng.standard_normal(NG_D))


def _normal_gamma_direct(v):
    tau, beta = v["tau"], v["beta"]
    lp = (v["a"] * np.log(v["b"]) - sp.gammaln(v["a"])
          + (v["a"] - 1) * np.log(tau) - v["b"] * tau)
    sd_b = 1.0 / np.sqrt(v["kappa"] * tau)
    lp += np.sum(-0.5 * ((beta - v["mu0"]) / sd_b) ** 2
                 - 0.5 * LOG2PI - np.log(sd_b))
    sd_y = 1.0 / np.sqrt(tau)
    lp += np.sum(-0.5 * ((v["y"] - v["x"] @ beta) / sd_y) ** 2
                 - 0.5 * LOG2PI - np.log(sd_y))
    return float(lp)


# ---------------------------------------------------------------------------
# variational logistic regression (quadratic bound on the likelihood)


def _logistic_graph():
    n, d = LOGIT_N, LOGIT_D

    def model(beta, xi, x, y):
        log_prior = -0.5 * G.sum_all(G.square(beta)) - d * 0.5 * LOG2PI
        y_logits = G.einsum("n,nd,d->n", 2.0 * y - 1.0, x, beta)
        lam = (0.5 - G.logistic(xi)) * G.reciprocal(2.0 * xi)
        bound = -G.log1p(G.exp(-xi)) + 0.5 * (y_logits - xi) \
            + lam * (G.square(y_logits) - G.square(xi))
        return log_prior + G.sum_all(bound)

    return G.build(model, [
        ("beta", (LOGIT_D,), "REAL"), ("xi", (LOGIT_N,), "NONNEGATIVE"),
        ("x", (LOGIT_N, LOGIT_D)), ("y", (LOGIT_N,))])


def _logistic_args(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((LOGIT_N, LOGIT_D))
    beta_true = rng.standard_normal(LOGIT_D)
    y = (rng.random(LOGIT_N) < sp.expit(x @ beta_true)).astype(np.float64)
    return dict(beta=rng.standard_normal(LOGIT_D),
                xi=rng.uniform(0.5, 2.0, LOGIT_N), x=x, y=y)


def _logistic_direct(v):
    beta, xi, x, y = v["beta"], v["xi"], v["x"], v["y"]
    lp = -0.5 * np.sum(beta ** 2) - LOGIT_D * 0.5 * LOG2PI
    yl = (2 * y - 1) * (x @ beta)
    lam = (0.5 - sp.expit(xi)) / (2 * xi)
    return float(lp + np.sum(-np.log1p(np.exp(-xi)) + 0.5 * (yl - xi)
                             + lam * (yl ** 2 - xi ** 2)))


def jj_xi_update(beta_mean, beta_outer, x):
    """Closed-form optimum of the bound parameters given the current
    posterior moments of the weights."""
    cov = beta_outer - np.outer(beta_mean, beta_mean)
    return np.sqrt(np.einsum("ij,ni,nj->n", cov, x, x) + (x @ beta_mean) ** 2)


# ---------------------------------------------------------------------------
# Kalman chain step


def _kalman_step_graph():
    def model(xt, xtt, ytt, xt_prior_mean, xt_prior_scale, x_scale, y_scale):
        def norm_lp(v, loc, scale):
            zz = (v - loc) * G.reciprocal(scale)
            return -0.5 * G.square(zz) - 0.5 * LOG2PI - G.log(scale)
        return (norm_lp(xt, xt_prior_mean, xt_prior_scale)
                + norm_lp(xtt, xt, x_scale)
                + norm_lp(ytt, xtt, y_scale))

    return G.build(model, [
        ("xt", (), "REAL"), ("xtt", (), "REAL"), ("ytt", ()),
        ("xt_prior_mean", ()), ("xt_prior_scale", ()),
        ("x_scale", ()), ("y_scale", ())])


def kalman_initial_graph():
    """log p(x1, y1) for the chain's initialization step."""
    def model(x1, y1, x1_scale, y1_scale):
        def norm_lp(v, loc, scale):
            zz = (v - loc) * G.reciprocal(scale)
            return -0.5 * G.square(zz) - 0.5 * LOG2PI - G.log(scale)
        return norm_lp(x1, 0.0, x1_scale) + norm_lp(y1, x1, y1_scale)
    return G.build(model, [
        ("x1", (), "REAL"), ("y1", ()), ("x1_scale", ()), ("y1_scale", ())])


def _kalman_args(seed=0):
    rng = np.random.default_rng(seed)
    return dict(xt=rng.standard_normal(), xtt=rng.standard_normal(),
                ytt=rng.standard_normal(), xt_prior_mean=rng.standard_normal(),
                xt_prior_scale=rng.uniform(0.5, 2.0),
                x_scale=rng.uniform(0.5, 2.0), y_scale=rng.uniform(0.5, 2.0))


def _kalman_direct(v):
    def nlp(x, loc, sd):
        return -0.5 * ((x - loc) / sd) ** 2 - 0.5 * LOG2PI - np.log(sd)
    return float(nlp(v["xt"], v["xt_prior_mean"], v["xt_prior_scale"])
                 + nlp(v["xtt"], v["xt"], v["x_scale"])
                 + nlp(v["ytt"], v["xtt"], v["y_scale"]))


def make_kalman_marginal():
    """Build the four transform artifacts once, then fold them over a
    series: returns marginal(y_list, x_scale, y_scale) -> log p(y_1:T).
    The per-step conditional is carried as (mean, standard deviation)."""
    from .conjugacy import complete_conditional, marginalize

    g1 = kalman_initial_graph()
    g2 = _kalman_step_graph()
    x1_given_y1 = complete_conditional(g1, 0, SupportType.REAL)
    log_p_y1 = marginalize(g1, 0, SupportType.REAL)
    log_p_xtt_ytt = marginalize(g2, 0, SupportType.REAL)
    log_p_ytt = marginalize(log_p_xtt_ytt, 0, SupportType.REAL)
    xt_conditional = complete_conditional(log_p_xtt_ytt, 0, SupportType.REAL)

    def marginal(y_list, x_scale, y_scale):
        lp = float(G.evaluate(log_p_y1, dict(
            y1=y_list[0], x1_scale=1.0, y1_scale=y_scale)))
        cond = x1_given_y1(y_list[0], 1.0, y_scale).standard()
        mean, sd = float(cond["mean"]), float(cond["sd"])
        for t in range(1, len(y_list)):
            lp += float(G.evaluate(log_p_ytt, dict(
                ytt=y_list[t], xt_prior_mean=mean, xt_prior_scale=sd,
                x_scale=x_scale, y_scale=y_scale)))
            c = xt_conditional(y_list[t], mean, sd, x_scale, y_scale).standard()
            mean, sd = float(c["mean"]), float(c["sd"])
        return lp

    return marginal


# ---------------------------------------------------------------------------
# linear factor model


def _factor_analysis_graph():
    n, d, k = FA_N, FA_D, FA_K

    def model(w, z, tau, x, a0, b0):
        lp = -0.5 * G.sum_all(G.square(w)) - d * k * 0.5 * LOG2PI
        lp = lp - 0.5 * G.sum_all(G.square(z)) - n * k * 0.5 * LOG2PI
        lp = lp + a0 * G.log(b0) - G.log_gamma(a0) \
            + (a0 - 1.0) * G.log(tau) - b0 * tau
        resid = x - G.einsum("nk,dk->nd", z, w)
        lp = lp - 0.5 * G.sum_all(G.square(resid)) * tau \
            + n * d * 0.5 * G.log(tau) - n * d * 0.5 * LOG2PI
        return lp

    return G.build(model, [
        ("w", (FA_D, FA_K), "REAL"), ("z", (FA_N, FA_K), "REAL"),
        ("tau", (), "NONNEGATIVE"), ("x", (FA_N, FA_D)),
        ("a0", ()), ("b0", ())])


def _factor_analysis_args(seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((FA_D, FA_K))
    z = rng.standard_normal((FA_N, FA_K))
    tau = rng.uniform(0.5, 2.0)
    x = z @ w.T + rng.standard_normal((FA_N, FA_D)) / np.sqrt(tau)
    return dict(w=w, z=z, tau=tau, x=x, a0=2.0, b0=8.0)


def _factor_analysis_direct(v):
    w, z, tau, x = v["w"], v["z"], v["tau"], v["x"]
    lp = -0.5 * np.sum(w ** 2) - w.size * 0.5 * LOG2PI
    lp += -0.5 * np.sum(z ** 2) - z.size * 0.5 * LOG2PI
    lp += (v["a0"] * np.log(v["b0"]) - sp.gammaln(v["a0"])
           + (v["a0"] - 1) * np.log(tau) - v["b0"] * tau)
    resid = x - z @ w.T
    lp += -0.5 * tau * np.sum(resid ** 2) + x.size * 0.5 * np.log(tau) \
        - x.size * 0.5 * LOG2PI
    return float(lp)


# ---------------------------------------------------------------------------
# mixture of diagonal Gaussians


def _gmm_graph():
    n, k, d = GMM_N, GMM_K, GMM_D

    def model(pi, z, mu, tau, x, alpha, sigma0, a0, b0):
        ones_k = pi.builder.constant(np.ones(k))
        ones_n = pi.builder.constant(np.ones(n))
        oh = G.one_hot(z, k)
        logpi = G.log(pi)
        lp = G.einsum("k,k->", alpha - 1.0, logpi)
        lp = lp + G.log_gamma(G.sum_axis(alpha, 0)) \
            - G.sum_all(G.log_gamma(alpha))
        lp = lp + G.einsum("nk,k->", oh, logpi)
        lp = lp - 0.5 * G.sum_all(G.square(mu * G.reciprocal(sigma0))) \
            - k * d * 0.5 * LOG2PI - float(k * d) * G.log(sigma0)
        lp = lp + float(k * d) * (a0 * G.log(b0) - G.log_gamma(a0)) \
            + (a0 - 1.0) * G.sum_all(G.log(tau)) - b0 * G.sum_all(tau)
        xb = G.einsum("nd,k->nkd", x, ones_k)
        mub = G.einsum("kd,n->nkd", mu, ones_n)
        lp = lp - 0.5 * G.einsum("nk,kd,nkd->", oh, tau, G.square(xb - mub))
        lp = lp + 0.5 * G.einsum("nk,kd->", oh, G.log(tau))
        lp = lp - n * d * 0.5 * LOG2PI
        return lp

    return G.build(model, [
        ("pi", (GMM_K,), "SIMPLEX"), ("z", (GMM_N,), "INTEGER"),
        ("mu", (GMM_K, GMM_D), "REAL"), ("tau", (GMM_K, GMM_D), "NONNEGATIVE"),
        ("x", (GMM_N, GMM_D)), ("alpha", (GMM_K,)), ("sigma0", ()),
        ("a0", ()), ("b0", ())])


def _gmm_args(seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 3.0, (GMM_K, GMM_D))
    z = rng.integers(0, GMM_K, GMM_N)
    x = centers[z] + 0.5 * rng.standard_normal((GMM_N, GMM_D))
    return dict(
        pi=np.full(GMM_K, 1.0 / GMM_K),
        z=z.astype(np.float64),
        mu=rng.standard_normal((GMM_K, GMM_D)),
        tau=rng.uniform(0.5, 2.0, (GMM_K, GMM_D)),
        x=x, alpha=np.full(GMM_K, 2.0), sigma0=3.0, a0=2.0, b0=2.0)


def _gmm_direct(v):
    pi, z, mu, tau, x = v["pi"], v["z"], v["mu"], v["tau"], v["x"]
    alpha = v["alpha"]
    zi = z.astype(int)
    lp = (np.sum((alpha - 1) * np.log(pi))
          + sp.gammaln(alpha.sum()) - sp.gammaln(alpha).sum())
    lp += np.sum(np.log(pi)[zi])
    lp += np.sum(-0.5 * (mu / v["sigma0"]) ** 2
                 - 0.5 * LOG2PI - np.log(v["sigma0"]))
    lp += np.sum(v["a0"] * np.log(v["b0"]) - sp.gammaln(v["a0"])
                 + (v["a0"] - 1) * np.log(tau) - v["b0"] * tau)
    lp += np.sum(-0.5 * tau[zi] * (x - mu[zi]) ** 2
                 + 0.5 * np.log(tau[zi]) - 0.5 * LOG2PI)
    return float(lp)


# ---------------------------------------------------------------------------
# synthetic rewriter stress graphs


def _poly_stress_graph():
    def model(u, v, c):
        t1 = G.sum_all(G.square(u * v + c))
        t2 = (c * c) * G.einsum("i,i->", u, u)
        t3 = G.sum_axis(u + v, 0) * c
        t4 = G.sum_all((u - v) ** 3.0)
        return t1 + t2 - t3 + t4
    return G.build(model, [("u", (3,), "REAL"), ("v", (3,), "REAL"),
                           ("c", (), "REAL")])


def _poly_stress_args(seed=0):
    rng = np.random.default_rng(seed)
    return dict(u=rng.standard_normal(3), v=rng.standard_normal(3),
                c=rng.standard_normal())


def _poly_stress_direct(a):
    u, v, c = a["u"], a["v"], a["c"]
    return float(np.sum((u * v + c) ** 2) + c * c * (u @ u)
                 - np.sum(u + v) * c + np.sum((u - v) ** 3))


def _log_stress_graph():
    def model(p, q):
        t1 = G.sum_all(G.log(p * q))
        t2 = G.log(G.sqrt(q))
        t3 = G.log(G.reciprocal(q))
        t4 = G.log(q ** 2.5)
        t5 = G.log(G.exp(q))
        return t1 + t2 - t3 + t4 + t5
    return G.build(model, [("p", (4,), "NONNEGATIVE"),
                           ("q", (), "NONNEGATIVE")])


def _log_stress_args(seed=0):
    rng = np.random.default_rng(seed)
    return dict(p=rng.uniform(0.2, 3.0, 4), q=rng.uniform(0.2, 3.0))


def _log_stress_direct(a):
    p, q = a["p"], a["q"]
    return float(np.sum(np.log(p * q)) + np.log(np.sqrt(q))
                 - np.log(1 / q) + np.log(q ** 2.5) + q)


def _share_stress_graph():
    def model(u):
        s = G.einsum("i,i->", u, u)
        return s * s + G.log(s) + 2.0 * G.sqrt(s) - s
    return G.build(model, [("u", (3,), "REAL")])


def _share_stress_args(seed=0):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(3)
    u[0] += 2.0  # keep the dot product away from zero
    return dict(u=u)


def _share_stress_direct(a):
    s = float(a["u"] @ a["u"])
    return s * s + np.log(s) + 2.0 * np.sqrt(s) - s


def _contract_stress_graph():
    def model(A, u, w, c):
        t1 = G.einsum("ij->", G.einsum("ik,kj->ij", A, G.einsum("i,j->ij", u, w)))
        t2 = G.sum_axis(G.einsum("ij,j->i", A, u), 0)
        t3 = G.einsum("ii->", A) * c
        t4 = G.einsum("ij,ij->", G.broadcast_to(u, (3, 3)), A)
        return t1 + t2 + t3 - t4
    return G.build(model, [("A", (3, 3), "REAL"), ("u", (3,), "REAL"),
                           ("w", (3,), "REAL"), ("c", (), "REAL")])


def _contract_stress_args(seed=0):
    rng = np.random.default_rng(seed)
    return dict(A=rng.standard_normal((3, 3)), u=rng.standard_normal(3),
                w=rng.standard_normal(3), c=rng.standard_normal())


def _contract_stress_direct(a):
    A, u, w, c = a["A"], a["u"], a["w"], a["c"]
    return float(np.sum(A @ np.outer(u, w)) + np.sum(A @ u)
                 + np.trace(A) * c - np.sum(np.broadcast_to(u, (3, 3)) * A))


# ---------------------------------------------------------------------------
# the corpus


def fixtures():
    """The ten bundled models."""
    S = SupportType
    return [
        ModelFixture(
            name="beta_bernoulli", build=_beta_bernoulli_graph,
            latents=((0, S.UNIT_INTERVAL),),
            expected_families={"prob": "Beta"},
            example_args=_beta_bernoulli_args,
            direct_log_joint=_beta_bernoulli_direct),
        ModelFixture(
            name="normal_gamma", build=_normal_gamma_graph,
            latents=((0, S.NONNEGATIVE), (1, S.REAL)),
            expected_families={"tau": "Gamma", "beta": "MultivariateNormal"},
            example_args=_normal_gamma_args,
            direct_log_joint=_normal_gamma_direct),
        ModelFixture(
            name="logistic_jj", build=_logistic_graph,
            latents=((0, S.REAL),),
            expected_families={"beta": "MultivariateNormal"},
            example_args=_logistic_args,
            direct_log_joint=_logistic_direct),
        ModelFixture(
            name="kalman", build=_kalman_step_graph,
            latents=((0, S.REAL), (1, S.REAL)),
            expected_families={"xt": "Normal", "xtt": "Normal"},
            example_args=_kalman_args,
            direct_log_joint=_kalman_direct),
        ModelFixture(
            name="factor_analysis", build=_factor_analysis_graph,
            latents=((0, S.REAL), (1, S.REAL), (2, S.NONNEGATIVE)),
            expected_families={"w": "MultivariateNormal",
                               "z": "MultivariateNormal", "tau": "Gamma"},
            example_args=_factor_analysis_args,
            direct_log_joint=_factor_analysis_direct),
        ModelFixture(
            name="gmm", build=_gmm_graph,
            latents=((0, S.SIMPLEX), (1, S.INTEGER), (2, S.REAL),
                     (3, S.NONNEGATIVE)),
            expected_families={"pi": "Dirichlet", "z": "Categorical",
                               "mu": "Normal", "tau": "Gamma"},
            example_args=_gmm_args,
            direct_log_joint=_gmm_direct),
        ModelFixture(
            name="poly_stress", build=_poly_stress_graph,
            example_args=_poly_stress_args,
            direct_log_joint=_poly_stress_direct),
        ModelFixture(
            name="log_stress", build=_log_stress_graph,
            example_args=_log_stress_args,
            direct_log_joint=_log_stress_direct),
        ModelFixture(
            name="share_stress", build=_share_stress_graph,
            example_args=_share_stress_args,
            direct_log_joint=_share_stress_direct),
        ModelFixture(
            name="contract_stress", build=_contract_stress_graph,
            example_args=_contract_stress_args,
            direct_log_joint=_contract_stress_direct),
    ]


def fixture(name) -> ModelFixture:
    for f in fixtures():
        if f.name == name:
            return f
    raise KeyError(f"no fixture named {name!r}; "
                   f"known: {[f.name for f in fixtures()]}")
