"""Independent reference implementations the tests check the engine
against. Nothing here may call back into the code paths under test."""

import itertools
from typing import Callable, NamedTuple

import numpy as np
from scipy import optimize, special


def naive_einsum(formula, operands):
    """Nested-loop sum-of-products definition of einsum."""
    lhs, out = formula.split("->")
    subs = lhs.split(",")
    extents = {}
    for s, op in zip(subs, operands):
        for ch, d in zip(s, np.asarray(op).shape):
            extents[ch] = d
    letters = sorted(extents)
    out_shape = tuple(extents[c] for c in out)
    result = np.zeros(out_shape)
    for combo in itertools.product(*(range(extents[c]) for c in letters)):
        idx = dict(zip(letters, combo))
        term = 1.0
        for s, op in zip(subs, operands):
            term *= np.asarray(op)[tuple(idx[c] for c in s)]
        result[tuple(idx[c] for c in out)] += term
    return result


def highprec_logsumexp(x, axis):
    """Direct log-sum-exp in extended precision."""
    x = np.asarray(x, dtype=np.longdouble)
    return np.asarray(np.log(np.sum(np.exp(x), axis=axis)), dtype=np.float64)


def central_diff(f, x, step=1e-6):
    """Elementwise central finite differences of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xf = x.ravel()
    for i in range(x.size):
        e = np.zeros_like(xf)
        e[i] = step
        up = f((xf + e).reshape(x.shape))
        dn = f((xf - e).reshape(x.shape))
        flat[i] = (up - dn) / (2 * step)
    return grad


def gauss_hermite_integral(logf, dim, n=48):
    """integral of exp(logf) over R^dim by Gauss-Hermite quadrature after
    standardizing at the numerically located mode (finite-difference
    Hessian). Exact in exp-quadratic integrands up to conditioning."""
    res = optimize.minimize(lambda v: -logf(v), np.zeros(dim), method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 5000})
    mode = res.x
    h = 1e-4
    hess = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(dim):
            ei = np.zeros(dim); ei[i] = h
            ej = np.zeros(dim); ej[j] = h
            hess[i, j] = (logf(mode + ei + ej) - logf(mode + ei - ej)
                          - logf(mode - ei + ej) + logf(mode - ei - ej)) / (4 * h * h)
    cov = np.linalg.inv(-hess)
    chol = np.linalg.cholesky(cov)
    nodes, weights = np.polynomial.hermite.hermgauss(n)
    total = 0.0
    log_mode = logf(mode)
    for combo in itertools.product(range(n), repeat=dim):
        u = np.array([nodes[k] for k in combo])
        w = np.prod([weights[k] for k in combo])
        z = mode + np.sqrt(2.0) * (chol @ u)
        total += w * np.exp(logf(z) - log_mode + np.sum(u * u))
    jac = (np.sqrt(2.0) ** dim) * np.prod(np.diag(chol))
    return total * jac * np.exp(log_mode)


def log_quad(logf, a, b):
    """log of the integral of exp(logf) over [a, b], max-shifted for
    conditioning."""
    from scipy import integrate
    grid = np.linspace(a if np.isfinite(a) else -30.0,
                       b if np.isfinite(b) else 30.0, 512)
    shift = max(logf(g) for g in grid[1:-1])
    val, _err = integrate.quad(lambda z: np.exp(logf(z) - shift), a, b,
                               limit=200)
    return shift + np.log(val)


def batch_means_se(x, n_batches=50):
    """Standard error of the mean of a correlated sequence."""
    x = np.asarray(x, dtype=np.float64)
    m = len(x) // n_batches
    means = x[:n_batches * m].reshape(n_batches, m).mean(axis=1)
    return means.std(ddof=1) / np.sqrt(n_batches)


def gmm_conditionals(v):
    """Complete conditionals of the diagonal Gaussian mixture fixture
    (``gmm``), derived by hand, in each family's standard parameters.
    Given the other arguments: the weights are Dirichlet, with the counts
    per component added to ``alpha``; each point's label is Categorical,
    with logits log pi_k + sum_d (0.5 log tau_kd - 0.5 tau_kd (x_nd -
    mu_kd)^2); each mean mu_kd is Normal, its N(0, sigma0^2) prior
    times the likelihood of the points in component k; and each precision
    tau_kd is Gamma, its Gamma(a0, b0) prior times the same likelihood."""
    pi, mu, tau, x = (np.asarray(v[k], dtype=np.float64)
                      for k in ("pi", "mu", "tau", "x"))
    member = np.eye(len(pi))[np.asarray(v["z"]).astype(int)]   # (n, k)
    counts = member.sum(axis=0)
    sq = (x[:, None, :] - mu[None, :, :]) ** 2                  # (n, k, d)
    logits = np.log(pi) + np.sum(0.5 * np.log(tau) - 0.5 * tau * sq, axis=2)
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    prec = 1.0 / v["sigma0"] ** 2 + counts[:, None] * tau
    return {
        "pi": {"alpha": np.asarray(v["alpha"]) + counts},
        "z": {"probs": probs / probs.sum(axis=1, keepdims=True)},
        "mu": {"mean": tau * (member.T @ x) / prec, "sd": prec ** -0.5},
        "tau": {"shape": np.broadcast_to(
                    v["a0"] + 0.5 * counts[:, None], tau.shape),
                "rate": v["b0"] + 0.5 * np.einsum("nk,nkd->kd", member, sq)},
    }


# ---------------------------------------------------------------------------
# prior and likelihood samplers of four reference models, written from
# their math in ``symconj.models``, for the successive-conditional test of
# Geweke (2004). ``h`` is a fixture's example arguments: its fixed
# hyperparameters and covariates are read from it, its latents and
# observations are not.


class PriorOracle(NamedTuple):
    prior: Callable       # (rng, h) -> latents
    likelihood: Callable  # (rng, h, latents) -> observations
    stats: Callable       # (h, latents) -> {name: statistic}
    means: Callable       # h -> {name: closed-form prior mean}


def _gamma_means(a, b):
    """E[tau] and E[log tau] under Gamma(shape a, rate b)."""
    return a / b, special.digamma(a) - np.log(b)


def _outer(v):
    return v[..., :, None] * v[..., None, :]


def _ng_stats(h, v):
    # beta is a Student t a priori, whose fourth moment may not exist:
    # its standardized value u ~ N(0, I) given tau carries its statistics
    u = np.sqrt(h["kappa"] * v["tau"]) * (v["beta"] - h["mu0"])
    return {"tau": v["tau"], "log tau": np.log(v["tau"]),
            "u": u, "u u^T": _outer(u)}


def _ng_means(h):
    d = len(h["mu0"])
    tau, log_tau = _gamma_means(h["a"], h["b"])
    return {"tau": tau, "log tau": log_tau, "u": np.zeros(d),
            "u u^T": np.eye(d)}


def _ng_prior(rng, h):
    tau = rng.gamma(h["a"], 1.0 / h["b"])
    return {"tau": tau, "beta": h["mu0"] + rng.standard_normal(
        len(h["mu0"])) / np.sqrt(h["kappa"] * tau)}


def _ng_likelihood(rng, h, v):
    return {"y": h["x"] @ v["beta"]
            + rng.standard_normal(len(h["y"])) / np.sqrt(v["tau"])}


def _kalman_prior(rng, h):
    xt = h["xt_prior_mean"] + h["xt_prior_scale"] * rng.standard_normal()
    return {"xt": xt, "xtt": xt + h["x_scale"] * rng.standard_normal()}


def _kalman_means(h):
    m, s2 = h["xt_prior_mean"], h["xt_prior_scale"] ** 2
    return {"xt": m, "xt^2": m * m + s2,
            "xtt": m, "xtt^2": m * m + s2 + h["x_scale"] ** 2}


def _fa_prior(rng, h):
    return {"w": rng.standard_normal(h["w"].shape),
            "z": rng.standard_normal(h["z"].shape),
            "tau": rng.gamma(h["a0"], 1.0 / h["b0"])}


def _fa_stats(h, v):
    return {"w": v["w"], "w_d w_d^T": _outer(v["w"]), "z": v["z"],
            "z_n z_n^T": _outer(v["z"]), "tau": v["tau"],
            "log tau": np.log(v["tau"])}


def _fa_means(h):
    (d, k), n = h["w"].shape, len(h["z"])
    tau, log_tau = _gamma_means(h["a0"], h["b0"])
    return {"w": np.zeros((d, k)), "w_d w_d^T": np.broadcast_to(
                np.eye(k), (d, k, k)),
            "z": np.zeros((n, k)), "z_n z_n^T": np.broadcast_to(
                np.eye(k), (n, k, k)),
            "tau": tau, "log tau": log_tau}


def _gmm_prior(rng, h):
    pi = rng.dirichlet(h["alpha"])
    return {"pi": pi, "z": rng.choice(len(pi), len(h["z"]), p=pi).astype(
                np.float64),
            "mu": h["sigma0"] * rng.standard_normal(h["mu"].shape),
            "tau": rng.gamma(h["a0"], 1.0 / h["b0"], h["tau"].shape)}


def _gmm_likelihood(rng, h, v):
    z = v["z"].astype(int)
    return {"x": v["mu"][z] + rng.standard_normal(h["x"].shape)
            / np.sqrt(v["tau"][z])}


def _gmm_stats(h, v):
    k = len(h["alpha"])
    return {"pi": v["pi"], "log pi": np.log(v["pi"]),
            "one_hot(z)": np.eye(k)[v["z"].astype(int)], "mu": v["mu"],
            "mu^2": v["mu"] ** 2, "tau": v["tau"],
            "log tau": np.log(v["tau"])}


def _gmm_means(h):
    alpha, shape = h["alpha"], h["mu"].shape
    tau, log_tau = _gamma_means(h["a0"], h["b0"])
    return {"pi": alpha / alpha.sum(),
            "log pi": special.digamma(alpha) - special.digamma(alpha.sum()),
            "one_hot(z)": np.broadcast_to(alpha / alpha.sum(),
                                          (len(h["z"]), len(alpha))),
            "mu": np.zeros(shape), "mu^2": np.full(shape, h["sigma0"] ** 2),
            "tau": np.full(shape, tau), "log tau": np.full(shape, log_tau)}


PRIOR_ORACLES = {
    "normal_gamma": PriorOracle(_ng_prior, _ng_likelihood, _ng_stats,
                                _ng_means),
    "kalman": PriorOracle(
        _kalman_prior,
        lambda rng, h, v: {"ytt": v["xtt"]
                           + h["y_scale"] * rng.standard_normal()},
        lambda h, v: {"xt": v["xt"], "xt^2": v["xt"] ** 2,
                      "xtt": v["xtt"], "xtt^2": v["xtt"] ** 2},
        _kalman_means),
    "factor_analysis": PriorOracle(
        _fa_prior,
        lambda rng, h, v: {"x": v["z"] @ v["w"].T + rng.standard_normal(
            h["x"].shape) / np.sqrt(v["tau"])},
        _fa_stats, _fa_means),
    "gmm": PriorOracle(_gmm_prior, _gmm_likelihood, _gmm_stats, _gmm_means),
}
