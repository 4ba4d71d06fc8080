"""Independent reference implementations the tests check the engine
against. Nothing here may call back into the code paths under test."""

import itertools

import numpy as np
from scipy import optimize


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
