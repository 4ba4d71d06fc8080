"""Registry of tractable exponential families.

Each family fixes a statistic signature over one variable (a set of
descriptor strings such as ``identity``/``log``/``outer``), a support, a
natural-parameter convention, and closed forms for the log-normalizer A,
the mean map (the gradient of A), a seeded sampler, normalized log
densities, and converters between natural and standard parameters.

Conventions (natural parameters pair with the statistics named):

* Bernoulli over ``z`` on {0,1}.
* Categorical over ``one_hot(z)``; logits are the natural parameters.
* Beta over ``(log z, log(1-z))`` with eta = (a-1, b-1).
* Gamma over ``(z, log z)`` with eta = (-rate, shape-1).
* Dirichlet over ``log z`` with eta = alpha-1.
* Normal (diagonal/batched) over ``(z, z^2)``.
* Multivariate normal over ``(z, z z^T)`` with eta = (Sigma^-1 mu,
  -1/2 Sigma^-1); the square statistic folds into the diagonal of eta2.

Elementwise families treat every element of a tensor-shaped variable as
one batched distribution with independent components. Samplers are
implemented from seeded uniform/normal draws only (Marsaglia-Tsang for
Gamma, two Gammas for Beta, Gamma normalization for Dirichlet,
inverse-CDF for Categorical).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from . import graph as G
from .errors import NaturalDomainError, SupportError, UnknownFamilyError
from .tensor import INDEX_ALPHABET, one_hot as one_hot_value

__all__ = [
    "SupportType", "FamilySpec", "Distribution", "register_builtin_families",
    "log_normalizer", "mean_params", "sample", "log_prob",
    "DESCRIPTORS",
]

DESCRIPTORS = ("identity", "square", "outer", "log", "log1p_neg", "one_hot")

LOG_2PI = float(np.log(2.0 * np.pi))


class SupportType(enum.Enum):
    REAL = "REAL"
    NONNEGATIVE = "NONNEGATIVE"
    UNIT_INTERVAL = "UNIT_INTERVAL"
    SIMPLEX = "SIMPLEX"
    INTEGER = "INTEGER"
    BINARY = "BINARY"


# ---------------------------------------------------------------------------
# seeded samplers built from uniform/normal draws


def _std_gamma(rng, shape_param):
    """Marsaglia-Tsang squeeze sampler for Gamma(shape, 1)."""
    a = np.asarray(shape_param, dtype=np.float64)
    boosted = a < 1.0
    a_eff = np.where(boosted, a + 1.0, a)
    d = a_eff - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.full(a.shape, np.nan)
    pending = np.ones(a.shape, dtype=bool)
    while np.any(pending):
        x = rng.standard_normal(a.shape)
        v = (1.0 + c * x) ** 3
        u = rng.random(a.shape)
        ok = (v > 0) & (np.log(u) < 0.5 * x * x + d - d * v + d * np.log(
            np.where(v > 0, v, 1.0)))
        take = pending & ok
        out = np.where(take, d * v, out)
        pending &= ~ok
    if np.any(boosted):
        out = np.where(boosted, out * rng.random(a.shape) ** (1.0 / np.where(
            boosted, a, 1.0)), out)
    return out


def _gamma_sample(rng, shape_param, rate):
    return _std_gamma(rng, shape_param) / np.asarray(rate, dtype=np.float64)


def _beta_sample(rng, a, b):
    x = _std_gamma(rng, a)
    y = _std_gamma(rng, b)
    return x / (x + y)


def _dirichlet_sample(rng, alpha):
    g = _std_gamma(rng, alpha)
    return g / np.sum(g, axis=-1, keepdims=True)


def _categorical_sample(rng, logits):
    z = logits - sp.logsumexp(logits, axis=-1, keepdims=True)
    probs = np.exp(z)
    cdf = np.cumsum(probs, axis=-1)
    u = rng.random(logits.shape[:-1] + (1,))
    return np.sum(u > cdf, axis=-1).astype(np.float64)


# ---------------------------------------------------------------------------
# family definitions


class FamilySpec:
    """One tractable exponential family; subclasses fill in the closed
    forms. ``nat`` everywhere is a dict descriptor -> ndarray."""

    name: str = ""
    support: SupportType
    signature: frozenset

    # -- assembling natural parameters -------------------------------------

    def pad_nat(self, nat: dict) -> dict:
        """Zero-fill statistics the model omitted (a missing statistic has
        natural parameter 0)."""
        nat = dict(nat)
        shape = self.batch_shape(nat)
        for d in self.signature:
            if d not in nat:
                nat[d] = np.zeros(self.param_shape(d, shape))
        return nat

    def param_shape(self, descriptor, batch_shape):
        return batch_shape

    def check_domain(self, nat: dict) -> None:
        raise NotImplementedError

    def batch_shape(self, nat: dict):
        return np.asarray(next(iter(nat.values()))).shape

    # -- closed forms -------------------------------------------------------

    def log_normalizer(self, nat: dict) -> np.ndarray:
        raise NotImplementedError

    def mean_params(self, nat: dict) -> dict:
        raise NotImplementedError

    def sample(self, nat: dict, rng) -> np.ndarray:
        raise NotImplementedError

    def statistic_values(self, value) -> dict:
        raise NotImplementedError

    def dot_nat_stats(self, nat: dict, stats: dict) -> np.ndarray:
        """<eta, t(x)> aggregated to one value per batch element."""
        total = None
        for d in self.signature:
            term = nat[d] * stats[d]
            extra = term.ndim - len(self.batch_shape(nat))
            for _ in range(extra):
                term = np.sum(term, axis=-1)
            total = term if total is None else total + term
        return total

    def log_prob(self, nat: dict, value) -> np.ndarray:
        self.check_support(value)
        stats = self.statistic_values(value)
        return self.dot_nat_stats(nat, stats) - self.log_normalizer(nat)

    def check_support(self, value) -> None:
        raise NotImplementedError

    def to_standard(self, nat: dict) -> dict:
        raise NotImplementedError

    def from_standard(self, **standard) -> dict:
        raise NotImplementedError

    # -- graph-mode log-normalizer (for marginalization) --------------------

    def lognorm_graph(self, gb, etas: dict) -> "G.ExprHandle":
        """Build a graph computing the total A (summed over the batch) from
        handles for the discovered natural-parameter graphs."""
        raise NotImplementedError

    def describe(self, nat: dict) -> str:
        std = self.to_standard(nat)
        inner = ", ".join(f"{k}={_fmt(v)}" for k, v in std.items())
        return f"{self.name}({inner})"


def _fmt(v):
    arr = np.asarray(v)
    if arr.shape == ():
        return format(float(arr), "g")
    if arr.size <= 8:
        return np.array2string(arr, precision=4, separator=",")
    return f"<array {arr.shape}>"


class BernoulliFamily(FamilySpec):
    name = "Bernoulli"
    support = SupportType.BINARY
    signature = frozenset({"identity"})

    def check_domain(self, nat):
        if not np.all(np.isfinite(nat["identity"])):
            raise NaturalDomainError("Bernoulli: logit must be finite")

    def log_normalizer(self, nat):
        return np.logaddexp(0.0, nat["identity"])

    def mean_params(self, nat):
        return {"identity": sp.expit(nat["identity"])}

    def sample(self, nat, rng):
        p = sp.expit(nat["identity"])
        return (rng.random(p.shape) < p).astype(np.float64)

    def statistic_values(self, value):
        return {"identity": np.asarray(value, dtype=np.float64)}

    def check_support(self, value):
        v = np.asarray(value)
        if not np.all((v == 0) | (v == 1)):
            raise SupportError("Bernoulli values must be 0 or 1")

    def to_standard(self, nat):
        return {"prob": sp.expit(nat["identity"])}

    def from_standard(self, prob):
        p = np.asarray(prob, dtype=np.float64)
        return {"identity": np.log(p) - np.log1p(-p)}

    def lognorm_graph(self, gb, etas):
        eta = etas["identity"]
        return G.sum_all(gb.prim("log1p", (gb.prim("exp", (eta,)),)))


class CategoricalFamily(FamilySpec):
    name = "Categorical"
    support = SupportType.INTEGER
    signature = frozenset({"one_hot"})

    def num_classes(self, nat):
        return nat["one_hot"].shape[-1]

    def batch_shape(self, nat):
        return nat["one_hot"].shape[:-1]

    def check_domain(self, nat):
        if not np.all(np.isfinite(nat["one_hot"])):
            raise NaturalDomainError("Categorical: logits must be finite")

    def log_normalizer(self, nat):
        return sp.logsumexp(nat["one_hot"], axis=-1)

    def mean_params(self, nat):
        logits = nat["one_hot"]
        return {"one_hot": np.exp(
            logits - sp.logsumexp(logits, axis=-1, keepdims=True))}

    def sample(self, nat, rng):
        return _categorical_sample(rng, nat["one_hot"])

    def statistic_values(self, value, depth=None):
        if depth is None:
            raise SupportError(
                "Categorical statistics need the number of classes")
        return {"one_hot": one_hot_value(value, depth)}

    def log_prob(self, nat, value):
        self.check_support(value, self.num_classes(nat))
        oh = one_hot_value(value, self.num_classes(nat))
        return np.sum(nat["one_hot"] * oh, axis=-1) - self.log_normalizer(nat)

    def check_support(self, value, depth=None):
        v = np.asarray(value)
        if not np.all(np.round(v) == v):
            raise SupportError("Categorical values must be integers")
        if depth is not None and v.size and (v.min() < 0 or v.max() >= depth):
            raise SupportError(f"Categorical values must lie in [0, {depth})")

    def to_standard(self, nat):
        return {"probs": self.mean_params(nat)["one_hot"]}

    def from_standard(self, probs):
        return {"one_hot": np.log(np.asarray(probs, dtype=np.float64))}

    def lognorm_graph(self, gb, etas):
        eta = etas["one_hot"]
        lse = gb.prim("logsumexp", (eta,), (len(eta.shape) - 1,))
        return G.sum_all(lse)


class BetaFamily(FamilySpec):
    name = "Beta"
    support = SupportType.UNIT_INTERVAL
    signature = frozenset({"log", "log1p_neg"})

    def check_domain(self, nat):
        if not (np.all(nat["log"] > -1) and np.all(nat["log1p_neg"] > -1)):
            raise NaturalDomainError(
                "Beta: both pseudo-count parameters must exceed -1")

    def log_normalizer(self, nat):
        a = nat["log"] + 1.0
        b = nat["log1p_neg"] + 1.0
        return sp.gammaln(a) + sp.gammaln(b) - sp.gammaln(a + b)

    def mean_params(self, nat):
        a = nat["log"] + 1.0
        b = nat["log1p_neg"] + 1.0
        return {"log": sp.psi(a) - sp.psi(a + b),
                "log1p_neg": sp.psi(b) - sp.psi(a + b)}

    def sample(self, nat, rng):
        return _beta_sample(rng, nat["log"] + 1.0, nat["log1p_neg"] + 1.0)

    def statistic_values(self, value):
        v = np.asarray(value, dtype=np.float64)
        return {"log": np.log(v), "log1p_neg": np.log1p(-v)}

    def check_support(self, value):
        v = np.asarray(value)
        if not np.all((v > 0) & (v < 1)):
            raise SupportError("Beta values must lie strictly inside (0, 1)")

    def to_standard(self, nat):
        return {"a": nat["log"] + 1.0, "b": nat["log1p_neg"] + 1.0}

    def from_standard(self, a, b):
        return {"log": np.asarray(a, dtype=np.float64) - 1.0,
                "log1p_neg": np.asarray(b, dtype=np.float64) - 1.0}

    def lognorm_graph(self, gb, etas):
        one = gb.constant(1.0)
        a = gb.prim("add", (etas["log"], one))
        b = gb.prim("add", (etas["log1p_neg"], one))
        lg = gb.prim("log_gamma", (a,))
        lgb = gb.prim("log_gamma", (b,))
        lgab = gb.prim("log_gamma", (gb.prim("add", (a, b)),))
        total = gb.prim("subtract", (gb.prim("add", (lg, lgb)), lgab))
        return G.sum_all(total)


class GammaFamily(FamilySpec):
    name = "Gamma"
    support = SupportType.NONNEGATIVE
    signature = frozenset({"identity", "log"})

    def check_domain(self, nat):
        if not np.all(nat["identity"] < 0):
            raise NaturalDomainError("Gamma: rate-side parameter must be < 0")
        if not np.all(nat["log"] > -1):
            raise NaturalDomainError("Gamma: shape-side parameter must be > -1")

    def log_normalizer(self, nat):
        a = nat["log"] + 1.0
        b = -nat["identity"]
        return sp.gammaln(a) - a * np.log(b)

    def mean_params(self, nat):
        a = nat["log"] + 1.0
        b = -nat["identity"]
        return {"identity": a / b, "log": sp.psi(a) - np.log(b)}

    def sample(self, nat, rng):
        return _gamma_sample(rng, nat["log"] + 1.0, -nat["identity"])

    def statistic_values(self, value):
        v = np.asarray(value, dtype=np.float64)
        return {"identity": v, "log": np.log(v)}

    def check_support(self, value):
        if not np.all(np.asarray(value) > 0):
            raise SupportError("Gamma values must be positive")

    def to_standard(self, nat):
        return {"shape": nat["log"] + 1.0, "rate": -nat["identity"]}

    def from_standard(self, shape, rate):
        return {"identity": -np.asarray(rate, dtype=np.float64),
                "log": np.asarray(shape, dtype=np.float64) - 1.0}

    def lognorm_graph(self, gb, etas):
        shape = etas["identity"].shape
        one = gb.constant(1.0)
        if "log" in etas:
            a = gb.prim("add", (etas["log"], one))
        else:
            a = gb.constant(np.ones(shape))
        b = gb.prim("negate", (etas["identity"],))
        term = gb.prim("subtract", (gb.prim("log_gamma", (a,)),
                                    gb.prim("multiply", (a, gb.prim("log", (b,))))))
        return G.sum_all(term)


class DirichletFamily(FamilySpec):
    name = "Dirichlet"
    support = SupportType.SIMPLEX
    signature = frozenset({"log"})

    def batch_shape(self, nat):
        return nat["log"].shape[:-1]

    def check_domain(self, nat):
        if not np.all(nat["log"] > -1):
            raise NaturalDomainError("Dirichlet: parameters must exceed -1")

    def log_normalizer(self, nat):
        alpha = nat["log"] + 1.0
        return np.sum(sp.gammaln(alpha), axis=-1) - sp.gammaln(
            np.sum(alpha, axis=-1))

    def mean_params(self, nat):
        alpha = nat["log"] + 1.0
        return {"log": sp.psi(alpha) - sp.psi(
            np.sum(alpha, axis=-1, keepdims=True))}

    def sample(self, nat, rng):
        return _dirichlet_sample(rng, nat["log"] + 1.0)

    def statistic_values(self, value):
        return {"log": np.log(np.asarray(value, dtype=np.float64))}

    def check_support(self, value):
        v = np.asarray(value)
        if not (np.all(v > 0) and np.allclose(np.sum(v, axis=-1), 1.0)):
            raise SupportError("Dirichlet values must lie in the open simplex")

    def to_standard(self, nat):
        return {"alpha": nat["log"] + 1.0}

    def from_standard(self, alpha):
        return {"log": np.asarray(alpha, dtype=np.float64) - 1.0}

    def lognorm_graph(self, gb, etas):
        one = gb.constant(1.0)
        alpha = gb.prim("add", (etas["log"], one))
        term1 = G.sum_all(gb.prim("log_gamma", (alpha,)))
        row_sum = gb.prim("sum_axis", (alpha,), (len(alpha.shape) - 1,))
        term2 = G.sum_all(gb.prim("log_gamma", (row_sum,)))
        return gb.prim("subtract", (term1, term2))


class NormalFamily(FamilySpec):
    """Batched Normal with independent components, t(z) = (z, z^2)."""

    name = "Normal"
    support = SupportType.REAL
    signature = frozenset({"identity", "square"})

    def check_domain(self, nat):
        if not np.all(nat["square"] < 0):
            raise NaturalDomainError(
                "Normal: the square-statistic parameter must be < 0")
        if not np.all(np.isfinite(nat["identity"])):
            raise NaturalDomainError("Normal: location parameter must be finite")

    def log_normalizer(self, nat):
        e1, e2 = nat["identity"], nat["square"]
        return -0.25 * e1 * e1 / e2 - 0.5 * np.log(-2.0 * e2) + 0.5 * LOG_2PI

    def mean_params(self, nat):
        e1, e2 = nat["identity"], nat["square"]
        mean = -0.5 * e1 / e2
        var = -0.5 / e2
        return {"identity": mean, "square": mean * mean + var}

    def sample(self, nat, rng):
        std = self.to_standard(nat)
        return std["mean"] + std["sd"] * rng.standard_normal(
            np.asarray(std["mean"]).shape)

    def statistic_values(self, value):
        v = np.asarray(value, dtype=np.float64)
        return {"identity": v, "square": v * v}

    def check_support(self, value):
        if not np.all(np.isfinite(np.asarray(value))):
            raise SupportError("Normal values must be finite")

    def to_standard(self, nat):
        e1, e2 = nat["identity"], nat["square"]
        return {"mean": -0.5 * e1 / e2, "sd": np.sqrt(-0.5 / e2)}

    def from_standard(self, mean, sd):
        mean = np.asarray(mean, dtype=np.float64)
        sd = np.asarray(sd, dtype=np.float64)
        return {"identity": mean / (sd * sd), "square": -0.5 / (sd * sd)}

    def lognorm_graph(self, gb, etas):
        e2 = etas["square"]
        shape = e2.shape
        if "identity" in etas:
            e1 = etas["identity"]
        else:
            e1 = gb.constant(np.zeros(shape))
        quarter = gb.constant(-0.25)
        quad = gb.prim("multiply", (gb.prim("multiply", (e1, e1)),
                                    gb.prim("reciprocal", (e2,))))
        quad = gb.prim("multiply", (quarter, quad))
        neg2 = gb.prim("multiply", (gb.constant(-2.0), e2))
        logdet = gb.prim("multiply", (gb.constant(-0.5),
                                      gb.prim("log", (neg2,))))
        n = int(np.prod(shape)) if shape else 1
        const = gb.constant(0.5 * LOG_2PI * n)
        return gb.prim("add", (gb.prim("add", (G.sum_all(quad),
                                               G.sum_all(logdet))), const))


class MultivariateNormalFamily(FamilySpec):
    """Multivariate normal over rows, t(z) = (z, z z^T); leading axes of
    eta1 are batch axes. The elementwise square statistic folds into the
    diagonal of the matrix parameter before any check or closed form."""

    name = "MultivariateNormal"
    support = SupportType.REAL
    signature = frozenset({"identity", "outer"})

    def batch_shape(self, nat):
        return nat["outer"].shape[:-2]

    def _lam(self, nat):
        e2 = nat["outer"]
        sym = 0.5 * (e2 + np.swapaxes(e2, -1, -2))
        return -2.0 * sym

    def check_domain(self, nat):
        lam = self._lam(nat)
        n = lam.shape[-1]
        try:
            chol = np.linalg.cholesky(lam)
        except np.linalg.LinAlgError as exc:
            raise NaturalDomainError(
                f"MultivariateNormal: -2*eta2 is not positive definite: {exc}")
        trace_scale = np.trace(lam, axis1=-2, axis2=-1) / max(n, 1)
        piv = np.min(np.einsum("...ii->...i", chol), axis=-1)
        if np.any(piv * piv <= 1e-12 * np.maximum(trace_scale, 1e-300)):
            raise NaturalDomainError(
                "MultivariateNormal: -2*eta2 is numerically singular")

    def log_normalizer(self, nat):
        lam = self._lam(nat)
        e1 = nat["identity"]
        m = np.linalg.solve(lam, e1[..., None])[..., 0]
        _, ld = np.linalg.slogdet(lam)
        d = lam.shape[-1]
        return 0.5 * np.sum(e1 * m, axis=-1) - 0.5 * ld + 0.5 * d * LOG_2PI

    def mean_params(self, nat):
        lam = self._lam(nat)
        e1 = nat["identity"]
        cov = np.linalg.inv(lam)
        m = np.einsum("...ij,...j->...i", cov, e1)
        return {"identity": m,
                "outer": cov + np.einsum("...i,...j->...ij", m, m)}

    def sample(self, nat, rng):
        std = self.to_standard(nat)
        m, cov = std["mean"], std["cov"]
        chol = np.linalg.cholesky(cov)
        eps = rng.standard_normal(m.shape)
        return m + np.einsum("...ij,...j->...i", chol, eps)

    def statistic_values(self, value):
        v = np.asarray(value, dtype=np.float64)
        return {"identity": v, "outer": np.einsum("...i,...j->...ij", v, v)}

    def dot_nat_stats(self, nat, stats):
        t1 = np.sum(nat["identity"] * stats["identity"], axis=-1)
        t2 = np.sum(nat["outer"] * stats["outer"], axis=(-1, -2))
        return t1 + t2

    def check_support(self, value):
        if not np.all(np.isfinite(np.asarray(value))):
            raise SupportError("MultivariateNormal values must be finite")

    def to_standard(self, nat):
        lam = self._lam(nat)
        cov = np.linalg.inv(lam)
        m = np.einsum("...ij,...j->...i", cov, nat["identity"])
        return {"mean": m, "cov": cov}

    def from_standard(self, mean, cov):
        mean = np.asarray(mean, dtype=np.float64)
        cov = np.asarray(cov, dtype=np.float64)
        prec = np.linalg.inv(cov)
        return {"identity": np.einsum("...ij,...j->...i", prec, mean),
                "outer": -0.5 * prec}

    def lognorm_graph(self, gb, etas):
        from .canonicalize import split_common_scalar_factor

        e2 = etas["outer"]
        batch = INDEX_ALPHABET[:len(e2.shape) - 2]
        d = e2.shape[-1]
        if "identity" in etas:
            e1 = etas["identity"]
        else:
            e1 = gb.constant(np.zeros(e2.shape[:-1]))

        # Factor any scalar common to all monomials of eta2 out of the
        # inverse and the log-determinant so that precision-style scalars
        # (e.g. a Gamma-distributed precision) stay recognizable in the
        # re-canonicalized marginal: inv(s*R) = (1/s) inv(R) and
        # logdet(-2 s R) = d*log(s) + logdet(-2 R) for s > 0.
        scalar, residual = split_common_scalar_factor(gb, e2)
        inv_r = gb.prim("inverse", (residual,))
        qf = f"{batch}i,{batch}ij,{batch}j->" if batch else "i,ij,j->"
        quad = gb.prim("einsum", (e1, inv_r, e1), (qf,))
        quad = gb.prim("multiply", (gb.constant(-0.25), quad))
        neg2r = gb.prim("multiply", (gb.constant(-2.0), residual))
        ld = gb.prim("logdet", (neg2r,))
        ld_total = G.sum_all(ld)
        nbatch = int(np.prod(e2.shape[:-2])) if e2.shape[:-2] else 1
        if scalar is not None:
            rec = gb.prim("reciprocal", (scalar,))
            quad = gb.prim("multiply", (quad, rec))
            logs = gb.prim("multiply", (gb.constant(float(d * nbatch)),
                                        gb.prim("log", (scalar,))))
            ld_total = gb.prim("add", (ld_total, logs))
        half = gb.prim("multiply", (gb.constant(-0.5), ld_total))
        const = gb.constant(0.5 * d * nbatch * LOG_2PI)
        return gb.prim("add", (gb.prim("add", (quad, half)), const))


# ---------------------------------------------------------------------------
# registry and lookup


class FamilyRegistry:
    def __init__(self, families):
        self.families = {f.name: f for f in families}

    def get(self, name) -> FamilySpec:
        return self.families[name]

    def __iter__(self):
        return iter(self.families.values())

    def lookup(self, support: SupportType, descriptors) -> FamilySpec:
        """Match a discovered statistic signature against the table: exact
        signature equality first, then subset matching (missing statistics
        take natural parameter zero). An outer statistic on REAL support
        selects the multivariate normal, with square statistics folded into
        the matrix parameter's diagonal."""
        descriptors = frozenset(descriptors)
        if not descriptors:
            raise UnknownFamilyError(
                f"no sufficient statistics discovered on {support.value}")
        if support == SupportType.REAL and "outer" in descriptors:
            if descriptors <= {"identity", "square", "outer"}:
                return self.families["MultivariateNormal"]
            raise UnknownFamilyError(
                f"statistics {sorted(descriptors)} on REAL match no family",
                atoms=sorted(descriptors))
        for fam in self.families.values():
            if fam.support == support and descriptors == fam.signature:
                return fam
        for fam in self.families.values():
            if fam.support == support and descriptors < fam.signature:
                return fam
        raise UnknownFamilyError(
            f"statistics {sorted(descriptors)} on {support.value} match no "
            f"registered family", atoms=sorted(descriptors))


def register_builtin_families() -> FamilyRegistry:
    """The seven-family table closing over every bundled model."""
    return FamilyRegistry([
        BernoulliFamily(), CategoricalFamily(), BetaFamily(), GammaFamily(),
        DirichletFamily(), NormalFamily(), MultivariateNormalFamily(),
    ])


BUILTIN = register_builtin_families()


# ---------------------------------------------------------------------------
# concrete family members


@dataclass(frozen=True)
class Distribution:
    """A concrete member: family plus natural parameters (validated and
    zero-padded at construction)."""

    family: FamilySpec
    nat: dict

    def __post_init__(self):
        object.__setattr__(self, "nat", self.family.pad_nat(self.nat))
        self.family.check_domain(self.nat)

    def log_normalizer(self):
        return self.family.log_normalizer(self.nat)

    def mean_params(self):
        return self.family.mean_params(self.nat)

    def sample(self, rng):
        return self.family.sample(self.nat, rng)

    def log_prob(self, value):
        return self.family.log_prob(self.nat, value)

    def standard(self):
        return self.family.to_standard(self.nat)

    def describe(self):
        return self.family.describe(self.nat)


def log_normalizer(d: Distribution):
    return d.log_normalizer()


def mean_params(d: Distribution):
    return d.mean_params()


def sample(d: Distribution, rng):
    return d.sample(rng)


def log_prob(d: Distribution, value):
    return d.log_prob(value)
