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

A model may omit statistics of its family (their natural parameter is 0).
Only the family turns a model's per-statistic parameters into its own
convention: :meth:`FamilySpec.pad_nat` zero-fills and folds, and the mean
map reports every statistic the family accepts.

Each family writes A once, for arrays (the run phase) and graph handles
(:meth:`FamilySpec.lognorm_graph`, for marginalization) alike: the
argument's type picks the functions it calls (:func:`_fns`). Only the
multivariate normal keeps a second, graph-only A.

The support checks and the array statistics are two tables, keyed by
support and by descriptor; Categorical adds its class-count check and its
``one_hot`` statistic. :meth:`FamilyRegistry.lookup` returns the first
family on the support that accepts every discovered statistic.

Elementwise families treat every element of a tensor-shaped variable as
one batched distribution with independent components. Samplers are
implemented from seeded uniform/normal draws only (Marsaglia-Tsang for
Gamma, two Gammas for Beta, Gamma normalization for Dirichlet,
inverse-CDF for Categorical).
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from scipy import special as sp

from . import graph as G
from .canonicalize import local_simplify, monomials
from .errors import NaturalDomainError, SupportError, UnknownFamilyError
from .tensor import (INDEX_ALPHABET, all_true, logsumexp,
                     one_hot as one_hot_value)

__all__ = [
    "SupportType", "FamilySpec", "Distribution", "register_builtin_families",
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


# support -> (test on the values, what every value must be)
_SUPPORT_CHECKS = {
    SupportType.BINARY: (lambda v: np.all((v == 0) | (v == 1)), "be 0 or 1"),
    SupportType.INTEGER: (lambda v: np.all(np.round(v) == v), "be integers"),
    SupportType.UNIT_INTERVAL: (lambda v: np.all((v > 0) & (v < 1)),
                                "lie strictly inside (0, 1)"),
    SupportType.NONNEGATIVE: (lambda v: np.all(v > 0), "be positive"),
    SupportType.SIMPLEX: (lambda v: np.all(v > 0) and np.allclose(
        np.sum(v, axis=-1), 1.0), "lie in the open simplex"),
    SupportType.REAL: (lambda v: np.all(np.isfinite(v)), "be finite"),
}

# descriptor -> its statistic of an array of values; one_hot also needs
# the class count (CategoricalFamily.statistic_values)
_STATISTICS = {
    "identity": lambda v: v,
    "square": lambda v: v * v,
    "outer": lambda v: np.einsum("...i,...j->...ij", v, v),
    "log": np.log,
    "log1p_neg": lambda v: np.log1p(-v),
}


# ---------------------------------------------------------------------------
# the non-arithmetic functions of the closed forms, on arrays and on handles


def _graph_diag(v):
    batch = INDEX_ALPHABET[:len(v.shape) - 1]
    eye = v.builder.constant(np.eye(v.shape[-1]))
    return G.einsum(f"{batch}i,ij->{batch}ij", v, eye)


_ARRAY_FNS = SimpleNamespace(
    log=np.log,
    gammaln=sp.gammaln,
    softplus=lambda x: np.logaddexp(0.0, x),
    logsumexp=lambda x: logsumexp(x, -1),
    sum=lambda x: np.sum(x, axis=-1),
    diag=lambda v: v[..., None] * np.eye(v.shape[-1]),
    zeros=lambda like, shape: np.zeros(shape),
)

_GRAPH_FNS = SimpleNamespace(
    log=G.log,
    gammaln=G.log_gamma,
    softplus=lambda x: G.log1p(G.exp(x)),
    logsumexp=lambda x: G.logsumexp(x, len(x.shape) - 1),
    sum=lambda x: G.sum_axis(x, len(x.shape) - 1),
    diag=_graph_diag,
    zeros=lambda like, shape: like.builder.constant(np.zeros(shape)),
)


def _fns(x):
    """Graph functions for a handle, numpy ones otherwise. ``sum`` and
    ``logsumexp`` reduce the last axis; ``zeros(like, shape)`` makes zeros
    of ``like``'s kind."""
    return _GRAPH_FNS if isinstance(x, G.ExprHandle) else _ARRAY_FNS


def _require(ok, message):
    """Raise :class:`NaturalDomainError` unless ``ok`` holds everywhere,
    reading a rank-0 mask without a reduction; ``x < inf`` fails on NaN."""
    if not (all_true(ok) if hasattr(ok, "ndim") else ok):
        raise NaturalDomainError(message)


# ---------------------------------------------------------------------------
# seeded samplers built from uniform/normal draws


def _std_gamma(rng, shape_param):
    """Marsaglia-Tsang squeeze sampler for Gamma(shape, 1). A rank-0 shape
    takes :func:`_std_gamma_scalar`, which gives the same draws."""
    a = np.asarray(shape_param, dtype=np.float64)
    if a.ndim == 0:
        return np.asarray(_std_gamma_scalar(rng, float(a)))
    return _std_gamma_array(rng, a)


def _std_gamma_array(rng, a):
    """:func:`_std_gamma` on a float64 array of shapes, drawing a whole
    array of normals and uniforms per round."""
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


def _std_gamma_scalar(rng, a):
    """:func:`_std_gamma_array` on one float shape: the same normal and
    uniform draws, in the same order, and the same arithmetic give the
    same bits as the array code on a rank-0 array. ``log`` and the power
    stay numpy's, whose loops round differently from ``math``'s."""
    d = (a + 1.0 if a < 1.0 else a) - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.standard_normal()
        v = (1.0 + c * x) ** 3
        u = rng.random()
        if v > 0 and np.log(u) < 0.5 * x * x + d - d * v + d * np.log(v):
            break
    return d * v * np.power(rng.random(), 1.0 / a) if a < 1.0 else d * v


def _categorical_sample(rng, logits):
    """Inverse-CDF draw per row. The last class takes every draw past the
    second-last cumulative probability, so rounding that leaves the total
    just under 1 cannot give class K."""
    probs = np.exp(logits - logsumexp(logits, -1)[..., None])
    cdf = np.cumsum(probs, axis=-1)
    u = rng.random(logits.shape[:-1] + (1,))
    return np.sum(u > cdf[..., :-1], axis=-1).astype(np.float64)


# ---------------------------------------------------------------------------
# family definitions


class FamilySpec:
    """One tractable exponential family; subclasses fill in the closed
    forms ``check_domain``, ``log_normalizer``, ``mean_params``, ``sample``,
    ``to_standard`` and ``from_standard``. ``nat`` everywhere is a dict
    descriptor -> ndarray; ``pad_nat`` and ``log_normalizer`` also take
    graph handles in its place. ``check_domain`` raises
    :class:`NaturalDomainError` and returns None, or a tuple of what the
    closed forms on values also accept after ``nat`` (and ``rng``)."""

    name: str = ""
    support: SupportType
    signature: frozenset
    requires: frozenset = frozenset()  # statistics no proper member lacks

    @property
    def accepts(self) -> frozenset:
        """Statistics a model may hold; any subset matches the family."""
        return self.signature

    # -- assembling natural parameters -------------------------------------

    def pad_nat(self, nat: dict) -> dict:
        """Zero-fill statistics the model omitted (a missing statistic has
        natural parameter 0); ``nat`` itself when none is missing."""
        if nat.keys() >= self.signature:
            return nat
        nat = dict(nat)
        like = next(iter(nat.values()))
        shape = self.batch_shape(nat)
        for d in self.signature:
            if d not in nat:
                nat[d] = _fns(like).zeros(like, shape)
        return nat

    def batch_shape(self, nat: dict):
        return np.shape(next(iter(nat.values())))

    # -- statistics and densities -------------------------------------------

    def statistic_values(self, value) -> dict:
        v = np.asarray(value, dtype=np.float64)
        return {d: _STATISTICS[d](v) for d in DESCRIPTORS
                if d in self.signature}

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

    def log_prob(self, nat: dict, value, *factor) -> np.ndarray:
        self.check_support(value)
        stats = self.statistic_values(value)
        return (self.dot_nat_stats(nat, stats)
                - self.log_normalizer(nat, *factor))

    def check_support(self, value) -> None:
        test, must = _SUPPORT_CHECKS[self.support]
        if not test(np.asarray(value)):
            raise SupportError(f"{self.name} values must {must}")

    def lognorm_graph(self, gb, etas: dict) -> "G.ExprHandle":
        """Graph of the total A (summed over the batch) at handles of the
        discovered natural-parameter graphs: the closed form on values."""
        return G.sum_all(self.log_normalizer(self.pad_nat(etas)))

    def describe(self, nat: dict, *factor) -> str:
        std = self.to_standard(nat, *factor)
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
        _require(np.isfinite(nat["identity"]),
                 "Bernoulli: logit must be finite")

    def log_normalizer(self, nat):
        return _fns(nat["identity"]).softplus(nat["identity"])

    def mean_params(self, nat):
        return {"identity": sp.expit(nat["identity"])}

    def sample(self, nat, rng):
        p = sp.expit(nat["identity"])
        return (rng.random(p.shape) < p).astype(np.float64)

    def to_standard(self, nat):
        return {"prob": sp.expit(nat["identity"])}

    def from_standard(self, prob):
        p = np.asarray(prob, dtype=np.float64)
        return {"identity": np.log(p) - np.log1p(-p)}


class CategoricalFamily(FamilySpec):
    name = "Categorical"
    support = SupportType.INTEGER
    signature = frozenset({"one_hot"})

    def num_classes(self, nat):
        return nat["one_hot"].shape[-1]

    def batch_shape(self, nat):
        return nat["one_hot"].shape[:-1]

    def check_domain(self, nat):
        _require(np.isfinite(nat["one_hot"]),
                 "Categorical: logits must be finite")

    def log_normalizer(self, nat):
        return _fns(nat["one_hot"]).logsumexp(nat["one_hot"])

    def mean_params(self, nat):
        logits = nat["one_hot"]
        return {"one_hot": np.exp(
            logits - logsumexp(logits, -1)[..., None])}

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
        super().check_support(value)
        v = np.asarray(value)
        if depth is not None and v.size and (v.min() < 0 or v.max() >= depth):
            raise SupportError(f"Categorical values must lie in [0, {depth})")

    def to_standard(self, nat):
        return {"probs": self.mean_params(nat)["one_hot"]}

    def from_standard(self, probs):
        return {"one_hot": np.log(np.asarray(probs, dtype=np.float64))}


class BetaFamily(FamilySpec):
    name = "Beta"
    support = SupportType.UNIT_INTERVAL
    signature = frozenset({"log", "log1p_neg"})

    def check_domain(self, nat):
        a, b = nat["log"], nat["log1p_neg"]
        _require((a > -1) & (b > -1),
                 "Beta: both pseudo-count parameters must exceed -1")
        _require(a + b < np.inf, "Beta: parameters must be finite")

    def log_normalizer(self, nat):
        f = _fns(nat["log"])
        a = nat["log"] + 1.0
        b = nat["log1p_neg"] + 1.0
        return f.gammaln(a) + f.gammaln(b) - f.gammaln(a + b)

    def mean_params(self, nat):
        a = nat["log"] + 1.0
        b = nat["log1p_neg"] + 1.0
        return {"log": sp.psi(a) - sp.psi(a + b),
                "log1p_neg": sp.psi(b) - sp.psi(a + b)}

    def sample(self, nat, rng):
        x = _std_gamma(rng, nat["log"] + 1.0)
        return x / (x + _std_gamma(rng, nat["log1p_neg"] + 1.0))

    def to_standard(self, nat):
        return {"a": nat["log"] + 1.0, "b": nat["log1p_neg"] + 1.0}

    def from_standard(self, a, b):
        return {"log": np.asarray(a, dtype=np.float64) - 1.0,
                "log1p_neg": np.asarray(b, dtype=np.float64) - 1.0}


class GammaFamily(FamilySpec):
    name = "Gamma"
    support = SupportType.NONNEGATIVE
    signature = frozenset({"identity", "log"})
    requires = frozenset({"identity"})

    def check_domain(self, nat):
        rate, shape = nat["identity"], nat["log"]
        _require(rate < 0, "Gamma: rate-side parameter must be < 0")
        _require(shape > -1, "Gamma: shape-side parameter must be > -1")
        _require(shape - rate < np.inf, "Gamma: parameters must be finite")

    def log_normalizer(self, nat):
        f = _fns(nat["log"])
        a = nat["log"] + 1.0
        b = -nat["identity"]
        return f.gammaln(a) - a * f.log(b)

    def mean_params(self, nat):
        a = nat["log"] + 1.0
        b = -nat["identity"]
        return {"identity": a / b, "log": sp.psi(a) - np.log(b)}

    def sample(self, nat, rng):
        return _std_gamma(rng, nat["log"] + 1.0) / -nat["identity"]

    def to_standard(self, nat):
        return {"shape": nat["log"] + 1.0, "rate": -nat["identity"]}

    def from_standard(self, shape, rate):
        return {"identity": -np.asarray(rate, dtype=np.float64),
                "log": np.asarray(shape, dtype=np.float64) - 1.0}


class DirichletFamily(FamilySpec):
    name = "Dirichlet"
    support = SupportType.SIMPLEX
    signature = frozenset({"log"})

    def batch_shape(self, nat):
        return nat["log"].shape[:-1]

    def check_domain(self, nat):
        _require(nat["log"] > -1, "Dirichlet: parameters must exceed -1")
        _require(nat["log"] < np.inf, "Dirichlet: parameters must be finite")

    def log_normalizer(self, nat):
        f = _fns(nat["log"])
        alpha = nat["log"] + 1.0
        return f.sum(f.gammaln(alpha)) - f.gammaln(f.sum(alpha))

    def mean_params(self, nat):
        alpha = nat["log"] + 1.0
        return {"log": sp.psi(alpha) - sp.psi(
            np.sum(alpha, axis=-1, keepdims=True))}

    def sample(self, nat, rng):
        g = _std_gamma(rng, nat["log"] + 1.0)
        return g / np.sum(g, axis=-1, keepdims=True)

    def to_standard(self, nat):
        return {"alpha": nat["log"] + 1.0}

    def from_standard(self, alpha):
        return {"log": np.asarray(alpha, dtype=np.float64) - 1.0}


class NormalFamily(FamilySpec):
    """Batched Normal with independent components, t(z) = (z, z^2)."""

    name = "Normal"
    support = SupportType.REAL
    signature = frozenset({"identity", "square"})
    requires = frozenset({"square"})

    def check_domain(self, nat):
        square = nat["square"]
        _require(square < 0,
                 "Normal: the square-statistic parameter must be < 0")
        _require(square > -np.inf,
                 "Normal: the square-statistic parameter must be finite")
        _require(np.isfinite(nat["identity"]),
                 "Normal: location parameter must be finite")

    def log_normalizer(self, nat):
        e1, e2 = nat["identity"], nat["square"]
        return (-0.25 * e1 * e1 / e2 - 0.5 * _fns(e2).log(-2.0 * e2)
                + 0.5 * LOG_2PI)

    def mean_params(self, nat):
        e1, e2 = nat["identity"], nat["square"]
        mean = -0.5 * e1 / e2
        var = -0.5 / e2
        return {"identity": mean, "square": mean * mean + var}

    def sample(self, nat, rng):
        std = self.to_standard(nat)
        return std["mean"] + std["sd"] * rng.standard_normal(
            np.asarray(std["mean"]).shape)

    def to_standard(self, nat):
        e1, e2 = nat["identity"], nat["square"]
        return {"mean": -0.5 * e1 / e2, "sd": np.sqrt(-0.5 / e2)}

    def from_standard(self, mean, sd):
        mean = np.asarray(mean, dtype=np.float64)
        sd = np.asarray(sd, dtype=np.float64)
        return {"identity": mean / (sd * sd), "square": -0.5 / (sd * sd)}


class MultivariateNormalFamily(FamilySpec):
    """Multivariate normal over rows, t(z) = (z, z z^T); leading axes of
    eta1 are batch axes. A model may also hold the elementwise square
    statistic z^2 = diag(z z^T): its parameter folds into the diagonal of
    the matrix parameter before any check or closed form, and the mean map
    reports its mean as the diagonal of E[z z^T].

    The closed forms on values share one Cholesky factor L of the
    precision Lambda = -2 sym(eta2), L L^T = Lambda, which
    :meth:`check_domain` returns: only the matrix parameter's symmetric
    part matters there. The graph-only A (:meth:`lognorm_graph`) inverts
    the matrix parameter as it is, so it relies on a symmetric one, as the
    conjugacy analysis extracts it."""

    name = "MultivariateNormal"
    support = SupportType.REAL
    signature = frozenset({"identity", "outer"})
    accepts = frozenset({"identity", "square", "outer"})
    requires = frozenset({"outer"})

    def batch_shape(self, nat):
        return nat["outer"].shape[:-2]

    def pad_nat(self, nat):
        """Fold the square parameter into the diagonal of the matrix
        parameter and zero-fill an omitted identity parameter."""
        e2 = nat["outer"]
        f = _fns(e2)
        if "square" in nat:
            e2 = e2 + f.diag(nat["square"])
        e1 = (nat["identity"] if "identity" in nat
              else f.zeros(e2, e2.shape[:-1]))
        return {"outer": e2, "identity": e1}

    def check_domain(self, nat):
        e2 = nat["outer"]
        lam = -(e2 + np.swapaxes(e2, -1, -2))
        try:
            chol = np.linalg.cholesky(lam)
        except np.linalg.LinAlgError as exc:
            raise NaturalDomainError(
                f"MultivariateNormal: -2*eta2 is not positive definite: {exc}")
        piv = np.einsum("...ii->...i", chol)
        _require(np.isfinite(piv) & np.isfinite(nat["identity"]),
                 "MultivariateNormal: parameters must be finite")
        scale = np.trace(lam, axis1=-2, axis2=-1) / max(lam.shape[-1], 1)
        _require(piv * piv > 1e-12 * np.maximum(scale, 1e-300)[..., None],
                 "MultivariateNormal: -2*eta2 is numerically singular")
        return (chol,)

    def log_normalizer(self, nat, chol=None):
        """|L^-1 eta1|^2 / 2 - sum log diag L + d log(2 pi) / 2."""
        chol = self.check_domain(nat)[0] if chol is None else chol
        w = np.linalg.solve(chol, nat["identity"][..., None])
        logdet = 2.0 * np.sum(np.log(np.einsum("...ii->...i", chol)), axis=-1)
        return (0.5 * np.sum(w * w, axis=(-2, -1)) - 0.5 * logdet
                + 0.5 * chol.shape[-1] * LOG_2PI)

    def mean_params(self, nat, chol=None):
        m, cov = self.to_standard(nat, chol).values()
        outer = cov + np.einsum("...i,...j->...ij", m, m)
        return {"identity": m, "outer": outer,
                "square": np.diagonal(outer, axis1=-2, axis2=-1).copy()}

    def sample(self, nat, rng, chol=None):
        """The mean L^-T L^-1 eta1 plus L^-T eps."""
        chol = self.check_domain(nat)[0] if chol is None else chol
        w = np.linalg.solve(chol, nat["identity"][..., None])
        return np.linalg.solve(np.swapaxes(chol, -1, -2),
                               w + rng.standard_normal(w.shape))[..., 0]

    def to_standard(self, nat, chol=None):
        chol = self.check_domain(nat)[0] if chol is None else chol
        inv = np.linalg.solve(chol, np.eye(chol.shape[-1]))  # L^-1
        cov = np.swapaxes(inv, -1, -2) @ inv
        return {"mean": np.einsum("...ij,...j->...i", cov, nat["identity"]),
                "cov": cov}

    def from_standard(self, mean, cov):
        mean = np.asarray(mean, dtype=np.float64)
        cov = np.asarray(cov, dtype=np.float64)
        prec = np.linalg.inv(cov)
        return {"identity": np.einsum("...ij,...j->...i", prec, mean),
                "outer": -0.5 * prec}

    def lognorm_graph(self, gb, etas):
        """A on handles. Scalars s common to every monomial of eta2 (a
        Gamma precision, say) stay outside the inverse and the
        log-determinant, inv(s R) = inv(R) / s and logdet(-2 s R) =
        d log(s) + logdet(-2 R) for s > 0, so the re-canonicalized marginal
        is recognized again. R = eta2 / s is left for the simplifier, whose
        exponent collection cancels s inside each monomial."""
        nat = self.pad_nat(etas)
        e1, e2 = nat["identity"], nat["outer"]
        batch = INDEX_ALPHABET[:len(e2.shape) - 2]
        d = e2.shape[-1]
        nbatch = int(np.prod(e2.shape[:-2]))
        scalars = _common_scalars(gb, e2)
        residual = e2
        for s in scalars:
            residual = residual * G.reciprocal(s)
        quad = -0.25 * G.einsum(f"{batch}i,{batch}ij,{batch}j->",
                                e1, G.inverse(residual), e1)
        ld = G.sum_all(G.logdet(-2.0 * residual))
        for s in scalars:
            quad = quad * G.reciprocal(s)
            ld = ld + float(d * nbatch) * G.log(s)
        return quad - 0.5 * ld + 0.5 * d * nbatch * LOG_2PI


def _common_scalars(gb, h):
    """The non-constant scalar operands that every monomial of the graph
    at ``h`` holds, with multiplicity, as handles of ``gb``. Eta graphs are
    built from canonical monomials and hold no log redex, so one simplifier
    sweep brings ``h`` to monomial form."""
    g = local_simplify(G.subgraph(gb.finish(h), h.nid))
    hashes = g.structural_hashes()
    common, first = None, {}
    for root in monomials(g):
        node = g.nodes[root]
        if not (isinstance(node, G.PrimNode) and node.op == "einsum"):
            return []
        held = [a for a in node.args if g.shapes[a] == ()
                and not isinstance(g.nodes[a], G.ConstNode)]
        for a in held:
            first.setdefault(hashes[a], a)
        counts = Counter(hashes[a] for a in held)
        common = counts if common is None else common & counts
    memo = {i: gb.input_handle(g.nodes[i].name) for i in g.inputs}
    return [G.rebuild(gb, g, first[k], memo)
            for k in sorted(common) for _ in range(common[k])]


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
        """The first family in registration order on ``support`` that
        accepts every discovered statistic (missing statistics take
        natural parameter zero)."""
        descriptors = frozenset(descriptors)
        if not descriptors:
            raise UnknownFamilyError(
                f"no sufficient statistics discovered on {support.value}")
        for fam in self.families.values():
            if fam.support == support and descriptors <= fam.accepts:
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
    """A concrete member: family plus natural parameters, put in the
    family's convention by :meth:`FamilySpec.pad_nat` and validated at
    construction. What the check returns, the multivariate normal's
    Cholesky factor, is kept in ``factor`` and handed to the closed forms:
    each distribution factors its matrix once."""

    family: FamilySpec
    nat: dict
    factor: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nat", self.family.pad_nat(self.nat))
        object.__setattr__(self, "factor",
                           self.family.check_domain(self.nat) or ())

    def log_normalizer(self):
        return self.family.log_normalizer(self.nat, *self.factor)

    def mean_params(self):
        return self.family.mean_params(self.nat, *self.factor)

    def sample(self, rng):
        return self.family.sample(self.nat, rng, *self.factor)

    def log_prob(self, value):
        return self.family.log_prob(self.nat, value, *self.factor)

    def standard(self):
        return self.family.to_standard(self.nat, *self.factor)

    def describe(self):
        return self.family.describe(self.nat, *self.factor)
