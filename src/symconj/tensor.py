"""Dense float64 tensor kernels.

Everything here is a pure function over numpy float64 arrays: einsum
contraction, the elementwise special functions used by log densities,
one-hot encoding, stable log-sum-exp, and the matrix kernels backing
Gaussian families (inverse, log-determinant).

Kernels with a restricted domain validate their inputs and raise
:class:`NumericDomainError` instead of silently propagating NaNs.
Broadcasting is never implicit in einsum: shared indices must have equal
extents across operands.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _special

from .errors import (
    ContractionError,
    EncodingError,
    FactorizationError,
    NumericDomainError,
)

INDEX_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def as_tensor(value) -> np.ndarray:
    """Coerce to a float64 ndarray (scalars become rank-0 tensors)."""
    return np.asarray(value, dtype=np.float64)


@dataclass(frozen=True)
class EinsumSpec:
    """Parsed contraction formula of the form ``"sub1,sub2,...->out"``.

    Indices are single lowercase letters a-z. Repeated indices within one
    operand denote diagonal extraction; indices absent from the output are
    summed over. Every output index must appear in some operand.
    """

    formula: str
    operand_subscripts: tuple[str, ...] = field(init=False)
    output: str = field(init=False)

    def __post_init__(self):
        if self.formula.count("->") != 1:
            raise ContractionError(
                f"formula {self.formula!r} must contain exactly one '->'")
        lhs, out = self.formula.split("->")
        operands = tuple(lhs.split(","))
        letters = set("".join(operands) + out)
        bad = sorted(letters - set(INDEX_ALPHABET))
        if bad:
            raise ContractionError(
                f"formula {self.formula!r}: indices must be lowercase a-z, "
                f"got {bad}")
        if len(letters) > len(INDEX_ALPHABET):
            raise ContractionError(
                f"formula {self.formula!r} uses more than 26 distinct indices")
        if len(set(out)) != len(out):
            raise ContractionError(
                f"formula {self.formula!r}: output indices must be distinct")
        in_letters = set("".join(operands))
        for idx in out:
            if idx not in in_letters:
                raise ContractionError(
                    f"formula {self.formula!r}: output index '{idx}' appears "
                    f"in no operand")
        object.__setattr__(self, "operand_subscripts", operands)
        object.__setattr__(self, "output", out)

    @property
    def operand_count(self) -> int:
        return len(self.operand_subscripts)


@functools.lru_cache(maxsize=4096)
def einsum_output_shape(spec: EinsumSpec, operand_shapes) -> tuple[int, ...]:
    """Output shape of a contraction, validating ranks and extents."""
    if len(operand_shapes) != spec.operand_count:
        raise ContractionError(
            f"formula {spec.formula!r} expects {spec.operand_count} operands, "
            f"got {len(operand_shapes)}")
    extents: dict[str, int] = {}
    for pos, (subs, shape) in enumerate(
            zip(spec.operand_subscripts, operand_shapes)):
        if len(shape) != len(subs):
            raise ContractionError(
                f"operand {pos} has rank {len(shape)} but subscript "
                f"{subs!r} expects rank {len(subs)}")
        for idx, extent in zip(subs, shape):
            known = extents.setdefault(idx, extent)
            if known != extent:
                raise ContractionError(
                    f"index '{idx}' has conflicting extents {known} and "
                    f"{extent}")
    return tuple(extents[i] for i in spec.output)


@functools.lru_cache(maxsize=4096)
def einsum_kernel(spec: EinsumSpec, operand_shapes) -> Callable:
    """The contraction of operands of the given shapes, as a function of
    the operands; ranks and extents are validated here, once.

    Multi-operand contractions run pairwise, left to right, so the cost
    stays polynomial in the operand sizes: each step sums out every index
    that no later operand or the output needs, and goes to ``np.einsum``
    without path optimization. ``np.einsum_path`` is not used: on the
    small operands of the derived updates, numpy's path planning and
    execution cost more than the contraction itself.
    """
    einsum_output_shape(spec, operand_shapes)
    subs, out = spec.operand_subscripts, spec.output
    if len(subs) <= 2:
        return functools.partial(np.einsum, spec.formula, optimize=False)
    steps = []
    acc_sub = subs[0]
    for k in range(1, len(subs)):
        later = set(out).union(*subs[k + 1:])
        merged = dict.fromkeys(acc_sub + subs[k])
        target = (out if k == len(subs) - 1
                  else "".join(ch for ch in merged if ch in later))
        steps.append(f"{acc_sub},{subs[k]}->{target}")
        acc_sub = target

    def pairwise(acc, *rest):
        for step, op in zip(steps, rest):
            acc = np.einsum(step, acc, op, optimize=False)
        return acc
    return pairwise


def einsum(spec, operands) -> np.ndarray:
    """Evaluate a contraction per the nested-loop sum-of-products
    definition.

    Operands are coerced to float64 on every call; ranks and extents are
    validated by :func:`einsum_kernel`, once per formula and operand
    shapes. A graph's evaluation plan takes its einsum kernels from the
    graph's static shapes when it is built.
    """
    if isinstance(spec, str):
        spec = EinsumSpec(spec)
    ops = [as_tensor(x) for x in operands]
    return einsum_kernel(spec, tuple([op.shape for op in ops]))(*ops)


def _check_domain(name, x, mask):
    bad = np.flatnonzero(~np.asarray(mask).ravel())
    if bad.size:
        i = int(bad[0])
        raise NumericDomainError(
            f"{name}: domain violation at flat index {i} "
            f"(value {x.ravel()[i]!r})")


def _logistic(x):
    return _special.expit(x)


def _quiet(kernel):
    """The kernel with numpy's overflow warning silenced: the overflow
    gives inf, which the finiteness check then raises on."""
    def run(x):
        with np.errstate(over="ignore"):
            return kernel(x)
    return run


# name -> (kernel, domain predicate or None); only the kernels that numpy
# warns on when they overflow are quieted
UNARY_FNS = {
    "log": (np.log, lambda x: x > 0),
    "log1p": (np.log1p, lambda x: x > -1),
    "exp": (_quiet(np.exp), None),
    "sqrt": (np.sqrt, lambda x: x >= 0),
    "square": (_quiet(np.square), None),
    "reciprocal": (_quiet(lambda x: 1.0 / x), lambda x: x != 0),
    "logistic": (_logistic, None),
    "log_gamma": (_special.gammaln, lambda x: x > 0),
    "digamma": (_special.psi, lambda x: x > 0),
    "negate": (np.negative, None),
}


def all_true(mask) -> bool:
    """Whether every element of a boolean mask holds; a rank-0 mask, such
    as a numpy scalar, is read without a reduction."""
    return bool(mask) if mask.ndim == 0 else bool(mask.all())


@functools.lru_cache(maxsize=None)
def unary_kernel(fn: str) -> Callable:
    """The named elementwise function with its domain check before and its
    finiteness check after, as a function of one float64 tensor."""
    if fn not in UNARY_FNS:
        raise NumericDomainError(f"unknown unary function {fn!r}")
    kernel, domain = UNARY_FNS[fn]

    def checked(x):
        if domain is not None:
            ok = domain(x)
            if not all_true(ok):
                _check_domain(fn, x, ok)
        out = kernel(x)
        finite = np.isfinite(out)
        if not all_true(finite):
            _check_domain(fn, x, finite)
        return out
    return checked


def map_unary(fn: str, x) -> np.ndarray:
    """Apply a named elementwise function, checking its domain first."""
    return unary_kernel(fn)(as_tensor(x))


def one_hot(indices, depth: int) -> np.ndarray:
    """Encode integer indices as unit basis vectors along a new last axis."""
    idx = np.asarray(indices)
    if depth <= 0:
        raise EncodingError(f"depth must be positive, got {depth}")
    rounded = np.round(idx)
    if not np.all(rounded == idx):
        raise EncodingError("one_hot indices must be integral")
    rounded = rounded.astype(np.int64)
    if rounded.size and (rounded.min() < 0 or rounded.max() >= depth):
        raise EncodingError(
            f"one_hot index out of range [0, {depth}): "
            f"min={rounded.min() if rounded.size else None}, "
            f"max={rounded.max() if rounded.size else None}")
    return (rounded[..., None] == np.arange(depth)).astype(np.float64)


def logsumexp(x, axis: int) -> np.ndarray:
    """Numerically stable log-sum-exp along one axis (max-shifted)."""
    x = as_tensor(x)
    if not -x.ndim <= axis < x.ndim:
        raise NumericDomainError(
            f"logsumexp axis {axis} out of bounds for rank {x.ndim}")
    m = np.max(x, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(x - m), axis=axis)) + np.squeeze(m, axis=axis)
    return out


def inverse(a) -> np.ndarray:
    """Matrix inverse over the trailing two axes."""
    a = as_tensor(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise FactorizationError(f"inverse needs square trailing axes, got {a.shape}")
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"singular matrix: {exc}") from exc


def logdet(a) -> np.ndarray:
    """log |det A| over the trailing two axes; A must have positive determinant."""
    a = as_tensor(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise FactorizationError(f"logdet needs square trailing axes, got {a.shape}")
    sign, ld = np.linalg.slogdet(a)
    if not np.all(sign > 0):
        raise NumericDomainError("logdet: determinant is not positive")
    return ld
