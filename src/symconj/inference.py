"""Generic inference algorithms driven by the conjugacy transforms.

Block Gibbs sampling cycles through the compiled complete conditionals in
declaration order, resampling one latent given the current values of the
rest. Block coordinate-ascent mean-field inference works on a
:class:`MultilinearRepr`: one coordinate update sets a factor's natural
parameters to the gradient of the energy at the mean parameters of the
other factors, which can only increase the evidence lower bound.

Both algorithms are functional (state in, state out) and deterministic
given a seed. Trace sinks receive ``iter<TAB>value`` lines.

A state reads its ``data`` once, when it is made. The blocks' eta graphs
and the mean-field energy are swept again with the data as constants
(:func:`canonicalize.bind`), so a sweep or an update runs only the steps
that read a latent, one contraction per distinct latent term. The Gibbs
log joint, the user's graph, only has its data folded: a trace value is
:func:`graph.evaluate`'s to the bit unless an einsum reads two data
operands beside a latent. Replacing ``data`` with a new mapping
(``dataclasses.replace(state, data=...)``) binds the plans again; arrays
changed in place after binding are not seen. Each block's distribution is
checked, and a multivariate normal's precision factored, once per draw or
update; a mean-field state keeps the distributions, so :func:`elbo` reads
each log normalizer from the factor the update made.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import graph as G
from .canonicalize import bind
from .conjugacy import MultilinearRepr, complete_conditional
from .errors import NaturalDomainError

__all__ = [
    "GibbsState", "MeanFieldState", "make_gibbs", "gibbs_sweep", "run_gibbs",
    "init_meanfield", "cavi_update", "elbo", "run_cavi",
]


class _Plans(NamedTuple):
    """Plans bound to one ``data`` mapping: each latent block's eta plan,
    by name, and the plan of the log joint or energy (``None`` if none)."""
    data: dict
    etas: dict
    joint: G.EvalPlan | None

    @classmethod
    def bind(cls, data, blocks, graph, fold_only=False):
        """Bind to ``data`` with the blocks' latents left out: a latent is
        always read from the state's current values."""
        latents = {b.name for b in blocks}
        env = {k: v for k, v in data.items() if k not in latents}
        return cls(data, {b.name: bind([s.eta_graph for s in b.stats], env)
                          for b in blocks},
                   None if graph is None else bind([graph], env, fold_only))


# ---------------------------------------------------------------------------
# Gibbs


@dataclass(frozen=True)
class GibbsState:
    """A chain: current latent values, one compiled conditional per latent,
    and their plans bound to ``data``, with the plan of ``log_joint``."""
    values: dict
    factories: dict
    data: dict
    order: tuple
    rng: np.random.Generator
    iteration: int = 0
    log_joint: G.TermGraph | None = None
    plans: _Plans | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.plans is None or self.plans.data is not self.data:
            object.__setattr__(self, "plans", _Plans.bind(
                self.data, [f.block for f in self.factories.values()],
                self.log_joint, fold_only=True))


def make_gibbs(log_joint, latents, init, data, seed=0) -> GibbsState:
    """Compile one ConditionalFactory per latent and assemble the chain
    state. ``latents`` is a sequence of (argnum, support)."""
    names = log_joint.input_names
    factories = {}
    order = []
    for argnum, support in latents:
        var = names[argnum]
        factories[var] = complete_conditional(log_joint, argnum, support)
        order.append(var)
    values = {var: np.asarray(init[var], dtype=np.float64) for var in order}
    return GibbsState(values=values, factories=factories, data=dict(data),
                      order=tuple(order), rng=np.random.default_rng(seed),
                      log_joint=log_joint)


def gibbs_sweep(state: GibbsState) -> GibbsState:
    """Resample every latent from its complete conditional, in declared
    order, conditioning on the freshest values."""
    values = dict(state.values)
    for var in state.order:
        env = {other: v for other, v in values.items() if other != var}
        dist = state.factories[var].block.distribution(
            env, state.plans.etas[var])
        values[var] = dist.sample(state.rng)
    return replace(state, values=values, iteration=state.iteration + 1)


def run_gibbs(log_joint, state: GibbsState, max_iters, sink=None):
    """Iterate sweeps, recording the value of ``log_joint`` at the current
    sample each iteration: by the state's bound plan when it is the graph
    the state was made from, else by :func:`graph.evaluate`. Returns
    (trace, final state)."""
    trace = []
    for it in range(max_iters):
        state = gibbs_sweep(state)
        if log_joint is state.log_joint:
            val = float(state.plans.joint.run(state.values)[0])
        else:
            val = float(G.evaluate(log_joint, {**state.data, **state.values}))
        trace.append((state.iteration, val))
        if sink is not None:
            sink.write(f"{state.iteration}\t{val!r}\n")
    return trace, state


# ---------------------------------------------------------------------------
# block coordinate-ascent mean field


@dataclass(frozen=True)
class MeanFieldState:
    """Each block's :class:`Distribution` and mean parameters, with the
    blocks' eta plans and the energy's plan bound to ``data``."""
    mrepr: MultilinearRepr
    data: dict
    dists: dict
    means: dict
    iteration: int = 0
    plans: _Plans | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.plans is None or self.plans.data is not self.data:
            object.__setattr__(self, "plans", _Plans.bind(
                self.data, self.mrepr.blocks, self.mrepr.neg_energy))

    @property
    def nat(self):
        """Each block's natural parameters."""
        return {v: d.nat for v, d in self.dists.items()}


def init_meanfield(mrepr: MultilinearRepr, data, init_values=None
                   ) -> MeanFieldState:
    """Natural parameters from one gradient evaluation at the statistics
    of user-supplied initial points; with no initial points, the other
    blocks' statistics are zeroed, which leaves exactly each variable's
    prior terms."""
    seed_stats = {}
    for blk in mrepr.blocks:
        if init_values is not None and blk.name in init_values:
            seed_stats[blk.name] = blk.statistic_values(init_values[blk.name])
        else:
            seed_stats[blk.name] = {
                s.descriptor: np.zeros(s.shape) for s in blk.stats}
    data = dict(data)
    plans = _Plans.bind(data, mrepr.blocks, mrepr.neg_energy)
    dists, means = {}, {}
    for blk in mrepr.blocks:
        others = {v: t for v, t in seed_stats.items() if v != blk.name}
        dists[blk.name] = dist = blk.distribution(
            mrepr.energy_env(others, {}), plans.etas[blk.name])
        means[blk.name] = dist.mean_params()
    return MeanFieldState(mrepr=mrepr, data=data, dists=dists, means=means,
                          plans=plans)


def cavi_update(state: MeanFieldState, var: str) -> MeanFieldState:
    """One block coordinate update: eta_var <- grad of the energy at the
    mean parameters of the other blocks; means refreshed from the mean
    map."""
    blk = state.mrepr.block(var)
    others = {v: m for v, m in state.means.items() if v != var}
    try:
        dist = blk.distribution(state.mrepr.energy_env(others, {}),
                                state.plans.etas[var])
    except NaturalDomainError as exc:
        raise NaturalDomainError(
            f"update for {var!r} left the natural domain: {exc}") from exc
    return replace(state, dists={**state.dists, var: dist},
                   means={**state.means, var: dist.mean_params()},
                   iteration=state.iteration + 1)


def elbo(state: MeanFieldState) -> float:
    """Evidence lower bound g(mu) + sum_m [A_m(eta_m) - <eta_m, mu_m>]."""
    env = state.mrepr.energy_env(state.means, {})
    total = float(state.plans.joint.run(env)[0])
    for blk in state.mrepr.blocks:
        dist = state.dists[blk.name]
        total += float(np.sum(dist.log_normalizer()))
        dot = blk.family.dot_nat_stats(dist.nat, state.means[blk.name])
        total -= float(np.sum(dot))
    return total


def run_cavi(mrepr: MultilinearRepr, data, init_values=None, max_iters=100,
             tol=1e-8, sink=None):
    """Sweep coordinate updates in block order until the bound moves less
    than ``tol * max(1, |elbo|)`` or the iteration budget runs out.
    Returns (trace, final state)."""
    state = init_meanfield(mrepr, data, init_values)
    trace = []
    prev = None
    for it in range(1, max_iters + 1):
        for blk in mrepr.blocks:
            state = cavi_update(state, blk.name)
        val = elbo(state)
        trace.append((it, val))
        if sink is not None:
            sink.write(f"{it}\t{val!r}\n")
        if prev is not None and abs(val - prev) < tol * max(1.0, abs(val)):
            break
        prev = val
    return trace, state
