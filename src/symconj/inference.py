"""Generic inference algorithms driven by the conjugacy transforms.

Block Gibbs sampling cycles through the compiled complete conditionals in
declaration order, resampling one latent given the current values of the
rest. Block coordinate-ascent mean-field inference works on a
:class:`MultilinearRepr`: one coordinate update sets a factor's natural
parameters to the gradient of the energy at the mean parameters of the
other factors, which can only increase the evidence lower bound.

Both algorithms are functional (state in, state out) and deterministic
given a seed. Trace sinks receive ``iter<TAB>value`` lines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import graph as G
from .conjugacy import MultilinearRepr, complete_conditional
from .errors import NaturalDomainError

__all__ = [
    "GibbsState", "MeanFieldState", "make_gibbs", "gibbs_sweep", "run_gibbs",
    "init_meanfield", "cavi_update", "elbo", "run_cavi",
]


# ---------------------------------------------------------------------------
# Gibbs


@dataclass(frozen=True)
class GibbsState:
    values: dict
    factories: dict
    data: dict
    order: tuple
    rng: np.random.Generator
    iteration: int = 0


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
                      order=tuple(order), rng=np.random.default_rng(seed))


def gibbs_sweep(state: GibbsState) -> GibbsState:
    """Resample every latent from its complete conditional, in declared
    order, conditioning on the freshest values."""
    values = dict(state.values)
    for var in state.order:
        env = dict(state.data)
        for other, v in values.items():
            if other != var:
                env[other] = v
        dist = state.factories[var].from_env(env)
        values[var] = dist.sample(state.rng)
    return replace(state, values=values, iteration=state.iteration + 1)


def run_gibbs(log_joint, state: GibbsState, max_iters, sink=None):
    """Iterate sweeps, recording the log joint at the current sample each
    iteration. Returns (trace, final state)."""
    trace = []
    for it in range(max_iters):
        state = gibbs_sweep(state)
        env = dict(state.data)
        env.update(state.values)
        val = float(G.evaluate(log_joint, env))
        trace.append((state.iteration, val))
        if sink is not None:
            sink.write(f"{state.iteration}\t{val!r}\n")
    return trace, state


# ---------------------------------------------------------------------------
# block coordinate-ascent mean field


@dataclass(frozen=True)
class MeanFieldState:
    mrepr: MultilinearRepr
    data: dict
    nat: dict
    means: dict
    iteration: int = 0


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
    nat, means = {}, {}
    for blk in mrepr.blocks:
        others = {v: t for v, t in seed_stats.items() if v != blk.name}
        dist = blk.distribution(mrepr.energy_env(others, data))
        nat[blk.name] = dist.nat
        means[blk.name] = dist.mean_params()
    return MeanFieldState(mrepr=mrepr, data=dict(data), nat=nat, means=means)


def cavi_update(state: MeanFieldState, var: str) -> MeanFieldState:
    """One block coordinate update: eta_var <- grad of the energy at the
    mean parameters of the other blocks; means refreshed from the mean
    map."""
    blk = state.mrepr.block(var)
    others = {v: m for v, m in state.means.items() if v != var}
    try:
        dist = blk.distribution(state.mrepr.energy_env(others, state.data))
    except NaturalDomainError as exc:
        raise NaturalDomainError(
            f"update for {var!r} left the natural domain: {exc}") from exc
    return replace(state, nat={**state.nat, var: dist.nat},
                   means={**state.means, var: dist.mean_params()},
                   iteration=state.iteration + 1)


def elbo(state: MeanFieldState) -> float:
    """Evidence lower bound g(mu) + sum_m [A_m(eta_m) - <eta_m, mu_m>]."""
    env = state.mrepr.energy_env(state.means, state.data)
    total = float(G.evaluate(state.mrepr.neg_energy, env))
    for blk in state.mrepr.blocks:
        nat = state.nat[blk.name]
        a = blk.family.log_normalizer(nat)
        total += float(np.sum(a))
        dot = blk.family.dot_nat_stats(nat, state.means[blk.name])
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
