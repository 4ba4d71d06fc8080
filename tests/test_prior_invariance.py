"""Prior invariance of the derived multi-block Gibbs samplers, by the
successive-conditional simulator of Geweke (2004, "Getting it right:
joint distribution tests of posterior simulators", JASA 99).

Each of M independent chains draws (θ, y) from the prior and the
likelihood, with the hand-written samplers of ``oracles.PRIOR_ORACLES``,
then K times sweeps θ through the derived complete conditionals given y
and draws a fresh y given θ. Both steps leave p(θ, y) invariant, so the
final θ of every chain is still a prior draw. Each statistic's mean over
the chains is checked against its closed-form prior mean, at a fixed
multiple of its standard error; the seed is fixed. With the samplers
right, the largest error at this seed is 3.7 SE, among factor_analysis's
1,802 statistics; a normal_gamma whose ``log tau`` eta is 1 too large
reads 6.7 SE on ``tau``.

The conditionals run through ``block.distribution(env)``, the unbound eta
plans: a chain's data change at every step, and rebinding a state per
redraw would cost more than the sweep.
"""

import numpy as np
import pytest

from symconj.conjugacy import complete_conditional
from symconj.models import fixture

from oracles import PRIOR_ORACLES

CHAINS, STEPS, SEED = 600, 5, 1
MAX_SE = 5.0


def final_draws(name):
    """Per chain, the statistics of θ after STEPS successive-conditional
    steps, and the fixture's example arguments."""
    fx, oracle = fixture(name), PRIOR_ORACLES[name]
    g, h = fx.graph(), fx.example_args(0)
    blocks = [complete_conditional(g, a, s).block for a, s in fx.latents]
    rng = np.random.default_rng(SEED)
    draws = []
    for _ in range(CHAINS):
        theta = oracle.prior(rng, h)
        y = oracle.likelihood(rng, h, theta)
        for _ in range(STEPS):
            for b in blocks:
                theta[b.name] = b.distribution(
                    {**h, **y, **theta}).sample(rng)
            y = oracle.likelihood(rng, h, theta)
        draws.append(oracle.stats(h, theta))
    return draws, h


@pytest.mark.parametrize("name", sorted(PRIOR_ORACLES))
def test_derived_sweeps_leave_the_prior_invariant(name):
    draws, h = final_draws(name)
    for stat, want in PRIOR_ORACLES[name].means(h).items():
        x = np.array([d[stat] for d in draws])
        se = x.std(axis=0, ddof=1) / np.sqrt(CHAINS)
        err = np.abs(x.mean(axis=0) - want) / se
        assert np.max(err) < MAX_SE, (name, stat, float(np.max(err)))
