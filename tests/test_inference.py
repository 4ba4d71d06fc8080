import io
from dataclasses import replace

import numpy as np
import pytest

from symconj import graph as G
from symconj.conjugacy import marginalize, multilinear_repr
from symconj.errors import GraphError, NumericDomainError
from symconj.expfam import SupportType
from symconj.inference import (
    cavi_update, elbo, gibbs_sweep, init_meanfield, make_gibbs, run_cavi,
    run_gibbs,
)
from symconj.models import fixture, jj_xi_update

from oracles import batch_means_se

LOG2PI = np.log(2 * np.pi)

BB_DATA = dict(n_heads=60.0, n_draws=100.0, prior_a=0.5, prior_b=0.5)


def bb_setup(seed=0):
    fx = fixture("beta_bernoulli")
    g = fx.graph()
    state = make_gibbs(g, fx.latents, {"prob": 0.5}, BB_DATA, seed=seed)
    return g, state


class TestGibbs:
    def test_single_latent_sweep_is_exact_posterior_draw(self):
        g, state = bb_setup(seed=42)
        fac = state.factories["prob"]
        d = fac.from_env(BB_DATA)
        direct = d.sample(np.random.default_rng(42))
        state = gibbs_sweep(state)
        assert float(state.values["prob"]) == float(direct)

    def test_beta_bernoulli_posterior_mean(self):
        g, state = bb_setup()
        draws = []
        for _ in range(10 ** 4):
            state = gibbs_sweep(state)
            draws.append(float(state.values["prob"]))
        draws = np.array(draws)
        se = draws.std() / np.sqrt(len(draws))
        assert abs(draws.mean() - 60.5 / 101.0) < 3 * se

    def test_independent_latents_uncorrelated(self):
        def model(u, v, x):
            return (-0.5 * G.square(u) - 0.5 * G.square(v)
                    - 0.5 * G.square(x - 1.0))

        g = G.build(model, [("u", (), "REAL"), ("v", (), "REAL"), ("x", ())])
        state = make_gibbs(g, ((0, SupportType.REAL), (1, SupportType.REAL)),
                           {"u": 0.0, "v": 0.0}, {"x": 0.3}, seed=1)
        us, vs = [], []
        for _ in range(4000):
            state = gibbs_sweep(state)
            us.append(float(state.values["u"]))
            vs.append(float(state.values["v"]))
        us, vs = np.array(us), np.array(vs)
        corr = np.corrcoef(us, vs)[0, 1]
        assert abs(corr) < 3 / np.sqrt(len(us))

    def test_bivariate_gaussian_lag_one_autocovariance(self):
        rho = 0.5

        def model(z1, z2, rho_in):
            c = 1.0 / (1.0 - rho ** 2)
            quad = (G.square(z1) - 2.0 * rho_in * z1 * z2 + G.square(z2))
            return -0.5 * c * quad - LOG2PI - 0.5 * np.log(1 - rho ** 2)

        g = G.build(model, [("z1", (), "REAL"), ("z2", (), "REAL"),
                            ("rho_in", ())])
        state = make_gibbs(g, ((0, SupportType.REAL), (1, SupportType.REAL)),
                           {"z1": 0.0, "z2": 0.0}, {"rho_in": rho}, seed=3)
        fac = state.factories["z1"]
        d = fac.from_env({"z2": 1.0, "rho_in": rho})
        std = d.standard()
        assert abs(float(std["mean"]) - rho) < 1e-10
        assert abs(float(std["sd"]) - np.sqrt(1 - rho ** 2)) < 1e-10
        chain = []
        for _ in range(10 ** 4):
            state = gibbs_sweep(state)
            chain.append(float(state.values["z1"]))
        chain = np.array(chain)
        prods = chain[:-1] * chain[1:]
        se = batch_means_se(prods)
        assert abs(prods.mean() - rho ** 2) < 3 * se

    def test_run_gibbs_zero_iters(self):
        g, state = bb_setup()
        trace, out = run_gibbs(g, state, 0)
        assert trace == []
        assert out.values == state.values

    def test_run_gibbs_trace_sink_format(self):
        g, state = bb_setup()
        sink = io.StringIO()
        trace, _ = run_gibbs(g, state, 3, sink=sink)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 3
        for (it, val), line in zip(trace, lines):
            sit, sval = line.split("\t")
            assert int(sit) == it
            assert float(sval) == val

    def test_determinism(self):
        g, s1 = bb_setup(seed=9)
        _, s2 = bb_setup(seed=9)
        t1, _ = run_gibbs(g, s1, 10)
        t2, _ = run_gibbs(g, s2, 10)
        assert t1 == t2


def bb_repr():
    fx = fixture("beta_bernoulli")
    g = fx.graph()
    return multilinear_repr(g, argnums=(0,),
                            supports=(SupportType.UNIT_INTERVAL,)), g


class TestCavi:
    def test_single_latent_lands_on_exact_posterior(self):
        mrepr, g = bb_repr()
        state = init_meanfield(mrepr, BB_DATA)
        state = cavi_update(state, "prob")
        nat = state.nat["prob"]
        assert float(nat["log"]) == 59.5
        assert float(nat["log1p_neg"]) == 39.5

    def test_elbo_at_posterior_equals_log_marginal(self):
        mrepr, g = bb_repr()
        state = cavi_update(init_meanfield(mrepr, BB_DATA), "prob")
        marg = marginalize(g, 0, SupportType.UNIT_INTERVAL)
        want = float(G.evaluate(marg, BB_DATA))
        assert abs(elbo(state) - want) < 1e-8

    def test_elbo_with_omitted_statistic_equals_log_marginal(self):
        # Gamma block with no log statistic: its mean comes from the family
        g = G.build(lambda tau, x: -(tau * x),
                    [("tau", (), "NONNEGATIVE"), ("x", ())])
        mrepr = multilinear_repr(g, argnums=(0,),
                                 supports=(SupportType.NONNEGATIVE,))
        assert mrepr.block("tau").descriptors == ("identity",)
        state = cavi_update(init_meanfield(mrepr, {"x": 2.5}), "tau")
        assert abs(elbo(state) + np.log(2.5)) < 1e-12

    def test_no_latents_elbo_is_log_joint(self):
        def model(x):
            return -0.5 * G.square(x)

        g = G.build(model, [("x", ())])
        mrepr = multilinear_repr(g, argnums=(), supports=())
        state = init_meanfield(mrepr, {"x": 0.7})
        assert abs(elbo(state) - float(G.evaluate(g, {"x": 0.7}))) < 1e-12

    def test_independent_latents_converge_in_one_sweep(self):
        def model(u, v, x):
            return (-0.5 * G.square(u - x) - 0.5 * G.square(v + x)
                    - LOG2PI)

        g = G.build(model, [("u", (), "REAL"), ("v", (), "REAL"), ("x", ())])
        mrepr = multilinear_repr(
            g, argnums=(0, 1), supports=(SupportType.REAL, SupportType.REAL))
        trace, state = run_cavi(mrepr, {"x": 0.4}, max_iters=10)
        # converged after the first sweep: second sweep changes nothing
        assert len(trace) == 2
        assert abs(trace[0][1] - trace[1][1]) < 1e-12

    def test_gmm_updates_monotone(self):
        fx = fixture("gmm")
        g = fx.graph()
        values = fx.example_args(0)
        latents = [g.input_names[a] for a, _ in fx.latents]
        data = {k: v for k, v in values.items() if k not in latents}
        mrepr = multilinear_repr(g, argnums=[a for a, _ in fx.latents],
                                 supports=[s for _, s in fx.latents])
        state = init_meanfield(mrepr, data,
                               init_values={k: values[k] for k in latents})
        prev = elbo(state)
        for _ in range(10):
            for blk in mrepr.blocks:
                state = cavi_update(state, blk.name)
                cur = elbo(state)
                assert cur >= prev - 1e-9 * max(1.0, abs(prev))
                prev = cur

    def test_run_cavi_zero_iters(self):
        mrepr, g = bb_repr()
        trace, state = run_cavi(mrepr, BB_DATA, max_iters=0)
        assert trace == []

    def test_run_cavi_trace_monotone_and_sink(self):
        fx = fixture("factor_analysis")
        g = fx.graph()
        values = fx.example_args(0)
        latents = [g.input_names[a] for a, _ in fx.latents]
        data = {k: v for k, v in values.items() if k not in latents}
        mrepr = multilinear_repr(g, argnums=[a for a, _ in fx.latents],
                                 supports=[s for _, s in fx.latents])
        sink = io.StringIO()
        trace, state = run_cavi(
            mrepr, data, init_values={k: values[k] for k in latents},
            max_iters=15, sink=sink)
        vals = np.array([v for _, v in trace])
        assert np.all(np.diff(vals) >= -1e-9 * np.maximum(1, np.abs(vals[:-1])))
        assert len(sink.getvalue().splitlines()) == len(trace)

    def test_gibbs_trace_stabilizes_on_gmm(self):
        fx = fixture("gmm")
        g = fx.graph()
        values = fx.example_args(0)
        latents = [g.input_names[a] for a, _ in fx.latents]
        data = {k: v for k, v in values.items() if k not in latents}
        state = make_gibbs(g, fx.latents,
                           {k: values[k] for k in latents}, data, seed=0)
        trace, _ = run_gibbs(g, state, 400)
        vals = np.array([v for _, v in trace])
        half = vals[len(vals) // 2:]
        quarter = half[len(half) // 2:]
        se = batch_means_se(half, n_batches=20)
        assert abs(half.mean() - quarter.mean()) < 3 * se


def split(fx):
    """A fixture's graph, its data and its latents' example values."""
    g = fx.graph()
    values = fx.example_args(0)
    latents = [g.input_names[a] for a, _ in fx.latents]
    data = {k: v for k, v in values.items() if k not in latents}
    return g, data, {k: values[k] for k in latents}


class TestBoundData:
    def test_data_only_steps_run_once_when_the_chain_is_made(
            self, monkeypatch):
        steps_run = []
        run = G.EvalPlan.run

        def counting_run(plan, env):
            steps_run.append(len(plan.steps))  # one kernel call per step
            return run(plan, env)

        fx = fixture("logistic_jj")
        g, data, init = split(fx)
        monkeypatch.setattr(G.EvalPlan, "run", counting_run)
        state = make_gibbs(g, fx.latents, init, data)
        assert len(state.factories["beta"].block.eta_plan.steps) == 17
        assert state.plans.etas["beta"].steps == []
        joint_data_only = len(g.plan().steps) - len(state.plans.joint.steps)
        assert sum(steps_run) == 17 + joint_data_only
        steps_run.clear()
        for _ in range(5):
            state = gibbs_sweep(state)
        assert steps_run == [0] * 5

    def test_replacing_data_rebinds_the_chain(self):
        fx = fixture("beta_bernoulli")
        g = fx.graph()
        new = dict(BB_DATA, n_heads=20.0)

        def chain(data):
            return make_gibbs(g, fx.latents, {"prob": 0.5}, data, seed=4)

        replaced, replaced_out = run_gibbs(g, replace(chain(BB_DATA),
                                                      data=new), 5)
        fresh, fresh_out = run_gibbs(g, chain(new), 5)
        stale, _ = run_gibbs(g, chain(BB_DATA), 5)
        assert replaced == fresh != stale
        assert np.array_equal(replaced_out.values["prob"],
                              fresh_out.values["prob"])

    def test_replacing_data_rebinds_the_meanfield_state(self):
        fx = fixture("logistic_jj")
        g, data, init = split(fx)
        mrepr = multilinear_repr(g, argnums=(0,),
                                 supports=(SupportType.REAL,))
        state = init_meanfield(mrepr, data, init_values=init)
        m = state.means["beta"]
        new = dict(data, xi=jj_xi_update(m["identity"], m["outer"], data["x"]))
        replaced = replace(state, data=new)
        fresh = replace(init_meanfield(mrepr, new, init_values=init),
                        nat=state.nat, means=state.means)
        assert elbo(replaced) == elbo(fresh) != elbo(state)
        replaced, fresh = (cavi_update(s, "beta") for s in (replaced, fresh))
        for d in ("identity", "outer"):
            assert np.array_equal(replaced.nat["beta"][d],
                                  fresh.nat["beta"][d])
            assert np.array_equal(replaced.means["beta"][d],
                                  fresh.means["beta"][d])
        assert elbo(replaced) == elbo(fresh)

    def test_wrong_data_shape_raises_when_a_state_is_made(self):
        fx = fixture("logistic_jj")
        g, data, init = split(fx)
        bad = dict(data, x=data["x"][:-1])
        with pytest.raises(GraphError, match="input 'x' expects shape"):
            make_gibbs(g, fx.latents, init, bad)
        mrepr = multilinear_repr(g, argnums=(0,),
                                 supports=(SupportType.REAL,))
        with pytest.raises(GraphError, match="input 'x' expects shape"):
            init_meanfield(mrepr, bad, init_values=init)

    def test_data_outside_a_step_domain_raises_when_a_state_is_made(self):
        g = G.build(lambda z, a: -0.5 * G.square(z) + G.log(a) * z,
                    [("z", (), "REAL"), ("a", ())])
        latents = ((0, SupportType.REAL),)
        mrepr = multilinear_repr(g, argnums=(0,),
                                 supports=(SupportType.REAL,))
        make_gibbs(g, latents, {"z": 0.0}, {"a": 2.0})
        init_meanfield(mrepr, {"a": 2.0})
        with pytest.raises(NumericDomainError, match="^log: domain violation"):
            make_gibbs(g, latents, {"z": 0.0}, {"a": -2.0})
        with pytest.raises(NumericDomainError, match="^log: domain violation"):
            init_meanfield(mrepr, {"a": -2.0})

    def test_run_gibbs_values_the_log_joint_it_is_given(self):
        def model(u, v, x):
            return -0.5 * G.square(u - x) - 0.5 * G.square(v)

        inputs = [("u", (), "REAL"), ("v", (), "REAL"), ("x", ())]
        g = G.build(model, inputs)
        state = make_gibbs(g, ((0, SupportType.REAL), (1, SupportType.REAL)),
                           {"u": 0.0, "v": 0.0}, {"x": 0.3}, seed=2)
        # the bound graph, an equal graph object, and another function
        for other in (g, G.build(model, inputs),
                      G.build(lambda u, v, x: u * v * x, inputs)):
            trace, state = run_gibbs(other, state, 1)
            env = {**state.data, **state.values}
            assert trace[0][1] == float(G.evaluate(other, env))
