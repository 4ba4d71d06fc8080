"""Command-line surface.

Subcommands:

* ``canonicalize`` — canonicalize a bundled fixture or a graph text file
  and print the text/DOT serialization (``--stats`` adds node counts and
  the log-rule firing histogram);
* ``conditional`` — derive and print the complete conditional of one
  variable at concrete argument values;
* ``infer`` — run Gibbs or block mean-field inference on a fixture,
  writing an ``iter<TAB>value`` trace file and optionally an SVG line
  chart;
* ``check`` — run the built-in property suites.

Exit codes: 0 success, 1 check failure, 2 usage or parse error,
3 rewrite non-termination. All randomness flows from ``--seed``
(default 0).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

import numpy as np

from . import graph as G
from .canonicalize import canonicalize, is_canonical
from .conjugacy import _as_support, complete_conditional, multilinear_repr
from .errors import (
    ConjugacyError, GraphError, NonTerminationError, SymconjError,
)
from .expfam import BUILTIN, SupportType
from .inference import make_gibbs, run_cavi, run_gibbs
from .models import fixture, fixtures

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NONTERMINATION = 3


def _load_graph(spec_str):
    names = [f.name for f in fixtures()]
    if spec_str in names:
        return fixture(spec_str).graph()
    try:
        with open(spec_str, encoding="utf-8") as fh:
            return G.parse(fh.read())
    except OSError as exc:
        raise GraphError(
            f"{spec_str!r} is neither a fixture ({', '.join(names)}) nor a "
            f"readable file: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise GraphError(f"{spec_str!r} is not UTF-8 text: {exc.reason} at "
                         f"byte {exc.start}") from None


def _fixture(name):
    try:
        return fixture(name)
    except KeyError as exc:  # models.fixture's lookup error
        raise GraphError(exc.args[0]) from None


def read_argfile(path):
    """Argument file: blocks of a `name d0 d1 ...` shape header line
    followed by whitespace-separated numbers."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in map(str.strip, fh)
                     if ln and not ln.startswith("#")]
    except OSError as exc:
        raise GraphError(f"argfile {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise GraphError(f"argfile {path}: not UTF-8 text: {exc.reason} at "
                         f"byte {exc.start}") from None
    values, name = {}, None
    for line in lines:
        try:
            if name is None:
                name, *dims = line.split()
                if name in values:
                    raise GraphError(f"argfile {path}: {name} given twice")
                shape, buf = tuple(map(int, dims)), []
            else:
                buf += map(float, line.split())
        except ValueError:
            raise GraphError(f"argfile {path}: bad line {line!r}") from None
        if len(buf) > np.prod(shape):
            raise GraphError(f"argfile {path}: too many values for {name}")
        if len(buf) == np.prod(shape):
            values[name], name = np.array(buf).reshape(shape), None
    if name is not None:
        raise GraphError(f"argfile {path}: truncated block for {name}")
    return values


def write_svg_trace(path, trace, title):
    if not trace:
        with open(path, "w") as fh:
            fh.write('<svg xmlns="http://www.w3.org/2000/svg"/>\n')
        return
    xs = [t[0] for t in trace]
    ys = [t[1] for t in trace]
    w, h, pad = 640, 360, 40
    ymin, ymax = min(ys), max(ys)
    yspan = (ymax - ymin) or 1.0
    xspan = (max(xs) - min(xs)) or 1

    def px(x):
        return pad + (x - min(xs)) / xspan * (w - 2 * pad)

    def py(y):
        return h - pad - (y - ymin) / yspan * (h - 2 * pad)

    points = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
    with open(path, "w") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">\n'
            f'  <rect width="{w}" height="{h}" fill="white"/>\n'
            f'  <text x="{w/2:.0f}" y="20" text-anchor="middle" '
            f'font-family="monospace">{title}</text>\n'
            f'  <polyline fill="none" stroke="steelblue" stroke-width="1.5" '
            f'points="{points}"/>\n'
            f'  <text x="{pad}" y="{h-8}" font-family="monospace" '
            f'font-size="10">{min(xs)}..{max(xs)} iter, '
            f'value {ymin:.6g}..{ymax:.6g}</text>\n'
            f'</svg>\n')


# ---------------------------------------------------------------------------
# subcommands


def cmd_canonicalize(args):
    g = _load_graph(args.model)
    firing_log = []
    cf = canonicalize(g, max_rules=args.max_rules, firing_log=firing_log)
    out = sys.stdout if args.output is None else open(args.output, "w")
    try:
        out.write(G.dump(cf.graph, "dot" if args.dot else "text"))
        if args.stats:
            hist = Counter(firing_log)
            out.write(f"# nodes_before={len(g)} nodes_after={len(cf.graph)}\n")
            out.write(f"# monomials={len(cf.monomials)} "
                      f"is_canonical={is_canonical(cf.graph)}\n")
            for rule, n in sorted(hist.items()):
                out.write(f"# rule {rule} fired {n}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def _resolve_var(g, var):
    names = g.input_names
    if var in names:
        return names.index(var)
    try:
        idx = int(var)
    except ValueError:
        raise GraphError(f"unknown variable {var!r}; inputs are {names}")
    if not 0 <= idx < len(names):
        raise GraphError(f"argnum {idx} out of range; inputs are {names}")
    return idx


def cmd_conditional(args):
    g = _load_graph(args.model)
    argnum = _resolve_var(g, args.var)
    var = g.input_names[argnum]
    support = args.support or g.nodes[g.input_id(var)].support
    if support is None:
        raise GraphError(f"input {var!r} has no support tag; pass --support")
    factory = complete_conditional(g, argnum, support)
    if args.at:
        env = read_argfile(args.at)
    else:
        fx = next((f for f in fixtures() if f.name == args.model), None)
        if fx is None:
            raise GraphError("no --at argfile and model is not a fixture")
        env = fx.example_args(args.seed)
    missing = [n for n in factory.arg_names if n not in env]
    if missing:
        raise GraphError(f"argfile {args.at}: no values for {missing}")
    print(factory(*[env[n] for n in factory.arg_names]).describe())
    return EXIT_OK


def cmd_infer(args):
    fx = _fixture(args.model)
    g = fx.graph()
    values = fx.example_args(args.seed)
    latent_names = [g.input_names[argnum] for argnum, _ in fx.latents]
    data = {k: v for k, v in values.items() if k not in latent_names}
    init = {k: values[k] for k in latent_names}
    sink = open(args.trace, "w") if args.trace else None
    try:
        if args.algo == "gibbs":
            state = make_gibbs(g, fx.latents, init, data, seed=args.seed)
            trace, state = run_gibbs(g, state, args.iters, sink=sink)
            label = "log joint"
        else:
            mrepr = multilinear_repr(
                g, argnums=[a for a, _ in fx.latents],
                supports=[s for _, s in fx.latents])
            trace, state = run_cavi(mrepr, data, init_values=init,
                                    max_iters=args.iters, sink=sink)
            label = "elbo"
    finally:
        if sink is not None:
            sink.close()
    if trace:
        print(f"{args.model} {args.algo}: {len(trace)} iterations, "
              f"final {label} {trace[-1][1]:.6f}")
    else:
        print(f"{args.model} {args.algo}: empty trace")
    if args.plot:
        write_svg_trace(args.plot, trace, f"{args.model} {args.algo} {label}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# property suites


def _check_rewrite(report):
    for fx in fixtures():
        g = fx.graph()
        cf = canonicalize(g)
        ok = is_canonical(cf.graph)
        for seed in (1, 2):
            env = fx.example_args(seed)
            a = float(G.evaluate(g, env))
            b = float(G.evaluate(cf.graph, env))
            ok = ok and abs(a - b) <= 1e-10 * max(1.0, abs(a))
        report(f"rewrite/{fx.name}", ok)
        rt = G.graph_equal(G.parse(G.dump(cf.graph, "text")), cf.graph)
        report(f"rewrite/{fx.name}/roundtrip", rt)


def _check_expfam(report):
    from scipy import integrate

    reg = BUILTIN
    rng = np.random.default_rng(0)
    cases = {
        "Beta": (lambda: reg.get("Beta").from_standard(
            a=rng.uniform(0.5, 5), b=rng.uniform(0.5, 5)), (0.0, 1.0)),
        "Gamma": (lambda: reg.get("Gamma").from_standard(
            shape=rng.uniform(0.5, 5), rate=rng.uniform(0.5, 3)), (0.0, np.inf)),
        "Normal": (lambda: reg.get("Normal").from_standard(
            mean=rng.normal(), sd=rng.uniform(0.5, 2)), (-np.inf, np.inf)),
    }
    for name, (make, bounds) in cases.items():
        fam = reg.get(name)
        ok = True
        for _ in range(5):
            nat = make()
            def dens(z):
                return float(np.exp(fam.log_prob(nat, np.asarray(z))))
            total, _err = integrate.quad(dens, *bounds)
            ok = ok and abs(total - 1.0) <= 1e-4
            # mean map vs finite differences of A
            means = fam.mean_params(nat)
            for k in nat:
                up = dict(nat); up[k] = nat[k] + 1e-6
                dn = dict(nat); dn[k] = nat[k] - 1e-6
                fd = (fam.log_normalizer(up) - fam.log_normalizer(dn)) / 2e-6
                ok = ok and abs(means[k] - fd) <= 1e-5
        report(f"expfam/{name}", ok)
    for name in ("Bernoulli", "Categorical", "Dirichlet"):
        fam = reg.get(name)
        ok = True
        if name == "Bernoulli":
            nat = {"identity": np.array(0.3)}
            total = sum(np.exp(fam.log_prob(nat, v)) for v in (0.0, 1.0))
        elif name == "Categorical":
            nat = {"one_hot": rng.standard_normal(4)}
            total = sum(np.exp(fam.log_prob(nat, float(k))) for k in range(4))
        else:
            nat = fam.from_standard(alpha=rng.uniform(0.5, 3, 3))
            def dens2(a, b):
                z = np.array([a, b, 1 - a - b])
                return float(np.exp(fam.log_prob(nat, z)))
            total, _err = integrate.dblquad(
                dens2, 0, 1, 0, lambda a: 1 - a, epsabs=1e-10)
        ok = abs(total - 1.0) <= 1e-4
        report(f"expfam/{name}", ok)


def _check_conjugacy(report, extra_model=None):
    fx = fixture("beta_bernoulli")
    g = fx.graph()
    fac = complete_conditional(g, 0, SupportType.UNIT_INTERVAL)
    d = fac(60.0, 100.0, 0.5, 0.5)
    std = d.standard()
    report("conjugacy/beta_bernoulli_exact",
           float(std["a"]) == 60.5 and float(std["b"]) == 40.5)
    for fx in fixtures():
        if not fx.expected_families:
            continue
        g = fx.graph()
        ok = True
        for argnum, support in fx.latents:
            var = g.input_names[argnum]
            fac = complete_conditional(g, argnum, support)
            ok = ok and fac.family.name == fx.expected_families[var]
        report(f"conjugacy/{fx.name}/families", ok)
    if extra_model is not None:
        g = _load_graph(extra_model)
        support = _as_support(g.nodes[g.inputs[0]].support or "REAL")
        try:
            complete_conditional(g, 0, support)
            report(f"conjugacy/model:{extra_model}", True)
        except SymconjError as exc:
            print(f"  ({exc})")
            report(f"conjugacy/model:{extra_model}", False)


def _check_inference(report):
    from .inference import cavi_update, elbo, init_meanfield

    fx = fixture("gmm")
    g = fx.graph()
    values = fx.example_args(0)
    latent_names = [g.input_names[a] for a, _ in fx.latents]
    data = {k: v for k, v in values.items() if k not in latent_names}
    mrepr = multilinear_repr(g, argnums=[a for a, _ in fx.latents],
                             supports=[s for _, s in fx.latents])
    state = init_meanfield(mrepr, data,
                           init_values={k: values[k] for k in latent_names})
    prev = elbo(state)
    ok = True
    for _ in range(5):
        for blk in mrepr.blocks:
            state = cavi_update(state, blk.name)
            cur = elbo(state)
            ok = ok and cur >= prev - 1e-9 * max(1.0, abs(prev))
            prev = cur
    report("inference/gmm_cavi_monotone", ok)

    from .inference import gibbs_sweep

    fx = fixture("beta_bernoulli")
    g = fx.graph()
    init = {"prob": np.array(0.5)}
    data = dict(n_heads=60.0, n_draws=100.0, prior_a=0.5, prior_b=0.5)
    state = make_gibbs(g, fx.latents, init, data, seed=0)
    draws = []
    for _ in range(2000):
        state = gibbs_sweep(state)
        draws.append(float(state.values["prob"]))
    draws = np.array(draws)
    target = 60.5 / 101.0
    se = draws.std() / np.sqrt(len(draws))
    report("inference/beta_bernoulli_gibbs",
           abs(draws.mean() - target) <= 4 * se)


def cmd_check(args):
    results = []

    def report(name, ok):
        results.append((name, ok))
        print(f"{'PASS' if ok else 'FAIL'} {name}")

    suites = {
        "rewrite": _check_rewrite,
        "expfam": _check_expfam,
        "conjugacy": lambda r: _check_conjugacy(r, args.model),
        "inference": _check_inference,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    for name in names:
        suites[name](report)
    failed = [n for n, ok in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="symconj",
        description="Symbolic conjugacy engine over tensor log densities")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("canonicalize",
                        help="canonicalize a fixture or graph file")
    pc.add_argument("model", help="fixture name or graph text file")
    pc.add_argument("--dot", action="store_true", help="emit DOT output")
    pc.add_argument("--stats", action="store_true",
                    help="append node counts and log-rule firing histogram")
    pc.add_argument("--max-rules", type=int, default=10000,
                    help="budget of log-rule firings plus einsum expansion "
                         "steps before signaling non-termination")
    pc.add_argument("-o", "--output", default=None)
    pc.set_defaults(fn=cmd_canonicalize)

    pd = sub.add_parser("conditional", help="derive a complete conditional")
    pd.add_argument("model")
    pd.add_argument("--var", required=True, help="input name or argnum")
    pd.add_argument("--support", default=None,
                    choices=[s.name for s in SupportType])
    pd.add_argument("--at", default=None, help="argfile with argument values")
    pd.add_argument("--seed", type=int, default=0)
    pd.set_defaults(fn=cmd_conditional)

    pi = sub.add_parser("infer", help="run inference on a fixture")
    pi.add_argument("model")
    pi.add_argument("--algo", choices=("gibbs", "cavi"), required=True)
    pi.add_argument("--iters", type=int, default=100)
    pi.add_argument("--seed", type=int, default=0)
    pi.add_argument("--trace", default=None, help="trace file (iter<TAB>value)")
    pi.add_argument("--plot", default=None, help="SVG line chart of the trace")
    pi.set_defaults(fn=cmd_infer)

    pk = sub.add_parser("check", help="run the property suites")
    pk.add_argument("--suite", required=True,
                    choices=("rewrite", "expfam", "conjugacy", "inference",
                             "all"))
    pk.add_argument("--model", default=None,
                    help="extra graph file for the conjugacy suite")
    pk.set_defaults(fn=cmd_check)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "seed"):
        args.seed = 0
    try:
        return args.fn(args)
    except NonTerminationError as exc:
        print(f"error: {exc} (recent rules: {', '.join(exc.recent_rules)})",
              file=sys.stderr)
        return EXIT_NONTERMINATION
    except (GraphError, ConjugacyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SymconjError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
