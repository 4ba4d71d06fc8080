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
* ``check`` — derive the complete conditional of a model's first input
  on its support tag (REAL when untagged) and print ``PASS`` when it is
  conjugate, ``FAIL`` when it is not.

Exit codes: 0 success, 1 check failure or another derivation error,
2 usage or parse error (a path that cannot be read or written
included), 3 rewrite non-termination. All randomness flows from
``--seed`` (default 0).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from collections import Counter

import numpy as np

from . import graph as G
from .canonicalize import canonicalize, is_canonical
from .conjugacy import _as_support, complete_conditional, multilinear_repr
from .errors import (
    ConjugacyError, GraphError, NonTerminationError, SymconjError,
)
from .expfam import SupportType
from .inference import make_gibbs, run_cavi, run_gibbs
from .models import fixture, fixtures

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NONTERMINATION = 3


def _load_graph(spec_str):
    """The graph named by a fixture name or a graph text file, and the
    fixture (None for a file)."""
    known = {f.name: f for f in fixtures()}
    if spec_str in known:
        return known[spec_str].graph(), known[spec_str]
    try:
        with open(spec_str, encoding="utf-8") as fh:
            return G.parse(fh.read()), None
    except OSError as exc:
        raise GraphError(
            f"{spec_str!r} is neither a fixture ({', '.join(known)}) nor a "
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
                if min(shape, default=0) < 0:
                    raise GraphError(f"argfile {path}: negative extent in "
                                     f"line {line!r}")
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


def _open_output(path, default=None):
    """Open ``path`` for writing, or give ``default`` when no path was
    asked for. A path that cannot be written is a usage error naming it."""
    if path is None:
        return contextlib.nullcontext(default)
    try:
        return open(path, "w")
    except OSError as exc:
        raise GraphError(f"cannot write {path!r}: {exc.strerror}") from None


def write_svg_trace(fh, trace, title):
    if not trace:
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
    g, _ = _load_graph(args.model)
    firing_log = []
    cf = canonicalize(g, max_rules=args.max_rules, firing_log=firing_log)
    with _open_output(args.output, sys.stdout) as out:
        out.write(G.dump(cf.graph, "dot" if args.dot else "text"))
        if args.stats:
            hist = Counter(firing_log)
            out.write(f"# nodes_before={len(g)} nodes_after={len(cf.graph)}\n")
            out.write(f"# monomials={len(cf.monomials)} "
                      f"is_canonical={is_canonical(cf.graph)}\n")
            for rule, n in sorted(hist.items()):
                out.write(f"# rule {rule} fired {n}\n")
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
    g, fx = _load_graph(args.model)
    argnum = _resolve_var(g, args.var)
    var = g.input_names[argnum]
    support = args.support or g.nodes[g.input_id(var)].support
    if support is None:
        raise GraphError(f"input {var!r} has no support tag; pass --support")
    factory = complete_conditional(g, argnum, support)
    if args.at:
        env = read_argfile(args.at)
    elif fx is None:
        raise GraphError("no --at argfile and model is not a fixture")
    else:
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
    with _open_output(args.trace) as sink, _open_output(args.plot) as plot:
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
        if plot is not None:
            write_svg_trace(plot, trace, f"{args.model} {args.algo} {label}")
    if trace:
        print(f"{args.model} {args.algo}: {len(trace)} iterations, "
              f"final {label} {trace[-1][1]:.6f}")
    else:
        print(f"{args.model} {args.algo}: empty trace")
    return EXIT_OK


def cmd_check(args):
    g, _ = _load_graph(args.model)
    if not g.inputs:
        raise GraphError(f"{args.model!r} has no input to condition on")
    var = g.input_names[0]
    support = _as_support(g.nodes[g.inputs[0]].support or "REAL")
    try:
        family = complete_conditional(g, 0, support).family.name
    except SymconjError as exc:
        print(f"FAIL {args.model}: {var} ({exc})")
        return EXIT_CHECK_FAILED
    print(f"PASS {args.model}: {var} has a {family} complete conditional")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _nonnegative_int(text):
    """Argument type of ``--seed``, ``--iters`` and ``--max-rules``."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 0")
    return n


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
    pc.add_argument("--max-rules", type=_nonnegative_int, default=10000,
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
    pd.add_argument("--seed", type=_nonnegative_int, default=0)
    pd.set_defaults(fn=cmd_conditional)

    pi = sub.add_parser("infer", help="run inference on a fixture")
    pi.add_argument("model")
    pi.add_argument("--algo", choices=("gibbs", "cavi"), required=True)
    pi.add_argument("--iters", type=_nonnegative_int, default=100)
    pi.add_argument("--seed", type=_nonnegative_int, default=0)
    pi.add_argument("--trace", default=None, help="trace file (iter<TAB>value)")
    pi.add_argument("--plot", default=None, help="SVG line chart of the trace")
    pi.set_defaults(fn=cmd_infer)

    pk = sub.add_parser("check",
                        help="check that a model's first input is conjugate")
    pk.add_argument("--model", required=True,
                    help="fixture name or graph text file")
    pk.set_defaults(fn=cmd_check)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
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
