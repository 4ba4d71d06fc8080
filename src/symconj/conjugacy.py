"""Sufficient-statistic discovery and the conjugacy transforms.

Given a canonicalized log density, the statistics of a variable ``z`` are
found in one walk over the sum of monomials: monomials not touching ``z``
are copied, a monomial touching ``z`` through one einsum slot holds either
the bare input (identity statistic) or the nonlinear atom in that slot
(log z, log(1-z), one_hot(z), ...), and a monomial with two bare ``z``
slots is split so the quadratic part becomes its own einsum statistic
(elementwise square when the two slots share subscripts, an outer product
otherwise) with the var-independent operands left behind as the
coefficient. Each statistic is replaced by a fresh input as it is found,
so the walk yields the energy polynomial g over statistic values.

g is multiaffine in a variable's statistics when every monomial holds at
most one of them, as a direct einsum operand. The natural parameter of a
statistic t is then the coefficient t carries, read off the monomials
holding t; it equals the gradient of g with respect to t, which the tests
check against :func:`graph.grad`.

One analysis, :func:`_analyze`, does all of this for one or several
target arguments at once and returns a :class:`MultilinearRepr`: the
shared energy plus one :class:`LatentBlock` (family, statistic functions,
eta graphs) per target. The three user-facing transforms are views of it:

* :func:`multilinear_repr` returns it, the form block mean-field updates
  consume;
* :func:`complete_conditional` wraps its one block in a
  :class:`ConditionalFactory` mapping values of the remaining arguments
  to a Distribution for the target variable;
* :func:`marginalize` rebuilds the log density with the target integrated
  out, as g0 + A(eta) where g0 sums the energy monomials that hold none
  of the block's statistics, and re-canonicalizes so transforms compose.

Both hand the family one parameter per discovered statistic, as is; the
family pads and folds them (see :mod:`expfam`). Atoms matching no
statistic shape are named as rendered expressions.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from . import graph as G
from .canonicalize import (
    CanonicalForm, canonicalize, index_monomials, local_simplify,
)
from .errors import ConjugacyError, NonMultiaffineError, UnknownFamilyError
from .expfam import (
    BUILTIN, Distribution, FamilySpec, SupportType,
)
from .graph import (
    ConstNode, GraphBuilder, PrimNode, TermGraph, espec, subgraph,
)

__all__ = [
    "StatisticSet", "ConditionalFactory", "MultilinearRepr", "LatentBlock",
    "StatEntry", "find_sufficient_statistics", "extract_natural_parameters",
    "complete_conditional", "marginalize", "multilinear_repr",
]


@dataclass(frozen=True)
class StatisticSet:
    """Discovered statistics of one variable: descriptor -> statistic graph
    (a graph over the variable computing it), the identity first, plus the
    rendered expressions (:func:`graph.render`) of atoms that depend on the
    variable but match no known statistic shape."""
    var: str
    graphs: dict
    residual: tuple = ()

    @property
    def descriptors(self):
        return frozenset(self.graphs)


def _as_support(s) -> SupportType:
    if isinstance(s, SupportType):
        return s
    try:
        return SupportType[str(s)]
    except KeyError:
        raise ConjugacyError(f"unknown support {s!r}; the supports are "
                             f"{[t.name for t in SupportType]}") from None


def _is_scaled_var(g, nid, vid, scale):
    """Is node ``nid`` an einsum computing scale*var with a constant?"""
    node = g.nodes[nid]
    if not (isinstance(node, PrimNode) and node.op == "einsum"):
        return False
    consts = []
    others = []
    for a in node.args:
        if isinstance(g.nodes[a], ConstNode):
            consts.append(a)
        else:
            others.append(a)
    if others != [vid] or len(consts) != 1:
        return False
    v = g.nodes[consts[0]].value
    return v.shape == () and float(v) == scale


def _classify_atom(g, nid, vid):
    """Descriptor of a nonlinear atom of the target variable, or None."""
    if nid == vid:
        return "identity"
    node = g.nodes[nid]
    if not isinstance(node, PrimNode):
        return None
    if node.op == "one_hot" and node.args[0] == vid:
        return "one_hot"
    if node.op == "log" and node.args[0] == vid:
        return "log"
    if node.op == "log1p" and _is_scaled_var(g, node.args[0], vid, -1.0):
        return "log1p_neg"
    if node.op == "log":
        # log(1 - z) written without log1p
        arg = g.nodes[node.args[0]]
        if isinstance(arg, PrimNode) and arg.op == "add":
            a, b = arg.args
            for c, other in ((a, b), (b, a)):
                cn = g.nodes[c]
                if (isinstance(cn, ConstNode) and cn.value.shape == ()
                        and float(cn.value) == 1.0
                        and _is_scaled_var(g, other, vid, -1.0)):
                    return "log1p_neg"
    return None


def find_sufficient_statistics(g, var):
    """Walk a canonical graph (or :class:`CanonicalForm`) once, collecting
    the statistics of ``var`` and putting the input
    ``_stat_{var}_{descriptor}`` in place of each one as it is found.

    Returns ``(stats, energy)``: the :class:`StatisticSet` and the
    canonical graph over the statistic inputs. Residual atoms are copied.
    """
    if isinstance(g, CanonicalForm):
        g, monomials = g.graph, g.monomials
    else:
        monomials, _ = index_monomials(g)
    vid = g.input_id(var)
    dep = g.depends_on([vid])

    gb = GraphBuilder(dedup=True)
    memo: dict[int, object] = {}
    for i in g.inputs:
        if i != vid:
            G.rebuild(gb, g, i, memo)
    stats: dict[str, TermGraph] = {}
    residual = set()

    def emit(i):
        return G.rebuild(gb, g, i, memo)

    def found(desc, stat):
        """The energy input standing for statistic graph ``stat``."""
        name = _stat_input_name(var, desc)
        if desc not in stats:
            stats[desc] = stat
            return gb.input(name, stat.shapes[stat.output])
        known = stats[desc]
        if (known.structural_hashes()[known.output]
                != stat.structural_hashes()[stat.output]):
            raise ConjugacyError(
                f"variable {var!r} couples through multiple distinct "
                f"{desc} statistics; not a recognized structure")
        return gb.input_handle(name)

    def classify(a):
        if a not in memo:
            desc = _classify_atom(g, a, vid)
            if desc is None:
                residual.add(a)
            else:
                memo[a] = found(desc, subgraph(g, a))

    def split_quadratic(node, bare):
        """The monomial with its two bare slots as one statistic."""
        spec = espec(node.attrs[0])
        s1, s2 = (spec.operand_subscripts[pos] for pos in bare)
        merged = "".join(dict.fromkeys(s1 + s2))
        sb = GraphBuilder(dedup=True)
        z = G.rebuild(sb, g, vid, {})
        stat = sb.finish(sb.prim("einsum", (z, z), (f"{s1},{s2}->{merged}",)))
        kept = [pos for pos in range(len(node.args)) if pos not in bare]
        ops = ([found("square" if s1 == s2 else "outer", stat)]
               + [emit(node.args[pos]) for pos in kept])
        subs = [merged] + [spec.operand_subscripts[pos] for pos in kept]
        return gb.prim("einsum", ops, (",".join(subs) + "->" + spec.output,))

    terms = []
    for m in monomials:
        root = m.root
        node = g.nodes[root]
        if not dep[root]:
            terms.append(emit(root))
        elif not (isinstance(node, PrimNode) and node.op == "einsum"):
            classify(root)
            terms.append(emit(root))
        else:
            bare = [pos for pos, a in enumerate(node.args) if a == vid]
            for a in node.args:
                if dep[a] and (a != vid or len(bare) == 1):
                    classify(a)
            if len(bare) == 2:
                terms.append(split_quadratic(node, bare))
            else:
                if len(bare) > 2:
                    residual.add(root)
                terms.append(emit(root))
    acc = terms[0]
    for t in terms[1:]:
        acc = gb.prim("add", (t, acc))
    # the identity statistic first, the others in order of discovery
    order = sorted(stats, key=lambda d: d != "identity")
    graphs = {d: stats[d] for d in order}
    residual = tuple(G.render(g, a) for a in sorted(residual))
    return StatisticSet(var, graphs, residual), gb.finish(acc)


def _stat_input_name(var, desc):
    return f"_stat_{var}_{desc}"


def _held(g, held, own):
    """The statistics a monomial holds, for error messages: each held
    operand by its descriptor, or as its op applied to those below it."""
    def name(a):
        reach = g.reachable([a])
        inner = ", ".join(sorted(own[i] for i in own if reach[i]))
        return own[a] if a in own else f"{g.nodes[a].op}({inner})"
    return " and ".join(sorted(map(name, held)))


def extract_natural_parameters(energy, stat_names: dict, var: str):
    """Natural parameter graphs of one variable's statistic inputs (named
    per descriptor in ``stat_names``), read off the energy's monomials.

    The parameter of statistic t is the sum, over the monomials holding t,
    of the monomial's vector-Jacobian product at t, simplified once: the
    coefficient t carries, which is the energy's gradient with respect to
    t. Raises :class:`NonMultiaffineError` unless every monomial holds at
    most one of the variable's statistics, as a direct einsum operand.
    """
    own = {energy.input_id(name): desc for desc, name in stat_names.items()}
    dep = energy.depends_on(own)
    gb = GraphBuilder(dedup=True)
    memo = {}
    for i in energy.inputs:
        G.rebuild(gb, energy, i, memo)
    one = gb.constant(1.0)
    parts = {desc: [] for desc in stat_names}
    for m in index_monomials(energy)[0]:
        root = m.root
        if not dep[root]:
            continue
        node = energy.nodes[root]
        is_einsum = isinstance(node, PrimNode) and node.op == "einsum"
        held = [a for a in node.args if dep[a]] if is_einsum else [root]
        if len(held) > 1 or held[0] not in own:
            raise NonMultiaffineError(
                f"log density is not multiaffine in the statistics of "
                f"{var!r}: one monomial, {G.render(energy, root)}, holds "
                f"{_held(energy, held, own)}")
        if is_einsum:
            args = [G.rebuild(gb, energy, a, memo) for a in node.args]
            parts[own[held[0]]].append(G._einsum_vjp(
                gb, node.attrs[0], args, one, node.args.index(held[0])))
        else:  # a lone scalar statistic
            parts[own[root]].append(one)
    etas = {}
    for desc, name in stat_names.items():
        terms = parts[desc] or [
            gb.constant(np.zeros(energy.shapes[energy.input_id(name)]))]
        acc = terms[0]
        for t in terms[1:]:
            acc = gb.prim("add", (acc, t))
        etas[desc] = local_simplify(gb.finish(acc))
    return etas


def _check_support_tag(g, var, support):
    vid = g.input_id(var)
    tag = g.nodes[vid].support
    if tag is not None and tag != support.value:
        # warn <- here <- _analyze <- transform <- the transform's caller
        warnings.warn(
            f"input {var!r} carries support tag {tag} but {support.value} "
            f"was requested; the explicit argument wins", stacklevel=4)


def _analyze(log_joint, argnums, supports) -> MultilinearRepr:
    """The one conjugacy analysis behind the three transforms: canonicalize
    once, walk the energy once per target to put inputs in place of its
    statistics and match its family, then read each target's natural
    parameters off the energy's monomials."""
    names = log_joint.input_names
    if ((np.ndim(argnums), np.ndim(supports)) != (1, 1)
            or len(argnums) != len(supports)):
        raise ConjugacyError(f"argnums and supports must be aligned "
                             f"sequences, got {argnums!r} and {supports!r}")
    for argnum in argnums:
        if (not isinstance(argnum, (int, np.integer))
                or isinstance(argnum, bool) or not 0 <= argnum < len(names)):
            raise ConjugacyError(f"argnum {argnum!r} is not an integer or is "
                                 f"out of range for the inputs {names}")
    if len(set(argnums)) != len(argnums):
        raise ConjugacyError(f"duplicate argnums {list(argnums)}")
    targets = []
    for argnum, support in zip(argnums, supports):
        support = _as_support(support)
        _check_support_tag(log_joint, names[argnum], support)
        targets.append((names[argnum], support))

    energy = canonicalize(log_joint).graph
    found = []
    for var, support in targets:
        stats, energy = find_sufficient_statistics(energy, var)
        if stats.residual:
            raise UnknownFamilyError(
                f"variable {var!r} appears inside unrecognized atoms "
                f"{list(stats.residual)}; discovered statistics "
                f"{sorted(stats.descriptors)}", atoms=stats.residual)
        found.append((stats, BUILTIN.lookup(support, stats.descriptors)))

    blocks = []
    for (var, support), (stats, family) in zip(targets, found):
        inputs = {d: _stat_input_name(var, d) for d in stats.graphs}
        etas = extract_natural_parameters(energy, inputs, var)
        blocks.append(LatentBlock(
            name=var, support=support, family=family,
            shape=log_joint.shapes[log_joint.input_id(var)],
            stats=tuple(StatEntry(
                descriptor=d, input_name=inputs[d],
                shape=sg.shapes[sg.output], stat_graph=sg,
                eta_graph=etas[d]) for d, sg in stats.graphs.items())))
    latents = {var for var, _ in targets}
    args = tuple(n for n in names if n not in latents)
    return MultilinearRepr(neg_energy=energy, blocks=tuple(blocks),
                           arg_names=args)


@dataclass
class ConditionalFactory:
    """Compiled complete conditional: call with the values of every
    argument except the target (in declaration order) to obtain the
    target's Distribution."""

    block: LatentBlock
    arg_names: tuple

    @property
    def var(self) -> str:
        return self.block.name

    @property
    def family(self) -> FamilySpec:
        return self.block.family

    @property
    def eta_graphs(self) -> dict:
        return {s.descriptor: s.eta_graph for s in self.block.stats}

    def from_env(self, env: dict) -> Distribution:
        return self.block.distribution(env)

    def __call__(self, *args) -> Distribution:
        if len(args) != len(self.arg_names):
            raise ConjugacyError(
                f"conditional of {self.var!r} expects {len(self.arg_names)} "
                f"arguments {self.arg_names}, got {len(args)}")
        return self.from_env(dict(zip(self.arg_names, args)))

    def describe(self, *args) -> str:
        return self(*args).describe()


def complete_conditional(log_joint: TermGraph, argnum: int, support
                         ) -> ConditionalFactory:
    """Compile the complete conditional of one argument of a scalar
    log-joint graph."""
    mr = _analyze(log_joint, [argnum], [support])
    return ConditionalFactory(block=mr.blocks[0], arg_names=mr.arg_names)


def marginalize(log_joint: TermGraph, argnum: int, support) -> TermGraph:
    """Integrate one argument out of a scalar log-joint graph.

    Uses the multiaffine split g = g0 + <eta, t(z)>: the result is
    g0 + A(eta), where g0 sums the energy monomials that hold none of the
    block's statistics and A is the matched family's log-normalizer graph,
    re-canonicalized so it can feed back into the transforms.
    """
    mr = _analyze(log_joint, [argnum], [support])
    (blk,) = mr.blocks
    g = mr.neg_energy

    gb = GraphBuilder(dedup=True)
    handles = {name: G.rebuild(gb, log_joint, log_joint.input_id(name), {})
               for name in mr.arg_names}
    memo = {g.input_id(name): h for name, h in handles.items()}
    held = g.depends_on([g.input_id(s.input_name) for s in blk.stats])
    g0 = [G.rebuild(gb, g, m.root, memo)
          for m in index_monomials(g)[0] if not held[m.root]]
    eta_handles = {s.descriptor: G.import_graph(gb, s.eta_graph, handles)
                   for s in blk.stats}
    out = blk.family.lognorm_graph(gb, eta_handles)
    for h in g0:
        out = gb.prim("add", (h, out))
    marginal = gb.finish(out, scalar=True)
    return canonicalize(marginal).graph


@dataclass(frozen=True)
class StatEntry:
    descriptor: str
    input_name: str
    shape: tuple
    stat_graph: TermGraph
    eta_graph: TermGraph


@dataclass(frozen=True)
class LatentBlock:
    name: str
    support: SupportType
    family: FamilySpec
    shape: tuple
    stats: tuple

    def statistic_values(self, value) -> dict:
        return {s.descriptor: G.evaluate(s.stat_graph, {self.name: value})
                for s in self.stats}

    @functools.cached_property
    def eta_plan(self) -> G.EvalPlan:
        """One plan over all of the block's eta graphs."""
        return G.EvalPlan([s.eta_graph for s in self.stats])

    def distribution(self, env: dict) -> Distribution:
        """The block's validated Distribution, with natural parameters
        evaluated from its eta graphs in ``env``."""
        values = dict(zip(self.descriptors, self.eta_plan.run(env)))
        return Distribution(self.family, values)

    @property
    def descriptors(self):
        return tuple(s.descriptor for s in self.stats)


@dataclass(frozen=True)
class MultilinearRepr:
    """Energy polynomial over statistic inputs, per-variable statistic
    functions and log-normalizers, and the extracted parameter graphs."""

    neg_energy: TermGraph
    blocks: tuple
    arg_names: tuple

    def block(self, name) -> LatentBlock:
        for b in self.blocks:
            if b.name == name:
                return b
        raise ConjugacyError(f"no latent block named {name!r}")

    def energy_env(self, stat_values: dict, data: dict) -> dict:
        """Bind ``data`` and, per block named in ``stat_values``, its
        statistic inputs to the given values (descriptor -> value)."""
        env = dict(data)
        for var, values in stat_values.items():
            for s in self.block(var).stats:
                env[s.input_name] = values[s.descriptor]
        return env

    def reconstruct(self, latent_values: dict, data: dict):
        """Evaluate the energy at t(z); equals the original log joint."""
        stat_values = {v: self.block(v).statistic_values(x)
                       for v, x in latent_values.items()}
        return G.evaluate(self.neg_energy, self.energy_env(stat_values, data))


def multilinear_repr(log_joint: TermGraph, argnums, supports
                     ) -> MultilinearRepr:
    """Joint multiaffine decomposition over several arguments at once."""
    return _analyze(log_joint, argnums, supports)
