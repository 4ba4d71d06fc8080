"""Sufficient-statistic discovery and the conjugacy transforms.

Given a canonicalized log density, the statistics of every target
variable are found in one walk over its monomial roots. For each target
``z`` a monomial touches, an einsum slot depending on ``z`` holds either
the bare input (identity statistic) or a nonlinear atom of ``z`` (log z,
log(1-z), one_hot(z), ...), and a monomial with two bare ``z`` slots is
split so the quadratic part becomes its own einsum statistic (elementwise
square when the two slots share subscripts, an outer product otherwise)
with the other operands left behind as the coefficient. One copy of the
walked monomials, an add chain with a fresh input in place of each
statistic, is the energy polynomial g over statistic values: all of them
for the joint repr, else the monomials holding a target (its blanket).

g is multiaffine in a variable's statistics when every monomial holds at
most one of them, as a direct einsum operand. The natural parameter of a
statistic t is then the coefficient t carries in the monomials holding t,
emitted through one simplifier with no sweep after; it is g's gradient at
t, checked by the tests against :func:`graph.grad` and differences of g;
an ``outer`` parameter is made symmetric, the only part z z^T sees.

One analysis, :func:`_analyze`, does all of this for one or several
target arguments at once and returns a :class:`MultilinearRepr`: the
energy plus one :class:`LatentBlock` (family, statistic functions, eta
graphs) per target. The three user-facing transforms are views of it:

* :func:`multilinear_repr` returns it, the form block mean-field updates
  consume, with the whole energy that ``reconstruct`` and ``elbo`` read;
* :func:`complete_conditional` wraps its one block in a
  :class:`ConditionalFactory` mapping values of the remaining arguments
  to a Distribution for the target variable;
* :func:`marginalize` rebuilds the log density with the target integrated
  out, as g0 + A(eta) where g0 sums the canonical monomials that do not
  depend on the target, copied off the canonical form. Each graph object
  keeps its canonical form, and a marginal is born with it, so transforms
  compose without canonicalizing one graph twice.

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
    CanonicalForm, _Budget, _Simplifier, canonicalize, monomials,
)
from .errors import ConjugacyError, NonMultiaffineError, UnknownFamilyError
from .expfam import (
    BUILTIN, DESCRIPTORS, Distribution, FamilySpec, SupportType,
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
    (a graph over the variable computing it) in :data:`expfam.DESCRIPTORS`
    order, plus the rendered expressions (:func:`graph.render`) of atoms
    that depend on the variable but match no known statistic shape."""
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


def find_sufficient_statistics(form, *names):
    """Walk the monomial roots a :class:`CanonicalForm` lists once,
    collecting the statistics of each variable in ``names``, then copy the
    roots, as a right-leaning add chain in their order (the canonical
    spine when all are listed), with the input ``_stat_{var}_{descriptor}``
    in place of each statistic; inputs are declared as the copy reaches
    them. Returns one :class:`StatisticSet` per name, then the energy: the
    listed monomials over the statistic inputs. Residual atoms are copied.
    """
    if not isinstance(form, CanonicalForm):
        raise ConjugacyError(
            f"find_sufficient_statistics takes a CanonicalForm, got "
            f"{type(form).__name__}; canonicalize the graph first")
    g, roots = form.graph, form.monomials
    targets = [(var, vid, g.depends_on([vid]), {}, set())
               for var, vid in zip(names, map(g.input_id, names))]
    gb = GraphBuilder()
    memo: dict[int, object] = {}

    def found(var, stats, desc, stat):
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

    quadratic = {}  # monomial root -> [(statistic, its subscripts, slots)]
    for root in roots:
        node = g.nodes[root]
        is_einsum = isinstance(node, PrimNode) and node.op == "einsum"
        args = node.args if is_einsum else (root,)
        for var, vid, dep, stats, residual in targets:
            if not dep[root]:
                continue
            bare = [pos for pos, a in enumerate(args) if a == vid]
            for a in args:
                if dep[a] and (a != vid or len(bare) == 1) and a not in memo:
                    desc = _classify_atom(g, a, vid)
                    if desc is None:
                        residual.add(a)
                    else:
                        memo[a] = found(var, stats, desc, subgraph(g, a))
            if len(bare) > 2:
                residual.add(root)
            elif len(bare) == 2:  # the two bare slots become one statistic
                s1, s2 = (espec(node.attrs[0]).operand_subscripts[pos]
                          for pos in bare)
                merged = "".join(dict.fromkeys(s1 + s2))
                stat = G.build(
                    lambda z: G.einsum(f"{s1},{s2}->{merged}", z, z),
                    [(var, g.shapes[vid], g.nodes[vid].support)], scalar=False)
                quadratic.setdefault(root, []).append((found(
                    var, stats, "square" if s1 == s2 else "outer", stat),
                    merged, bare))
    for root, parts in quadratic.items():
        node = g.nodes[root]
        spec = espec(node.attrs[0])
        split = {pos for *_, bare in parts for pos in bare}
        kept = [pos for pos in range(len(node.args)) if pos not in split]
        ops = ([h for h, *_ in parts]
               + [G.rebuild(gb, g, node.args[pos], memo) for pos in kept])
        subs = ([s for _, s, _ in parts]
                + [spec.operand_subscripts[pos] for pos in kept])
        memo[root] = gb.prim("einsum", ops,
                             (",".join(subs) + "->" + spec.output,))
    *terms, out = ([G.rebuild(gb, g, root, memo) for root in roots]
                   or [gb.constant(0.0)])
    for h in reversed(terms):
        out = gb.prim("add", (h, out))
    energy = gb.finish(out)
    sets = [StatisticSet(var, {d: stats[d] for d in DESCRIPTORS if d in stats},
                         tuple(G.render(g, a) for a in sorted(residual)))
            for var, _, _, stats, residual in targets]
    return (*sets, energy)


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


def _symmetric(s, desc, ops, attrs):
    """Emit a ``desc`` parameter's einsum term h in ``s``; an ``outer`` one is
    made 0.5 (h + h^T) unless its operands are symmetric, as for x x^T."""
    h = s.emit("einsum", attrs, ops)
    spec = espec(attrs[0])
    out, subs, ids = spec.output, spec.operand_subscripts, [a.nid for a in ops]
    swap = str.maketrans(out[-2:], out[:-3:-1])
    if desc != "outer" or sorted(zip(subs, ids)) == sorted(
            zip([t.translate(swap) for t in subs], ids)):
        return h
    ht = s.emit("einsum", (f"{out}->{out[:-2]}{out[:-3:-1]}",), [h])
    return s.emit("multiply", (), [s.const(0.5), s.emit("add", (), [h, ht])])


def extract_natural_parameters(energy, stats: StatisticSet, others=()):
    """Natural parameter graphs of the statistics ``stats`` of one
    variable, read off the monomials of the energy holding them.

    The parameter of statistic t is the coefficient t carries, the energy's
    gradient at t: the sum of the held monomials' vector-Jacobian products
    at t, emitted through one simplifier per call, so no sweep follows.
    Raises :class:`NonMultiaffineError` unless every monomial holds at most
    one of the variable's statistics, as a direct einsum operand, and then
    names the inputs of ``stats`` and ``others`` by their statistics.
    """
    own = {energy.input_id(_stat_input_name(stats.var, d)): d
           for d in stats.graphs}
    dep = energy.depends_on(own)
    s, memo = _Simplifier(_Budget(10000)), {}
    one = s.const(1.0)
    parts = {desc: [] for desc in stats.graphs}
    for root in monomials(energy):
        if not dep[root]:
            continue
        node = energy.nodes[root]
        is_einsum = isinstance(node, PrimNode) and node.op == "einsum"
        held = [a for a in node.args if dep[a]] if is_einsum else [root]
        if len(held) > 1 or held[0] not in own:
            shown = {_stat_input_name(st.var, d): G.render(sg, sg.output)
                     for st in (stats, *others) for d, sg in st.graphs.items()}
            raise NonMultiaffineError(
                f"log density is not multiaffine in the statistics of "
                f"{stats.var!r}: one monomial, "
                f"{G.render(energy, root, shown)}, holds "
                f"{_held(energy, held, own)}")
        desc = own[held[0]]
        if is_einsum:
            args = [G.rebuild(s.gb, energy, a, memo) for a in node.args]
            parts[desc].append((1.0, _symmetric(s, desc, *G._einsum_vjp(
                s.gb, node.attrs[0], args, one, node.args.index(held[0])))))
        else:  # a lone scalar statistic
            parts[desc].append((1.0, one))
    # each discovered statistic is a direct operand of some monomial
    return {desc: G.cse(s.gb.finish(s.realize(s.lazy_sum(*terms))))
            for desc, terms in parts.items()}


def _check_support_tag(g, var, support):
    vid = g.input_id(var)
    tag = g.nodes[vid].support
    if tag is not None and tag != support.value:
        # warn <- here <- _analyze <- transform <- the transform's caller
        warnings.warn(
            f"input {var!r} carries support tag {tag} but {support.value} "
            f"was requested; the explicit argument wins", stacklevel=4)


def _analyze(log_joint, argnums, supports, whole=False) -> MultilinearRepr:
    """The one conjugacy analysis behind the three transforms: canonicalize
    once per graph object, walk the monomials holding a target (all of them
    when ``whole``) once to put inputs in place of the targets' statistics,
    match each target's family, then read its etas off that energy."""
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

    if log_joint._canonical is None:  # kept for the graph's next transform
        log_joint._canonical = canonicalize(log_joint)
    form, latents = log_joint._canonical, [var for var, _ in targets]
    if not whole:
        dep = form.graph.depends_on(map(form.graph.input_id, latents))
        form = CanonicalForm(form.graph, tuple(
            r for r in form.monomials if dep[r]))
    *found, energy = find_sufficient_statistics(form, *latents)
    families = []
    for (var, support), stats in zip(targets, found):
        if stats.residual:
            raise UnknownFamilyError(
                f"variable {var!r} appears inside unrecognized atoms "
                f"{list(stats.residual)}; discovered statistics "
                f"{sorted(stats.descriptors)}", atoms=stats.residual)
        families.append(BUILTIN.lookup(support, stats.descriptors))

    blocks = []
    for (var, _), stats, family in zip(targets, found, families):
        etas = extract_natural_parameters(energy, stats, found)
        blocks.append(LatentBlock(
            name=var, family=family, stats=tuple(StatEntry(
                descriptor=d, input_name=_stat_input_name(var, d),
                shape=sg.shapes[sg.output], stat_graph=sg,
                eta_graph=etas[d]) for d, sg in stats.graphs.items())))
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


def complete_conditional(log_joint: TermGraph, argnum: int, support
                         ) -> ConditionalFactory:
    """Compile the complete conditional of one argument of a scalar
    log-joint graph."""
    mr = _analyze(log_joint, [argnum], [support])
    return ConditionalFactory(block=mr.blocks[0], arg_names=mr.arg_names)


def marginalize(log_joint: TermGraph, argnum: int, support) -> TermGraph:
    """Integrate one argument out of a scalar log-joint graph.

    Uses the multiaffine split g = g0 + <eta, t(z)>: the result is
    g0 + A(eta), where g0 sums the monomials of the log joint's canonical
    form that do not depend on the target, copied off that form, and A is
    the matched family's log-normalizer graph, canonicalized and carrying
    its canonical form into the next transform.
    """
    mr = _analyze(log_joint, [argnum], [support])
    (blk,) = mr.blocks
    g, roots = log_joint._canonical.graph, log_joint._canonical.monomials
    dep = g.depends_on([g.input_id(blk.name)])
    gb, memo = GraphBuilder(), {}
    handles = {name: G.rebuild(gb, g, g.input_id(name), memo)
               for name in mr.arg_names}
    eta_handles = {s.descriptor: G.import_graph(gb, s.eta_graph, handles)
                   for s in blk.stats}
    out = blk.family.lognorm_graph(gb, eta_handles)
    for root in roots:  # g0, off the canonical form
        if not dep[root]:
            out = gb.prim("add", (G.rebuild(gb, g, root, memo), out))
    form = canonicalize(gb.finish(out, scalar=True))
    form.graph._canonical = form  # re-canonicalizing gives an equal graph
    return form.graph


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
    family: FamilySpec
    stats: tuple

    def statistic_values(self, value) -> dict:
        return {s.descriptor: G.evaluate(s.stat_graph, {self.name: value})
                for s in self.stats}

    @functools.cached_property
    def eta_plan(self) -> G.EvalPlan:
        """One plan over all of the block's eta graphs."""
        return G.EvalPlan([s.eta_graph for s in self.stats])

    def distribution(self, env: dict, plan=None) -> Distribution:
        """The block's validated Distribution, with natural parameters
        evaluated from its eta graphs in ``env`` by ``eta_plan``, or by
        ``plan``, that plan bound to some of the inputs."""
        plan = self.eta_plan if plan is None else plan
        values = dict(zip(self.descriptors, plan.run(env)))
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
    return _analyze(log_joint, argnums, supports, whole=True)
