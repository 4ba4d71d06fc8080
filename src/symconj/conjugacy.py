"""Sufficient-statistic discovery and the conjugacy transforms.

Given a canonicalized log density, the statistics of a variable ``z`` are
found by walking the sum of monomials: monomials not touching ``z`` are
ignored, a monomial touching ``z`` through one einsum slot contributes
either the bare input (identity statistic) or the nonlinear atom in that
slot (log z, log(1-z), one_hot(z), ...), and a monomial with two bare
``z`` slots is split so the quadratic part becomes its own einsum
statistic (elementwise square when the two slots share subscripts, an
outer product otherwise) with the var-independent operands left behind as
the coefficient.

Replacing every statistic atom with a fresh input turns the log density
into the energy polynomial g over statistic values. The natural parameter
attached to each statistic is then the symbolic gradient of g with respect
to that input; multiaffineness is verified by checking the gradients do
not depend on any statistic input of the same variable.

On top of this sit the three user-facing transforms:

* :func:`complete_conditional` compiles a factory mapping values of the
  remaining arguments to a Distribution for the target variable;
* :func:`marginalize` rebuilds the log density with the target integrated
  out, as g0 + A(eta) where g0 zeroes the target's statistics, and
  re-canonicalizes so transforms compose;
* :func:`multilinear_repr` extracts the shared energy, statistic
  functions, and log-normalizers for several variables at once, the form
  block mean-field updates consume.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import graph as G
from .canonicalize import (
    CanonicalForm, canonicalize, index_monomials, normalize_graph,
)
from .errors import (ConjugacyError, GraphError, NonMultiaffineError,
                     UnknownFamilyError)
from .expfam import (
    BUILTIN, Distribution, FamilySpec, SupportType,
)
from .graph import (
    ConstNode, GraphBuilder, PrimNode, TermGraph, espec, grad,
    replace_nodes, subgraph,
)

__all__ = [
    "StatisticSet", "ConditionalFactory", "MultilinearRepr", "LatentBlock",
    "StatEntry", "find_sufficient_statistics", "extract_natural_parameters",
    "complete_conditional", "marginalize", "multilinear_repr",
]


@dataclass(frozen=True)
class StatisticSet:
    """Discovered statistics of one variable: (node id, descriptor) pairs
    in the rewritten graph, plus a residual flag for atoms that depend on
    the variable but match no known statistic shape."""
    var: str
    atoms: tuple
    residual: tuple = ()

    @property
    def descriptors(self):
        return frozenset(d for _, d in self.atoms)


def _as_support(s) -> SupportType:
    if isinstance(s, SupportType):
        return s
    return SupportType[str(s)]


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


def _merge_subscripts(s1, s2):
    out = []
    for c in s1 + s2:
        if c not in out:
            out.append(c)
    return "".join(out)


def find_sufficient_statistics(cf, var):
    """Walk a canonical graph and collect the statistics of ``var``.

    Returns ``(stats, work_graph, idmap)``: the statistic set with node
    ids valid in ``work_graph`` (the canonical graph with quadratic
    occurrences split into statistic einsums), and a map from old node
    ids to new ones.
    """
    g = cf.graph if isinstance(cf, CanonicalForm) else cf
    monomials, _ = (cf.monomials, cf.atoms) if isinstance(cf, CanonicalForm) \
        else index_monomials(cf)
    vid = g.input_id(var)
    dep = g.depends_on([vid])

    gb = GraphBuilder(dedup=True)
    memo: dict[int, object] = {}
    for i in g.inputs:
        node = g.nodes[i]
        memo[i] = gb.input(node.name, node.shape, node.support)

    def emit(i):
        return G.rebuild(gb, g, i, memo)

    atoms: dict[int, str] = {}
    residual: list[int] = []
    terms = []
    for m in monomials:
        root = m.root
        if not dep[root]:
            terms.append(emit(root))
            continue
        node = g.nodes[root]
        if not (isinstance(node, PrimNode) and node.op == "einsum"):
            desc = _classify_atom(g, root, vid)
            h = emit(root)
            if desc is None:
                residual.append(h.nid)
            else:
                atoms[h.nid] = desc
            terms.append(h)
            continue
        spec = espec(node.attrs[0])
        bare_slots = []
        for pos, a in enumerate(node.args):
            if not dep[a]:
                continue
            if a == vid:
                bare_slots.append(pos)
                continue
            desc = _classify_atom(g, a, vid)
            h = emit(a)
            if desc is None:
                residual.append(h.nid)
            else:
                atoms[h.nid] = desc
        if len(bare_slots) == 1:
            atoms[emit(vid).nid] = "identity"
            terms.append(emit(root))
        elif len(bare_slots) == 0:
            terms.append(emit(root))
        elif len(bare_slots) == 2:
            s1 = spec.operand_subscripts[bare_slots[0]]
            s2 = spec.operand_subscripts[bare_slots[1]]
            merged = _merge_subscripts(s1, s2)
            stat = gb.prim("einsum", (emit(vid), emit(vid)),
                           (f"{s1},{s2}->{merged}",))
            atoms[stat.nid] = "square" if s1 == s2 else "outer"
            kept_ops, kept_subs = [stat], [merged]
            for pos, a in enumerate(node.args):
                if pos in bare_slots:
                    continue
                kept_ops.append(emit(a))
                kept_subs.append(spec.operand_subscripts[pos])
            terms.append(gb.prim(
                "einsum", kept_ops,
                (",".join(kept_subs) + "->" + spec.output,)))
        else:
            h = emit(root)
            residual.append(h.nid)
            terms.append(h)
    acc = terms[0]
    for t in terms[1:]:
        acc = gb.prim("add", (t, acc))
    work = gb.finish(acc)
    idmap = {old: h.nid for old, h in memo.items()}

    # atoms must be maximal: drop any atom also reachable inside another
    per_desc: dict[str, list] = {}
    for nid, desc in atoms.items():
        per_desc.setdefault(desc, []).append(nid)
    for desc, nids in per_desc.items():
        if len(nids) > 1:
            raise ConjugacyError(
                f"variable {var!r} couples through multiple distinct "
                f"{desc} statistics; not a recognized structure")
    stats = StatisticSet(
        var=var,
        atoms=tuple(sorted(atoms.items())),
        residual=tuple(sorted(set(residual))),
    )
    return stats, work, idmap


def _stat_input_name(var, desc):
    return f"_stat_{var}_{desc}"


def _replace_stats_with_inputs(work, all_stats):
    """One rebuild replacing every variable's statistic atoms with fresh
    inputs named by variable and descriptor."""
    mapping = {}
    names = {}
    for stats in all_stats:
        for nid, desc in stats.atoms:
            name = _stat_input_name(stats.var, desc)
            mapping[nid] = ("input", name)
            names.setdefault(stats.var, {})[desc] = name
    gtilde, idmap = replace_nodes(work, mapping)
    return gtilde, names


def extract_natural_parameters(gtilde, stat_names: dict, var: str):
    """Symbolic gradients of the energy w.r.t. one variable's statistic
    inputs, verified multiaffine (no eta graph may depend on any statistic
    input of the same variable)."""
    own_inputs = set(stat_names.values())
    etas = {}
    for desc, name in stat_names.items():
        gr = normalize_graph(grad(gtilde, gtilde.input_id(name)))
        reach = gr.reachable()
        for onm in own_inputs:
            try:
                oid = gr.input_id(onm)
            except GraphError:
                continue
            if reach[oid]:
                raise NonMultiaffineError(
                    f"log density is not multiaffine in the statistics of "
                    f"{var!r}: the parameter of {desc!r} depends on {onm!r}")
        etas[desc] = gr
    return etas


def _check_support_tag(g, var, support):
    vid = g.input_id(var)
    tag = g.nodes[vid].support
    if tag is not None and tag != support.value:
        warnings.warn(
            f"input {var!r} carries support tag {tag} but {support.value} "
            f"was requested; the explicit argument wins", stacklevel=3)


def _one_hot_depth(work, stats):
    for nid, desc in stats.atoms:
        if desc == "one_hot":
            return int(work.nodes[nid].attrs[0])
    return None


@dataclass
class _Analysis:
    var: str
    support: SupportType
    family: FamilySpec
    gtilde: TermGraph
    stat_names: dict
    eta_graphs: dict
    work: TermGraph
    stats: StatisticSet
    one_hot_depth: int | None
    var_shape: tuple


def _analyze_single(log_joint, argnum, support, registry):
    support = _as_support(support)
    names = log_joint.input_names
    if not 0 <= argnum < len(names):
        raise ConjugacyError(f"argnum {argnum} out of range for {names}")
    var = names[argnum]
    _check_support_tag(log_joint, var, support)
    cf = canonicalize(log_joint)
    stats, work, _ = find_sufficient_statistics(cf, var)
    if stats.residual:
        raise UnknownFamilyError(
            f"variable {var!r} appears inside unrecognized atoms; discovered "
            f"statistics {sorted(stats.descriptors)}",
            atoms=stats.residual)
    family = registry.lookup(support, stats.descriptors)
    depth = _one_hot_depth(work, stats)
    gtilde, names_map = _replace_stats_with_inputs(work, [stats])
    etas = extract_natural_parameters(gtilde, names_map[var], var)
    return _Analysis(
        var=var, support=support, family=family, gtilde=gtilde,
        stat_names=names_map[var], eta_graphs=etas, work=work, stats=stats,
        one_hot_depth=depth,
        var_shape=log_joint.shapes[log_joint.input_id(var)])


def assemble_nat(family, values: dict):
    """Combine per-descriptor natural parameter values into the family's
    convention (multivariate normal folds elementwise square terms into
    the diagonal of the matrix parameter and symmetrizes it)."""
    if family.name == "MultivariateNormal":
        e2 = values["outer"]
        e2 = 0.5 * (e2 + np.swapaxes(e2, -1, -2))
        if "square" in values:
            d = e2.shape[-1]
            e2 = e2 + values["square"][..., None] * np.eye(d)
        nat = {"outer": e2}
        if "identity" in values:
            nat["identity"] = values["identity"]
        else:
            nat["identity"] = np.zeros(e2.shape[:-1])
        return nat
    return dict(values)


@dataclass
class ConditionalFactory:
    """Compiled complete conditional: call with the values of every
    argument except the target (in declaration order) to obtain the
    target's Distribution."""

    var: str
    family: FamilySpec
    support: SupportType
    eta_graphs: dict
    arg_names: tuple
    one_hot_depth: int | None = None

    def from_env(self, env: dict) -> Distribution:
        values = {d: G.evaluate(g, env) for d, g in self.eta_graphs.items()}
        return Distribution(self.family, assemble_nat(self.family, values))

    def __call__(self, *args) -> Distribution:
        if len(args) != len(self.arg_names):
            raise ConjugacyError(
                f"conditional of {self.var!r} expects {len(self.arg_names)} "
                f"arguments {self.arg_names}, got {len(args)}")
        return self.from_env(dict(zip(self.arg_names, args)))

    def describe(self, *args) -> str:
        return self(*args).describe()


def complete_conditional(log_joint: TermGraph, argnum: int, support,
                         example_shapes=None, registry=BUILTIN
                         ) -> ConditionalFactory:
    """Compile the complete conditional of one argument of a scalar
    log-joint graph."""
    _validate_shapes(log_joint, example_shapes)
    a = _analyze_single(log_joint, argnum, support, registry)
    rest = tuple(n for n in log_joint.input_names if n != a.var)
    return ConditionalFactory(
        var=a.var, family=a.family, support=a.support,
        eta_graphs=a.eta_graphs, arg_names=rest,
        one_hot_depth=a.one_hot_depth)


def _validate_shapes(g, example_shapes):
    if example_shapes is None:
        return
    names = g.input_names
    if len(example_shapes) != len(names):
        raise ConjugacyError(
            f"expected {len(names)} example shapes, got {len(example_shapes)}")
    for name, s in zip(names, example_shapes):
        expected = g.shapes[g.input_id(name)]
        if tuple(np.shape(np.empty(tuple(s)))) != expected:
            raise ConjugacyError(
                f"example shape for {name!r} is {tuple(s)}, graph declares "
                f"{expected}")


def marginalize(log_joint: TermGraph, argnum: int, support,
                example_shapes=None, registry=BUILTIN) -> TermGraph:
    """Integrate one argument out of a scalar log-joint graph.

    Uses the multiaffine split g = g0 + <eta, t(z)>: the result is
    g0 + A(eta), built from the matched family's log-normalizer graph and
    re-canonicalized so it can feed back into the transforms.
    """
    _validate_shapes(log_joint, example_shapes)
    a = _analyze_single(log_joint, argnum, support, registry)

    zero_map = {}
    for desc, name in a.stat_names.items():
        nid = a.gtilde.input_id(name)
        zero_map[nid] = ("const", np.zeros(a.gtilde.shapes[nid]))
    g0, _ = replace_nodes(a.gtilde, zero_map)

    gb = GraphBuilder(dedup=True)
    handles = {}
    for name in log_joint.input_names:
        if name == a.var:
            continue
        i = log_joint.input_id(name)
        handles[name] = gb.input(name, log_joint.shapes[i],
                                 log_joint.nodes[i].support)
    h_g0 = G.import_graph(gb, g0, handles)
    eta_handles = {}
    for desc, eg in a.eta_graphs.items():
        eta_handles[desc] = G.import_graph(gb, eg, handles)
    eta_handles = _combine_eta_handles(a.family, gb, eta_handles)
    h_a = a.family.lognorm_graph(gb, eta_handles)
    out = gb.prim("add", (h_g0, h_a))
    marginal = gb.finish(out, scalar=True)
    return canonicalize(marginal).graph


def _combine_eta_handles(family, gb, etas):
    """Graph-mode counterpart of :func:`assemble_nat`: fold square terms
    into the matrix parameter for the multivariate normal and zero-pad
    missing same-shape statistics elsewhere."""
    if family.name == "MultivariateNormal":
        e2 = etas["outer"]
        if "square" in etas:
            sq = etas["square"]
            d = e2.shape[-1]
            batch = G.INDEX_ALPHABET[:len(e2.shape) - 2]
            f = (f"{batch}i,ij->{batch}ij" if batch else "i,ij->ij")
            diag = gb.prim("einsum", (sq, gb.constant(np.eye(d))), (f,))
            e2 = gb.prim("add", (e2, diag))
        out = {"outer": e2}
        if "identity" in etas:
            out["identity"] = etas["identity"]
        return out
    missing = family.signature - set(etas)
    if missing:
        shape = next(iter(etas.values())).shape
        for d in missing:
            etas = dict(etas)
            etas[d] = gb.constant(np.zeros(shape))
    return etas


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
    one_hot_depth: int | None = None

    def statistic_values(self, value) -> dict:
        return {s.descriptor: G.evaluate(s.stat_graph, {self.name: value})
                for s in self.stats}

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
        env = dict(data)
        for var, values in stat_values.items():
            blk = self.block(var)
            for s in blk.stats:
                env[s.input_name] = values[s.descriptor]
        return env

    def reconstruct(self, latent_values: dict, data: dict):
        """Evaluate the energy at t(z); equals the original log joint."""
        stat_values = {v: self.block(v).statistic_values(x)
                       for v, x in latent_values.items()}
        return G.evaluate(self.neg_energy, self.energy_env(stat_values, data))


def multilinear_repr(log_joint: TermGraph, argnums, supports,
                     example_shapes=None, registry=BUILTIN) -> MultilinearRepr:
    """Joint multiaffine decomposition over several arguments at once."""
    _validate_shapes(log_joint, example_shapes)
    if len(argnums) != len(supports):
        raise ConjugacyError("argnums and supports must align")
    names = log_joint.input_names
    targets = []
    for argnum, support in zip(argnums, supports):
        support = _as_support(support)
        var = names[argnum]
        _check_support_tag(log_joint, var, support)
        targets.append((var, support))

    cf = canonicalize(log_joint)
    work = cf.graph
    all_stats = []
    for var, support in targets:
        stats, work, idmap = find_sufficient_statistics(work, var)
        if stats.residual:
            raise UnknownFamilyError(
                f"variable {var!r} appears inside unrecognized atoms",
                atoms=stats.residual)
        all_stats = [
            StatisticSet(s.var,
                         tuple((idmap[nid], d) for nid, d in s.atoms),
                         s.residual)
            for s in all_stats
        ]
        all_stats.append(stats)

    stat_graphs = {
        s.var: {desc: subgraph(work, nid) for nid, desc in s.atoms}
        for s in all_stats
    }
    depths = {s.var: _one_hot_depth(work, s) for s in all_stats}
    gtilde, names_map = _replace_stats_with_inputs(work, all_stats)

    blocks = []
    for (var, support), stats in zip(targets, all_stats):
        family = registry.lookup(support, stats.descriptors)
        etas = extract_natural_parameters(gtilde, names_map[var], var)
        entries = []
        for nid, desc in stats.atoms:
            name = names_map[var][desc]
            entries.append(StatEntry(
                descriptor=desc, input_name=name,
                shape=gtilde.shapes[gtilde.input_id(name)],
                stat_graph=stat_graphs[var][desc],
                eta_graph=etas[desc]))
        blocks.append(LatentBlock(
            name=var, support=support, family=family,
            shape=log_joint.shapes[log_joint.input_id(var)],
            stats=tuple(entries), one_hot_depth=depths[var]))

    latents = {var for var, _ in targets}
    args = tuple(n for n in names if n not in latents)
    return MultilinearRepr(neg_energy=gtilde, blocks=tuple(blocks),
                           arg_names=args)
