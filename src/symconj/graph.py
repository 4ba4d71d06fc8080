"""Immutable term-graph IR for tensor expressions.

A :class:`TermGraph` is an append-only table of nodes (named inputs,
constants, and primitive applications) with one designated output. Graphs
are built through a :class:`GraphBuilder` and the expression-combinator
functions in this module (``log``, ``einsum``, operator overloads on
handles, ...). One table, :data:`OPS`, gives each primitive of the closed
set its argument count, attribute codec, shape rule and kernel factory;
the builder checks every node against its row and hash-conses identical
nodes; :func:`cse` copies a graph through a fresh builder, so duplicates
merge and the copy is numbered by its structure alone.
Graphs are evaluated by :func:`evaluate`, differentiated symbolically by
:func:`grad`, and edited by :func:`splice`. :func:`evaluate` runs the
graph's :class:`EvalPlan`, compiled once per graph from the kernel
factories: einsum ranks and extents are checked against the graph's
static shapes when the plan is built; input bindings and shapes, kernel
domains and the finiteness of kernel results are checked on every call.
Every transform that copies one graph into a builder (:func:`cse`, surgery,
:func:`subgraph`, :func:`import_graph`, gradients, statistic discovery,
natural-parameter extraction) goes through one traversal, :func:`rebuild`
(iterative), whose ``substitute`` callback swaps chosen nodes for other
handles. The einsum vector-Jacobian product behind :func:`grad` also
reads natural parameters off the canonical monomials. Text and DOT
serializations are produced by :func:`dump`; the text form parses back,
through the builder's checks, with :func:`parse`. :func:`render` writes
one node's expression on one line, for error messages.

Node argument lists always reference earlier nodes, so the node table is
its own topological order and acyclicity holds by construction. All
operations here are pure: they return new graphs and never mutate.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import operator
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import tensor
from .errors import (GraphError, NonDifferentiableError, NumericDomainError,
                     SymconjError)
from .tensor import INDEX_ALPHABET, EinsumSpec, as_tensor

__all__ = [
    "TermGraph", "GraphBuilder", "ExprHandle", "build", "evaluate", "cse",
    "grad", "splice", "dump", "parse", "subgraph", "import_graph",
    "rebuild", "graph_equal", "render", "EvalPlan",
]

UNARY_OPS = tuple(tensor.UNARY_FNS)


@functools.lru_cache(maxsize=None)
def espec(formula: str) -> EinsumSpec:
    return EinsumSpec(formula)


@functools.lru_cache(maxsize=None)
def rename_formula(formula: str) -> str:
    """Rename indices by first appearance in an output-then-operands scan.

    Used both as the hash-consing key for einsum nodes and as the canonical
    spelling rewritten into graphs during canonicalization.
    """
    spec = espec(formula)
    mapping: dict[str, str] = {}
    for ch in spec.output + "".join(spec.operand_subscripts):
        if ch not in mapping:
            mapping[ch] = INDEX_ALPHABET[len(mapping)]
    lhs = ",".join("".join(mapping[c] for c in s) for s in spec.operand_subscripts)
    return lhs + "->" + "".join(mapping[c] for c in spec.output)


@dataclass(frozen=True)
class InputNode:
    name: str
    shape: tuple
    support: str | None = None


class ConstNode:
    __slots__ = ("value",)

    def __init__(self, value):
        v = as_tensor(value)
        v.flags.writeable = False
        self.value = v

    @property
    def shape(self):
        return self.value.shape


@dataclass(frozen=True)
class PrimNode:
    op: str
    attrs: tuple
    args: tuple


def _shape_token(shape):
    return "(" + ",".join(str(int(d)) for d in shape) + ")"


def _parse_shape(token):
    if not (token.startswith("(") and token.endswith(")")):
        raise GraphError(f"bad shape token {token!r}")
    body = token[1:-1]
    return tuple(int(t) for t in body.split(",") if t)


def _broadcast_shape(attrs, shapes):
    a, b = shapes
    if a == b or b == ():
        return a
    if a == ():
        return b
    try:
        return tuple(np.broadcast_shapes(a, b))
    except ValueError:
        raise GraphError(f"shapes {a} and {b} do not broadcast") from None


def _int(v):
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise GraphError(f"needs an integer attribute, got {v!r}")
    return int(v)


def _drop_axis_shape(attrs, shapes):
    shape, axis = list(shapes[0]), _int(attrs[0])
    if not -len(shape) <= axis < len(shape):
        raise GraphError(f"axis {axis} out of bounds for shape {shapes[0]}")
    del shape[axis]
    return tuple(shape)


def _one_hot_shape(attrs, shapes):
    depth = _int(attrs[0])
    if depth < 1:
        raise GraphError(f"depth must be positive, got {depth}")
    return shapes[0] + (depth,)


def _broadcast_to_shape(attrs, shapes):
    if not isinstance(attrs[0], (tuple, list)):
        raise GraphError(f"needs a shape sequence, got {attrs[0]!r}")
    target = tuple(map(_int, attrs[0]))
    if _broadcast_shape(attrs, (shapes[0], target)) != target:
        raise GraphError(f"{shapes[0]} does not broadcast to {target}")
    return target


def _square_shape(keep):
    def rule(attrs, shapes):
        s = shapes[0]
        if len(s) < 2 or s[-1] != s[-2]:
            raise GraphError(f"needs square trailing axes, got {s}")
        return s if keep else s[:-2]
    return rule


def _power(x, y):
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.power(x, y)
    finite = np.isfinite(out)
    if not tensor.all_true(finite):
        i = int(np.flatnonzero(~finite)[0])
        raise NumericDomainError(
            f"power: non-finite result at flat index {i} (value "
            f"{np.broadcast_to(x, out.shape).flat[i]!r} ** "
            f"{np.broadcast_to(y, out.shape).flat[i]!r})")
    return out


_reciprocal = tensor.unary_kernel("reciprocal")


def _divide(x, y):
    return _reciprocal(y) * x


def _fixed(kernel):
    return lambda attrs, shapes: kernel


class Op(NamedTuple):
    """One primitive: its argument count (``None``: one or more), the
    (to text, from text) codec of its one attribute (``None``: it takes
    none), and two functions of a node's attributes and argument shapes:
    the shape rule, raising :class:`GraphError`, and the kernel factory."""
    arity: int | None
    codec: tuple | None
    shape: Callable
    kernel: Callable


# The closed primitive set. The builder checks every node against its row;
# plans, constant folding (:func:`_eval_prim`) and serialization read it.
OPS = {
    "einsum": Op(None, (str, str),
                 lambda a, s: tensor.einsum_output_shape(espec(a[0]), s),
                 lambda a, s: tensor.einsum_kernel(espec(a[0]), s)),
    **{op: Op(2, None, _broadcast_shape, _fixed(k)) for op, k in [
        ("add", operator.add), ("subtract", operator.sub),
        ("multiply", operator.mul), ("divide", _divide), ("power", _power)]},
    "one_hot": Op(1, (str, int), _one_hot_shape, lambda a, s: (
        functools.partial(tensor.one_hot, depth=a[0]))),
    **{op: Op(1, (str, int), _drop_axis_shape,
              lambda a, s, fn=fn: functools.partial(fn, axis=a[0]))
       for op, fn in [("sum_axis", np.sum), ("logsumexp", tensor.logsumexp)]},
    "broadcast_to": Op(1, (_shape_token, _parse_shape), _broadcast_to_shape,
                       lambda a, s: lambda x: np.broadcast_to(x, a[0]).copy()),
    "inverse": Op(1, None, _square_shape(True), _fixed(tensor.inverse)),
    "logdet": Op(1, None, _square_shape(False), _fixed(tensor.logdet)),
    **{op: Op(1, None, lambda a, s: s[0], _fixed(tensor.unary_kernel(op)))
       for op in UNARY_OPS},
}


def _eval_prim(op, attrs, args):
    """One primitive applied to argument values (constant folding)."""
    args = [as_tensor(a) for a in args]
    return OPS[op].kernel(attrs, tuple([a.shape for a in args]))(*args)


def _node_digest(node, arg_digests):
    """Content digest of one node given the digests of earlier nodes
    (indexable by node id): constants compare by value bits, einsum
    formulas after canonical index renaming."""
    h = hashlib.blake2b(digest_size=16)
    if isinstance(node, InputNode):
        h.update(b"in")
        h.update(repr((node.name, node.shape, node.support)).encode())
    elif isinstance(node, ConstNode):
        h.update(b"c")
        h.update(repr(node.value.shape).encode())
        h.update(node.value.tobytes())
    else:
        attrs = node.attrs
        if node.op == "einsum":
            attrs = (rename_formula(attrs[0]),)
        h.update(node.op.encode())
        h.update(repr(attrs).encode())
        for a in node.args:
            h.update(arg_digests[a])
    return h.digest()


class TermGraph:
    """Immutable acyclic data-flow graph with a designated output node."""

    def __init__(self, nodes, shapes, inputs, output):
        self.nodes = tuple(nodes)
        self.shapes = tuple(tuple(s) for s in shapes)
        self.inputs = tuple(inputs)
        self.output = output
        self._hashes = None
        self._plan = None
        self._canonical = None  # its CanonicalForm, kept by conjugacy

    def __len__(self):
        return len(self.nodes)

    @property
    def input_names(self):
        return tuple(self.nodes[i].name for i in self.inputs)

    def input_id(self, name):
        for i in self.inputs:
            if self.nodes[i].name == name:
                return i
        raise GraphError(f"no input named {name!r}")

    def structural_hashes(self):
        """Per-node content digests (:func:`_node_digest`); equal digests
        mean structurally equal subgraphs."""
        if self._hashes is None:
            hashes = []
            for node in self.nodes:
                hashes.append(_node_digest(node, hashes))
            self._hashes = tuple(hashes)
        return self._hashes

    def reachable(self, roots=None):
        """Boolean per-node mask of nodes reachable from the given roots
        (default: the output)."""
        mask = np.zeros(len(self.nodes), dtype=bool)
        stack = list(roots if roots is not None else [self.output])
        while stack:
            i = stack.pop()
            if mask[i]:
                continue
            mask[i] = True
            node = self.nodes[i]
            if isinstance(node, PrimNode):
                stack.extend(node.args)
        return mask

    def plan(self) -> "EvalPlan":
        """The graph's :class:`EvalPlan`, built on first use and cached."""
        if self._plan is None:
            self._plan = EvalPlan([self])
        return self._plan

    def depends_on(self, source_ids):
        """Boolean per-node mask: node value depends on any of the sources."""
        dep = set(source_ids)
        for i, node in enumerate(self.nodes):
            if isinstance(node, PrimNode) and not dep.isdisjoint(node.args):
                dep.add(i)
        mask = np.zeros(len(self.nodes), dtype=bool)
        mask[list(dep)] = True
        return mask


class ExprHandle:
    """A node under construction: a (builder, node id) pair supporting
    operator composition. Handles from different builders cannot mix."""

    __slots__ = ("builder", "nid")

    def __init__(self, builder, nid):
        self.builder = builder
        self.nid = nid

    @property
    def shape(self):
        return self.builder._shapes[self.nid]

    def __add__(self, other):
        return self.builder.prim("add", (self, other))

    def __radd__(self, other):
        return self.builder.prim("add", (other, self))

    def __sub__(self, other):
        return self.builder.prim("subtract", (self, other))

    def __rsub__(self, other):
        return self.builder.prim("subtract", (other, self))

    def __mul__(self, other):
        return self.builder.prim("multiply", (self, other))

    def __rmul__(self, other):
        return self.builder.prim("multiply", (other, self))

    def __truediv__(self, other):
        return self.builder.prim("divide", (self, other))

    def __rtruediv__(self, other):
        return self.builder.prim("divide", (other, self))

    def __pow__(self, other):
        return self.builder.prim("power", (self, other))

    def __neg__(self):
        return self.builder.prim("negate", (self,))


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class GraphBuilder:
    """Single-threaded constructor of one TermGraph, and the one gate every
    node passes: :meth:`prim` checks each primitive's argument count,
    attribute count and shapes against its :data:`OPS` row, and
    structurally identical nodes are hash-consed as they are appended.
    """

    def __init__(self):
        self._nodes = []
        self._shapes = []
        self._inputs = []
        self._seen = {}
        self._digests = {}

    def _append(self, node, shape):
        key = self._key(node)
        nid = self._seen.get(key)
        if nid is None:
            nid = self._seen[key] = len(self._nodes)
            self._nodes.append(node)
            self._shapes.append(tuple(shape))
        return ExprHandle(self, nid)

    def _key(self, node):
        if isinstance(node, InputNode):
            return ("in", node.name)
        if isinstance(node, ConstNode):
            return ("c", node.value.shape, node.value.tobytes())
        attrs = node.attrs
        if node.op == "einsum":
            attrs = (rename_formula(attrs[0]),)
        return (node.op, attrs, node.args)

    def node(self, h: "ExprHandle"):
        return self._nodes[h.nid]

    def digest(self, h: "ExprHandle") -> bytes:
        """Deterministic structural digest of the subgraph at a handle."""
        return self._digest_id(h.nid)

    def _digest_id(self, nid):
        """Digest of node ``nid``: each node is digested once, after its
        arguments, on an explicit stack."""
        d = self._digests.get(nid)
        if d is not None:
            return d
        digests, stack = self._digests, [nid]
        while stack:
            i = stack[-1]
            node = self._nodes[i]
            if isinstance(node, PrimNode):
                for a in node.args:
                    if a not in digests:
                        stack.append(a)
            if stack[-1] == i:  # its arguments are digested
                digests[stack.pop()] = _node_digest(node, digests)
        return digests[nid]

    def input_handle(self, name) -> "ExprHandle":
        for i in self._inputs:
            if self._nodes[i].name == name:
                return ExprHandle(self, i)
        raise GraphError(f"builder has no input named {name!r}")

    def input(self, name, shape, support=None):
        if not _NAME_RE.match(name):
            raise GraphError(f"invalid input name {name!r}")
        if ("in", name) in self._seen:
            raise GraphError(f"duplicate input name {name!r}")
        h = self._append(InputNode(name, tuple(shape), support), shape)
        self._inputs.append(h.nid)
        return h

    def constant(self, value):
        node = ConstNode(value)
        return self._append(node, node.shape)

    def prim(self, op, args, attrs=()):
        spec = OPS.get(op)
        if spec is None:
            raise GraphError(f"unknown primitive {op!r}")
        arg_handles = []
        for a in args:
            if not isinstance(a, ExprHandle):
                a = self.constant(a)
            elif a.builder is not self:
                raise GraphError(
                    f"{op}: cannot combine handles from different builders")
            arg_handles.append(a)
        attrs = tuple(attrs)
        n, arity = len(arg_handles), spec.arity
        if (n != arity) if arity else (n == 0):
            raise GraphError(f"{op}: argument count {n}, expected "
                             f"{arity or 'at least 1'}")
        if len(attrs) != (spec.codec is not None):
            raise GraphError(f"{op}: attribute count {len(attrs)}, expected "
                             f"{int(spec.codec is not None)}")
        try:
            shape = spec.shape(attrs, tuple([h.shape for h in arg_handles]))
        except GraphError as exc:
            raise GraphError(f"{op}: {exc}") from None
        if attrs and op != "einsum":  # one spelling: np.int64(1) is stored 1
            attrs = (spec.codec[1](spec.codec[0](attrs[0])),)
        node = PrimNode(op, attrs, tuple(h.nid for h in arg_handles))
        return self._append(node, shape)

    def finish(self, output, scalar=False) -> TermGraph:
        if not isinstance(output, ExprHandle) or output.builder is not self:
            raise GraphError("finish() requires a handle from this builder")
        if scalar and output.shape != ():
            raise GraphError(
                f"log-density output must be scalar, got shape {output.shape}")
        return TermGraph(self._nodes, self._shapes, self._inputs, output.nid)


# ---------------------------------------------------------------------------
# expression combinators


def _unary(name):
    def fn(x: ExprHandle) -> ExprHandle:
        return x.builder.prim(name, (x,))
    fn.__name__ = name
    fn.__doc__ = f"Elementwise {name} of a handle."
    return fn


log = _unary("log")
log1p = _unary("log1p")
exp = _unary("exp")
sqrt = _unary("sqrt")
square = _unary("square")
reciprocal = _unary("reciprocal")
logistic = _unary("logistic")
log_gamma = _unary("log_gamma")
digamma = _unary("digamma")
negate = _unary("negate")
inverse = _unary("inverse")
logdet = _unary("logdet")


def einsum(formula: str, *args) -> ExprHandle:
    """Einsum of operands, in the builder of the first handle among them;
    the other operands may be constants."""
    h = next((a for a in args if isinstance(a, ExprHandle)), None)
    if h is None:
        raise GraphError("einsum needs at least one "
                         + ("handle operand" if args else "operand"))
    return h.builder.prim("einsum", args, attrs=(formula,))


def one_hot(x: ExprHandle, depth: int) -> ExprHandle:
    return x.builder.prim("one_hot", (x,), attrs=(depth,))


def sum_axis(x: ExprHandle, axis: int) -> ExprHandle:
    return x.builder.prim("sum_axis", (x,), attrs=(axis,))


def logsumexp(x: ExprHandle, axis: int) -> ExprHandle:
    return x.builder.prim("logsumexp", (x,), attrs=(axis,))


def broadcast_to(x: ExprHandle, shape) -> ExprHandle:
    return x.builder.prim("broadcast_to", (x,), attrs=(shape,))


def sum_all(x: ExprHandle) -> ExprHandle:
    """Sum every element to a scalar (single einsum)."""
    letters = INDEX_ALPHABET[:len(x.shape)]
    return einsum(f"{letters}->", x)


def build(model_fn, inputs, scalar=True) -> TermGraph:
    """Build a TermGraph from a callback over declared inputs.

    ``inputs`` is a sequence of ``(name, shape)`` or ``(name, shape,
    support_tag)`` tuples; the callback receives one handle per input and
    returns the output handle. Log-joint builders must produce a scalar.
    """
    gb = GraphBuilder()
    handles = []
    for spec in inputs:
        name, shape = spec[0], spec[1]
        support = spec[2] if len(spec) > 2 else None
        handles.append(gb.input(name, shape, support))
    out = model_fn(*handles)
    if not isinstance(out, ExprHandle):
        out = gb.constant(out)
    return gb.finish(out, scalar=scalar)


# ---------------------------------------------------------------------------
# interpretation


class EvalPlan:
    """Evaluation of one or more graphs, compiled once and run many times.

    Building the plan gives each node reachable from an output a slot and
    an instruction: a constant's value, an input binding, or a primitive's
    kernel from its :data:`OPS` row, whose einsum ranks and extents are checked
    against the static shapes here. Structurally equal nodes share a slot,
    across graphs too, so an input or a common subexpression is bound or
    computed once per run. Each run checks every input binding and shape,
    so interior values have the shapes their kernels were built for; the
    kernels check their domains and the finiteness of their results.
    :meth:`bind` fixes inputs that do not change from run to run, such as
    a model's data, and runs what depends on them alone just once.
    """

    def __init__(self, graphs):
        slot_of: dict[bytes, int] = {}
        self.initial = []   # per slot: a constant's value, else None
        self.inputs = []    # (name, shape, slot)
        self.steps = []     # (kernel, argument slots, slot)
        self.outputs = []   # per graph, the slot of its output
        for g in graphs:
            hashes, reach = g.structural_hashes(), g.reachable()
            local: dict[int, int] = {}
            for i, node in enumerate(g.nodes):
                if not reach[i]:
                    continue
                slot = slot_of.get(hashes[i])
                if slot is None:
                    slot = slot_of[hashes[i]] = len(self.initial)
                    self.initial.append(node.value if isinstance(
                        node, ConstNode) else None)
                    if isinstance(node, InputNode):
                        self.inputs.append((node.name, node.shape, slot))
                    elif isinstance(node, PrimNode):
                        kernel = OPS[node.op].kernel(node.attrs, tuple(
                            [g.shapes[a] for a in node.args]))
                        self.steps.append(
                            (kernel, tuple(local[a] for a in node.args),
                             slot))
                local[i] = slot
            self.outputs.append(local[g.output])

    def run(self, env: dict) -> list:
        """The graphs' output values, in order, at the inputs in ``env``."""
        values = list(self.initial)
        for name, shape, slot in self.inputs:
            if name not in env:
                raise GraphError(f"missing binding for input {name!r}")
            v = as_tensor(env[name])
            if v.shape != shape:
                raise GraphError(
                    f"input {name!r} expects shape {shape}, got {v.shape}")
            values[slot] = v
        for kernel, args, slot in self.steps:
            values[slot] = kernel(*[values[a] for a in args])
        return [values[o] for o in self.outputs]

    def bind(self, env: dict) -> "EvalPlan":
        """This plan with the inputs named in ``env`` bound for good.

        Copies of their values are checked here, by name and shape, and
        every step whose operands are all bound or constant runs here,
        once, with its kernel's checks. The plan returned holds the values
        it still reads and runs only the other inputs and steps, so later
        changes to the arrays in ``env`` are not seen.
        """
        now, later = copy.copy(self), copy.copy(self)
        known = [v is not None for v in self.initial]
        now.inputs, later.inputs = [], []
        for name, shape, slot in self.inputs:
            known[slot] = name in env
            (now if known[slot] else later).inputs.append((name, shape, slot))
        now.steps, later.steps = [], []
        for kernel, args, slot in self.steps:
            known[slot] = all([known[a] for a in args])
            (now if known[slot] else later).steps.append((kernel, args, slot))
        now.outputs = range(len(self.initial))
        values = now.run({name: np.array(env[name], dtype=np.float64)
                          for name, _, _ in now.inputs})
        reads = {a for _, args, _ in later.steps for a in args}
        reads.update(self.outputs)
        later.initial = [v if s in reads else None
                         for s, v in enumerate(values)]
        return later


def evaluate(g: TermGraph, env: dict) -> np.ndarray:
    """Evaluate the graph's output by running its cached :class:`EvalPlan`.

    ``env`` maps input names to tensors; every input reachable from the
    output must be bound with a matching shape.
    """
    return g.plan().run(env)[0]


# ---------------------------------------------------------------------------
# hash-consing CSE


def cse(g: TermGraph) -> TermGraph:
    """Copy the inputs in declared order, then the output, through a fresh
    builder with :func:`rebuild`: structural duplicates merge, unreachable
    non-input nodes drop, and the left-to-right post-order numbers the
    nodes by structure alone, as in every graph the canonicalizer's sweep
    returns. Idempotent; evaluation-preserving."""
    gb, memo = GraphBuilder(), {}
    for i in g.inputs:
        rebuild(gb, g, i, memo)
    return gb.finish(rebuild(gb, g, g.output, memo))


# ---------------------------------------------------------------------------
# graph surgery


def rebuild(gb, g, nid, memo, substitute=None):
    """Re-emit node ``nid`` of ``g``, and every node it reaches, into
    builder ``gb``; the one node-copying traversal behind graph surgery.

    Arguments are visited left to right, on an explicit stack, and a node
    is emitted after its arguments. ``memo`` maps node ids of ``g`` to
    handles of ``gb`` and is filled as nodes are emitted; a pre-seeded
    entry stands in for its node, whose interior is then never visited.
    ``substitute(i)``, when given, is asked the first time node ``i`` is
    reached and returns a handle to stand in for it, or ``None`` to copy
    the node.
    """
    def reach(i):
        """Node i's handle; None for a primitive still to be emitted."""
        if i in memo:
            if memo[i] is None:
                raise GraphError("graph surgery would introduce a cycle")
            return memo[i]
        memo[i] = None  # in-progress marker
        h = None if substitute is None else substitute(i)
        node = g.nodes[i]
        if h is None and isinstance(node, InputNode):
            h = gb.input(node.name, node.shape, node.support)
        elif h is None and isinstance(node, ConstNode):
            h = gb.constant(node.value)
        memo[i] = h
        return h

    stack = [(None, [], (nid,))]  # (node, its argument handles, its args)
    while True:
        i, done, args = stack[-1]
        if len(done) < len(args):
            h = reach(args[len(done)])
            if h is None:
                a = args[len(done)]
                stack.append((a, [], g.nodes[a].args))
            else:
                done.append(h)
            continue
        stack.pop()
        if i is None:
            return done[0]
        node = g.nodes[i]
        memo[i] = h = gb.prim(node.op, done, node.attrs)
        stack[-1][1].append(h)


def import_graph(gb, sub: TermGraph, bindings: dict) -> ExprHandle:
    """Inline a subgraph into a builder, binding its inputs to handles."""
    memo = {i: bindings[sub.nodes[i].name] for i in sub.inputs
            if sub.nodes[i].name in bindings}
    if len(memo) < len(sub.inputs):
        reach = sub.reachable()
        for i in sub.inputs:
            if i not in memo and reach[i]:
                raise GraphError(
                    f"import_graph: unbound input {sub.nodes[i].name!r}")
    return rebuild(gb, sub, sub.output, memo)


def splice(g: TermGraph, target: int, replacement: TermGraph,
           bindings: dict | None = None) -> TermGraph:
    """Replace node ``target`` with a subgraph.

    ``replacement`` is a TermGraph whose inputs either name inputs of ``g``
    or are mapped by ``bindings`` (input name -> node id of ``g``). Every
    consumer of ``target`` consumes the replacement's output afterwards.
    """
    bindings = bindings or {}
    if replacement.shapes[replacement.output] != g.shapes[target]:
        raise GraphError(
            f"splice: replacement shape {replacement.shapes[replacement.output]} "
            f"!= target shape {g.shapes[target]}")
    gb = GraphBuilder()
    memo: dict[int, ExprHandle] = {}

    def substitute(i):
        if i != target:
            return None
        imports = {name: rebuild(gb, g, bindings[name] if name in bindings
                                 else g.input_id(name), memo, substitute)
                   for name in replacement.input_names}
        return import_graph(gb, replacement, imports)

    for i in g.inputs:
        if i != target:
            rebuild(gb, g, i, memo, substitute)
    return gb.finish(rebuild(gb, g, g.output, memo, substitute))


def subgraph(g: TermGraph, nid: int) -> TermGraph:
    """Extract the subgraph rooted at a node as its own TermGraph; inputs
    are the original inputs it reaches."""
    gb = GraphBuilder()
    return gb.finish(rebuild(gb, g, nid, {}))


# ---------------------------------------------------------------------------
# symbolic reverse-mode differentiation


def _fresh_letters(used, n):
    out = [c for c in INDEX_ALPHABET if c not in used][:n]
    if len(out) < n:
        raise GraphError("einsum gradient exhausted the index alphabet")
    return out


def _unbroadcast(gb, h, target):
    """Reduce a cotangent back to the (numpy trailing-broadcast) shape of
    the argument it belongs to."""
    cur = tuple(h.shape)
    target = tuple(target)
    if cur == target:
        return h
    letters = list(INDEX_ALPHABET[:len(cur)])
    offset = len(cur) - len(target)
    keep = []
    for i, ell in enumerate(letters):
        j = i - offset
        if j >= 0 and target[j] == cur[i]:
            keep.append(ell)
    reduced = gb.prim("einsum", (h,),
                      attrs=("".join(letters) + "->" + "".join(keep),))
    if tuple(reduced.shape) == target:
        return reduced
    # reinsert the size-1 axes that were summed away
    ops = [reduced]
    subs = ["".join(keep)]
    out_letters = []
    ki = 0
    pool = iter(_fresh_letters(set(letters), len(target)))
    for j, d in enumerate(target):
        i = j + offset
        if d == cur[i]:
            out_letters.append(keep[ki])
            ki += 1
        else:  # d == 1, summed away above
            ell = next(pool)
            ops.append(gb.constant(np.ones(1)))
            subs.append(ell)
            out_letters.append(ell)
    formula = ",".join(subs) + "->" + "".join(out_letters)
    return gb.prim("einsum", tuple(ops), attrs=(formula,))


def _expand_like(gb, h, axis, extent, full_letters):
    """Broadcast a reduced tensor back along one axis via an einsum with a
    ones vector (there is no reshape primitive)."""
    sub = full_letters[:axis] + full_letters[axis + 1:]
    ones = gb.constant(np.ones(extent))
    formula = f"{sub},{full_letters[axis]}->{full_letters}"
    return gb.prim("einsum", (h, ones), attrs=(formula,))


def _einsum_vjp(gb, formula, arg_handles, cot, k):
    spec = espec(formula)
    subs = spec.operand_subscripts
    ksub = subs[k]
    parts = [spec.output] + [s for j, s in enumerate(subs) if j != k]
    ops = [cot] + [h for j, h in enumerate(arg_handles) if j != k]
    carried = set("".join(parts))
    fresh = iter(_fresh_letters(set(formula), len(ksub) - len(set(ksub))))
    out = []
    # eye only for a repeated letter, ones only for a letter nothing else carries
    for ell, n in zip(ksub, arg_handles[k].shape):
        if ell in out:
            out.append(next(fresh))
            ops.append(gb.constant(np.eye(n)))
            parts.append(ell + out[-1])
        else:
            if ell not in carried and ksub.count(ell) == 1:
                ops.append(gb.constant(np.ones(n)))
                parts.append(ell)
            out.append(ell)
    return ops, (",".join(parts) + "->" + "".join(out),)


def grad(g: TermGraph, wrt: int, wrt_name: str | None = None) -> TermGraph:
    """Symbolic reverse-mode gradient of the scalar output w.r.t. the value
    at node ``wrt``.

    The result is a new TermGraph over the same inputs; if ``wrt`` is an
    interior node, a fresh input (default name ``"_wrt"``) stands for its
    value. The gradient is itself a graph: it can be evaluated,
    canonicalized, or differentiated again. Paths crossing primitives
    without a derivative rule (``one_hot`` w.r.t. its index argument,
    ``digamma``) raise :class:`NonDifferentiableError`.
    """
    if g.shapes[g.output] != ():
        raise GraphError("grad requires a scalar output")
    if not 0 <= wrt < len(g.nodes):
        raise GraphError(f"wrt node {wrt} not in graph")

    gb = GraphBuilder()
    memo: dict[int, ExprHandle] = {}
    wrt_shape = g.shapes[wrt]
    for i in g.inputs:
        node = g.nodes[i]
        memo[i] = gb.input(node.name, node.shape, node.support)
    if isinstance(g.nodes[wrt], InputNode):
        t_handle = memo[wrt]
    else:
        name = wrt_name or "_wrt"
        if name in g.input_names:
            raise GraphError(f"wrt input name {name!r} collides with an input")
        t_handle = gb.input(name, wrt_shape)
        memo[wrt] = t_handle

    dep = g.depends_on([wrt])
    reach = g.reachable()
    adjoint: dict[int, ExprHandle] = {}
    if dep[g.output]:
        adjoint[g.output] = gb.constant(1.0)
        for i in range(len(g.nodes) - 1, -1, -1):
            if i == wrt or not (reach[i] and dep[i]) or i not in adjoint:
                continue
            node = g.nodes[i]
            if not isinstance(node, PrimNode):
                continue
            cot = adjoint[i]
            args = [rebuild(gb, g, a, memo) for a in node.args]
            out_h = rebuild(gb, g, i, memo)
            for k, a in enumerate(node.args):
                if not dep[a]:
                    continue
                contrib = _vjp(gb, node.op, node.attrs, args, out_h, cot, k)
                if a in adjoint:
                    adjoint[a] = gb.prim("add", (adjoint[a], contrib))
                else:
                    adjoint[a] = contrib
    result = adjoint.get(wrt)
    if result is None:
        result = gb.constant(np.zeros(wrt_shape))
    return gb.finish(result)


def _vjp(gb, op, attrs, args, out_h, cot, k):
    c = gb.constant

    def mul(a, b):
        return gb.prim("multiply", (a, b))

    if op == "add":
        raw = cot
    elif op == "subtract":
        raw = cot if k == 0 else gb.prim("negate", (cot,))
    elif op == "multiply":
        raw = mul(cot, args[1 - k])
    elif op == "divide":
        if k == 0:
            raw = gb.prim("divide", (cot, args[1]))
        else:
            raw = gb.prim("negate",
                          (gb.prim("divide", (mul(cot, out_h), args[1])),))
    elif op == "power":
        if k == 0:
            down = gb.prim("power", (args[0], gb.prim("subtract", (args[1], c(1.0)))))
            raw = mul(cot, mul(args[1], down))
        else:
            raw = mul(cot, mul(out_h, gb.prim("log", (args[0],))))
    elif op == "negate":
        return gb.prim("negate", (cot,))
    elif op == "log":
        return mul(cot, gb.prim("reciprocal", (args[0],)))
    elif op == "log1p":
        return mul(cot, gb.prim("reciprocal", (gb.prim("add", (args[0], c(1.0))),)))
    elif op == "exp":
        return mul(cot, out_h)
    elif op == "sqrt":
        return mul(cot, mul(c(0.5), gb.prim("reciprocal", (out_h,))))
    elif op == "square":
        return mul(cot, mul(c(2.0), args[0]))
    elif op == "reciprocal":
        return gb.prim("negate", (mul(cot, gb.prim("square", (out_h,))),))
    elif op == "logistic":
        return mul(cot, mul(out_h, gb.prim("subtract", (c(1.0), out_h))))
    elif op == "log_gamma":
        return mul(cot, gb.prim("digamma", (args[0],)))
    elif op == "einsum":
        return gb.prim("einsum", *_einsum_vjp(gb, attrs[0], args, cot, k))
    elif op == "sum_axis":
        full = INDEX_ALPHABET[:len(args[0].shape)]
        axis = int(attrs[0]) % len(args[0].shape)
        return _expand_like(gb, cot, axis, args[0].shape[axis], full)
    elif op == "logsumexp":
        full = INDEX_ALPHABET[:len(args[0].shape)]
        axis = int(attrs[0]) % len(args[0].shape)
        extent = args[0].shape[axis]
        lse_full = _expand_like(gb, out_h, axis, extent, full)
        soft = gb.prim("exp", (gb.prim("subtract", (args[0], lse_full)),))
        cot_full = _expand_like(gb, cot, axis, extent, full)
        return mul(soft, cot_full)
    elif op == "broadcast_to":
        return _unbroadcast(gb, cot, args[0].shape)
    elif op == "logdet":
        # d logdet(M) = <M^-T, dM>
        inv = gb.prim("inverse", (args[0],))
        n = len(args[0].shape)
        batch = INDEX_ALPHABET[:n - 2]
        f = f"{batch},{batch}ij->{batch}ji" if batch else ",ij->ji"
        return gb.prim("einsum", (cot, inv), attrs=(f,))
    elif op == "inverse":
        # dY = -Y dM Y  =>  cot_M = -Y^T cot Y^T
        inv = out_h
        n = len(args[0].shape)
        batch = INDEX_ALPHABET[:n - 2]
        f = (f"{batch}ia,{batch}ij,{batch}jb->{batch}ab" if batch
             else "ia,ij,jb->ab")
        raw = gb.prim("einsum", (inv, cot, inv), attrs=(f,))
        return gb.prim("negate", (raw,))
    elif op in ("one_hot", "digamma"):
        raise NonDifferentiableError(f"primitive {op!r} has no derivative rule")
    else:
        raise NonDifferentiableError(f"primitive {op!r} has no derivative rule")
    return _unbroadcast(gb, raw, args[k].shape)


# ---------------------------------------------------------------------------
# serialization


def dump(g: TermGraph, format: str = "text") -> str:
    """Deterministic serialization; ``text`` round-trips through
    :func:`parse`, ``dot`` yields a Graphviz digraph."""
    if format == "text":
        return _dump_text(g)
    if format == "dot":
        return _dump_dot(g)
    raise GraphError(f"unknown dump format {format!r}")


def render(g: TermGraph, nid: int, names=None) -> str:
    """The expression computed at node ``nid`` as one line: inputs by
    name, or by their text in ``names`` (input name -> text), scalar
    constants by value, primitives as ``op(args)``."""
    node = g.nodes[nid]
    if isinstance(node, InputNode):
        return (names or {}).get(node.name, node.name)
    if isinstance(node, ConstNode):
        v = node.value
        return format(float(v), "g") if v.shape == () else (
            f"const{_shape_token(v.shape)}")
    return f"{node.op}({', '.join(render(g, a, names) for a in node.args)})"


def _labels(g):
    """Input names, else ``n{i}``, with a ``_`` added while it names an
    input, so no two records of a dump define one label."""
    labels, names = {}, set(g.input_names)
    for i, node in enumerate(g.nodes):
        label = f"n{i}"
        while label in names:
            label += "_"
        labels[i] = node.name if isinstance(node, InputNode) else label
    return labels


def _dump_text(g: TermGraph) -> str:
    lines = ["# symconj-graph v1"]
    labels = _labels(g)
    for i, node in enumerate(g.nodes):
        if isinstance(node, InputNode):
            parts = ["input", node.name, _shape_token(node.shape)]
            if node.support:
                parts.append(node.support)
            lines.append(" ".join(parts))
        elif isinstance(node, ConstNode):
            flat = " ".join(repr(float(v)) for v in node.value.ravel())
            lines.append(
                f"const {labels[i]} {_shape_token(node.value.shape)} {flat}".rstrip())
        else:
            args = " ".join(labels[a] for a in node.args)
            body = f"prim {labels[i]} {node.op}"
            if node.attrs:
                body += f" [{OPS[node.op].codec[0](node.attrs[0])}]"
            lines.append(f"{body} {args}")
    lines.append(f"output {labels[g.output]}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> TermGraph:
    """Parse the text serialization back into a structurally equal graph."""
    gb = GraphBuilder()
    byname: dict[str, ExprHandle] = {}
    output = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            toks = line.split()
            kind = toks[0]
            if kind in ("input", "const", "prim") and toks[1] in byname:
                raise GraphError(f"label {toks[1]!r} is defined twice")
            if kind == "output" and output is not None:
                raise GraphError("a second output record")
            if kind == "input":
                name, shape = toks[1], _parse_shape(toks[2])
                support = toks[3] if len(toks) > 3 else None
                byname[name] = gb.input(name, shape, support)
            elif kind == "const":
                label, shape = toks[1], _parse_shape(toks[2])
                vals = np.array([float(t) for t in toks[3:]]).reshape(shape)
                byname[label] = gb.constant(vals)
            elif kind == "prim":
                label, op = toks[1], toks[2]
                rest = toks[3:]
                attrs = ()
                if rest and rest[0].startswith("["):
                    codec = OPS[op].codec if op in OPS else None
                    attr = rest.pop(0)[1:-1]
                    attrs = (codec[1](attr) if codec else attr,)
                args = [byname[t] for t in rest]
                byname[label] = gb.prim(op, args, attrs)
            elif kind == "output":
                output = byname[toks[1]]
            else:
                raise GraphError(f"unknown record {kind!r}")
        except (KeyError, IndexError, ValueError, SymconjError) as exc:
            raise GraphError(f"parse error at line {lineno}: {exc}") from exc
    if output is None:
        raise GraphError("parse error: no output record")
    return gb.finish(output)


def _dump_dot(g: TermGraph) -> str:
    labels = _labels(g)
    lines = ["digraph termgraph {"]
    for i, node in enumerate(g.nodes):
        if isinstance(node, InputNode):
            text = f"input {node.name} {_shape_token(node.shape)}"
            shape = "box"
        elif isinstance(node, ConstNode):
            text = f"const {_shape_token(node.value.shape)}"
            shape = "ellipse"
        else:
            text = node.op
            if node.op == "einsum":
                text += f" {node.attrs[0]}"
            shape = "ellipse"
        lines.append(f'  {labels[i]} [label="{text}", shape={shape}];')
    for i, node in enumerate(g.nodes):
        if isinstance(node, PrimNode):
            for a in node.args:
                lines.append(f"  {labels[a]} -> {labels[i]};")
    lines.append(f'  {labels[g.output]} [penwidth=2];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_equal(g1: TermGraph, g2: TermGraph) -> bool:
    """Structural equality: identical text serializations."""
    return _dump_text(g1) == _dump_text(g2)
