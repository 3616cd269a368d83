"""Reverse-mode automatic differentiation over dense float64 arrays.

Every primitive application builds a `Node` eagerly (value computed at
construction) while linking into a DAG, so any value can later be
differentiated. Backward passes emit their vector-Jacobian products as new
nodes built from the same primitive set, which makes gradients themselves
differentiable: differentiating through a parameter-update expression
(gradient-of-gradient) needs no special casing.

Arrays are numpy float64 throughout; integer index arrays (token ids, masks)
enter operations as attributes, never as differentiable inputs. Any primitive
that produces a non-finite value from finite inputs raises instead of
propagating NaN/Inf.

Inside a ``no_graph()`` scope primitives still compute their values eagerly
and still raise ``NonFiniteError``, but the nodes they return link no
inputs, so nothing is kept alive for a backward pass that will never come
(inference). The scope also enters numpy's error state once, where recorded
ops enter it once each.

A ``backward`` run inside ``no_graph()`` is a value-only pass: the same VJPs
compute the same gradient values bit for bit, but build no gradient graph.
``gradient_values`` wraps this for callers that only read the numbers (every
training step except the inner loop of second-order MAML, whose gradients
the outer pass differentiates). ``backward`` drops each interior adjoint as
soon as its VJP has run, so a value-only pass holds only its frontier.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Node",
    "Graph",
    "no_graph",
    "ShapeError",
    "NonFiniteError",
    "leaf",
    "constant",
    "apply_primitive",
    "backward",
    "gradient_values",
    "grad_check",
    "GradCheckReport",
    "PRIMITIVE_OPS",
    "matmul",
    "add",
    "sub",
    "mul",
    "scale",
    "relu",
    "gelu",
    "softmax_lastdim",
    "layer_norm",
    "embed_lookup",
    "concat",
    "slice_axis",
    "reshape",
    "transpose_last2",
    "cross_entropy_with_logits",
    "mask_fill",
    "mean_all",
    "sum_all",
]


class ShapeError(ValueError):
    """Input shapes do not conform to the primitive's rule."""


class NonFiniteError(ArithmeticError):
    """A primitive or gradient produced NaN/Inf from finite inputs."""


class Node:
    """One value in the computation DAG.

    Leaves have ``op is None``; named leaves are trainable/checkable
    parameters, unnamed leaves are constants. Interior nodes record the
    primitive id, input nodes and attributes so the graph can be
    differentiated.
    """

    __slots__ = ("op", "inputs", "attrs", "value", "name")

    def __init__(self, op, inputs, attrs, value, name=None):
        self.op = op
        self.inputs = inputs
        self.attrs = attrs
        self.value = value
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        tag = self.name if self.op is None else self.op
        return f"Node({tag!r}, shape={self.value.shape})"


def leaf(name: str, values) -> Node:
    """Create a named parameter leaf. Values are kept as float64."""
    arr = np.asarray(values, dtype=np.float64)
    _check_finite(arr, f"leaf {name!r}")
    return Node(None, (), None, arr, name=name)


def constant(values) -> Node:
    """Create an unnamed constant leaf (receives no gradient)."""
    arr = np.asarray(values, dtype=np.float64)
    return Node(None, (), None, arr)


def _as_node(x) -> Node:
    return x if isinstance(x, Node) else constant(x)


def _check_finite(arr, context: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in {context}")


# ---------------------------------------------------------------------------
# operator registry
# ---------------------------------------------------------------------------

# op_id -> (forward, vjp). forward(attrs, *input_values) -> ndarray.
# vjp(node, upstream) -> tuple of gradient Nodes (or None) per input.
_OPS: dict[str, tuple[Callable, Callable]] = {}

# False inside a no_graph() scope. Module state, so not thread-safe; the
# package is single-threaded.
_recording = True


@contextmanager
def no_graph():
    """Evaluate primitives without recording a graph (inference only).

    Nodes built inside carry their op id and value but ``inputs == ()``, so
    they cannot be differentiated through. Finiteness checks still apply.
    Scopes nest; the previous recording state and numpy error state are
    restored on exit, also when an op raises.
    """
    global _recording
    outer = _recording
    _recording = False
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            yield
    finally:
        _recording = outer


def _make(op_id: str, inputs: Sequence[Node], attrs: dict | None = None) -> Node:
    fwd, _ = _OPS[op_id]
    if not _recording:
        value = fwd(attrs, *[n.value for n in inputs])
        _check_finite(value, f"output of {op_id!r}")
        return Node(op_id, (), attrs, value)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value = fwd(attrs, *(n.value for n in inputs))
    _check_finite(value, f"output of {op_id!r}")
    return Node(op_id, tuple(inputs), attrs, value)


def apply_primitive(op_id: str, inputs: Sequence, attrs: dict | None = None) -> Node:
    """Apply one of the public primitives, recording a graph node.

    Raises ``ValueError`` for unknown op ids, ``ShapeError`` when inputs do
    not conform to the primitive's shape rule, and ``NonFiniteError`` if the
    result contains NaN/Inf.
    """
    if op_id not in PRIMITIVE_OPS:
        raise ValueError(f"unknown primitive op_id {op_id!r}")
    return _make(op_id, [_as_node(x) for x in inputs], attrs)


# ---------------------------------------------------------------------------
# broadcasting helpers (private ops, closed under differentiation)
# ---------------------------------------------------------------------------


def _sum_to(node: Node, shape: tuple) -> Node:
    if node.value.shape == tuple(shape):
        return node
    return _make("_sum_to", (node,), {"shape": tuple(shape)})


def _fwd_sum_to(attrs, x):
    shape = attrs["shape"]
    pad = x.ndim - len(shape)
    axes = tuple(range(pad)) + tuple(
        pad + i for i, n in enumerate(shape) if n == 1 and x.shape[pad + i] != 1
    )
    out = x.sum(axis=axes, keepdims=True) if axes else x
    return out.reshape(shape)


def _vjp_sum_to(node, g):
    return (_make("_broadcast_to", (g,), {"shape": node.inputs[0].value.shape}),)


_OPS["_sum_to"] = (_fwd_sum_to, _vjp_sum_to)


def _fwd_broadcast_to(attrs, x):
    return np.broadcast_to(x, attrs["shape"]).copy()


def _vjp_broadcast_to(node, g):
    return (_sum_to(g, node.inputs[0].value.shape),)


_OPS["_broadcast_to"] = (_fwd_broadcast_to, _vjp_broadcast_to)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def _fwd_add(attrs, a, b):
    return a + b


def _vjp_add(node, g):
    a, b = node.inputs
    return (_sum_to(g, a.value.shape), _sum_to(g, b.value.shape))


_OPS["add"] = (_fwd_add, _vjp_add)


def _fwd_mul(attrs, a, b):
    return a * b


def _vjp_mul(node, g):
    a, b = node.inputs
    return (_sum_to(mul(g, b), a.value.shape), _sum_to(mul(g, a), b.value.shape))


_OPS["mul"] = (_fwd_mul, _vjp_mul)


def _fwd_scale(attrs, x):
    return x * attrs["c"]


def _vjp_scale(node, g):
    return (scale(g, node.attrs["c"]),)


_OPS["scale"] = (_fwd_scale, _vjp_scale)


# ---------------------------------------------------------------------------
# linear algebra and structure
# ---------------------------------------------------------------------------


def _fwd_matmul(attrs, a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    return a @ b


def _vjp_matmul(node, g):
    a, b = node.inputs
    ga = _sum_to(matmul(g, transpose_last2(b)), a.value.shape)
    gb = _sum_to(matmul(transpose_last2(a), g), b.value.shape)
    return (ga, gb)


_OPS["matmul"] = (_fwd_matmul, _vjp_matmul)


def _fwd_transpose_last2(attrs, x):
    if x.ndim < 2:
        raise ShapeError(f"transpose_last2 needs rank >= 2, got shape {x.shape}")
    return np.swapaxes(x, -1, -2).copy()


def _vjp_transpose_last2(node, g):
    return (transpose_last2(g),)


_OPS["transpose_last2"] = (_fwd_transpose_last2, _vjp_transpose_last2)


def _fwd_reshape(attrs, x):
    shape = attrs["shape"]
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    return x.reshape(shape).copy()


def _vjp_reshape(node, g):
    return (reshape(g, node.inputs[0].value.shape),)


_OPS["reshape"] = (_fwd_reshape, _vjp_reshape)


def _fwd_concat(attrs, *xs):
    axis = attrs["axis"]
    return np.concatenate(xs, axis=axis)


def _vjp_concat(node, g):
    axis = node.attrs["axis"]
    grads, start = [], 0
    for inp in node.inputs:
        n = inp.value.shape[axis]
        grads.append(slice_axis(g, axis, start, start + n))
        start += n
    return tuple(grads)


_OPS["concat"] = (_fwd_concat, _vjp_concat)


def _fwd_slice(attrs, x):
    axis, start, stop = attrs["axis"], attrs["start"], attrs["stop"]
    extent = x.shape[axis]
    if not (0 <= start <= stop <= extent):
        raise ShapeError(f"slice [{start}:{stop}] out of range for extent {extent}")
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, stop)
    return x[tuple(idx)].copy()


def _vjp_slice(node, g):
    # Gradient scatters back into a zero array; expressed as a concat of
    # zero constants so it stays differentiable.
    x = node.inputs[0]
    axis, start, stop = node.attrs["axis"], node.attrs["start"], node.attrs["stop"]
    pieces = []
    if start > 0:
        shape = list(x.value.shape)
        shape[axis] = start
        pieces.append(constant(np.zeros(shape)))
    pieces.append(g)
    if stop < x.value.shape[axis]:
        shape = list(x.value.shape)
        shape[axis] = x.value.shape[axis] - stop
        pieces.append(constant(np.zeros(shape)))
    if len(pieces) == 1:
        return (g,)
    return (concat(pieces, axis=axis),)


_OPS["slice"] = (_fwd_slice, _vjp_slice)


def _fwd_embed_lookup(attrs, table):
    ids = attrs["ids"]
    if table.ndim != 2:
        raise ShapeError(f"embed_lookup table must be rank 2, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embed ids out of range [0, {table.shape[0]}): "
            f"min {ids.min()}, max {ids.max()}"
        )
    return table[ids]


def _vjp_embed_lookup(node, g):
    table = node.inputs[0]
    return (
        _make(
            "_scatter_rows",
            (g,),
            {"ids": node.attrs["ids"], "n_rows": table.value.shape[0]},
        ),
    )


_OPS["embed_lookup"] = (_fwd_embed_lookup, _vjp_embed_lookup)


def _fwd_scatter_rows(attrs, g):
    ids = attrs["ids"]
    out = np.zeros((attrs["n_rows"], g.shape[-1]))
    np.add.at(out, ids.reshape(-1), g.reshape(-1, g.shape[-1]))
    return out


def _vjp_scatter_rows(node, g):
    return (embed_lookup(g, node.attrs["ids"]),)


_OPS["_scatter_rows"] = (_fwd_scatter_rows, _vjp_scatter_rows)


def _fwd_mask_fill(attrs, x):
    mask = attrs["mask"]
    try:
        out = np.where(mask, attrs["value"], x)
    except ValueError as exc:
        raise ShapeError(f"mask {mask.shape} not broadcastable to {x.shape}") from exc
    if out.shape != x.shape:
        raise ShapeError(f"mask {mask.shape} widens input {x.shape}")
    return out


def _vjp_mask_fill(node, g):
    keep = constant((~np.broadcast_to(node.attrs["mask"], g.value.shape)).astype(np.float64))
    return (mul(g, keep),)


_OPS["mask_fill"] = (_fwd_mask_fill, _vjp_mask_fill)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def _fwd_relu(attrs, x):
    return np.maximum(x, 0.0)


def _vjp_relu(node, g):
    # Subgradient at 0 is 0 (strict inequality).
    mask = constant((node.inputs[0].value > 0.0).astype(np.float64))
    return (mul(g, mask),)


_OPS["relu"] = (_fwd_relu, _vjp_relu)

_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def _fwd_gelu(attrs, x):
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + _GELU_A * x**3)))


def _vjp_gelu(node, g):
    # d/dx [0.5 x (1 + tanh(u))], u = c(x + a x^3), rebuilt as nodes so the
    # derivative is itself differentiable.
    x = node.inputs[0]
    x2 = mul(x, x)
    u = scale(add(x, scale(mul(x2, x), _GELU_A)), _GELU_C)
    t = _make("_tanh", (u,))
    one = constant(np.ones(()))
    sech2 = sub(one, mul(t, t))
    du = scale(add(one, scale(x2, 3.0 * _GELU_A)), _GELU_C)
    d = add(scale(add(one, t), 0.5), scale(mul(mul(x, sech2), du), 0.5))
    return (mul(g, d),)


_OPS["gelu"] = (_fwd_gelu, _vjp_gelu)


def _fwd_tanh(attrs, x):
    return np.tanh(x)


def _vjp_tanh(node, g):
    t = node
    return (mul(g, sub(constant(np.ones(())), mul(t, t))),)


_OPS["_tanh"] = (_fwd_tanh, _vjp_tanh)


def _fwd_rsqrt(attrs, x):
    return 1.0 / np.sqrt(x)


def _vjp_rsqrt(node, g):
    y = node
    return (mul(g, scale(mul(mul(y, y), y), -0.5)),)


_OPS["_rsqrt"] = (_fwd_rsqrt, _vjp_rsqrt)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _fwd_sum(attrs, x):
    return np.asarray(x.sum())


def _vjp_sum(node, g):
    return (_make("_broadcast_to", (g,), {"shape": node.inputs[0].value.shape}),)


_OPS["sum"] = (_fwd_sum, _vjp_sum)


def _fwd_mean(attrs, x):
    return np.asarray(x.mean())


def _vjp_mean(node, g):
    x = node.inputs[0]
    return (
        _make(
            "_broadcast_to",
            (scale(g, 1.0 / x.value.size),),
            {"shape": x.value.shape},
        ),
    )


_OPS["mean"] = (_fwd_mean, _vjp_mean)


def _fwd_sum_last(attrs, x):
    return x.sum(axis=-1, keepdims=True)


def _vjp_sum_last(node, g):
    return (_make("_broadcast_to", (g,), {"shape": node.inputs[0].value.shape}),)


_OPS["_sum_last"] = (_fwd_sum_last, _vjp_sum_last)


def _fwd_mean_last(attrs, x):
    return x.mean(axis=-1, keepdims=True)


def _vjp_mean_last(node, g):
    x = node.inputs[0]
    return (
        _make(
            "_broadcast_to",
            (scale(g, 1.0 / x.value.shape[-1]),),
            {"shape": x.value.shape},
        ),
    )


_OPS["_mean_last"] = (_fwd_mean_last, _vjp_mean_last)


# ---------------------------------------------------------------------------
# softmax / normalization / loss
# ---------------------------------------------------------------------------


def _fwd_softmax_lastdim(attrs, x):
    # Subtracting the row max is a mathematical no-op; it only guards exp.
    z = np.exp(x - x.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def _vjp_softmax_lastdim(node, g):
    y = node
    gy = mul(g, y)
    return (sub(gy, mul(y, _make("_sum_last", (gy,)))),)


_OPS["softmax_lastdim"] = (_fwd_softmax_lastdim, _vjp_softmax_lastdim)


def _fwd_layer_norm(attrs, x, gain, bias):
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/bias must be ({d},), got {gain.shape}/{bias.shape}"
        )
    eps = attrs["eps"]
    m = x.mean(axis=-1, keepdims=True)
    xc = x - m
    v = (xc * xc).mean(axis=-1, keepdims=True)
    return xc / np.sqrt(v + eps) * gain + bias


def _vjp_layer_norm(node, g):
    x, gain, bias = node.inputs
    eps = node.attrs["eps"]
    m = _make("_mean_last", (x,))
    xc = sub(x, m)
    v = _make("_mean_last", (mul(xc, xc),))
    inv = _make("_rsqrt", (add(v, constant(np.asarray(eps))),))
    xhat = mul(xc, inv)
    dxhat = mul(g, gain)
    dx = mul(
        inv,
        sub(
            dxhat,
            add(
                _make("_mean_last", (dxhat,)),
                mul(xhat, _make("_mean_last", (mul(dxhat, xhat),))),
            ),
        ),
    )
    dgain = _sum_to(mul(g, xhat), gain.value.shape)
    dbias = _sum_to(g, bias.value.shape)
    return (dx, dgain, dbias)


_OPS["layer_norm"] = (_fwd_layer_norm, _vjp_layer_norm)


def _fwd_cross_entropy(attrs, logits):
    targets = attrs["targets"]
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(
            f"targets shape {targets.shape} must match logits rows {logits.shape[:-1]}"
        )
    vocab = logits.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise ShapeError(f"target ids out of range [0, {vocab})")
    m = logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(logits - m).sum(axis=-1)) + m[..., 0]
    picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    return lse - picked


def _vjp_cross_entropy(node, g):
    logits = node.inputs[0]
    targets = node.attrs["targets"]
    onehot = np.zeros(logits.value.shape)
    np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
    diff = sub(softmax_lastdim(logits), constant(onehot))
    return (mul(diff, reshape(g, g.value.shape + (1,))),)


_OPS["cross_entropy_with_logits"] = (_fwd_cross_entropy, _vjp_cross_entropy)

# The ops that apply_primitive accepts: every registered op except the private
# helpers (leading underscore) that VJPs build.
PRIMITIVE_OPS = frozenset(op for op in _OPS if not op.startswith("_"))


# ---------------------------------------------------------------------------
# functional wrappers
# ---------------------------------------------------------------------------


def matmul(a, b) -> Node:
    return _make("matmul", (_as_node(a), _as_node(b)))


def add(a, b) -> Node:
    return _make("add", (_as_node(a), _as_node(b)))


def sub(a, b) -> Node:
    return add(_as_node(a), scale(_as_node(b), -1.0))


def mul(a, b) -> Node:
    return _make("mul", (_as_node(a), _as_node(b)))


def scale(x, c: float) -> Node:
    return _make("scale", (_as_node(x),), {"c": float(c)})


def relu(x) -> Node:
    return _make("relu", (_as_node(x),))


def gelu(x) -> Node:
    return _make("gelu", (_as_node(x),))


def softmax_lastdim(x) -> Node:
    return _make("softmax_lastdim", (_as_node(x),))


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Node:
    return _make(
        "layer_norm", (_as_node(x), _as_node(gain), _as_node(bias)), {"eps": float(eps)}
    )


def embed_lookup(table, ids) -> Node:
    ids = np.asarray(ids, dtype=np.int64)
    return _make("embed_lookup", (_as_node(table),), {"ids": ids})


def concat(xs: Sequence, axis: int = -1) -> Node:
    return _make("concat", tuple(_as_node(x) for x in xs), {"axis": axis})


def slice_axis(x, axis: int, start: int, stop: int) -> Node:
    return _make(
        "slice", (_as_node(x),), {"axis": axis, "start": int(start), "stop": int(stop)}
    )


def reshape(x, shape) -> Node:
    return _make("reshape", (_as_node(x),), {"shape": tuple(int(s) for s in shape)})


def transpose_last2(x) -> Node:
    return _make("transpose_last2", (_as_node(x),))


def cross_entropy_with_logits(logits, targets) -> Node:
    """Per-position cross-entropy: shape = logits.shape[:-1]."""
    targets = np.asarray(targets, dtype=np.int64)
    return _make("cross_entropy_with_logits", (_as_node(logits),), {"targets": targets})


def mask_fill(x, mask, value: float) -> Node:
    mask = np.asarray(mask, dtype=bool)
    return _make("mask_fill", (_as_node(x),), {"mask": mask, "value": float(value)})


def mean_all(x) -> Node:
    return _make("mean", (_as_node(x),))


def sum_all(x) -> Node:
    return _make("sum", (_as_node(x),))


# ---------------------------------------------------------------------------
# graph traversal, backward, gradient checking
# ---------------------------------------------------------------------------


def _topo_order(outputs: Sequence[Node]) -> list[Node]:
    """Inputs-before-consumers ordering, iterative to handle deep graphs."""
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(o, False) for o in reversed(outputs)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for inp in reversed(node.inputs):
            if id(inp) not in seen:
                stack.append((inp, False))
    return order


class Graph:
    """The nodes reaching a set of outputs, in topological order (inputs first).

    Only a view for counting and inspecting nodes. Nothing re-evaluates a
    recorded graph: ``grad_check`` rebuilds its objective instead.
    """

    def __init__(self, outputs: Sequence[Node] | Node):
        if isinstance(outputs, Node):
            outputs = (outputs,)
        self.nodes = _topo_order(tuple(outputs))


def _normalize_wrt(wrt) -> dict[str, Node]:
    if isinstance(wrt, Mapping):
        return dict(wrt)
    out = {}
    for n in wrt:
        if not isinstance(n, Node) or n.name is None:
            raise ValueError("wrt must be named leaves or a name->leaf mapping")
        out[n.name] = n
    return out


def backward(output: Node, wrt) -> dict[str, Node]:
    """Reverse-mode gradients of a scalar output for the requested nodes.

    ``wrt`` is a mapping name -> Node (or an iterable of named leaves);
    passing the node objects lets unreachable entries still get exact-zero
    gradients of the right shape. Entries need not be leaves: asking for the
    gradient at an interior node (say, an updated parameter expression)
    returns the adjoint there, still expressed as differentiable nodes, which
    is what differentiating through a parameter-update step relies on.

    Inside ``no_graph()`` the returned gradients link no inputs (a value-only
    pass). Either way each interior adjoint is released once its VJP has run;
    only the adjoints of requested entries are kept.
    """
    if output.value.size != 1:
        raise ValueError(f"backward needs a scalar output, got shape {output.value.shape}")
    leaves = _normalize_wrt(wrt)

    order = _topo_order((output,))
    # Only nodes on a path from a requested leaf to the output need adjoints.
    wanted = {id(n) for n in leaves.values()}
    relevant: set[int] = set()
    for n in order:
        if id(n) in wanted or any(id(i) in relevant for i in n.inputs):
            relevant.add(id(n))
    if id(output) not in relevant:
        return {
            name: constant(np.zeros(n.value.shape)) for name, n in leaves.items()
        }

    adjoint: dict[int, Node] = {id(output): constant(np.ones(output.value.shape))}
    for n in reversed(order):
        g = adjoint.get(id(n))
        if g is None or n.op is None:
            continue
        _, vjp = _OPS[n.op]
        grads = vjp(n, g)
        if id(n) not in wanted:
            del adjoint[id(n)]
        for inp, gi in zip(n.inputs, grads):
            if gi is None or id(inp) not in relevant:
                continue
            prev = adjoint.get(id(inp))
            adjoint[id(inp)] = gi if prev is None else add(prev, gi)

    result: dict[str, Node] = {}
    for name, n in leaves.items():
        g = adjoint.get(id(n))
        if g is None:
            g = constant(np.zeros(n.value.shape))
        elif g.value.shape != n.value.shape:
            g = _sum_to(g, n.value.shape)
        _check_finite(g.value, f"gradient of {name!r}")
        result[name] = g
    return result


def gradient_values(output: Node, wrt) -> dict[str, np.ndarray]:
    """Gradient values of ``backward(output, wrt)`` from a value-only pass."""
    with no_graph():
        grads = backward(output, wrt)
    return {name: g.value for name, g in grads.items()}


@dataclass
class GradCheckReport:
    per_leaf: dict[str, float]
    max_rel_error: float
    step: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def grad_check(
    f: Callable[[Mapping[str, Node]], Node],
    values: Mapping[str, np.ndarray],
    step: float = 1e-5,
    tolerance: float = 1e-4,
    rng: np.random.Generator | None = None,
    max_elements: int | None = None,
) -> GradCheckReport:
    """Compare backward() against central finite differences, per entry of ``values``.

    ``f`` maps named leaves, one per entry of ``values``, to a scalar node.
    The analytic gradient is ``gradient_values(f(leaves), leaves)``. Each
    finite difference calls ``f`` again on freshly built leaves with one entry
    perturbed, so every node is rebuilt by its primitive: a VJP that captured
    a differentiable value as a constant shows up as a mismatch. These calls
    record a graph, so an ``f`` that runs ``backward`` itself (a
    Hessian-vector product, second-order MAML) is checked to second order.

    Relative error uses a small magnitude floor so exact-zero gradients do
    not divide by zero. ``max_elements`` caps the number of perturbed entries
    per leaf (sampled with ``rng``) for large parameters.
    """
    values = {name: np.asarray(v, dtype=np.float64) for name, v in values.items()}
    leaves = {name: leaf(name, v) for name, v in values.items()}
    analytic = gradient_values(f(leaves), leaves)

    def at(name, pert):
        moved = {n: leaf(n, pert if n == name else v) for n, v in values.items()}
        return float(f(moved).value.reshape(()))

    per_leaf: dict[str, float] = {}
    for name, base in values.items():
        grad = analytic[name]
        flat_idx = np.arange(base.size)
        if max_elements is not None and base.size > max_elements:
            gen = rng or np.random.default_rng(0)
            flat_idx = gen.choice(base.size, size=max_elements, replace=False)
            flat_idx.sort()
        worst = 0.0
        for i in flat_idx:
            pert = base.copy().reshape(-1)
            pert[i] += step
            hi = at(name, pert.reshape(base.shape))
            pert[i] -= 2.0 * step
            lo = at(name, pert.reshape(base.shape))
            fd = (hi - lo) / (2.0 * step)
            a = float(grad.reshape(-1)[i])
            err = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
            if err > worst:
                worst = err
        per_leaf[name] = worst
    max_err = max(per_leaf.values()) if per_leaf else 0.0
    return GradCheckReport(per_leaf, max_err, step, tolerance)
