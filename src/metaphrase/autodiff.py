"""Reverse-mode automatic differentiation over dense float64 arrays.

Every primitive application builds a `Node` eagerly (value computed at
construction) while linking into a DAG, so any value can later be
differentiated. Backward passes emit their vector-Jacobian products as new
nodes built from the same primitive set, which makes gradients themselves
differentiable: differentiating through a parameter-update expression
(gradient-of-gradient) needs no special casing.

Arrays are numpy float64 throughout; integer index arrays (token ids, masks)
enter operations as attributes, never as differentiable inputs.

Finiteness is checked where a value leaves autodiff, not after every op.
``leaf()`` rejects a non-finite parameter, and ``backward`` checks its output
and every gradient it returns, which covers each training loss and gradient,
also in value-only passes. Between these boundaries a NaN or Inf propagates.
When ``backward``'s output is non-finite it walks the recorded forward graph
in order and raises ``NonFiniteError`` naming the op of the first non-finite
node, whose inputs are all finite. When only a gradient is non-finite,
``check_boundary`` runs ``backward`` once more inside ``checked()``, the
scope in which every op checks its own output, so the VJP op that made the
value raises under its name. ``check_boundary`` is the one re-run rule:
decoding's boundaries use it too. Only ``meta.train_loop``'s validation check
re-runs on its own, because it raises ``DivergenceError``. Every
check is ``check_finite``: it first sums the array, a finite sum means every
entry is finite, and only a non-finite sum (a NaN or Inf entry, or finite
entries whose sum overflows) pays for the entry-wise check.

A few ops map a non-finite input to a finite output, and none checks its
input: ``mask_fill``, ``slice`` and ``embed_lookup`` drop the entries they
do not select, and ``softmax_lastdim`` (-inf), ``cross_entropy_with_logits``
(-inf on a non-target logit), ``relu`` (-inf), ``_rsqrt`` (+inf) and
``_tanh`` (either infinity) return the limit there, with a zero adjoint. A
NaN that reaches no output is therefore not an error.

``matmul`` takes BLAS-style ``trans_a``/``trans_b`` flags that swap the last
two axes of an operand as a view. Its VJP sets them so that no gradient
materialises a transpose, and the VJP of a flagged matmul is again flagged
matmuls, so the set is closed under differentiation. The gradient of a 2-D
weight ``W`` in ``x (..., T, d) @ W`` sums over every leading axis of ``x``;
it is one 2-D product of the flattened rows (the private ``_flat_matmul``,
whose VJP is again two matmuls), not a batched product and a sum.

Every node carries a creation ``serial``. A node's inputs are always older
than the node, so a node older than every requested node lies on no path
from one to the output: ``backward`` walks the graph no further down than
the oldest requested node. For the inner loop of second-order MAML, the
gradient of step k then never re-walks steps 1..k-1.

Each node carries a requires-gradient bit (``Node.requires_grad``), as
PyTorch's autograd does. A leaf is trainable (``leaf()``'s default) or
frozen, a constant never takes gradients, and a recorded node takes them
when any of its inputs does. ``backward`` rejects a requested node without
the bit (``FrozenNodeError``), so every node on a path from a requested
node has it.

``backward`` builds no gradient that nothing reads. An input needs a
gradient when it lies on a path from a requested node, and each VJP of
several inputs gets one such flag per input. ``add``, ``mul``, ``matmul``,
``_flat_matmul``, ``concat``, ``_layer_norm_grad`` and ``_gelu_grad``
build nothing for an input that needs no gradient, so with the backbone
frozen no frozen weight's gradient is built. A requested node whose inputs
all lie below the oldest requested node runs no VJP. ``layer_norm`` still
builds its input's gradient, one node. The VJP of ``slice`` is one private
``_pad`` node, which writes the adjoint into zeros, and the VJP of ``_pad``
is ``slice``.

The gradients of ``layer_norm`` and ``gelu`` are one node each: the input
gradient of a layer norm is a ``_layer_norm_grad`` node, its gain gradient
reads the normalised input from an ``_ln_xhat`` node, and the gradient of a
GELU is a ``_gelu_grad`` node. Their forwards repeat, op for op, the
primitive chains they replace, so first-order gradients are bitwise those
of the chains. These fused kernels, like ``gelu`` and ``softmax_lastdim``,
work in place on one or two arrays of their own (never an input), running
the same IEEE operations in the same order as their out-of-place forms, so
every value is bitwise equal. Their VJPs are built from the primitives
(the VJP of ``_ln_xhat`` is a ``_layer_norm_grad`` with a unit gain), so
gradients of gradients need no other op.

An op call is kept short because decoding makes thousands of them on small
arrays. A public wrapper turns each non-Node argument into a constant with
an inline ``isinstance`` test. Inside a scope that has entered numpy's error
state, ``_make`` passes the values of a one- or two-input op to its forward
as positional arguments, and unpacks a list only for three or more inputs.
Outside such a scope it enters the error state for the one call. The
layer-norm and softmax kernels call the reduction ufuncs (``np.add.reduce``,
``np.maximum.reduce``) directly, not ``ndarray.mean/max/sum``, whose Python
wrappers cost more than the reduction at decode sizes. A mean is that sum
divided by the count, as in ``ndarray.mean``, so every value is bitwise
equal. A node's ``attrs`` is never mutated, so nodes may share one dict:
all ``matmul`` nodes of one flag pair do.

Inside a ``no_graph()`` scope primitives still compute their values eagerly,
but the nodes they return link no inputs, so nothing is kept alive for a
backward pass that will never come (inference). The scope and each
``backward`` walk enter numpy's error state once, other ops once each.

A ``backward`` run inside ``no_graph()`` is a value-only pass: the same VJPs
compute the same gradient values bit for bit, but build no gradient graph.
``gradient_values`` wraps this for callers that only read the numbers: the
MAML outer pass, pretraining, plain adapter training and ``grad_check``.
First-order MAML's inner loop runs ``backward`` inside ``no_graph()``
itself, so each step's gradient enters its update as a constant node.
``backward`` drops each interior adjoint as soon as its VJP has run, so a
value-only pass holds only its frontier.

A recording ``backward`` keeps a node's value only while a VJP can read it.
Each op declares which values its VJP reads: some of its inputs (``mul``,
``matmul``, ``relu``, ``layer_norm``, ...) or its own output
(``softmax_lastdim``, ``_tanh``, ``_rsqrt``); every other VJP reads only
shapes and attributes, which ``Node.shape`` keeps. When a node that takes
gradients is recorded, each value its VJP reads gets the read mark
(``Node.read``), so whether a value is read is known as soon as its reader
exists, whatever graph that reader lies in. A node without the bit marks
nothing, since no ``backward`` runs its VJP. A product (``mul``, ``matmul``,
``_flat_matmul``) reads each input only for the other input's gradient, so
it marks input i only when the other input takes gradients: an activation
multiplied by a frozen backbone weight is not kept for the weight's
gradient, which is never built. The walk then releases (``value = None``)
each unmarked interior node at the first moment nothing of the pass can use
it: a walked node once the walk has passed it, a consumed adjoint once no
adjoint entry holds it, and the other nodes a VJP built once the VJP has
returned. The walk finds those by serial: it takes a serial just before the
call, so every node the VJP built is younger, and each one still alive is
reachable from the returned gradients through younger nodes. ``_make``
keeps no record for ``backward``. The output, the requested nodes and the
returned gradients are kept. So second-order MAML holds for its outer pass
only what that pass reads, each inner backward frees what it is done with
as it goes, and an op handed a released value raises
``ReleasedValueError``. A value-only pass releases nothing and keeps no
such books. A non-finite output's walk skips released nodes, so it names
the first non-finite node that is still held.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Node",
    "Graph",
    "no_graph",
    "checked",
    "check_finite",
    "check_boundary",
    "non_finite_context",
    "ShapeError",
    "NonFiniteError",
    "ReleasedValueError",
    "FrozenNodeError",
    "leaf",
    "constant",
    "backward",
    "gradient_values",
    "grad_check",
    "GradCheckReport",
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
    "sum_to",
    "broadcast_to",
]


class ShapeError(ValueError):
    """Input shapes do not conform to the primitive's rule."""


class NonFiniteError(ArithmeticError):
    """A primitive or gradient produced NaN/Inf from finite inputs."""


class ReleasedValueError(RuntimeError):
    """An op read the value of a node that a recording ``backward`` released."""


class FrozenNodeError(ValueError):
    """``backward`` was asked for the gradient of a node without the requires-gradient bit."""


def check_finite(value, context: str) -> None:
    """Raise ``NonFiniteError`` naming ``context`` unless every entry is finite.

    The sum decides first; only a non-finite sum pays for the entry-wise check.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = value.sum()
    if not math.isfinite(total) and not np.isfinite(value).all():
        raise NonFiniteError(f"non-finite values in {context}")


def check_boundary(checks: Iterable[tuple[str, np.ndarray]], rerun: Callable[[], object]) -> None:
    """``check_finite`` each (context, array) pair; on failure name the op that made it.

    A failure runs ``rerun()``, the computation that made the arrays, inside
    ``checked()``, where that op raises under its name. Inside ``checked()``
    the op has already raised, so nothing re-runs. A re-run that stays
    finite leaves the boundary's own error.
    """
    try:
        for context, value in checks:
            check_finite(value, context)
    except NonFiniteError:
        if not _checking:
            with checked():
                rerun()
        raise


@contextmanager
def non_finite_context(where: str):
    """Append ``where`` to the message of a ``NonFiniteError`` raised inside."""
    try:
        yield
    except NonFiniteError as exc:
        raise NonFiniteError(f"{exc} {where}").with_traceback(exc.__traceback__) from None


# Creation serials: every node's inputs were created before it.
_serials = itertools.count()


class Node:
    """One value in the computation DAG.

    Leaves have ``op is None``; named leaves are parameters, unnamed leaves
    are constants. Interior nodes record the primitive id, input nodes and
    attributes so the graph can be differentiated. ``serial`` numbers nodes
    in creation order.

    ``requires_grad`` is the requires-gradient bit. A trainable leaf has it
    and a frozen leaf or a constant does not; a recorded node has it when
    any of its inputs does, and a node built inside ``no_graph()`` never
    does. ``backward`` differentiates only with respect to nodes that have
    it, so no VJP of a node without it ever runs.

    ``attrs`` is read-only, since nodes may share one dict (see ``matmul``):
    code that needs other attributes builds a new dict, as ``_vjp_slice``
    does with ``{**node.attrs, ...}``.

    ``read`` is the read mark: true once a recorded node exists whose VJP
    can read this value (see ``_Op``). ``shape`` outlives ``value``: a
    recording ``backward`` sets ``value`` to None on each interior node
    without the mark (see ``backward``), and an op that reads such a node
    raises ``ReleasedValueError``.
    """

    __slots__ = ("op", "inputs", "attrs", "value", "shape", "name", "serial", "read",
                 "requires_grad")

    def __init__(self, op, inputs, attrs, value, name=None):
        self.op = op
        self.inputs = inputs
        self.attrs = attrs
        self.value = value
        self.shape = value.shape
        self.name = name
        self.serial = next(_serials)
        self.read = False
        self.requires_grad = False


def leaf(name: str, values, requires_grad: bool = True) -> Node:
    """Create a named parameter leaf, trainable unless ``requires_grad`` is false.

    Values are kept as float64. A frozen leaf takes no gradient: ``backward``
    rejects it as a requested node, and no value is kept for its gradient.
    """
    arr = np.asarray(values, dtype=np.float64)
    check_finite(arr, f"leaf {name!r}")
    node = Node(None, (), None, arr, name=name)
    node.requires_grad = requires_grad
    return node


def constant(values) -> Node:
    """Create an unnamed constant leaf (receives no gradient)."""
    arr = np.asarray(values, dtype=np.float64)
    return Node(None, (), None, arr)


# ---------------------------------------------------------------------------
# operator registry
# ---------------------------------------------------------------------------

class _Op(NamedTuple):
    """A primitive: its forward, its VJP and the values that VJP reads.

    ``fwd(attrs, *input_values)`` returns an ndarray. A one-input op's
    ``vjp(node, upstream)`` returns a 1-tuple holding its input's gradient
    Node. An op of several inputs takes ``vjp(node, upstream, needs)``,
    ``needs[i]`` true when input i lies on a path from a requested node, and
    returns one gradient Node per input; it may return None, and build
    nothing, for an input that needs no gradient.

    ``reads`` names the inputs whose values the VJP reads, and
    ``reads_output`` whether it reads the node's own value. When ``_make``
    records a node that takes gradients (``Node.requires_grad``), it gives
    those values the read mark; a node without the bit has no VJP that can
    run, so it marks nothing. A ``pairwise`` op (``mul``, ``matmul``,
    ``_flat_matmul``) reads each input only for the other input's gradient,
    so it marks input i only when the other input takes gradients: an
    activation multiplied by a frozen weight is not kept for the weight's
    gradient, which is never built. Every other value the VJP touches is
    only a shape or an attribute, so a recording ``backward`` may release it.
    """

    fwd: Callable
    vjp: Callable
    reads: tuple[int, ...] = ()
    reads_output: bool = False
    pairwise: bool = False


_OPS: dict[str, _Op] = {}

# False inside a no_graph() scope; True inside a checked() scope; True where
# numpy's error state already ignores over/invalid/divide (see _quiet). Module
# state, so not thread-safe; the package is single-threaded.
_recording = True
_checking = False
_quieted = False


@contextmanager
def _quiet(recording: bool):
    """Set ``_recording`` and ignore numpy's over/invalid/divide errors until exit."""
    global _recording, _quieted
    outer = _recording, _quieted
    _recording, _quieted = recording, True
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            yield
    finally:
        _recording, _quieted = outer


def no_graph():
    """Evaluate primitives without recording a graph (inference only).

    Nodes built inside carry their op id and value but ``inputs == ()``, so
    they cannot be differentiated through. As outside the scope, ops check
    their outputs only inside ``checked()``. Scopes nest; the previous
    recording state and numpy error state are restored on exit, also when an
    op raises.
    """
    return _quiet(False)


@contextmanager
def checked():
    """Check every op's output, raising ``NonFiniteError`` that names the op.

    Outside this scope only the boundaries check (see the module docstring);
    a failed boundary re-runs one computation inside it to name the op.
    Scopes nest; the previous state is restored on exit, also when an op
    raises.
    """
    global _checking
    outer = _checking
    _checking = True
    try:
        yield
    finally:
        _checking = outer


def _make(op_id: str, inputs: Sequence[Node], attrs: dict | None = None) -> Node:
    op = _OPS[op_id]
    try:
        if _quieted:
            arity = len(inputs)
            if arity == 1:
                value = op.fwd(attrs, inputs[0].value)
            elif arity == 2:
                value = op.fwd(attrs, inputs[0].value, inputs[1].value)
            else:
                value = op.fwd(attrs, *[n.value for n in inputs])
        else:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                value = op.fwd(attrs, *(n.value for n in inputs))
    except (AttributeError, TypeError, ValueError):
        # A released (None) input fails the forward with one of these; only
        # then is it looked for, so the happy path pays nothing.
        for n in inputs:
            _read(n, op_id)
        raise
    if _checking:
        check_finite(value, f"output of {op_id!r}")
    if not _recording:
        return Node(op_id, (), attrs, value)
    node = Node(op_id, tuple(inputs), attrs, value)
    for n in inputs:
        if n.requires_grad:
            node.requires_grad = True
            break
    if op.pairwise:
        for i in op.reads:
            if inputs[1 - i].requires_grad:
                inputs[i].read = True
    elif node.requires_grad:
        for i in op.reads:
            inputs[i].read = True
        if op.reads_output:
            node.read = True
    return node


def _read(node: Node, reader: str) -> np.ndarray:
    """``node.value``, or ``ReleasedValueError`` naming ``reader`` and the node's op."""
    if node.value is None:
        raise ReleasedValueError(
            f"{reader!r} read the value of a {node.op!r} node released by a recording backward")
    return node.value


# ---------------------------------------------------------------------------
# broadcasting helpers (private ops, closed under differentiation)
# ---------------------------------------------------------------------------


def _sum_to(node: Node, shape: tuple) -> Node:
    if node.shape == tuple(shape):
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
    return (_make("_broadcast_to", (g,), {"shape": node.inputs[0].shape}),)


_OPS["_sum_to"] = _Op(_fwd_sum_to, _vjp_sum_to)


def _fwd_broadcast_to(attrs, x):
    # x.dtype raises on a released (None) input; broadcasting None would not.
    out = np.empty(attrs["shape"], dtype=x.dtype)
    out[...] = x
    return out


def _vjp_broadcast_to(node, g):
    return (_sum_to(g, node.inputs[0].shape),)


_OPS["_broadcast_to"] = _Op(_fwd_broadcast_to, _vjp_broadcast_to)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def _fwd_add(attrs, a, b):
    return a + b


def _vjp_add(node, g, needs):
    a, b = node.inputs
    return (_sum_to(g, a.shape) if needs[0] else None,
            _sum_to(g, b.shape) if needs[1] else None)


_OPS["add"] = _Op(_fwd_add, _vjp_add)


def _fwd_mul(attrs, a, b):
    return a * b


def _vjp_mul(node, g, needs):
    a, b = node.inputs
    return (_sum_to(mul(g, b), a.shape) if needs[0] else None,
            _sum_to(mul(g, a), b.shape) if needs[1] else None)


_OPS["mul"] = _Op(_fwd_mul, _vjp_mul, reads=(0, 1), pairwise=True)


def _fwd_scale(attrs, x):
    return x * attrs["c"]


def _vjp_scale(node, g):
    return (scale(g, node.attrs["c"]),)


_OPS["scale"] = _Op(_fwd_scale, _vjp_scale)


# ---------------------------------------------------------------------------
# linear algebra and structure
# ---------------------------------------------------------------------------


def _fwd_matmul(attrs, a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if attrs["trans_a"]:
        a = a.swapaxes(-1, -2)
    if attrs["trans_b"]:
        b = b.swapaxes(-1, -2)
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    return a @ b


def _vjp_matmul(node, g, needs):
    # C = op(A) op(B), op(X) = X or X^T. Each adjoint is one matmul of g with
    # the other operand, flags chosen so no transpose is ever materialised.
    a, b = node.inputs
    ta, tb = node.attrs["trans_a"], node.attrs["trans_b"]
    ga = gb = None
    if len(b.shape) == 2 and len(a.shape) > 2 and not ta:
        # Rows of x and g pair up across every leading axis.
        if needs[0]:
            ga = matmul(g, b, trans_b=not tb)
        if needs[1]:
            gb = _make("_flat_matmul", (g, a) if tb else (a, g))
        return (ga, gb)
    if needs[0]:
        if not ta:
            ga = matmul(g, b, trans_b=not tb)
        else:
            ga = matmul(b, g, trans_a=tb, trans_b=True)
        ga = _sum_to(ga, a.shape)
    if needs[1]:
        if not tb:
            gb = matmul(a, g, trans_a=not ta)
        else:
            gb = matmul(g, a, trans_a=True, trans_b=ta)
        gb = _sum_to(gb, b.shape)
    return (ga, gb)


_OPS["matmul"] = _Op(_fwd_matmul, _vjp_matmul, reads=(0, 1), pairwise=True)


def _fwd_flat_matmul(attrs, a, b):
    # flat(a)^T @ flat(b): a (..., m) and b (..., n) flattened to rows.
    if a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"_flat_matmul needs equal leading axes, got {a.shape} and {b.shape}")
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def _vjp_flat_matmul(node, g, needs):
    a, b = node.inputs
    return (matmul(b, g, trans_b=True) if needs[0] else None,
            matmul(a, g) if needs[1] else None)


_OPS["_flat_matmul"] = _Op(_fwd_flat_matmul, _vjp_flat_matmul, reads=(0, 1),
                            pairwise=True)


def _fwd_transpose_last2(attrs, x):
    if x.ndim < 2:
        raise ShapeError(f"transpose_last2 needs rank >= 2, got shape {x.shape}")
    return np.swapaxes(x, -1, -2).copy()


def _vjp_transpose_last2(node, g):
    return (transpose_last2(g),)


_OPS["transpose_last2"] = _Op(_fwd_transpose_last2, _vjp_transpose_last2)


def _fwd_reshape(attrs, x):
    shape = attrs["shape"]
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    return x.reshape(shape).copy()


def _vjp_reshape(node, g):
    return (reshape(g, node.inputs[0].shape),)


_OPS["reshape"] = _Op(_fwd_reshape, _vjp_reshape)


def _fwd_concat(attrs, *xs):
    axis = attrs["axis"]
    return np.concatenate(xs, axis=axis)


def _vjp_concat(node, g, needs):
    axis = node.attrs["axis"]
    grads, start = [], 0
    for inp, need in zip(node.inputs, needs):
        n = inp.shape[axis]
        grads.append(slice_axis(g, axis, start, start + n) if need else None)
        start += n
    return tuple(grads)


_OPS["concat"] = _Op(_fwd_concat, _vjp_concat)


def _fwd_slice(attrs, x):
    axis, start, stop = attrs["axis"], attrs["start"], attrs["stop"]
    extent = x.shape[axis]
    if not (0 <= start <= stop <= extent):
        raise ShapeError(f"slice [{start}:{stop}] out of range for extent {extent}")
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, stop)
    return x[tuple(idx)].copy()


def _vjp_slice(node, g):
    # The gradient writes g into zeros of the input's shape.
    extent = node.inputs[0].shape[node.attrs["axis"]]
    if node.attrs["start"] == 0 and node.attrs["stop"] == extent:
        return (g,)
    return (_make("_pad", (g,), {**node.attrs, "extent": extent}),)


_OPS["slice"] = _Op(_fwd_slice, _vjp_slice)


def _fwd_pad(attrs, g):
    # Zeros of extent ``extent`` along ``axis`` with g at [start:stop].
    axis, start, stop = attrs["axis"], attrs["start"], attrs["stop"]
    if g.shape[axis] != stop - start:
        raise ShapeError(f"_pad of [{start}:{stop}] got extent {g.shape[axis]}")
    shape = list(g.shape)
    shape[axis] = attrs["extent"]
    out = np.zeros(shape)
    idx = [slice(None)] * g.ndim
    idx[axis] = slice(start, stop)
    out[tuple(idx)] = g
    return out


def _vjp_pad(node, g):
    return (slice_axis(g, node.attrs["axis"], node.attrs["start"], node.attrs["stop"]),)


_OPS["_pad"] = _Op(_fwd_pad, _vjp_pad)


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
            {"ids": node.attrs["ids"], "n_rows": table.shape[0]},
        ),
    )


_OPS["embed_lookup"] = _Op(_fwd_embed_lookup, _vjp_embed_lookup)


def _fwd_scatter_rows(attrs, g):
    ids = attrs["ids"]
    out = np.zeros((attrs["n_rows"], g.shape[-1]))
    np.add.at(out, ids.reshape(-1), g.reshape(-1, g.shape[-1]))
    return out


def _vjp_scatter_rows(node, g):
    return (embed_lookup(g, node.attrs["ids"]),)


_OPS["_scatter_rows"] = _Op(_fwd_scatter_rows, _vjp_scatter_rows)


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
    return (mask_fill(g, node.attrs["mask"], 0.0),)


_OPS["mask_fill"] = _Op(_fwd_mask_fill, _vjp_mask_fill)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def _fwd_relu(attrs, x):
    return np.maximum(x, 0.0)


def _vjp_relu(node, g):
    # Subgradient at 0 is 0 (strict inequality).
    return (mask_fill(g, ~(_read(node.inputs[0], "relu") > 0.0), 0.0),)


_OPS["relu"] = _Op(_fwd_relu, _vjp_relu, reads=(0,))

_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def _fwd_gelu(attrs, x):
    # 0.5 * x * (1 + tanh(c * (x + a * (x * x * x)))), op for op in two arrays.
    # x * x * x, not x**3: numpy sends a cube to libm pow, some 70x slower.
    out, u = 0.5 * x, x * x
    u *= x
    np.multiply(_GELU_A, u, out=u)
    np.add(x, u, out=u)
    np.multiply(_GELU_C, u, out=u)
    np.tanh(u, out=u)
    np.add(1.0, u, out=u)
    out *= u
    return out


def _vjp_gelu(node, g):
    return (_make("_gelu_grad", (node.inputs[0], g)),)


_OPS["gelu"] = _Op(_fwd_gelu, _vjp_gelu, reads=(0,))


def _fwd_gelu_grad(attrs, x, g):
    # g * d/dx [0.5 x (1 + tanh(u))], u = c(x + a x^3), in the order of the
    # primitive chain it replaces, so every value is bitwise that chain's.
    # In place: x2 becomes du, t becomes the sum, s holds sech2 and its term.
    x2 = x * x
    t = x2 * x
    t *= _GELU_A
    np.add(x, t, out=t)
    t *= _GELU_C
    np.tanh(t, out=t)
    s = t * t
    s *= -1.0
    np.add(1.0, s, out=s)
    x2 *= 3.0 * _GELU_A
    np.add(1.0, x2, out=x2)
    x2 *= _GELU_C
    np.add(1.0, t, out=t)
    t *= 0.5
    np.multiply(x, s, out=s)
    s *= x2
    s *= 0.5
    t += s
    return np.multiply(g, t, out=t if g.shape == t.shape else None)


def _vjp_gelu_grad(node, v, needs):
    # With d = gelu', the node is g * d(x): the g adjoint is v * d(x), one
    # node of this op, and the x adjoint is v * g * d'(x), where
    # d' = (1 - t^2) (c (1 + 6 a x^2) - x t du^2) and du = c (1 + 3 a x^2).
    x, g = node.inputs
    gx = None
    if needs[0]:
        one = constant(np.ones(()))
        x2 = mul(x, x)
        t = _make("_tanh", (scale(add(x, scale(mul(x2, x), _GELU_A)), _GELU_C),))
        du = scale(add(one, scale(x2, 3.0 * _GELU_A)), _GELU_C)
        curve = sub(scale(add(one, scale(x2, 6.0 * _GELU_A)), _GELU_C),
                    mul(mul(x, t), mul(du, du)))
        gx = mul(mul(v, g), mul(sub(one, mul(t, t)), curve))
    return (gx, _make("_gelu_grad", (x, v)) if needs[1] else None)


_OPS["_gelu_grad"] = _Op(_fwd_gelu_grad, _vjp_gelu_grad, reads=(0, 1))


def _fwd_tanh(attrs, x):
    return np.tanh(x)


def _vjp_tanh(node, g):
    t = node
    return (mul(g, sub(constant(np.ones(())), mul(t, t))),)


_OPS["_tanh"] = _Op(_fwd_tanh, _vjp_tanh, reads_output=True)


def _fwd_rsqrt(attrs, x):
    return 1.0 / np.sqrt(x)


def _vjp_rsqrt(node, g):
    y = node
    return (mul(g, scale(mul(mul(y, y), y), -0.5)),)


_OPS["_rsqrt"] = _Op(_fwd_rsqrt, _vjp_rsqrt, reads_output=True)


# ---------------------------------------------------------------------------
# softmax / normalization / loss
# ---------------------------------------------------------------------------


def _fwd_softmax_lastdim(attrs, x):
    # Subtracting the row max is a mathematical no-op; it only guards exp.
    z = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def _vjp_softmax_lastdim(node, g):
    y = node
    gy = mul(g, y)
    return (sub(gy, mul(y, _sum_to(gy, gy.shape[:-1] + (1,)))),)


_OPS["softmax_lastdim"] = _Op(_fwd_softmax_lastdim, _vjp_softmax_lastdim, reads_output=True)


_LN_EPS = 1e-5  # every layer norm's variance floor


def _fwd_layer_norm(attrs, x, gain, bias):
    # gain and bias may carry leading axes (say, one row per task) that
    # broadcast against x; their last axis is x's.
    d = x.shape[-1]
    if gain.shape[-1:] != (d,) or bias.shape[-1:] != (d,):
        raise ShapeError(
            f"layer_norm gain/bias must end in ({d},), got {gain.shape}/{bias.shape}"
        )
    m = np.add.reduce(x, axis=-1, keepdims=True) / d
    xc = x - m
    v = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    try:
        out = xc / np.sqrt(v + _LN_EPS) * gain + bias
    except ValueError as exc:
        raise ShapeError(
            f"layer_norm gain/bias {gain.shape}/{bias.shape} not broadcastable to {x.shape}"
        ) from exc
    if out.shape != x.shape:
        raise ShapeError(f"layer_norm gain/bias {gain.shape}/{bias.shape} widen {x.shape}")
    return out


def _vjp_layer_norm(node, g, needs):
    # x's gradient is built even when x needs none (the embedding-fed norms).
    x, gain, bias = node.inputs
    dx = _make("_layer_norm_grad", (x, gain, g))
    dgain = _sum_to(mul(g, _make("_ln_xhat", (x,))), gain.shape) if needs[1] else None
    dbias = _sum_to(g, bias.shape) if needs[2] else None
    return (dx, dgain, dbias)


_OPS["layer_norm"] = _Op(_fwd_layer_norm, _vjp_layer_norm, reads=(0, 1))


def _ln_centre_and_scale(x):
    # (x - mean, 1 / sqrt(var + eps)) in the order of the primitive chain
    # the layer-norm gradient ops replace, so their values are bitwise its.
    d = x.shape[-1]
    xc = x + np.add.reduce(x, axis=-1, keepdims=True) / d * -1.0
    return xc, 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / d + _LN_EPS)


def _fwd_ln_xhat(attrs, x):
    xc, inv = _ln_centre_and_scale(x)
    xc *= inv
    return xc


def _vjp_ln_xhat(node, u):
    # xhat's Jacobian is r P, P = I - 11^T/d - xhat xhat^T/d symmetric and
    # r = 1/sqrt(var + eps): the adjoint is _layer_norm_grad with a unit gain.
    x = node.inputs[0]
    return (_make("_layer_norm_grad", (x, constant(np.ones(x.shape[-1:])), u)),)


_OPS["_ln_xhat"] = _Op(_fwd_ln_xhat, _vjp_ln_xhat, reads=(0,))


def _fwd_layer_norm_grad(attrs, x, gain, g):
    # layer_norm's input gradient r P(g * gain), with P as in _vjp_ln_xhat:
    # inv * (dxhat + (mean(dxhat) + xhat * mean(dxhat * xhat)) * -1), in place.
    d = x.shape[-1]
    xhat, inv = _ln_centre_and_scale(x)
    xhat *= inv
    dxhat = g * gain
    out = dxhat * xhat
    proj = np.add.reduce(out, axis=-1, keepdims=True) / d
    np.multiply(xhat, proj, out=out)
    np.add(np.add.reduce(dxhat, axis=-1, keepdims=True) / d, out, out=out)
    out *= -1.0
    np.add(dxhat, out, out=out)
    np.multiply(inv, out, out=out)
    return out


def _row_mean(x: Node) -> Node:
    return scale(_sum_to(x, x.shape[:-1] + (1,)), 1.0 / x.shape[-1])


def _vjp_layer_norm_grad(node, u, needs):
    # y = r P(a), a = g * gain. With w = r P(u) (P symmetric), the g and gain
    # adjoints are gain * w and w * g; the x adjoint is
    # -r (mean(a xhat) w + mean(u xhat) y + mean(u y) xhat).
    x, gain, g = node.inputs
    w = _make("_layer_norm_grad", (x, constant(np.ones(x.shape[-1:])), u))
    gx = None
    if needs[0]:
        y = _make("_layer_norm_grad", (x, gain, g))
        xhat = _make("_ln_xhat", (x,))
        xc = sub(x, _row_mean(x))
        r = _make("_rsqrt", (add(_row_mean(mul(xc, xc)), constant(_LN_EPS)),))
        total = add(add(mul(_row_mean(mul(mul(g, gain), xhat)), w),
                        mul(_row_mean(mul(u, xhat)), y)),
                    mul(_row_mean(mul(u, y)), xhat))
        gx = scale(mul(r, total), -1.0)
    return (gx,
            _sum_to(mul(w, g), gain.shape) if needs[1] else None,
            mul(w, gain) if needs[2] else None)


_OPS["_layer_norm_grad"] = _Op(_fwd_layer_norm_grad, _vjp_layer_norm_grad, reads=(0, 1, 2))


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
    onehot = np.zeros(logits.shape)
    np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
    diff = sub(softmax_lastdim(logits), constant(onehot))
    return (mul(diff, reshape(g, g.shape + (1,))),)


_OPS["cross_entropy_with_logits"] = _Op(_fwd_cross_entropy, _vjp_cross_entropy, reads=(0,))


# ---------------------------------------------------------------------------
# functional wrappers
# ---------------------------------------------------------------------------


# One attrs dict per flag pair, shared by every matmul node (see ``Node``).
_MATMUL_ATTRS = {(ta, tb): {"trans_a": ta, "trans_b": tb}
                 for ta in (False, True) for tb in (False, True)}


def matmul(a, b, trans_a: bool = False, trans_b: bool = False) -> Node:
    """``op(a) @ op(b)``, where ``op`` swaps the last two axes of a flagged operand."""
    return _make("matmul", (a if isinstance(a, Node) else constant(a),
                            b if isinstance(b, Node) else constant(b)),
                 _MATMUL_ATTRS[bool(trans_a), bool(trans_b)])


def add(a, b) -> Node:
    return _make("add", (a if isinstance(a, Node) else constant(a),
                         b if isinstance(b, Node) else constant(b)))


def sub(a, b) -> Node:
    a = a if isinstance(a, Node) else constant(a)  # made before b's, in argument order
    return add(a, scale(b, -1.0))


def mul(a, b) -> Node:
    return _make("mul", (a if isinstance(a, Node) else constant(a),
                         b if isinstance(b, Node) else constant(b)))


def scale(x, c: float) -> Node:
    return _make("scale", (x if isinstance(x, Node) else constant(x),), {"c": float(c)})


def relu(x) -> Node:
    return _make("relu", (x if isinstance(x, Node) else constant(x),))


def gelu(x) -> Node:
    return _make("gelu", (x if isinstance(x, Node) else constant(x),))


def softmax_lastdim(x) -> Node:
    return _make("softmax_lastdim", (x if isinstance(x, Node) else constant(x),))


def layer_norm(x, gain, bias) -> Node:
    return _make("layer_norm", (x if isinstance(x, Node) else constant(x),
                                gain if isinstance(gain, Node) else constant(gain),
                                bias if isinstance(bias, Node) else constant(bias)))


def embed_lookup(table, ids) -> Node:
    ids = np.asarray(ids, dtype=np.int64)
    return _make("embed_lookup", (table if isinstance(table, Node) else constant(table),),
                 {"ids": ids})


def concat(xs: Sequence, axis: int = -1) -> Node:
    return _make("concat", tuple(x if isinstance(x, Node) else constant(x) for x in xs),
                 {"axis": axis})


def slice_axis(x, axis: int, start: int, stop: int) -> Node:
    return _make("slice", (x if isinstance(x, Node) else constant(x),),
                 {"axis": axis, "start": int(start), "stop": int(stop)})


def reshape(x, shape) -> Node:
    return _make("reshape", (x if isinstance(x, Node) else constant(x),),
                 {"shape": tuple(int(s) for s in shape)})


def transpose_last2(x) -> Node:
    return _make("transpose_last2", (x if isinstance(x, Node) else constant(x),))


def cross_entropy_with_logits(logits, targets) -> Node:
    """Per-position cross-entropy: shape = logits.shape[:-1]."""
    targets = np.asarray(targets, dtype=np.int64)
    return _make("cross_entropy_with_logits",
                 (logits if isinstance(logits, Node) else constant(logits),),
                 {"targets": targets})


def mask_fill(x, mask, value: float) -> Node:
    mask = np.asarray(mask, dtype=bool)
    return _make("mask_fill", (x if isinstance(x, Node) else constant(x),),
                 {"mask": mask, "value": float(value)})


def sum_all(x) -> Node:
    return _sum_to(x if isinstance(x, Node) else constant(x), ())


# No caller: perfbench's tracer wraps it by name until its next change (ROADMAP item 15).
def mean_all(x) -> Node:
    x = x if isinstance(x, Node) else constant(x)  # unexecuted: no caller
    return scale(sum_all(x), 1.0 / math.prod(x.shape))  # unexecuted: no caller


def sum_to(x, shape) -> Node:
    """``x`` summed down to ``shape``, the inverse of broadcasting ``shape`` to x's."""
    return _sum_to(x if isinstance(x, Node) else constant(x), tuple(shape))


def broadcast_to(x, shape) -> Node:
    """``x`` broadcast to ``shape``; its VJP sums back with ``sum_to``."""
    return _make("_broadcast_to", (x if isinstance(x, Node) else constant(x),),
                 {"shape": tuple(shape)})


# ---------------------------------------------------------------------------
# graph traversal, backward, gradient checking
# ---------------------------------------------------------------------------


def _topo_order(outputs: Sequence[Node], floor: int = 0) -> list[Node]:
    """Inputs-before-consumers ordering, iterative to handle deep graphs.

    Inputs whose serial is below ``floor`` are not visited.
    """
    order: list[Node] = []
    seen: dict[Node, bool] = {}
    for root in outputs:
        stack = [] if root in seen else [(root, iter(root.inputs))]
        seen[root] = True
        while stack:
            for inp in stack[-1][1]:  # resumes where the last descent left off
                if inp not in seen and inp.serial >= floor:
                    seen[inp] = True
                    stack.append((inp, iter(inp.inputs)))
                    break
            else:
                order.append(stack.pop()[0])
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


def backward(output: Node, wrt: Mapping[str, Node]) -> dict[str, Node]:
    """Reverse-mode gradients of a scalar output for the requested nodes.

    ``wrt`` is a mapping name -> Node; passing the node objects lets
    unreachable entries still get exact-zero gradients of the right shape.
    Entries need not be leaves: asking for the gradient at an interior node
    (say, an updated parameter expression) returns the adjoint there, still
    expressed as differentiable nodes, which is what differentiating through
    a parameter-update step relies on. Every entry must take gradients
    (``Node.requires_grad``); a frozen leaf, a constant or a node computed
    from them alone raises ``FrozenNodeError``.

    Inside ``no_graph()`` the returned gradients link no inputs (a value-only
    pass). Either way each interior adjoint is dropped once its VJP has run;
    only the adjoints of requested entries are kept.

    A recording pass also releases, as it goes, each interior value without
    the read mark (``Node.read``) once nothing of the pass can use it (see
    the module docstring); the output, the requested nodes and the returned
    gradients are kept. An op given a released node raises
    ``ReleasedValueError``, also for a returned gradient that nothing reads
    once a later recording ``backward`` has walked it. A value-only pass
    releases nothing.

    A non-finite output or gradient raises ``NonFiniteError`` naming the op
    that made it (see the module docstring).
    """
    if math.prod(output.shape) != 1:
        raise ValueError(f"backward needs a scalar output, got shape {output.shape}")
    frozen = [name for name, n in wrt.items() if not n.requires_grad]
    if frozen:
        raise FrozenNodeError(f"backward requested nodes that take no gradient: {frozen}")
    try:
        check_finite(_read(output, "backward"), "the output of backward")
    except NonFiniteError:
        _raise_at_first_non_finite(output)
    with _quiet(_recording):
        result = _walk(output, dict(wrt))
    check_boundary(((f"gradient of {name!r}", g.value) for name, g in result.items()),
                   lambda: backward(output, wrt))
    return result


def _walk(output: Node, leaves: dict[str, Node]) -> dict[str, Node]:
    """The gradients of ``backward``, releasing as it goes in a recording pass."""
    recording = _recording
    # A node created before every requested node lies on no path from one.
    floor = min((n.serial for n in leaves.values()), default=0)
    order = _topo_order((output,), floor)
    # Only nodes on a path from a requested node to the output need adjoints.
    # Such a node descends from a requested node, so it takes gradients. Sets
    # and maps are keyed on the nodes themselves, which hash by identity.
    wanted = set(leaves.values())
    relevant: set[Node] = set()
    for n in order:
        if n in wanted or n.requires_grad and not relevant.isdisjoint(n.inputs):
            relevant.add(n)
    is_relevant = relevant.__contains__
    seed = constant(np.ones(output.shape))
    adjoint: dict[Node, Node] = {output: seed}
    # Recording only: node -> how many adjoint entries hold it. The output and
    # the requested nodes are held throughout.
    held = dict.fromkeys(wanted | {output, seed}, 1) if recording else None

    passed: list[Node] = []  # recording: walked past without an adjoint, released before a VJP
    for n in reversed(order):
        if n not in adjoint:
            if recording:
                passed.append(n)
            continue
        if passed:
            _release_unread(passed, held)
            passed = []
        g = adjoint[n]
        if n not in wanted:
            del adjoint[n]
            if recording:
                held[g] -= 1
        needs = tuple(map(is_relevant, n.inputs))
        if True not in needs:
            continue  # a requested leaf, or a requested node whose inputs lie below the floor
        if recording:  # what may go after this step; the VJP builds only younger nodes
            spent, start = [n, g], next(_serials)
        vjp = _OPS[n.op].vjp
        grads = vjp(n, g, needs) if needs[1:] else vjp(n, g)
        for inp, gi, need in zip(n.inputs, grads, needs):
            if not need:
                continue
            prev = adjoint[inp] if inp in adjoint else None
            total = adjoint[inp] = gi if prev is None else add(prev, gi)
            if recording:
                held[total] = held.get(total, 0) + 1
                if prev is not None:
                    held[prev] -= 1
                    spent.append(prev)
        if recording:
            # Those still alive are reachable from the gradients through
            # younger nodes; a node reached twice is listed twice.
            built = [gi for gi in grads if gi is not None and gi.serial >= start]
            for m in built:
                built += [i for i in m.inputs if i.serial >= start]
            _release_unread(spent + built, held)

    if passed:
        _release_unread(passed, held)
    return {name: adjoint.get(n) or constant(np.zeros(n.shape))
            for name, n in leaves.items()}


def _release_unread(nodes: Iterable[Node], held: dict[Node, int]) -> None:
    """Set ``value = None`` on each interior node without the read mark, unless held.

    ``held`` counts the holds on each node; a node with none may go.
    Leaves, and nodes built inside ``no_graph()``, link no inputs and are
    never released. Every release of ``backward`` goes through here.
    """
    for n in nodes:
        if n.inputs and not n.read and not held.get(n):
            n.value = None


def _raise_at_first_non_finite(output: Node) -> None:
    """Raise naming the first non-finite node of ``output``'s recorded graph.

    In topological order that node's inputs are all finite, so its op made
    the non-finite value. Released nodes are skipped; ``output`` itself is
    non-finite and never released, so a ``NonFiniteError`` is always raised.
    """
    for n in _topo_order((output,)):
        if n.value is None:
            continue
        if n.op is not None:
            check_finite(n.value, f"output of {n.op!r}")
        else:
            check_finite(n.value, f"leaf {n.name!r}" if n.name else "a constant")


def gradient_values(output: Node, wrt: Mapping[str, Node]) -> dict[str, np.ndarray]:
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
