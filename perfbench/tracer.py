"""Opt-in span tracer that wraps public attributes of the metaphrase modules.

``Tracer.install()`` replaces each attribute in ``WRAPPED`` with a wrapper
that records one span per call: (name, start, end, parent). Module code
looks these names up at call time (``ad.matmul``, ``mm.forward_batch``, and
the VJPs inside autodiff calling ``matmul``), so every call is seen.
``Tracer.restore()`` puts the original objects back. Nothing in the package
changes, and a run that never calls ``install()`` pays nothing.

``autodiff.Node`` is a public name too. While installed it is replaced by a
subclass that reports each op node it constructs, which is how the nodes a
``backward`` call builds, and how many of them its returned gradients still
reach, are counted without touching autodiff internals.

Spans live in flat arrays; self times, per-op forward/backward splits and
per-phase filtering are derived from them afterwards by ``layer_metrics``.
"""

from __future__ import annotations

import os
import time
from array import array
from contextlib import contextmanager
from statistics import median

import numpy as np

from metaphrase import autodiff as ad
from metaphrase import data as dt
from metaphrase import decoding as dec
from metaphrase import experiments as ex
from metaphrase import meta as mt
from metaphrase import metrics as mx
from metaphrase import model as mm
from metaphrase import pipeline as pl

# Primitive functions of autodiff whose per-op numbers are reported. The
# remaining public primitives (relu, mean_all, sum_all) are wrapped too, so
# that every op node of a forward graph belongs to some span.
REPORTED_OPS = (
    "matmul", "add", "mul", "scale", "transpose_last2", "slice_axis", "concat",
    "softmax_lastdim", "layer_norm", "gelu", "mask_fill", "embed_lookup",
    "cross_entropy_with_logits", "reshape",
)
OPS = REPORTED_OPS + ("relu", "mean_all", "sum_all")

WRAPPED = (
    [(ad, op, f"autodiff.{op}") for op in OPS]
    + [
        (ad, "backward", "autodiff.backward"),
        (mm, "forward_batch", "model.forward_batch"),
        (mm, "adapter_apply", "model.adapter_apply"),
        (mt, "inner_adapt", "meta.inner_adapt"),
        (mt, "outer_gradient", "meta.outer_gradient"),
        (mt, "evaluate_adaptation", "meta.evaluate_adaptation"),
        (mt, "clip_global_norm", "meta.clip_global_norm"),
        (mt, "adamw_step", "meta.adamw_step"),
        (mt, "sgd_step", "meta.sgd_step"),
        (pl, "make_pair_loss", "pipeline.make_pair_loss"),
        (pl, "corrupt", "pipeline.corrupt"),
        (pl, "save_checkpoint", "pipeline.save_checkpoint"),
        (pl, "load_checkpoint", "pipeline.load_checkpoint"),
        (dec, "decode", "decoding.decode"),
        (dt, "pad_batch", "data.pad_batch"),
        (dt, "sample_meta_task", "data.sample_meta_task"),
        (dt, "preprocess", "data.preprocess"),
        (mx, "evaluate_corpus", "metrics.evaluate_corpus"),
        (ex, "build_world_files", "experiments.build_world_files"),
        (ex, "load_world", "experiments.load_world"),
    ]
)

LOSS_SPAN = "pipeline.loss"


class Tracer:
    """Spans kept in memory as (name, start, end, parent) in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        # (span index, value) pairs recorded by the wrappers that count work.
        self.notes: dict[str, list[tuple[int, float]]] = {}
        self._originals: list[tuple[object, str, object]] = []
        self._op_nodes = 0
        self._collect: list | None = None

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_idx.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def note(self, key: str, idx: int, value: float) -> None:
        self.notes.setdefault(key, []).append((idx, value))

    @contextmanager
    def phase(self, name: str):
        """A root span that groups one phase of a run."""
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        traced.__wrapped__ = fn
        return traced

    def _wrap_backward(self, fn):
        tracer = self

        def traced(output, wrt):
            outer, tracer._collect = tracer._collect, []
            idx = tracer.open("autodiff.backward")
            try:
                grads = fn(output, wrt)
            finally:
                tracer.close(idx)
                built, tracer._collect = tracer._collect, outer
            live = _reachable_within(list(grads.values()), {id(n) for n in built})
            tracer.note("backward.built", idx, len(built))
            tracer.note("backward.live", idx, live)
            return grads

        traced.__wrapped__ = fn
        return traced

    def _wrap_counting(self, fn, name, key):
        """Span plus the number of op nodes constructed during the call."""
        tracer = self

        def traced(*args, **kwargs):
            before = tracer._op_nodes
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                tracer.note(key, idx, tracer._op_nodes - before)

        traced.__wrapped__ = fn
        return traced

    def _wrap_make_pair_loss(self, fn):
        tracer = self

        def traced_factory(config):
            loss_fn = fn(config)

            def traced_loss(params, batch):
                idx = tracer.open(LOSS_SPAN)
                try:
                    loss = loss_fn(params, batch)
                finally:
                    tracer.close(idx)
                tracer.note("loss.graph_nodes", idx, len(ad.Graph(loss).nodes))
                return loss

            return traced_loss

        traced_factory.__wrapped__ = fn
        return traced_factory

    def _wrap_save(self, fn):
        tracer = self

        def traced(ckpt, path):
            idx = tracer.open("pipeline.save_checkpoint")
            try:
                digest = fn(ckpt, path)
            finally:
                tracer.close(idx)
            tracer.note("checkpoint.bytes", idx, os.path.getsize(path))
            return digest

        traced.__wrapped__ = fn
        return traced

    def _wrap_decode(self, fn):
        tracer = self

        def traced(params, config, src_tokens, dc):
            idx = tracer.open("decoding.decode")
            try:
                out = fn(params, config, src_tokens, dc)
            finally:
                tracer.close(idx)
            tracer.note("decode.tokens", idx, len(out) - 1)
            return out

        traced.__wrapped__ = fn
        return traced

    def _node_class(self, base):
        tracer = self

        class TracedNode(base):
            __slots__ = ()

            def __init__(self, op, inputs, attrs, value, name=None):
                base.__init__(self, op, inputs, attrs, value, name)
                if op is not None:
                    tracer._op_nodes += 1
                    if tracer._collect is not None:
                        tracer._collect.append(self)

        TracedNode.__name__ = TracedNode.__qualname__ = base.__name__
        return TracedNode

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        special = {
            "autodiff.backward": self._wrap_backward,
            "pipeline.make_pair_loss": self._wrap_make_pair_loss,
            "pipeline.save_checkpoint": self._wrap_save,
            "decoding.decode": self._wrap_decode,
        }
        for module, attr, name in WRAPPED:
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            if name in special:
                wrapper = special[name](fn)
            elif name == "meta.outer_gradient":
                wrapper = self._wrap_counting(fn, name, "outer_gradient.nodes")
            else:
                wrapper = self._wrap(fn, name)
            setattr(module, attr, wrapper)
        self._originals.append((ad, "Node", ad.Node))
        ad.Node = self._node_class(ad.Node)

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals = []

    # -- output --------------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.name_idx, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
        )

    def write(self, path) -> None:
        name_idx, start, end, parent = self.arrays()
        np.savez(path, names=np.array(self.names), name_idx=name_idx,
                 start=start, end=end, parent=parent)


def _reachable_within(roots, ids: set[int]) -> int:
    """How many nodes in ``ids`` the roots reach through nodes in ``ids``.

    A node built during a call can only be reached through other nodes built
    during it, so the walk never leaves ``ids``.
    """
    seen: set[int] = set()
    stack = [n for n in roots if id(n) in ids]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(i for i in node.inputs if id(i) in ids and id(i) not in seen)
    return len(seen)


def _has_ancestor(parent: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """Per span: does any strict ancestor satisfy ``marked``? One level per pass."""
    out = np.zeros(len(parent), dtype=bool)
    anc = parent.copy()
    while True:
        alive = anc >= 0
        if not alive.any():
            return out
        out[alive] |= marked[anc[alive]]
        anc[alive] = parent[anc[alive]]


def _root(parent: np.ndarray) -> np.ndarray:
    root = np.arange(len(parent))
    while True:
        up = parent[root]
        moving = up >= 0
        if not moving.any():
            return root
        root[moving] = up[moving]


def layer_metrics(tracer: Tracer, unit_phase: str, setup_phase: str,
                  baseline_phase: str) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the spans: (value, unit) per metric name."""
    name_idx, start, end, parent = tracer.arrays()
    span_name = np.array(tracer.names, dtype=object)[name_idx]
    dur = end - start
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    root_name = span_name[_root(parent)]
    in_bwd = _has_ancestor(parent, span_name == "autodiff.backward")
    in_decode = _has_ancestor(parent, span_name == "decoding.decode")

    out: dict[str, tuple[float, str]] = {}

    def select(phase, name):
        return (root_name == phase) & (span_name == name)

    def calls_s(prefix, phase, name):
        sel = select(phase, name)
        out[f"{prefix}.calls"] = (int(sel.sum()), "count")
        out[f"{prefix}.s"] = (float(dur[sel].sum()), "s")

    for op in REPORTED_OPS:
        sel = select(unit_phase, f"autodiff.{op}")
        for tag, mask in (("fwd", sel & ~in_bwd), ("bwd", sel & in_bwd)):
            out[f"autodiff.{op}.{tag}_calls"] = (int(mask.sum()), "count")
            out[f"autodiff.{op}.{tag}_s"] = (float(dur[mask].sum()), "s")

    def noted(key, phase):
        return [v for i, v in tracer.notes.get(key, []) if root_name[i] == phase]

    bwd = select(unit_phase, "autodiff.backward")
    built, live = noted("backward.built", unit_phase), noted("backward.live", unit_phase)
    out["autodiff.backward.calls"] = (int(bwd.sum()), "count")
    out["autodiff.backward.self_s"] = (float(self_s[bwd].sum()), "s")
    out["autodiff.backward.nodes_built"] = (int(sum(built)), "count")
    out["autodiff.backward.live_ratio"] = (sum(live) / sum(built) if sum(built) else 0.0, "ratio")
    loss_nodes = noted("loss.graph_nodes", unit_phase)
    out["autodiff.graph.nodes_per_loss"] = (
        float(median(loss_nodes)) if loss_nodes else 0.0, "count")

    fb = select(unit_phase, "model.forward_batch")
    for tag, mask in (("train", fb & ~in_decode), ("decode", fb & in_decode)):
        out[f"model.forward_batch.{tag}_calls"] = (int(mask.sum()), "count")
        out[f"model.forward_batch.{tag}_s"] = (float(dur[mask].sum()), "s")
    calls_s("model.adapter_apply", unit_phase, "model.adapter_apply")

    for fn in ("inner_adapt", "outer_gradient", "evaluate_adaptation",
               "clip_global_norm", "adamw_step", "sgd_step"):
        calls_s(f"meta.{fn}", unit_phase, f"meta.{fn}")
    og_nodes = noted("outer_gradient.nodes", unit_phase)
    out["meta.outer_gradient.nodes_per_call"] = (
        sum(og_nodes) / len(og_nodes) if og_nodes else 0.0, "count")

    def total(name):
        return float(dur[select(unit_phase, name)].sum())

    out["pipeline.step.forward_s"] = (total(LOSS_SPAN), "s")
    out["pipeline.step.backward_s"] = (total("autodiff.backward"), "s")
    out["pipeline.step.update_s"] = (
        total("meta.clip_global_norm") + total("meta.adamw_step") + total("meta.sgd_step"), "s")
    for fn in ("corrupt", "save_checkpoint", "load_checkpoint"):
        calls_s(f"pipeline.{fn}", unit_phase, f"pipeline.{fn}")
    out["pipeline.checkpoint.bytes"] = (int(sum(noted("checkpoint.bytes", unit_phase))), "bytes")

    calls_s("decoding.decode", unit_phase, "decoding.decode")
    tokens = int(sum(noted("decode.tokens", unit_phase)))
    out["decoding.tokens_emitted"] = (tokens, "count")
    out["decoding.forward_calls_per_token"] = (
        out["model.forward_batch.decode_calls"][0] / tokens if tokens else 0.0, "ratio")

    for fn in ("pad_batch", "sample_meta_task", "preprocess"):
        calls_s(f"data.{fn}", unit_phase, f"data.{fn}")
    out["metrics.evaluate_corpus.s"] = (total("metrics.evaluate_corpus"), "s")
    for fn in ("build_world_files", "load_world"):
        setup_spans = select(setup_phase, f"experiments.{fn}")
        out[f"experiments.{fn}.s"] = (float(dur[setup_spans].sum()), "s")

    out["baseline.loss_graph_nodes"] = (sum(noted("loss.graph_nodes", baseline_phase)), "count")
    out["baseline.phi_backward_nodes"] = (sum(noted("backward.built", baseline_phase)), "count")
    out["baseline.phi_backward_dead"] = (
        sum(noted("backward.built", baseline_phase)) - sum(noted("backward.live", baseline_phase)),
        "count")
    out["trace.spans"] = (len(start), "count")
    return out
