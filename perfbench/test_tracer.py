"""Tracer tests at the test suite's tiny config.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from collections import Counter

import numpy as np

import tracer as tr
from metaphrase import autodiff as ad
from metaphrase import model as mm

# Public wrapper name -> op id recorded on the Node.
OP_IDS = {"slice_axis": "slice", "mean_all": "mean", "sum_all": "sum"}


def tiny_config():
    return mm.ModelConfig(d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=16,
                          vocab_size=40, max_len=12, adapter_hidden=4)


def padded_batch():
    src = np.array([[0, 7, 8, 9, 1], [0, 10, 1, 2, 2]])
    tgt = np.array([[0, 11, 12, 13], [0, 14, 2, 2]])
    return src, tgt, src != 2, tgt != 2


def traced(fn):
    tracer = tr.Tracer()
    tracer.install()
    try:
        with tracer.phase("unit"):
            out = fn()
    finally:
        tracer.restore()
    return tracer, out


def span_counts(tracer):
    name_idx = tracer.arrays()[0]
    return Counter(tracer.names[i] for i in name_idx)


def test_op_calls_of_one_forward_match_its_graph():
    config = tiny_config()
    store = mm.build_model(config, seed=3)
    src, tgt, src_mask, tgt_mask = padded_batch()
    tracer, logits = traced(lambda: mm.forward_batch(store, config, src, tgt, src_mask, tgt_mask))

    graph_ops = Counter(n.op for n in ad.Graph(logits).nodes if n.op is not None)
    spans = span_counts(tracer)
    traced_ops = Counter({OP_IDS.get(op, op): spans[f"autodiff.{op}"]
                          for op in tr.OPS if spans[f"autodiff.{op}"]})
    assert traced_ops == graph_ops
    assert {"mask_fill", "relu", "slice", "concat"} <= set(graph_ops)
    assert spans["model.forward_batch"] == 1


def test_wrapped_attributes_are_restored():
    originals = [getattr(module, attr) for module, attr, _ in tr.WRAPPED] + [ad.Node]
    config = tiny_config()
    store = mm.build_model(config, seed=3)
    src, tgt, src_mask, tgt_mask = padded_batch()
    tracer = tr.Tracer()
    tracer.install()
    assert mm.forward_batch is not originals[[a for _, a, _ in tr.WRAPPED].index("forward_batch")]
    mm.forward_batch(store, config, src, tgt, src_mask, tgt_mask)
    tracer.restore()
    restored = [getattr(module, attr) for module, attr, _ in tr.WRAPPED] + [ad.Node]
    assert all(a is b for a, b in zip(originals, restored))


def test_backward_spans_split_forward_and_backward_work():
    config = tiny_config()
    store = mm.build_model(config, seed=3)
    src, tgt, src_mask, tgt_mask = padded_batch()
    _, phi = mm.partition_params(store)

    def step():
        leaves = store.leaves()
        logits = mm.forward_batch(leaves, config, src, tgt, src_mask, tgt_mask)
        loss = mm.batch_nll(logits, tgt, tgt_mask)
        return loss, ad.backward(loss, {n: leaves[n] for n in phi})

    tracer, (loss, grads) = traced(step)
    layers = tr.layer_metrics(tracer, "unit", "setup", "baseline")
    forward_matmuls = sum(n.op == "matmul" for n in ad.Graph(loss).nodes)
    assert layers["autodiff.matmul.fwd_calls"][0] == forward_matmuls
    assert layers["autodiff.matmul.bwd_calls"][0] > 0
    assert layers["autodiff.backward.calls"][0] == 1
    forward = {id(n) for n in ad.Graph(loss).nodes}
    live = sum(1 for n in ad.Graph(list(grads.values())).nodes
               if n.op is not None and id(n) not in forward)
    built = layers["autodiff.backward.nodes_built"][0]
    assert built > live > 0  # gradients of frozen backbone weights are built, then dropped
    assert round(built * layers["autodiff.backward.live_ratio"][0]) == live
    assert 0.0 <= layers["autodiff.backward.self_s"][0] <= layers["pipeline.step.backward_s"][0]
