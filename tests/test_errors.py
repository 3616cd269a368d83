"""Every named error the package raises on bad input: its type and a fragment of its message."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from metaphrase import autodiff as ad
from metaphrase import data as dt
from metaphrase import decoding as dec
from metaphrase import experiments as ex
from metaphrase import meta as mt
from metaphrase import metrics as mx
from metaphrase import model as mm
from metaphrase import pipeline as pl

CONFIG = mm.ModelConfig(d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=16,
                        vocab_size=12, max_len=6, adapter_hidden=4,
                        adapter_placement=frozenset())
VOCAB = dt.Vocab([f"w{i}" for i in range(CONFIG.vocab_size - len(dt.RESERVED))])
STOP = mt.StopCriteria(max_steps=1)


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    """Checkpoints of each stage, a saved pretrained one, corpora of each role and a bad vocab."""
    root = tmp_path_factory.mktemp("errors")
    store = mm.build_model(CONFIG, seed=0)

    def checkpoint(stage, parents):
        return pl.Checkpoint(config=CONFIG, stage=stage, seeds={}, provenance=["p"] * parents,
                             store=store, vocab=VOCAB)

    pretrained_path = root / "pretrained.ckpt"
    pl.save_checkpoint(checkpoint("pretrained", 0), pretrained_path)
    vocab_path = root / "vocab.txt"
    vocab_path.write_text("hello\nworld\n", encoding="utf-8")
    return SimpleNamespace(
        root=root, store=store, pretrained=checkpoint("pretrained", 0),
        meta_trained=checkpoint("meta_trained", 1), finetuned=checkpoint("finetuned", 1),
        pretrained_path=str(pretrained_path), vocab_path=vocab_path,
        src=dt.CorpusSet(role="src", domains={}), tgt=dt.CorpusSet(role="tgt", domains={}))


def _const(*shape):
    return ad.constant(np.ones(shape))


def _store_with_w():
    store = mm.ParamStore()
    store.add("w", np.zeros(2))
    return store


# (id, call(ctx), exception type, message fragment)
CASES = [
    ("matmul_rank", lambda c: ad.matmul(_const(3), _const(3, 2)),
     ad.ShapeError, "matmul needs rank >= 2"),
    ("flat_matmul_leading_axes", lambda c: ad._make("_flat_matmul", (_const(2, 3), _const(4, 3))),
     ad.ShapeError, "_flat_matmul needs equal leading axes"),
    ("transpose_last2_rank", lambda c: ad.transpose_last2(_const(3)),
     ad.ShapeError, "transpose_last2 needs rank >= 2"),
    ("reshape_size", lambda c: ad.reshape(_const(6), (4,)),
     ad.ShapeError, "cannot reshape (6,) to (4,)"),
    ("slice_range", lambda c: ad.slice_axis(_const(3), 0, 1, 5),
     ad.ShapeError, "slice [1:5] out of range for extent 3"),
    ("pad_extent", lambda c: ad._make("_pad", (_const(2),),
                                      {"axis": 0, "start": 0, "stop": 3, "extent": 4}),
     ad.ShapeError, "_pad of [0:3] got extent 2"),
    ("embed_lookup_table_rank", lambda c: ad.embed_lookup(_const(3), [0]),
     ad.ShapeError, "embed_lookup table must be rank 2"),
    ("mask_fill_not_broadcastable", lambda c: ad.mask_fill(_const(3), np.ones(2, bool), 0.0),
     ad.ShapeError, "not broadcastable to (3,)"),
    ("mask_fill_widens", lambda c: ad.mask_fill(_const(3), np.ones((2, 3), bool), 0.0),
     ad.ShapeError, "widens input (3,)"),
    ("cross_entropy_targets_shape", lambda c: ad.cross_entropy_with_logits(_const(2, 4), [0]),
     ad.ShapeError, "must match logits rows (2,)"),
    ("vocab_without_reserved_tokens", lambda c: dt.Vocab.load(c.vocab_path),
     dt.CorpusFormatError, "is missing the reserved tokens"),
    ("domain_without_templates",
     lambda c: dt.DomainSpec(name="d", seed=0, words={}, synonyms={}, templates=[]),
     ValueError, "domain 'd': no templates"),
    ("corpus_role", lambda c: dt.CorpusSet(role="dev", domains={}),
     ValueError, "unknown corpus role 'dev'"),
    ("decode_len_above_max_len",
     lambda c: dec.decode_batch(c.store, CONFIG, [], dec.DecodeConfig(max_decode_len=7)),
     ValueError, "max_decode_len exceeds the model's max_len"),
    ("unknown_variant",
     lambda c: ex.run_variant("bogus", c.pretrained_path, None, mt.TrainHyper(),
                              ex.RunSettings(), 0, c.root / "variant"),
     ValueError, "unknown variant 'bogus'"),
    ("task_loss_count",
     lambda c: mt._task_losses(lambda params, batches: _const(2), {}, [[], [], []]),
     ValueError, "loss_fn returned 2 losses for 3 tasks"),
    ("outer_gradient_without_tasks",
     lambda c: mt.outer_gradient({}, [], [], mt.TrainHyper(), None),
     ValueError, "meta batch must contain at least one task"),
    ("bleu_counts_differ", lambda c: mx.corpus_bleu([["a"]], [], 2),
     ValueError, "candidate/reference counts differ"),
    ("bleu_empty_corpus", lambda c: mx.corpus_bleu([], [], 2), ValueError, "empty corpus"),
    ("adapters_without_hidden_units",
     lambda c: replace(CONFIG, adapter_placement=mm.DEFAULT_PLACEMENT, adapter_hidden=0),
     ValueError, "adapter_hidden must be positive when adapters are placed"),
    ("param_store_duplicate",
     lambda c: _store_with_w().add("w", np.zeros(2)),
     ValueError, "duplicate parameter 'w'"),
    ("param_store_set_shape", lambda c: _store_with_w().set("w", np.zeros(3)),
     ValueError, "shape mismatch for 'w': (3,) vs (2,)"),
    ("meta_train_mode",
     lambda c: pl.meta_train_stage(c.pretrained, c.src, mt.TrainHyper(), STOP, seed=0,
                                   mode="bogus"),
     ValueError, "unknown mode 'bogus'"),
    ("finetune_mode",
     lambda c: pl.finetune_stage(c.meta_trained, c.tgt, mt.TrainHyper(), STOP, seed=0,
                                 mode="bogus"),
     ValueError, "unknown mode 'bogus'"),
    ("meta_train_corpus_role",
     lambda c: pl.meta_train_stage(c.pretrained, c.tgt, mt.TrainHyper(), STOP, seed=0),
     ValueError, "meta_train_stage needs the source corpus set"),
    ("finetune_corpus_role",
     lambda c: pl.finetune_stage(c.meta_trained, c.src, mt.TrainHyper(), STOP, seed=0),
     ValueError, "finetune_stage needs the target corpus set"),
    ("finetune_target_without_domains",
     lambda c: pl.finetune_stage(c.meta_trained, c.tgt, mt.TrainHyper(), STOP, seed=0),
     ValueError, "finetune_stage needs a target corpus set of one domain, got 0"),
    ("finetune_target_of_two_domains",
     lambda c: pl.finetune_stage(
         c.meta_trained, dt.CorpusSet(role="tgt", domains={
             "a": dt.SplitPairs(train=[]), "b": dt.SplitPairs(train=[])}),
         mt.TrainHyper(), STOP, seed=0, mode="plain"),
     ValueError, "finetune_stage needs a target corpus set of one domain, got 2"),
    ("pretrain_empty_corpus",
     lambda c: pl.pretrain_stage(CONFIG, [], pl.NoiseConfig(), steps=1, seed=0, vocab=VOCAB),
     ValueError, "pretrain_stage needs a corpus of at least one sentence"),
    ("finetune_from_finetuned",
     lambda c: pl.finetune_stage(c.finetuned, c.tgt, mt.TrainHyper(), STOP, seed=0),
     pl.StageOrderError, "cannot fine-tune from stage 'finetuned'"),
]


@pytest.mark.parametrize("call, exc, fragment", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_bad_input_raises_a_named_error(ctx, call, exc, fragment):
    with pytest.raises(exc) as info:
        call(ctx)
    assert type(info.value) is exc
    assert fragment in str(info.value)
