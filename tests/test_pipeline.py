"""Stage orchestration, corruption, and checkpoint format tests.

``tests/data/chain_hashes.json`` pins the checkpoint hashes of a tiny chain
(``golden_chain``). ``PYTHONPATH=src python tests/test_pipeline.py`` prints
each entry's pinned hash, this tree's hash, whether it changed, and a
digest of its parameters: the sha256 of each record's name and float32
payload, in name order, which a change to the config text or to the record
layout leaves as it was.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from metaphrase import autodiff as ad
from metaphrase import data as dt
from metaphrase import experiments as ex
from metaphrase import meta as mt
from metaphrase import model as mm
from metaphrase import pipeline as pl


def tiny_config(**kw):
    base = dict(
        d_model=8,
        n_heads=2,
        n_enc_layers=1,
        n_dec_layers=1,
        d_ff=16,
        vocab_size=40,
        max_len=12,
        adapter_hidden=4,
    )
    base.update(kw)
    return mm.ModelConfig(**base)


def filler_vocab(size):
    """A vocabulary of ``size`` tokens: the reserved ones, then w0, w1, ..."""
    return dt.Vocab([f"w{i}" for i in range(size - len(dt.RESERVED))])


def tiny_world(n_pairs=24, n_domains=2, seed=0):
    """Vocab + corpora from a small synthetic domain family."""
    specs = dt.domain_family(n_domains, seed=seed, nouns=2, verbs=2, places=2)
    texts = {s.name: dt.synth_domain(s, n_pairs)[0] for s in specs}
    sentences = [a for pairs in texts.values() for a, _ in pairs]
    vocab = dt.Vocab.build([sentences + [b for pairs in texts.values() for _, b in pairs]])
    corpora = {
        name: [dt.ParaphrasePair(dt.preprocess(a, vocab), dt.preprocess(b, vocab))
               for a, b in pairs]
        for name, pairs in texts.items()
    }
    unlabeled = [dt.preprocess(s, vocab) for s in sentences]
    return vocab, corpora, unlabeled


class TestCorrupt:
    def test_noop(self):
        tokens = np.array([dt.BOS, 7, 8, 9, dt.EOS])
        noise = pl.NoiseConfig(mask_prob=0.0, delete_prob=0.0)
        assert np.array_equal(pl.corrupt(tokens, noise, np.random.default_rng(1)), tokens)

    def test_saturated_masking(self):
        tokens = np.array([dt.BOS, 7, 8, 9, dt.EOS])
        noise = pl.NoiseConfig(mask_prob=1.0, delete_prob=0.0)
        out = pl.corrupt(tokens, noise, np.random.default_rng(1))
        assert list(out) == [dt.BOS, dt.MASK, dt.MASK, dt.MASK, dt.EOS]

    def test_markers_never_deleted(self):
        tokens = np.array([dt.BOS, 7, 8, 9, dt.EOS])
        noise = pl.NoiseConfig(mask_prob=0.0, delete_prob=1.0)
        out = pl.corrupt(tokens, noise, np.random.default_rng(1))
        assert list(out) == [dt.BOS, dt.EOS]

    def test_golden_pattern(self):
        # Frozen once from the pinned generator (PCG64 via default_rng(7)).
        tokens = np.arange(5, 15)
        tokens[0], tokens[-1] = dt.BOS, dt.EOS
        noise = pl.NoiseConfig(mask_prob=0.3, delete_prob=0.2)
        out = pl.corrupt(tokens, noise, np.random.default_rng(7))
        assert list(out) == list(pl.corrupt(tokens, noise, np.random.default_rng(7)))  # deterministic
        assert list(out) == [0, 6, 7, 3, 9, 10, 3, 12, 13, 1]

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            pl.NoiseConfig(mask_prob=1.5)


class TestCheckpointFormat:
    def make_ckpt(self, stage="pretrained", vocab=None, **cfg_kw):
        config = tiny_config(adapter_placement=frozenset(), **cfg_kw)
        store = mm.build_model(config, seed=3)
        return pl.Checkpoint(
            config=config, stage=stage, seeds={"bundle": 3}, provenance=[], store=store,
            vocab=filler_vocab(config.vocab_size) if vocab is None else vocab,
        )

    def test_roundtrip_bit_exact(self, tmp_path):
        ckpt = self.make_ckpt()
        path = tmp_path / "model.ckpt"
        pl.save_checkpoint(ckpt, path)
        loaded = pl.load_checkpoint(path)
        path2 = tmp_path / "model2.ckpt"
        pl.save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_magic_and_version_bytes(self, tmp_path):
        ckpt = self.make_ckpt()
        blob = pl.checkpoint_bytes(ckpt)
        assert blob[:4] == b"LAPA"
        assert int.from_bytes(blob[4:8], "little") == pl.FORMAT_VERSION

    def test_float32_payload(self):
        ckpt = self.make_ckpt()
        loaded = pl.checkpoint_from_bytes(pl.checkpoint_bytes(ckpt))
        for name, arr in loaded.store.items():
            assert arr.dtype == np.float64
            np.testing.assert_array_equal(arr, arr.astype(np.float32).astype(np.float64))

    @pytest.mark.parametrize("bad", [1e39, -1e39, np.inf, np.nan])
    def test_non_finite_parameter_not_written(self, bad):
        ckpt = self.make_ckpt()
        values = ckpt.store["enc.0.ffn.w1.w"].copy()
        values[1, 2] = bad  # 1e39 is finite in float64 but overflows float32
        ckpt.store.set("enc.0.ffn.w1.w", values)
        with pytest.raises(pl.CheckpointError, match="'enc.0.ffn.w1.w'"):
            pl.checkpoint_bytes(ckpt)

    @pytest.mark.parametrize("bad", [
        np.float32(np.inf).tobytes(),
        np.float32(np.nan).tobytes(),
        (0x7f800001).to_bytes(4, "little"),  # its float64 cast warns "invalid value"
    ], ids=["inf", "nan", "signalling_nan"])
    def test_non_finite_payload_rejected(self, bad):
        ckpt = self.make_ckpt()
        values = ckpt.store["dec.0.ln2.gain"].copy()
        values[3] = 12345.0
        ckpt.store.set("dec.0.ln2.gain", values)
        blob = pl.checkpoint_bytes(ckpt)
        marker = np.float32(12345.0).tobytes()
        assert blob.count(marker) == 1
        patched = blob.replace(marker, bad)
        with pytest.raises(pl.CheckpointError, match="'dec.0.ln2.gain'"):
            pl.checkpoint_from_bytes(patched)

    @pytest.mark.parametrize("extents", [(2**63, 8), (2**62, 2), (2**40, 2**40)],
                             ids=["overflow", "overflow_x4", "wraps_int64_to_0"])
    def test_huge_extents_rejected_before_reading(self, extents):
        blob = pl.checkpoint_bytes(self.make_ckpt())
        name = b"enc.0.ffn.w1.w"
        assert blob.count(name) == 1
        at = blob.index(name) + len(name) + 1  # past the rank
        assert blob[at - 1] == 2
        patched = blob[:at] + b"".join(e.to_bytes(8, "little") for e in extents) + blob[at + 16:]
        with pytest.raises(pl.CheckpointError, match="truncated while reading enc.0.ffn.w1.w"):
            pl.checkpoint_from_bytes(patched)

    def test_truncated_file_rejected(self, tmp_path):
        ckpt = self.make_ckpt()
        blob = pl.checkpoint_bytes(ckpt)
        with pytest.raises(pl.CheckpointError, match="truncated"):
            pl.checkpoint_from_bytes(blob[: len(blob) // 2])

    def test_bad_magic_rejected(self):
        with pytest.raises(pl.CheckpointError, match="magic"):
            pl.checkpoint_from_bytes(b"NOPE" + b"\x00" * 64)

    def test_version_mismatch_rejected(self):
        ckpt = self.make_ckpt()
        blob = bytearray(pl.checkpoint_bytes(ckpt))
        blob[4:8] = (99).to_bytes(4, "little")
        with pytest.raises(pl.CheckpointError, match="version"):
            pl.checkpoint_from_bytes(bytes(blob))

    def test_version_1_file_rejected(self):
        # Format version 1, whose records carry a partition tag byte, no longer loads.
        blob = pl.checkpoint_bytes(self.make_ckpt())
        with pytest.raises(pl.CheckpointError,
                           match=r"^unsupported checkpoint version 1 \(expected 2\)$"):
            pl.checkpoint_from_bytes(blob[:4] + (1).to_bytes(4, "little") + blob[8:])

    def test_config_parameter_mismatch_rejected(self):
        ckpt = self.make_ckpt()
        blob = pl.checkpoint_bytes(ckpt)
        # Lie about d_ff in the embedded config text.
        patched = blob.replace(b"model.d_ff = 16", b"model.d_ff = 32")
        with pytest.raises(pl.CheckpointError, match="do not match"):
            pl.checkpoint_from_bytes(patched)

    def test_extra_parameter_rejected(self):
        ckpt = self.make_ckpt()
        ckpt.store.add("enc.0.attn.wk.b", np.zeros(8))
        blob = pl.checkpoint_bytes(ckpt)
        with pytest.raises(pl.CheckpointError, match=r"unexpected: \['enc.0.attn.wk.b'\]"):
            pl.checkpoint_from_bytes(blob)

    def test_missing_config_field_rejected(self):
        blob = pl.checkpoint_bytes(self.make_ckpt())
        patched = blob.replace(b"model.max_len = ", b"model.max_lem = ")
        with pytest.raises(pl.CheckpointError, match="missing field 'model.max_len'"):
            pl.checkpoint_from_bytes(patched)

    def test_non_finite_config_value_rejected(self):
        blob = pl.checkpoint_bytes(self.make_ckpt())
        patched = with_config_text(blob, b"model.max_len = 12\n", b"model.max_len = nan\n")
        with pytest.raises(pl.CheckpointError, match="invalid literal for int.*'nan'"):
            pl.checkpoint_from_bytes(patched)

    def test_config_text_encoding(self):
        config = tiny_config(vocab_size=7, adapter_placement=frozenset({"enc_ffn", "dec_attn"}))
        ckpt = pl.Checkpoint(config=config, stage="pretrained", seeds={"b": 2, "a": 1},
                             provenance=[], store=mm.build_model(config, seed=3),
                             vocab=dt.Vocab(["alpha", "beta"]))
        blob = pl.checkpoint_bytes(ckpt)
        text = blob[12:12 + int.from_bytes(blob[8:12], "little")].decode()
        assert text == (
            "stage = pretrained\nprovenance = \nseed.a = 1\nseed.b = 2\n"
            "model.d_model = 8\nmodel.n_heads = 2\nmodel.n_enc_layers = 1\n"
            "model.n_dec_layers = 1\nmodel.d_ff = 16\nmodel.vocab_size = 7\n"
            "model.max_len = 12\nmodel.adapter_hidden = 4\n"
            "model.adapter_placement = dec_attn enc_ffn\n"
            "vocab = <s> </s> <pad> <mask> <unk> alpha beta\n"
        )
        assert pl.checkpoint_from_bytes(blob).config == config

    def test_vocab_embedded(self, tmp_path):
        vocab = dt.Vocab(["alpha", "beta"])
        ckpt = self.make_ckpt(vocab=vocab, vocab_size=len(vocab))
        loaded = pl.checkpoint_from_bytes(pl.checkpoint_bytes(ckpt))
        assert loaded.vocab.tokens() == vocab.tokens()

    def test_vocab_size_mismatch_rejected(self):
        vocab = dt.Vocab(["alpha", "beta"])
        with pytest.raises(ValueError, match="embedded vocab has 7 tokens, model vocab_size is 40"):
            self.make_ckpt(vocab=vocab)
        blob = pl.checkpoint_bytes(self.make_ckpt(vocab=vocab, vocab_size=len(vocab)))
        with pytest.raises(pl.CheckpointError, match="embedded vocab has 8 tokens"):
            pl.checkpoint_from_bytes(with_config_text(blob, b" beta\n", b" beta gamma\n"))

    def test_provenance_count_enforced(self):
        config = tiny_config(adapter_placement=frozenset())
        store = mm.build_model(config, seed=0)
        with pytest.raises(ValueError, match="parents"):
            pl.Checkpoint(config=config, stage="meta_trained", seeds={},
                          provenance=[], store=store, vocab=filler_vocab(config.vocab_size))

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        ckpt = self.make_ckpt()
        path = tmp_path / "model.ckpt"
        pl.save_checkpoint(ckpt, path)
        assert not (tmp_path / "model.ckpt.tmp").exists()

    def test_save_keeps_a_stray_tmp_and_leaves_no_temp_file(self, tmp_path):
        stray = tmp_path / "model.ckpt.tmp"
        stray.write_bytes(b"not ours")
        path = tmp_path / "model.ckpt"
        digest = pl.save_checkpoint(self.make_ckpt(), path)
        assert stray.read_bytes() == b"not ours"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt", "model.ckpt.tmp"]
        assert pl.load_checkpoint(path).content_hash() == digest

    def test_failed_write_keeps_old_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        pl.save_checkpoint(self.make_ckpt(), path)
        before = path.read_bytes()

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(pl.os, "fsync", failing_fsync)
        other = self.make_ckpt()
        other.store.set("tok_embed", other.store["tok_embed"] + 1.0)
        with pytest.raises(OSError, match="disk full"):
            pl.save_checkpoint(other, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def with_config_text(blob, old, new):
    """``blob`` with ``old`` replaced by ``new`` in its config text, length fixed up."""
    n = int.from_bytes(blob[8:12], "little")
    text = blob[12:12 + n]
    assert text.count(old) == 1
    text = text.replace(old, new)
    return blob[:8] + len(text).to_bytes(4, "little") + text + blob[12 + n:]


@pytest.mark.parametrize("old, new", [
    (b"model.d_model = 8\n", b"model.d_model = x\n"),
    (b"model.n_heads = 2\n", b"model.n_heads = 3\n"),  # fails the ModelConfig check
    (b"stage = pretrained\n", b"stage = bogus\n"),
    (b"stage = pretrained\n", b"stage = finetuned\n"),  # with no parents
    (b"seed.bundle = 3\n", b"seed.bundle = abc\n"),
    (b"model.adapter_placement = \n", b"model.adapter_placement = nowhere\n"),
    (b"seed.bundle = 3\n", b"seed.bundle = \xff\n"),
], ids=["non_int", "bad_config", "bad_stage", "no_parents", "bad_seed", "unknown_site",
        "non_utf8"])
def test_malformed_config_text_is_a_named_checkpoint_error(old, new):
    blob = pl.checkpoint_bytes(TestCheckpointFormat().make_ckpt())
    with pytest.raises(pl.CheckpointError, match="^corrupt checkpoint: ") as info:
        pl.checkpoint_from_bytes(with_config_text(blob, old, new))
    assert isinstance(info.value.__cause__, ValueError)


def split_records(blob):
    """(header and config text, raw parameter records) of checkpoint bytes."""
    at = 12 + int.from_bytes(blob[8:12], "little")
    header, records = blob[:at], []
    while at < len(blob):
        start = at
        at += 4 + int.from_bytes(blob[at:at + 4], "little")  # name
        rank = blob[at]
        shape = [int.from_bytes(blob[at + 1 + 8 * i:at + 9 + 8 * i], "little")
                 for i in range(rank)]
        at += 1 + 8 * rank + 4 * math.prod(shape)
        records.append(blob[start:at])
    return header, records


def records_reversed(blob):
    header, records = split_records(blob)
    return header + b"".join(reversed(records))


@pytest.mark.parametrize("patch, message", [
    (lambda b: with_config_text(b, b"seed.bundle = 3\n", b"seed.bundle = 3\nextra = 1\n"),
     "canonical"),
    (lambda b: with_config_text(b, b"model.d_ff = 16\n", b"model.d_ff = 32\nmodel.d_ff = 16\n"),
     "canonical"),
    (lambda b: with_config_text(b, b"seed.bundle = 3\n", b"seed.bundle=3\n"), "canonical"),
    (lambda b: with_config_text(b, b"seed.bundle = 3\n", b"seed.bundle = 3\n\n"), "malformed"),
    (lambda b: with_config_text(b, b"provenance = \n", b""), "missing field 'provenance'"),
    (lambda b: with_config_text(b, f"vocab = {' '.join(filler_vocab(40).tokens())}\n".encode(),
                                b""), "missing field 'vocab'"),
    (records_reversed, "out of name order"),
    # The deleted tie_embeddings and ln_eps lines, which older files carry.
    (lambda b: with_config_text(b, b"model.adapter_placement = \n",
                                b"model.adapter_placement = \nmodel.tie_embeddings = 1\n"
                                b"model.ln_eps = 1e-05\n"), "canonical"),
], ids=["unknown_key", "repeated_key", "no_spaces", "blank_line", "no_provenance",
        "no_vocab", "records_reversed", "deleted_fields"])
def test_non_canonical_checkpoint_bytes_rejected(patch, message):
    # Each form would load as a checkpoint whose content_hash() is not the
    # sha256 of the bytes it came from.
    blob = pl.checkpoint_bytes(TestCheckpointFormat().make_ckpt())
    patched = patch(blob)
    assert patched != blob and len(split_records(patched)[1]) == len(split_records(blob)[1])
    with pytest.raises(pl.CheckpointError, match=message):
        pl.checkpoint_from_bytes(patched)


def canonical_checkpoints():
    vocab = filler_vocab(40)
    plain = tiny_config(adapter_placement=frozenset())
    adapted = tiny_config()
    parent = "ab" * 32
    return [
        pl.Checkpoint(config=plain, stage="pretrained", seeds={"pretrain": 7}, provenance=[],
                      store=mm.build_model(plain, seed=1), vocab=vocab),
        pl.Checkpoint(config=adapted, stage="meta_trained", seeds={"b": 2, "a": 1},
                      provenance=[parent], store=mm.build_model(adapted, seed=2), vocab=vocab),
        pl.Checkpoint(config=adapted, stage="finetuned", seeds={}, provenance=[parent, "cd" * 32],
                      store=mm.build_model(adapted, seed=3), vocab=vocab),
    ]


@pytest.mark.parametrize("index", range(3), ids=["pretrained", "meta_trained", "finetuned"])
def test_checkpoint_bytes_roundtrip_exactly(index):
    blob = pl.checkpoint_bytes(canonical_checkpoints()[index])
    assert pl.checkpoint_bytes(pl.checkpoint_from_bytes(blob)) == blob


@pytest.fixture(scope="module")
def world():
    return tiny_world()


@pytest.fixture(scope="module")
def pretrained(world):
    vocab, corpora, unlabeled = world
    config = tiny_config(vocab_size=len(vocab))
    noise = pl.NoiseConfig(mask_prob=0.3, delete_prob=0.1)
    return pl.pretrain_stage(config, unlabeled, noise, steps=30, seed=11,
                             batch_size=8, lr=3e-3, vocab=vocab)


def corpus_from(corpora, names, role, n_valid=0):
    """Each named domain's last ``n_valid`` pairs validate; the rest train."""
    domains = {}
    for n in names:
        cut = len(corpora[n]) - n_valid
        domains[n] = dt.SplitPairs(train=corpora[n][:cut], valid=corpora[n][cut:])
    return dt.CorpusSet(role=role, domains=domains)


class TestPretrainStage:
    def test_zero_steps_equals_build(self, world):
        vocab, _, unlabeled = world
        config = tiny_config(vocab_size=len(vocab))
        noise = pl.NoiseConfig()
        result = pl.pretrain_stage(config, unlabeled, noise, steps=0, seed=4, vocab=vocab)
        reference = mm.build_model(
            mm.ModelConfig(**{**config.__dict__, "adapter_placement": frozenset()}),
            seed=pl.derive_seed(4, "init"),
        )
        assert result.checkpoint.stage == "pretrained"
        assert result.history == []
        for name, arr in reference.items():
            assert np.array_equal(result.checkpoint.store[name], arr.astype(np.float32))

    def test_loss_decreases(self, pretrained):
        history = pretrained.history
        first = np.mean([r.support_loss for r in history[:5]])
        last = np.mean([r.support_loss for r in history[-5:]])
        assert last < first

    def test_deterministic(self, world):
        vocab, _, unlabeled = world
        config = tiny_config(vocab_size=len(vocab))
        noise = pl.NoiseConfig(mask_prob=0.2, delete_prob=0.1)
        a = pl.pretrain_stage(config, unlabeled, noise, steps=5, seed=9, vocab=vocab)
        b = pl.pretrain_stage(config, unlabeled, noise, steps=5, seed=9, vocab=vocab)
        assert pl.checkpoint_bytes(a.checkpoint) == pl.checkpoint_bytes(b.checkpoint)


class TestMetaTrainStage:
    def test_theta_frozen_and_stage_tag(self, world, pretrained):
        vocab, corpora, _ = world
        names = sorted(corpora)
        source = corpus_from(corpora, names[:1], "src")
        hyper = mt.TrainHyper(alpha=0.02, beta=1e-3, inner_steps=2,
                              meta_batch_tasks=2, task_batch_size=6)
        result = pl.meta_train_stage(pretrained.checkpoint, source, hyper,
                                     mt.StopCriteria(max_steps=3), seed=1)
        ckpt = result.checkpoint
        assert ckpt.stage == "meta_trained"
        assert ckpt.provenance == [pretrained.checkpoint.content_hash()]
        theta, phi = mm.partition_params(ckpt.store)
        for name in theta:
            assert np.array_equal(ckpt.store[name], pretrained.checkpoint.store[name]), name
        assert any(
            not np.array_equal(ckpt.store[n], np.zeros_like(ckpt.store[n]))
            for n in phi if n.endswith(".wu")
        ) or len(result.history) == 3

    def test_rejects_wrong_stage(self, world, pretrained):
        vocab, corpora, _ = world
        source = corpus_from(corpora, sorted(corpora)[:1], "src")
        hyper = mt.TrainHyper(task_batch_size=4)
        result = pl.meta_train_stage(pretrained.checkpoint, source, hyper,
                                     mt.StopCriteria(max_steps=1), seed=1)
        with pytest.raises(pl.StageOrderError):
            pl.meta_train_stage(result.checkpoint, source, hyper,
                                mt.StopCriteria(max_steps=1), seed=1)

    def test_zero_steps_keeps_identity_adapters(self, world, pretrained):
        vocab, corpora, _ = world
        source = corpus_from(corpora, sorted(corpora)[:1], "src")
        hyper = mt.TrainHyper(task_batch_size=4)
        result = pl.meta_train_stage(pretrained.checkpoint, source, hyper,
                                     mt.StopCriteria(max_steps=0), seed=1)
        store = result.checkpoint.store
        for name in store.names():
            if name.endswith((".wu", ".bu", ".bd")) and store.partition(name) == "adapter":
                assert np.all(store[name] == 0.0), name

    def test_plain_mode_runs(self, world, pretrained):
        vocab, corpora, _ = world
        source = corpus_from(corpora, sorted(corpora)[:1], "src")
        hyper = mt.TrainHyper(beta=1e-3, task_batch_size=6)
        result = pl.meta_train_stage(pretrained.checkpoint, source, hyper,
                                     mt.StopCriteria(max_steps=4), seed=2, mode="plain")
        assert result.checkpoint.stage == "meta_trained"
        assert len(result.history) == 4


class TestFinetuneStage:
    def make_meta(self, world, pretrained, steps=2):
        vocab, corpora, _ = world
        source = corpus_from(corpora, sorted(corpora)[:1], "src")
        hyper = mt.TrainHyper(alpha=0.02, beta=1e-3, inner_steps=1,
                              meta_batch_tasks=1, task_batch_size=6)
        return pl.meta_train_stage(pretrained.checkpoint, source, hyper,
                                   mt.StopCriteria(max_steps=steps), seed=5)

    def test_empty_target_is_identity(self, world, pretrained):
        vocab, corpora, _ = world
        meta_ckpt = self.make_meta(world, pretrained).checkpoint
        target = dt.CorpusSet(role="tgt", domains={"tgt": dt.SplitPairs(train=[])})
        hyper = mt.TrainHyper(task_batch_size=4)
        result = pl.finetune_stage(meta_ckpt, target, hyper,
                                   mt.StopCriteria(max_steps=10), seed=0)
        assert result.checkpoint.stage == "finetuned"
        for name in meta_ckpt.store.names():
            assert np.array_equal(result.checkpoint.store[name], meta_ckpt.store[name])

    def test_plain_single_sgd_step_equals_lr_times_grad(self, world, pretrained):
        vocab, corpora, _ = world
        meta_ckpt = self.make_meta(world, pretrained).checkpoint
        pair = corpora[sorted(corpora)[1]][0]
        target = dt.CorpusSet(role="tgt", domains={"tgt": dt.SplitPairs(train=[pair])})
        hyper = mt.TrainHyper(beta=0.01, outer_optimizer="sgd", clip_norm=0.0,
                              task_batch_size=1)
        result = pl.finetune_stage(meta_ckpt, target, hyper,
                                   mt.StopCriteria(max_steps=1), seed=0, mode="plain")

        from metaphrase import autodiff as ad
        loss_fn = pl.make_pair_loss(meta_ckpt.config)
        leaves = meta_ckpt.store.leaves()
        _, phi = mm.partition_params(meta_ckpt.store)
        grads = ad.backward(loss_fn(leaves, [pair]), {n: leaves[n] for n in phi})
        for name in phi:
            expected = (meta_ckpt.store[name] - 0.01 * grads[name].value).astype(np.float32)
            np.testing.assert_allclose(result.checkpoint.store[name], expected, rtol=0, atol=1e-12)

    def test_pretrained_input_needs_ablation_flag(self, world, pretrained):
        vocab, corpora, _ = world
        pair = corpora[sorted(corpora)[1]][0]
        target = dt.CorpusSet(role="tgt", domains={"tgt": dt.SplitPairs(train=[pair])})
        hyper = mt.TrainHyper(task_batch_size=1)
        with pytest.raises(pl.StageOrderError, match="ablation"):
            pl.finetune_stage(pretrained.checkpoint, target, hyper,
                              mt.StopCriteria(max_steps=1), seed=0, mode="plain")
        result = pl.finetune_stage(pretrained.checkpoint, target, hyper,
                                   mt.StopCriteria(max_steps=1), seed=0, mode="plain",
                                   allow_pretrained=True)
        assert result.checkpoint.stage == "finetuned"

    def test_maml_on_one_pair_is_a_named_error_before_training(self, world, pretrained,
                                                                monkeypatch):
        vocab, corpora, _ = world
        pair = corpora[sorted(corpora)[1]][0]
        target = dt.CorpusSet(role="tgt", domains={"tgt": dt.SplitPairs(train=[pair])})
        stop = mt.StopCriteria(max_steps=1)
        monkeypatch.setattr(mt, "meta_train", lambda *a, **k: pytest.fail("training ran"))
        with pytest.raises(dt.TaskSizeError,
                           match=r"finetune_stage: .* 1 train pair.*use mode='plain'$"):
            pl.finetune_stage(pretrained.checkpoint, target, mt.TrainHyper(), stop, seed=0,
                              allow_pretrained=True)

    def test_theta_frozen_end_to_end(self, world, pretrained):
        vocab, corpora, _ = world
        meta_result = self.make_meta(world, pretrained, steps=3)
        tgt_name = sorted(corpora)[1]
        target = corpus_from(corpora, [tgt_name], "tgt", n_valid=4)
        hyper = mt.TrainHyper(alpha=0.02, beta=1e-3, inner_steps=1,
                              meta_batch_tasks=1, task_batch_size=6)
        result = pl.finetune_stage(meta_result.checkpoint, target, hyper,
                                   mt.StopCriteria(max_steps=3), seed=1)
        theta, _ = mm.partition_params(result.checkpoint.store)
        for name in theta:
            assert np.array_equal(
                result.checkpoint.store[name], pretrained.checkpoint.store[name]
            ), name
        assert len(result.checkpoint.provenance) == 2

    def test_full_chain_reproducible(self, world):
        vocab, corpora, unlabeled = world
        config = tiny_config(vocab_size=len(vocab))
        noise = pl.NoiseConfig(mask_prob=0.3, delete_prob=0.1)
        names = sorted(corpora)

        def run():
            pre = pl.pretrain_stage(config, unlabeled, noise, steps=4, seed=21,
                                    batch_size=4, vocab=vocab)
            source = corpus_from(corpora, names[:1], "src")
            hyper = mt.TrainHyper(alpha=0.02, beta=1e-3, inner_steps=1,
                                  meta_batch_tasks=1, task_batch_size=6)
            metar = pl.meta_train_stage(pre.checkpoint, source, hyper,
                                        mt.StopCriteria(max_steps=2), seed=22)
            target = corpus_from(corpora, names[1:2], "tgt")
            fin = pl.finetune_stage(metar.checkpoint, target, hyper,
                                    mt.StopCriteria(max_steps=2), seed=23)
            return pl.checkpoint_bytes(fin.checkpoint)

        assert run() == run()


class TestEmptyCorpus:
    """Adapter training refuses a corpus with no train pairs before it trains."""

    @pytest.mark.parametrize("domains", [{"a": dt.SplitPairs(train=[])}, {}],
                             ids=["empty_domain", "no_domain"])
    @pytest.mark.parametrize("mode", ["maml", "plain"])
    def test_meta_train_stage_rejects_empty_source(self, pretrained, mode, domains):
        source = dt.CorpusSet(role="src", domains=domains)
        with pytest.raises(ValueError, match="'src' corpus has no train pairs"):
            pl.meta_train_stage(pretrained.checkpoint, source, mt.TrainHyper(task_batch_size=4),
                                mt.StopCriteria(max_steps=2), seed=1, mode=mode)

    @pytest.mark.parametrize("mode", ["maml", "plain"])
    def test_finetune_on_empty_target_is_identity(self, world, pretrained, mode):
        target = dt.CorpusSet(role="tgt", domains={"tgt": dt.SplitPairs(train=[])})
        result = pl.finetune_stage(pretrained.checkpoint, target, mt.TrainHyper(),
                                   mt.StopCriteria(max_steps=3), seed=0, mode=mode,
                                   allow_pretrained=True)
        assert result.history == []
        parent = pretrained.checkpoint
        config = mm.ModelConfig(**{**parent.config.__dict__,
                                   "adapter_placement": mm.DEFAULT_PLACEMENT})
        store = mm.insert_adapters(parent.store, config, seed=pl.derive_seed(0, "adapter"))
        assert result.checkpoint.config == config
        for name in store.names():
            assert np.array_equal(result.checkpoint.store[name],
                                  store[name].astype(np.float32)), name


def inject_nan(monkeypatch, op, step):
    """Make ``op``'s forward return NaN from its first call in training step ``step`` on."""
    steps = [0]
    real_loop = mt.train_loop

    def counting_loop(params, names, step_fn, *args, **kwargs):
        def counted():
            steps[0] += 1
            return step_fn()

        return real_loop(params, names, counted, *args, **kwargs)

    fwd = ad._OPS[op].fwd

    def faulty(attrs, *xs):
        out = fwd(attrs, *xs)
        return np.full_like(out, np.nan) if steps[0] >= step else out

    monkeypatch.setattr(mt, "train_loop", counting_loop)
    monkeypatch.setitem(ad._OPS, op, ad._OPS[op]._replace(fwd=faulty))


class TestInjectedNaN:
    """A NaN injected into one op at step k of a stage is named with its op, step and stage."""

    STOP = mt.StopCriteria(max_steps=4, eval_every=1)

    def meta_hyper(self, order):
        return mt.TrainHyper(alpha=0.02, beta=1e-3, inner_steps=2, meta_batch_tasks=2,
                             task_batch_size=4, order_mode=order)

    def test_pretraining(self, world, monkeypatch):
        vocab, _, unlabeled = world
        inject_nan(monkeypatch, "gelu", 3)
        with pytest.raises(ad.NonFiniteError,
                           match="output of 'gelu' at step 3 in pretrain_stage$"):
            pl.pretrain_stage(tiny_config(vocab_size=len(vocab)), unlabeled, pl.NoiseConfig(),
                              steps=5, seed=4, batch_size=4, vocab=vocab)

    @pytest.mark.parametrize("order, op", [("second", "softmax_lastdim"),
                                           ("first", "layer_norm"),
                                           ("second", "_tanh")],  # only VJPs build _tanh
                             ids=["second", "first", "second_vjp"])
    def test_meta_training(self, world, pretrained, monkeypatch, order, op):
        vocab, corpora, _ = world
        source = corpus_from(corpora, sorted(corpora)[:1], "src")
        inject_nan(monkeypatch, op, 2)
        with pytest.raises(ad.NonFiniteError,
                           match=f"output of '{op}' at step 2 in meta_train_stage$"):
            pl.meta_train_stage(pretrained.checkpoint, source, self.meta_hyper(order),
                                self.STOP, seed=1)

    def test_plain_finetuning(self, world, pretrained, monkeypatch):
        vocab, corpora, _ = world
        tgt_name = sorted(corpora)[1]
        target = corpus_from(corpora, [tgt_name], "tgt", n_valid=4)
        inject_nan(monkeypatch, "matmul", 2)
        with pytest.raises(ad.NonFiniteError,
                           match="output of 'matmul' at step 2 in finetune_stage$"):
            pl.finetune_stage(pretrained.checkpoint, target, mt.TrainHyper(task_batch_size=4),
                              self.STOP, seed=3, mode="plain", allow_pretrained=True)


class TestEvalCadence:
    """Plain training validates on the caller's ``StopCriteria.eval_every``."""

    STOP = mt.StopCriteria(max_steps=3, eval_every=1)

    def test_plain_meta_train_validates_every_step(self, world, pretrained):
        vocab, corpora, _ = world
        source = corpus_from(corpora, sorted(corpora)[:1], "src", n_valid=4)
        hyper = mt.TrainHyper(task_batch_size=4)
        result = pl.meta_train_stage(pretrained.checkpoint, source, hyper, self.STOP,
                                     seed=3, mode="plain")
        assert [r.step for r in result.history] == [1, 2, 3]
        assert all(r.val_loss is not None for r in result.history)

    def test_plain_finetune_validates_every_step(self, world, pretrained):
        vocab, corpora, _ = world
        tgt_name = sorted(corpora)[1]
        target = corpus_from(corpora, [tgt_name], "tgt", n_valid=4)
        hyper = mt.TrainHyper(task_batch_size=4)
        result = pl.finetune_stage(pretrained.checkpoint, target, hyper, self.STOP,
                                   seed=3, mode="plain", allow_pretrained=True)
        assert [r.step for r in result.history] == [1, 2, 3]
        assert all(r.val_loss is not None for r in result.history)


CHAIN_HASHES = Path(__file__).parent / "data" / "chain_hashes.json"


def golden_chain(world_dir, resume=lambda ckpt: ckpt) -> dict[str, str]:
    """Checkpoint content hashes of a tiny chain that runs every training loop.

    Stage (a); stage (b) ``maml`` in both orders with meta-validation and
    stage (c) ``maml`` from each; stage (b) ``plain`` with validation and
    stage (c) ``plain`` with SGD from it. ``resume`` maps each stage's
    checkpoint to the one that is hashed and that the next stage starts from.
    """
    settings = ex.DataSettings(n_domains=3, pairs_per_domain=40, target_train=3,
                               target_valid=6, target_test=2, source_valid=8, pre_cap=60)
    ex.build_world_files(settings, world_dir)
    world = ex.load_world(world_dir)
    config = mm.ModelConfig(d_model=16, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=32,
                            vocab_size=len(world.vocab), max_len=24, adapter_hidden=4)
    pre = resume(pl.pretrain_stage(config, world.pre_corpus, pl.NoiseConfig(), steps=3,
                                   seed=31, batch_size=8, vocab=world.vocab).checkpoint)
    out = {"pre": pre.content_hash()}
    stop = mt.StopCriteria(3, eval_every=2)
    for order in ("second", "first"):
        hyper = mt.TrainHyper(inner_steps=1, meta_batch_tasks=2, task_batch_size=4,
                              order_mode=order)
        b = resume(pl.meta_train_stage(pre, world.source, hyper, stop, seed=32,
                                       validation=world.validation).checkpoint)
        c = resume(pl.finetune_stage(b, world.target, hyper, stop, seed=33).checkpoint)
        out[f"b-{order}"], out[f"c-{order}"] = b.content_hash(), c.content_hash()
    hyper = mt.TrainHyper(task_batch_size=4)
    b = resume(pl.meta_train_stage(pre, world.source, hyper, mt.StopCriteria(4), seed=34,
                                   validation=world.validation, mode="plain").checkpoint)
    sgd = mt.TrainHyper(beta=0.05, outer_optimizer="sgd", task_batch_size=2)
    c = resume(pl.finetune_stage(b, world.target, sgd, mt.StopCriteria(4), seed=35,
                                 mode="plain").checkpoint)
    out["b-plain"], out["c-plain"] = b.content_hash(), c.content_hash()
    return out


def through_disk(directory):
    """A ``golden_chain`` resume that saves each checkpoint and loads it back."""

    def resume(ckpt):
        path = directory / f"{ckpt.content_hash()}.ckpt"
        pl.save_checkpoint(ckpt, path)
        return pl.load_checkpoint(path)

    return resume


class TestChainGolden:
    def test_checkpoint_hashes_pinned(self, tmp_path):
        expected = json.loads(CHAIN_HASHES.read_text())
        assert golden_chain(tmp_path / "world") == expected

    def test_chain_resumed_from_disk_gives_the_same_bytes(self, tmp_path):
        in_memory = golden_chain(tmp_path / "world")
        assert golden_chain(tmp_path / "world", through_disk(tmp_path)) == in_memory


if __name__ == "__main__":
    import hashlib
    import tempfile

    pinned = json.loads(CHAIN_HASHES.read_text())
    params = {}  # content hash -> digest of the parameter names and payloads

    def record_params(ckpt):
        blob = pl.checkpoint_bytes(ckpt)
        digest = hashlib.sha256()
        for record in split_records(blob)[1]:
            name_end = 4 + int.from_bytes(record[:4], "little")
            rank = record[name_end]
            digest.update(record[:name_end] + record[name_end + 1 + 8 * rank:])  # name, payload
        params[hashlib.sha256(blob).hexdigest()] = digest.hexdigest()
        return ckpt

    with tempfile.TemporaryDirectory() as tmp:
        current = golden_chain(Path(tmp) / "world", record_params)
    for name, old in pinned.items():
        new = current[name]
        print(f"{name:9} {old} -> {new} {'unchanged' if new == old else 'CHANGED'}"
              f" params {params[new]}")
