"""Transformer backbone, adapters, partitioning and parameter accounting."""

import numpy as np
import pytest

from metaphrase import autodiff as ad
from metaphrase import data as dt
from metaphrase import decoding as dec
from metaphrase import model as mm
from metaphrase import pipeline as pl


def toy_config(**kw):
    base = dict(
        d_model=8,
        n_heads=2,
        n_enc_layers=1,
        n_dec_layers=1,
        d_ff=16,
        vocab_size=11,
        max_len=10,
        adapter_hidden=4,
    )
    base.update(kw)
    return mm.ModelConfig(**base)


class TestConfig:
    def test_heads_must_divide(self):
        with pytest.raises(ValueError, match="divisible"):
            toy_config(d_model=9)

    def test_positive_extents(self):
        with pytest.raises(ValueError):
            toy_config(d_ff=0)

    def test_unknown_placement_site(self):
        with pytest.raises(ValueError, match="adapter sites"):
            toy_config(adapter_placement=frozenset({"enc_attn", "bogus"}))


class TestBuild:
    def test_deterministic(self):
        cfg = toy_config()
        a = mm.build_model(cfg, seed=5)
        b = mm.build_model(cfg, seed=5)
        assert a.names() == b.names()
        for name, arr in a.items():
            assert np.array_equal(arr, b[name]), name

    def test_seed_changes_values(self):
        cfg = toy_config()
        a = mm.build_model(cfg, seed=5)
        b = mm.build_model(cfg, seed=6)
        assert not np.array_equal(a["tok_embed"], b["tok_embed"])

    def test_partition_tags(self):
        for placement in (mm.DEFAULT_PLACEMENT, frozenset(mm.ADAPTER_SITES)):
            store = mm.build_model(toy_config(adapter_placement=placement), seed=0)
            theta, phi = mm.partition_params(store)
            assert set(theta) | set(phi) == set(store.names())
            assert not set(theta) & set(phi)
            adapters = {n for n in store.names() if ".adapter_" in n}
            norms = {n for n in store.names() if n.endswith((".gain", ".bias"))}
            assert len(adapters) == 4 * len(placement)  # one layer a side, four arrays a site
            assert set(phi) == adapters | norms
            assert all(store.partition(n) == "adapter" for n in adapters)
            assert all(store.partition(n) == "norm" for n in norms)

    def test_adapters_disabled_leaves_norms_in_phi(self):
        store = mm.build_model(toy_config(adapter_placement=frozenset()), seed=0)
        _, phi = mm.partition_params(store)
        assert phi
        assert all(store.partition(n) == "norm" for n in phi)


def adapter(wd, bd, wu, bu):
    """Constant arrays of one adapter named ``a``."""
    arrays = {"wd": wd, "bd": bd, "wu": wu, "bu": bu}
    return {f"a.{k}": ad.constant(np.asarray(v, dtype=float)) for k, v in arrays.items()}


class TestAdapter:
    def test_identity_at_init(self):
        store = mm.build_model(toy_config(), seed=3)
        rng = np.random.default_rng(0)
        z = ad.constant(rng.standard_normal((4, 8)))
        out = mm.adapter_apply(store.leaves(), "enc.0.adapter_attn", z)
        assert np.array_equal(out.value, z.value)

    def test_zero_input_zero_biases(self):
        p = adapter(np.ones((3, 2)), np.zeros(2), np.ones((2, 3)), np.zeros(3))
        out = mm.adapter_apply(p, "a", ad.constant(np.zeros((1, 3))))
        assert np.array_equal(out.value, np.zeros((1, 3)))

    def test_hand_computed_small_case(self):
        # d_model 2, hidden 1: out = relu(z . wd + bd) * wu + bu + z
        p = adapter([[0.3], [-0.7]], [0.1], [[0.5, -0.2]], [0.05, 0.1])
        z = np.array([[2.0, 0.5]])
        out = mm.adapter_apply(p, "a", ad.constant(z))
        hidden = max(0.0, 2.0 * 0.3 + 0.5 * -0.7 + 0.1)  # 0.35
        expected = np.array(
            [[hidden * 0.5 + 0.05 + 2.0, hidden * -0.2 + 0.1 + 0.5]]
        )
        np.testing.assert_allclose(out.value, expected, rtol=1e-12)

    def test_shape_mismatch(self):
        store = mm.build_model(toy_config(), seed=3)
        with pytest.raises(ad.ShapeError):
            mm.adapter_apply(store.leaves(), "enc.0.adapter_attn", ad.constant(np.zeros((2, 5))))


def reference_forward(store, cfg, src, tgt):
    """Straight-line numpy re-implementation used as the forward oracle."""

    def ln(x, prefix):
        g, b = store[f"{prefix}.gain"], store[f"{prefix}.bias"]
        m = x.mean(-1, keepdims=True)
        v = ((x - m) ** 2).mean(-1, keepdims=True)
        return (x - m) / np.sqrt(v + 1e-5) * g + b

    def linear(x, prefix):
        return x @ store[f"{prefix}.w"] + store[f"{prefix}.b"]

    def gelu(x):
        return 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x**3)))

    def attention(q_in, k_in, prefix, causal):
        q, k, v = linear(q_in, f"{prefix}.wq"), k_in @ store[f"{prefix}.wk.w"], linear(k_in, f"{prefix}.wv")
        dh = cfg.d_head
        outs = []
        for h in range(cfg.n_heads):
            qs, ks, vs = (a[:, h * dh : (h + 1) * dh] for a in (q, k, v))
            scores = qs @ ks.T / np.sqrt(dh)
            if causal:
                t = scores.shape[0]
                scores = np.where(np.triu(np.ones((t, t), bool), 1), -1e9, scores)
            e = np.exp(scores - scores.max(-1, keepdims=True))
            probs = e / e.sum(-1, keepdims=True)
            outs.append(probs @ vs)
        return np.concatenate(outs, -1) @ store[f"{prefix}.wo.w"] + store[f"{prefix}.wo.b"]

    x = store["tok_embed"][src] + store["pos_enc"][: len(src)]
    for i in range(cfg.n_enc_layers):
        p = f"enc.{i}"
        h = ln(x, f"{p}.ln1")
        x = x + attention(h, h, f"{p}.attn", causal=False)
        h = ln(x, f"{p}.ln2")
        x = x + gelu(linear(h, f"{p}.ffn.w1")) @ store[f"{p}.ffn.w2.w"] + store[f"{p}.ffn.w2.b"]
    memory = ln(x, "enc.final_ln")

    x = store["tok_embed"][tgt] + store["pos_dec"][: len(tgt)]
    for i in range(cfg.n_dec_layers):
        p = f"dec.{i}"
        h = ln(x, f"{p}.ln1")
        x = x + attention(h, h, f"{p}.self", causal=True)
        h = ln(x, f"{p}.ln2")
        x = x + attention(h, memory, f"{p}.cross", causal=False)
        h = ln(x, f"{p}.ln3")
        x = x + gelu(linear(h, f"{p}.ffn.w1")) @ store[f"{p}.ffn.w2.w"] + store[f"{p}.ffn.w2.b"]
    x = ln(x, "dec.final_ln")
    return x @ store["tok_embed"].T


def logits_one(store, cfg, src, tgt):
    """Decoder logits (prefix_len, vocab) of one source and prefix, from ``forward_batch``."""
    src, tgt = np.asarray(src)[None], np.asarray(tgt)[None]
    return mm.forward_batch(store, cfg, src, tgt).value[0]


def nll_one(logits, targets):
    """Summed NLL of one unpadded target row, from ``batch_nll``."""
    targets = np.asarray(targets)[None]
    mask = np.ones(targets.shape, dtype=bool)
    return float(mm.batch_nll(ad.constant(np.asarray(logits)[None]), targets, mask).value)


class TestForward:
    def test_single_layer_matches_reference(self):
        cfg = mm.ModelConfig(
            d_model=2,
            n_heads=1,
            n_enc_layers=1,
            n_dec_layers=1,
            d_ff=4,
            vocab_size=3,
            max_len=6,
            adapter_hidden=0,
            adapter_placement=frozenset(),
        )
        store = mm.build_model(cfg, seed=9)
        src, tgt = np.array([0, 2]), np.array([1, 0])
        logits = logits_one(store, cfg, src, tgt)
        np.testing.assert_allclose(
            logits, reference_forward(store, cfg, src, tgt), rtol=1e-10, atol=1e-12
        )

    def test_multi_head_multi_layer_matches_reference(self):
        cfg = toy_config(adapter_placement=frozenset(), adapter_hidden=0,
                         n_enc_layers=2, n_dec_layers=2)
        store = mm.build_model(cfg, seed=4)
        src, tgt = np.array([1, 5, 2, 9]), np.array([0, 3, 7])
        logits = logits_one(store, cfg, src, tgt)
        np.testing.assert_allclose(
            logits, reference_forward(store, cfg, src, tgt), rtol=1e-9, atol=1e-12
        )

    def test_zero_params_give_uniform_logits(self):
        cfg = toy_config()
        store = mm.build_model(cfg, seed=0)
        for name, arr in store.items():
            if store.partition(name) != "norm":
                store.set(name, np.zeros_like(arr))
        logits = logits_one(store, cfg, [1, 2], [0, 3, 4])
        assert np.allclose(logits, logits[:, :1])  # constant across vocab

    def test_adapters_at_identity_do_not_change_logits(self):
        cfg_on = toy_config()
        cfg_off = toy_config(adapter_placement=frozenset(), adapter_hidden=0)
        with_adapters = mm.build_model(cfg_on, seed=11)
        without = mm.build_model(cfg_off, seed=11)
        rng = np.random.default_rng(2)
        for _ in range(5):
            src = rng.integers(0, cfg_on.vocab_size, size=4)
            tgt = rng.integers(0, cfg_on.vocab_size, size=3)
            a = logits_one(with_adapters, cfg_on, src, tgt)
            b = logits_one(without, cfg_off, src, tgt)
            assert np.array_equal(a, b)

    def test_causality(self):
        cfg = toy_config()
        store = mm.build_model(cfg, seed=8)
        src = np.array([1, 2, 3])
        tgt = np.array([0, 4, 5, 6])
        base = logits_one(store, cfg, src, tgt)
        for t in range(1, len(tgt)):
            changed = tgt.copy()
            changed[t] = (changed[t] + 1) % cfg.vocab_size
            out = logits_one(store, cfg, src, changed)
            assert np.array_equal(out[:t], base[:t]), f"position {t} leaked backwards"

    def test_attention_rows_sum_to_one(self):
        cfg = toy_config(n_enc_layers=2, n_dec_layers=2)
        store = mm.build_model(cfg, seed=1)
        src, tgt = np.array([[1, 2, 3, 4]]), np.array([[0, 5, 6]])
        logits = mm.forward_batch(store, cfg, src, tgt)
        rows = [n for n in ad.Graph(logits).nodes if n.op == "softmax_lastdim"]
        # one per head in each encoder self-, decoder self- and decoder cross-attention
        assert len(rows) == cfg.n_heads * (cfg.n_enc_layers + 2 * cfg.n_dec_layers)
        for probs in rows:
            sums = probs.value.sum(axis=-1)
            np.testing.assert_allclose(sums, np.ones_like(sums), atol=1e-9)

    def test_out_of_range_ids_rejected(self):
        cfg = toy_config()
        store = mm.build_model(cfg, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            logits_one(store, cfg, [1, cfg.vocab_size], [0])

    def test_length_overflow_rejected(self):
        cfg = toy_config(max_len=3)
        store = mm.build_model(cfg, seed=0)
        with pytest.raises(ValueError, match="max_len"):
            logits_one(store, cfg, [1, 2, 3, 4], [0])

    def test_batched_matches_single(self):
        cfg = toy_config()
        store = mm.build_model(cfg, seed=6)
        src = np.array([[1, 2, 3], [4, 5, 2]])
        tgt = np.array([[0, 6], [0, 7]])
        batched = mm.forward_batch(store, cfg, src, tgt).value
        for b in range(2):
            single = logits_one(store, cfg, src[b], tgt[b])
            np.testing.assert_allclose(batched[b], single, rtol=1e-12, atol=1e-14)

    def test_padding_mask_matches_unpadded(self):
        cfg = toy_config()
        store = mm.build_model(cfg, seed=6)
        src = np.array([[1, 2, 3, 0, 0]])
        src_mask = np.array([[True, True, True, False, False]])
        tgt = np.array([[0, 6, 7]])
        padded = mm.forward_batch(store, cfg, src, tgt, src_mask=src_mask).value
        plain = logits_one(store, cfg, [1, 2, 3], [0, 6, 7])
        np.testing.assert_allclose(padded[0], plain, rtol=1e-10, atol=1e-12)

    def test_stacked_tasks_match_each_task_alone(self):
        # Task rows with their own adapter and norm rows, padded to common widths.
        cfg = toy_config()
        rng = np.random.default_rng(7)
        stores = [mm.build_model(cfg, seed=6) for _ in range(2)]
        _, phi = mm.partition_params(stores[0])
        for store in stores:
            for n in phi:
                store.set(n, store[n] + 0.3 * rng.standard_normal(store[n].shape))
        src = np.array([[[1, 2, 3, 0], [4, 5, 0, 0]], [[6, 7, 8, 9], [2, 3, 4, 0]]])
        tgt = np.array([[[0, 6, 7], [0, 8, 0]], [[0, 9, 1], [0, 5, 6]]])
        src_mask, tgt_mask = src != 0, tgt != 0
        tgt_mask[..., 0] = True
        stacked = dict(stores[0].leaves())
        for n in phi:
            shape = stores[0][n].shape
            rows = np.stack([store[n] for store in stores])
            stacked[n] = ad.leaf(n, rows.reshape((2,) + (1,) * (3 - len(shape)) + shape))
        logits = mm.forward_batch(stacked, cfg, src, tgt, src_mask, tgt_mask)
        nll = mm.batch_nll(logits, tgt, tgt_mask)
        assert nll.shape == (2, 1, 1)
        for t, store in enumerate(stores):
            alone = mm.forward_batch(store, cfg, src[t], tgt[t], src_mask[t], tgt_mask[t])
            np.testing.assert_array_equal(logits.value[t], alone.value)
            assert nll.value[t, 0, 0] == mm.batch_nll(alone, tgt[t], tgt_mask[t]).value

    def test_token_arrays_must_share_leading_axes(self):
        cfg = toy_config()
        store = mm.build_model(cfg, seed=6)
        with pytest.raises(ValueError, match="equal leading axes"):
            mm.forward_batch(store, cfg, np.ones((2, 2, 3), dtype=int), np.ones((2, 3), dtype=int))


class TestLoss:
    def test_saturated_logits(self):
        logits = np.full((4, 6), -30.0)
        targets = np.array([1, 2, 3, 0])
        for i, t in enumerate(targets):
            logits[i, t] = 30.0
        assert nll_one(logits, targets) < 1e-9

    def test_uniform_logits(self):
        m, v = 5, 7
        loss = nll_one(np.zeros((m, v)), np.zeros(m, dtype=int))
        assert loss == pytest.approx(m * np.log(v), rel=1e-12)

    def test_hand_case_two_positions(self):
        logits = np.array([[1.0, 2.0, 0.5], [0.0, -1.0, 3.0]])
        targets = np.array([1, 2])
        expected = 0.0
        for row, t in zip(logits, targets):
            p = np.exp(row) / np.exp(row).sum()
            expected -= np.log(p[t])
        assert nll_one(logits, targets) == pytest.approx(expected, rel=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(ad.ShapeError):
            nll_one(np.zeros((2, 3)), np.array([0, 3]))

    def test_batch_nll_ignores_pad(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((2, 3, 5))
        targets = np.array([[1, 2, 0], [3, 0, 0]])
        mask = np.array([[1, 1, 0], [1, 0, 0]], dtype=bool)
        got = float(mm.batch_nll(ad.constant(logits), targets, mask).value)
        expected = 0.0
        for b in range(2):
            for t in range(3):
                if mask[b, t]:
                    row = logits[b, t]
                    p = np.exp(row - row.max())
                    p /= p.sum()
                    expected -= np.log(p[targets[b, t]])
        assert got == pytest.approx(expected / 2, rel=1e-12)


class TestParamCounts:
    @pytest.mark.parametrize(
        "cfg",
        [
            toy_config(),
            toy_config(adapter_placement=frozenset(), adapter_hidden=0),
            toy_config(adapter_placement=frozenset(mm.ADAPTER_SITES)),
            toy_config(n_enc_layers=3, n_dec_layers=2, n_heads=4),
            mm.ModelConfig(
                d_model=64,
                n_heads=2,
                n_enc_layers=2,
                n_dec_layers=2,
                d_ff=128,
                vocab_size=256,
                max_len=24,
                adapter_hidden=16,
            ),
        ],
    )
    def test_matches_enumeration(self, cfg):
        store = mm.build_model(cfg, seed=0)
        total = sum(arr.size for _, arr in store.items())
        trainable = sum(
            arr.size for name, arr in store.items() if store.partition(name) != "backbone"
        )
        expect_total, expect_trainable, ratio = mm.param_counts(cfg)
        assert expect_total == total
        assert expect_trainable == trainable
        assert ratio == pytest.approx(trainable / total)

    def test_bart_large_shape_accounting(self):
        total, trainable, ratio = mm.param_counts(mm.bart_large_config())
        assert 11_000_000 <= trainable <= 14_000_000
        assert 0.02 <= ratio <= 0.035
        assert total > 400_000_000

    def test_adapters_disabled_counts_norms_only(self):
        cfg = toy_config(adapter_placement=frozenset(), adapter_hidden=0)
        _, trainable, _ = mm.param_counts(cfg)
        d = cfg.d_model
        norms = (cfg.n_enc_layers * 2 + cfg.n_dec_layers * 3 + 2) * 2 * d
        assert trainable == norms

    @pytest.mark.parametrize("tiny_transformer", [frozenset(mm.ADAPTER_SITES)], indirect=True,
                             ids=["every_site"])
    def test_every_parameter_moves_the_loss(self, tiny_transformer):
        # A dead entry, whose gradient is zero up to roundoff (an attention
        # key bias read about 1e-20), falls below the bound; live ones read
        # 1e-6 and up.
        t = tiny_transformer
        leaves = t.store.leaves()
        grads = ad.gradient_values(t.loss_fn(leaves, t.pairs), leaves)
        dead = [name for name, _ in mm.param_layout(t.config)
                if np.abs(grads[name]).max() <= 1e-12]
        assert dead == []

    def test_layout_matches_built_store(self):
        cfg = toy_config(n_enc_layers=2, n_dec_layers=3,
                         adapter_placement=frozenset(mm.ADAPTER_SITES))
        store = mm.build_model(cfg, seed=0)
        built = [(n, arr.shape) for n, arr in store.items()]
        assert mm.param_layout(cfg) == built


class TestLeafRule:
    def test_forward_on_a_store_takes_no_gradient(self, tiny_transformer):
        t = tiny_transformer
        loss = t.loss_fn(t.store, t.pairs)
        nodes = ad.Graph(loss).nodes
        assert not any(n.requires_grad or n.read for n in nodes)
        wd = next(n for n in nodes if n.name == "enc.0.adapter_attn.wd")
        with pytest.raises(ad.FrozenNodeError, match="enc.0.adapter_attn.wd"):
            ad.backward(loss, {wd.name: wd})

    def test_only_the_named_leaves_are_trainable(self, tiny_transformer):
        store = tiny_transformer.store
        _, phi = mm.partition_params(store)
        leaves = mm.as_nodes(store, phi)
        assert leaves.keys() == set(store.names())
        assert [n for n, node in leaves.items() if node.requires_grad] == phi

    def test_a_mapping_is_copied(self, tiny_transformer):
        leaves = tiny_transformer.store.leaves()
        copied = mm.as_nodes(leaves)
        assert copied == leaves and copied is not leaves

    def test_frozen_leaves_are_built_once_per_array(self, tiny_transformer):
        store = tiny_transformer.store
        name = "enc.0.ln1.gain"
        first = mm.as_nodes(store)
        store.set(name, 2.0 * store[name])
        second = mm.as_nodes(store)
        assert all(second[n] is first[n] for n in store.names() if n != name)
        assert second[name] is not first[name] and not second[name].requires_grad
        np.testing.assert_array_equal(second[name].value, 2.0 * first[name].value)
        assert mm.as_nodes(store)[name] is second[name]

    def test_trainable_names_always_get_fresh_trainable_leaves(self, tiny_transformer):
        store = tiny_transformer.store
        _, phi = mm.partition_params(store)
        frozen = mm.as_nodes(store)
        first, second = mm.as_nodes(store, phi), mm.as_nodes(store, phi)
        for n in store.names():
            if n in phi:
                assert first[n] is not second[n] and frozen[n] not in (first[n], second[n])
                assert first[n].requires_grad and second[n].requires_grad
            else:
                assert first[n] is second[n] is frozen[n]
        every = store.leaves()
        assert all(every[n].requires_grad and every[n] is not frozen[n] for n in store.names())
        assert mm.as_nodes(store) == frozen

    def test_store_arrays_change_only_through_add_and_set(self):
        store = mm.ParamStore()
        given, base = np.ones(3), np.ones((2, 3))
        store.add("w", given)
        store.add("v", base[1])
        frozen = mm.as_nodes(store)
        for write in (lambda: given.__setitem__(0, np.nan),
                      lambda: store["w"].__setitem__(0, np.nan),
                      lambda: frozen["w"].value.__setitem__(0, np.nan),
                      lambda: store["v"].__setitem__(0, np.nan)):
            with pytest.raises(ValueError, match="read-only"):
                write()
        base[1, 0] = np.nan  # a view was copied: writing its base changes no parameter
        np.testing.assert_array_equal(store["w"], np.ones(3))
        np.testing.assert_array_equal(store["v"], np.ones(3))
        assert mm.as_nodes(store) == frozen

    def test_a_non_finite_set_fails_every_decode_before_any_decoder_step(self, tmp_path,
                                                                          monkeypatch):
        vocab = dt.Vocab(("cat", "dog", "runs"))
        cfg = toy_config(vocab_size=len(vocab))
        ckpt = pl.Checkpoint(config=cfg, stage="pretrained", seeds={"bundle": 2},
                             provenance=[], store=mm.build_model(cfg, seed=2), vocab=vocab)
        monkeypatch.setattr(pl, "load_checkpoint", lambda path: ckpt)
        inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
        inp.write_text("cat runs\ndog\n")
        src = np.array([dt.BOS, len(dt.RESERVED), dt.EOS])
        dc = dec.DecodeConfig(max_decode_len=6)

        def decode_three_ways():
            dec.decode(ckpt.store, cfg, src, dc)
            dec.decode_batch(ckpt.store, cfg, [src, src[:2]], dc)
            dec.generate_file("model.ckpt", inp, out, dc)

        decode_three_ways()
        name = "dec.0.ffn.w1.w"
        bad = np.array(ckpt.store[name])
        bad[1, 2] = np.nan
        ckpt.store.set(name, bad)
        run = []

        def recorded(attr):
            original = getattr(mm, attr)

            def call(*args):
                run.append(attr)
                return original(*args)
            return call

        for attr in ("encode_source", "decoder_step"):
            monkeypatch.setattr(mm, attr, recorded(attr))
        for call in (lambda: dec.decode(ckpt.store, cfg, src, dc),
                     lambda: dec.decode_batch(ckpt.store, cfg, [src, src[:2]], dc),
                     lambda: dec.generate_file("model.ckpt", inp, out, dc)):
            with pytest.raises(ad.NonFiniteError, match=f"^non-finite values in leaf '{name}'$"):
                call()
        assert run == []


class TestInsertAdapters:
    def test_preserves_existing_arrays(self):
        cfg_off = toy_config(adapter_placement=frozenset(), adapter_hidden=0)
        cfg_on = toy_config()
        store = mm.build_model(cfg_off, seed=2)
        grown = mm.insert_adapters(store, cfg_on, seed=2)
        for name, arr in store.items():
            assert np.array_equal(grown[name], arr)
        assert any(grown.partition(n) == "adapter" for n in grown.names())

    def test_inserted_adapters_are_identity(self):
        cfg_off = toy_config(adapter_placement=frozenset(), adapter_hidden=0)
        cfg_on = toy_config()
        store = mm.build_model(cfg_off, seed=2)
        grown = mm.insert_adapters(store, cfg_on, seed=2)
        src, tgt = np.array([1, 2, 3]), np.array([0, 4])
        a = logits_one(store, cfg_off, src, tgt)
        b = logits_one(grown, cfg_on, src, tgt)
        assert np.array_equal(a, b)

    def test_existing_adapters_kept_and_missing_sites_added(self):
        store = mm.build_model(toy_config(), seed=2)
        trained = store.copy()
        for name in trained.names():
            if trained.partition(name) == "adapter":
                trained.set(name, trained[name] + 0.5)
        cfg_all = toy_config(adapter_placement=frozenset(mm.ADAPTER_SITES))
        grown = mm.insert_adapters(trained, cfg_all, seed=2)
        for name, arr in trained.items():
            assert np.array_equal(grown[name], arr), name
        added = [n for n in grown.names() if n not in trained]
        assert added == [f"dec.0.adapter_cross.{k}" for k in ("wd", "bd", "wu", "bu")]
        assert np.all(grown["dec.0.adapter_cross.wu"] == 0.0)
