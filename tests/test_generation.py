"""Greedy/beam decoding behavior and file generation."""

import numpy as np
import pytest

from metaphrase import autodiff as ad
from metaphrase import data as dt
from metaphrase import decoding as dec
from metaphrase import metrics as mx
from metaphrase import model as mm
from metaphrase import pipeline as pl


def toy_config(**kw):
    base = dict(
        d_model=8,
        n_heads=2,
        n_enc_layers=1,
        n_dec_layers=1,
        d_ff=16,
        vocab_size=12,
        max_len=24,
        adapter_hidden=4,
    )
    base.update(kw)
    return mm.ModelConfig(**base)


class TestDecodeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            dec.DecodeConfig(strategy="sampling")
        with pytest.raises(ValueError):
            dec.DecodeConfig(beam_width=0)
        with pytest.raises(ValueError):
            dec.DecodeConfig(max_decode_len=1)

    @pytest.mark.parametrize("penalty", [np.nan, np.inf, -np.inf])
    def test_length_penalty_must_be_finite(self, penalty):
        # A NaN penalty would rank beam hypotheses on NaN scores.
        with pytest.raises(ValueError, match="length_penalty"):
            dec.DecodeConfig(strategy="beam", length_penalty=penalty)


class TestGreedy:
    def test_all_zero_model_emits_lowest_id(self):
        cfg = toy_config()
        store = mm.build_model(cfg, seed=0)
        for name, arr in store.items():
            if store.partition(name) != "norm":
                store.set(name, np.zeros_like(arr))
        dc = dec.DecodeConfig(strategy="greedy", max_decode_len=10)
        out = dec.decode(store, cfg, np.array([dt.BOS, 6, dt.EOS]), dc)
        assert list(out) == [0] * 10  # BOS then nine tied argmaxes at id 0

    def test_never_exceeds_max_decode_len(self):
        cfg = toy_config()
        store = mm.build_model(cfg, seed=1)
        dc = dec.DecodeConfig(strategy="greedy", max_decode_len=7)
        out = dec.decode(store, cfg, np.array([dt.BOS, 5, 6, dt.EOS]), dc)
        assert len(out) <= 7

    def test_hand_built_logits_stop_at_step_two(self):
        # Zero model except embeddings: logits at position t only see
        # LN(tok[y_t] + pos[t]).  Position 0 favors word 5, position 1
        # favors the end marker, so decoding halts after two steps.
        cfg = toy_config(d_model=2, n_heads=1, vocab_size=6,
                         adapter_placement=frozenset(), adapter_hidden=0)
        store = mm.build_model(cfg, seed=0)
        for name, arr in store.items():
            if store.partition(name) != "norm":
                store.set(name, np.zeros_like(arr))
        tok = np.zeros((6, 2))
        tok[5] = [2.0, -2.0]
        tok[dt.EOS] = [-2.0, 2.0]
        store.set("tok_embed", tok)
        pos = np.zeros((cfg.max_len, 2))
        pos[0] = [1.0, -1.0]
        pos[1] = [-3.0, 3.0]
        store.set("pos_dec", pos)
        dc = dec.DecodeConfig(strategy="greedy", max_decode_len=10)
        out = dec.decode(store, cfg, np.array([dt.BOS, dt.EOS]), dc)
        assert list(out) == [dt.BOS, 5, dt.EOS]

    def test_pure_function_of_params_and_src(self):
        cfg = toy_config()
        store = mm.build_model(cfg, seed=3)
        dc = dec.DecodeConfig(strategy="greedy")
        src = np.array([dt.BOS, 7, 8, dt.EOS])
        a = dec.decode(store, cfg, src, dc)
        b = dec.decode(store, cfg, src, dc)
        assert np.array_equal(a, b)


class TestBeam:
    def test_beam_width_one_equals_greedy(self):
        cfg = toy_config()
        for seed in range(4):
            store = mm.build_model(cfg, seed=seed)
            src = np.array([dt.BOS, 5, 9, dt.EOS])
            greedy = dec.decode(store, cfg, src, dec.DecodeConfig(strategy="greedy"))
            beam1 = dec.decode(store, cfg, src, dec.DecodeConfig(strategy="beam", beam_width=1))
            assert np.array_equal(greedy, beam1)

    def test_beam_score_at_least_greedy(self):
        cfg = toy_config()
        for seed in range(4):
            store = mm.build_model(cfg, seed=seed)
            src = np.array([dt.BOS, 5, 9, 4, dt.EOS])
            dc_b = dec.DecodeConfig(strategy="beam", beam_width=4, max_decode_len=8)
            dc_g = dec.DecodeConfig(strategy="greedy", max_decode_len=8)
            beam_out = dec.decode(store, cfg, src, dc_b)
            greedy_out = dec.decode(store, cfg, src, dc_g)
            s_beam = dec.hypothesis_score(store, cfg, src, beam_out, dc_b)
            s_greedy = dec.hypothesis_score(store, cfg, src, greedy_out, dc_b)
            assert s_beam >= s_greedy - 1e-12

    def test_beam_deterministic(self):
        cfg = toy_config()
        store = mm.build_model(cfg, seed=5)
        src = np.array([dt.BOS, 5, 9, dt.EOS])
        dc = dec.DecodeConfig(strategy="beam", beam_width=3, max_decode_len=9)
        assert np.array_equal(dec.decode(store, cfg, src, dc), dec.decode(store, cfg, src, dc))


def random_model(seed, **kw):
    """Seeded weights large enough that every block, adapters included, matters."""
    cfg = toy_config(**kw)
    store = mm.build_model(cfg, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for name, arr in store.items():
        if store.partition(name) == "norm":
            store.set(name, arr + 0.1 * rng.standard_normal(arr.shape))
        else:
            store.set(name, 0.3 * rng.standard_normal(arr.shape))
    return cfg, store


def full_prefix_logprobs(store, cfg, src, prefixes):
    """Reference: last-position log-probs of forward_batch over whole prefixes."""
    src_batch = np.tile(src, (len(prefixes), 1))
    logits = mm.forward_batch(store, cfg, src_batch, np.asarray(prefixes)).value[:, -1, :]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


EQUIVALENCE_CONFIGS = [
    dict(),  # tied embeddings, default adapter placement, two heads
    dict(tie_embeddings=False, adapter_placement=frozenset(mm.ADAPTER_SITES)),
    dict(n_heads=1, adapter_placement=frozenset(), adapter_hidden=0),
    dict(n_heads=1, tie_embeddings=False, adapter_placement=frozenset({"dec_cross"})),
    dict(n_dec_layers=2, adapter_placement=frozenset({"dec_attn", "dec_cross"})),
]


class TestIncrementalDecoding:
    @pytest.mark.parametrize("kw", EQUIVALENCE_CONFIGS)
    def test_cached_steps_match_full_prefix_forward(self, kw, monkeypatch):
        cfg, store = random_model(7, **kw)
        src = np.array([dt.BOS, 5, 9, 4, 7, dt.EOS])
        steps, reorders = [], []
        original_step = dec._next_logprobs
        original_select = mm.KVCache.select

        def checked_step(params, config, cache, prefixes):
            rows, grown = original_step(params, config, cache, prefixes)
            steps.append(([list(ids) for ids in prefixes], rows))
            return rows, grown

        def recorded_select(cache, rows):
            reorders.append(list(rows))
            return original_select(cache, rows)

        monkeypatch.setattr(dec, "_next_logprobs", checked_step)
        monkeypatch.setattr(mm.KVCache, "select", recorded_select)
        for dc in (dec.DecodeConfig(strategy="greedy", max_decode_len=10),
                   dec.DecodeConfig(strategy="beam", beam_width=3, max_decode_len=10)):
            dec.decode(store, cfg, src, dc)
        assert len(steps) > 10
        assert any(rows != sorted(rows) or len(set(rows)) < len(rows) for rows in reorders)
        for prefixes, rows in steps:
            expected = full_prefix_logprobs(store, cfg, src, prefixes)
            np.testing.assert_allclose(rows, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kw", EQUIVALENCE_CONFIGS[:2])
    def test_hypothesis_score_matches_per_prefix_sum(self, kw):
        cfg, store = random_model(8, **kw)
        src = np.array([dt.BOS, 6, 8, dt.EOS])
        ids = [dt.BOS, 7, 5, 9, 11, dt.EOS]
        for penalty in (0.0, 0.7):
            dc = dec.DecodeConfig(strategy="beam", length_penalty=penalty)
            per_prefix = sum(full_prefix_logprobs(store, cfg, src, [ids[:t]])[0, ids[t]]
                             for t in range(1, len(ids)))
            expected = per_prefix / (len(ids) - 1) ** penalty
            assert dec.hypothesis_score(store, cfg, src, ids, dc) == pytest.approx(
                expected, rel=0, abs=1e-12)
        assert dec.hypothesis_score(store, cfg, src, [dt.BOS], dc) == 0.0

    def test_decoding_records_no_graph(self, monkeypatch):
        cfg, store = random_model(9)
        seen = []
        original_step = mm.decoder_step

        def recorded_step(params, config, cache, tokens):
            logits, grown = original_step(params, config, cache, tokens)
            seen.append(logits)
            return logits, grown

        monkeypatch.setattr(mm, "decoder_step", recorded_step)
        dec.decode(store, cfg, np.array([dt.BOS, 5, dt.EOS]),
                   dec.DecodeConfig(strategy="beam", beam_width=2, max_decode_len=6))
        assert seen and all(logits.inputs == () for logits in seen)

    def test_select_moves_memory_rows_with_prefix_rows(self):
        cfg, store = random_model(11, n_dec_layers=2)
        params = mm.as_nodes(store)
        src = np.array([[dt.BOS, 5, 9, 4, dt.EOS],
                        [dt.BOS, 7, 7, 6, dt.EOS],
                        [dt.BOS, 11, 4, 8, dt.EOS]])
        rows = [2, 0, 2, 1]
        with ad.no_graph():
            cache = mm.encode_source(params, cfg, src)
            for tokens in ([dt.BOS] * 3, [5, 6, 7]):
                _, cache = mm.decoder_step(params, cfg, cache, tokens)
            selected = cache.select(rows)
            same = np.array([8, 8, 8])
            logits, _ = mm.decoder_step(params, cfg, cache, same)
            permuted, _ = mm.decoder_step(params, cfg, selected, same[rows])
        for layer, moved in zip(cache.memory, selected.memory):
            for (kt, v), (kt_moved, v_moved) in zip(layer, moved):
                np.testing.assert_array_equal(kt_moved.value, kt.value[rows])
                np.testing.assert_array_equal(v_moved.value, v.value[rows])
        assert len({row.tobytes() for row in logits.value}) == 3
        np.testing.assert_array_equal(permuted.value, logits.value[rows])

    def test_select_on_a_fresh_cache_repeats_memory_rows(self):
        cfg, store = random_model(11, n_dec_layers=2)
        params = mm.as_nodes(store)
        src = np.array([[dt.BOS, 5, 9, 4, dt.EOS],
                        [dt.BOS, 7, 7, 6, dt.EOS]])
        rows = [0, 1, 0, 1, 1]
        with ad.no_graph():
            cache = mm.encode_source(params, cfg, src)
            selected = cache.select(rows)
            tokens = np.array([dt.BOS, 5, 6, 7, 8])
            logits, _ = mm.decoder_step(params, cfg, selected, tokens)
            for b, row in enumerate(rows):
                alone, _ = mm.decoder_step(params, cfg, cache.select([row]), tokens[b:b + 1])
                np.testing.assert_array_equal(logits.value[b], alone.value[0])
        assert selected.length == 0 and selected.prefix == [None] * cfg.n_dec_layers
        for layer, moved in zip(cache.memory, selected.memory):
            for (kt, v), (kt_moved, v_moved) in zip(layer, moved):
                np.testing.assert_array_equal(kt_moved.value, kt.value[rows])
                np.testing.assert_array_equal(v_moved.value, v.value[rows])

    @pytest.mark.parametrize("seed, src, greedy_steps", [
        (7, [dt.BOS, 7, 7, 6, dt.EOS], 9),  # the greedy row runs to the length cap
        (13, [dt.BOS, 11, 4, 8, dt.EOS], 1),  # the greedy row ends at the first step
    ])
    def test_beam_search_takes_one_decoder_step_per_position(self, seed, src, greedy_steps,
                                                             monkeypatch):
        cfg, store = random_model(seed, n_dec_layers=2)
        calls = [0]
        real_step = mm.decoder_step

        def counted_step(*args):
            calls[0] += 1
            return real_step(*args)

        monkeypatch.setattr(mm, "decoder_step", counted_step)
        counts = {}
        for dc in (dec.DecodeConfig(strategy="greedy", max_decode_len=10),
                   dec.DecodeConfig(strategy="beam", beam_width=3, max_decode_len=10)):
            calls[0] = 0
            dec.decode(store, cfg, np.array(src), dc)
            counts[dc.strategy] = calls[0]
        # No beam empties before the cap, so the beam sets the step count.
        assert counts == {"greedy": greedy_steps, "beam": 9}

    def test_greedy_rows_of_a_beam_search_equal_a_greedy_search(self):
        cfg, store = random_model(13, n_dec_layers=2)
        params = mm.as_nodes(store)
        src = np.array([[dt.BOS, 5, 9, 4, dt.EOS],
                        [dt.BOS, 7, 7, 6, dt.EOS],
                        [dt.BOS, 11, 4, 8, dt.EOS]])
        with ad.no_graph():
            cache = mm.encode_source(params, cfg, src)
            greedy = dec._search(params, cfg, cache, 3,
                                 dec.DecodeConfig(strategy="greedy", max_decode_len=10))
            beam = dec._search(params, cfg, cache, 3,
                               dec.DecodeConfig(strategy="beam", beam_width=3, max_decode_len=10))
        assert sorted({len(ids) for (ids, _), _ in greedy}) == [2, 3]  # rows leave mid-search
        assert [hyp for hyp, _ in beam] == [hyp for hyp, _ in greedy]
        assert [pool for _, pool in greedy] == [[]] * 3
        assert all(len(pool) >= 3 for _, pool in beam)

    @pytest.mark.parametrize("op, after, where", [
        ("gelu", 3, "at decoder step 3"),
        ("softmax_lastdim", 0, "in encode_source"),
    ])
    def test_injected_nan_names_the_op_and_the_step(self, op, after, where, monkeypatch):
        # ``op`` returns NaN from the first call after ``after`` decoder steps on.
        cfg = toy_config()
        store = mm.build_model(cfg, seed=0)
        for name, arr in store.items():
            if store.partition(name) != "norm":
                store.set(name, np.zeros_like(arr))  # decodes nine steps (test above)
        steps = [0]
        real_step = mm.decoder_step

        def counted_step(*args):
            steps[0] += 1
            return real_step(*args)

        fwd = ad._OPS[op].fwd

        def faulty(attrs, *xs):
            out = fwd(attrs, *xs)
            return np.full_like(out, np.nan) if steps[0] >= after else out

        monkeypatch.setattr(mm, "decoder_step", counted_step)
        monkeypatch.setitem(ad._OPS, op, ad._OPS[op]._replace(fwd=faulty))
        with pytest.raises(ad.NonFiniteError, match=f"output of '{op}' {where}$"):
            dec.decode(store, cfg, np.array([dt.BOS, 6, dt.EOS]),
                       dec.DecodeConfig(strategy="greedy", max_decode_len=10))

    def test_non_finite_score_rows_name_the_op(self, monkeypatch):
        cfg, store = random_model(12)
        fwd = ad._OPS["layer_norm"].fwd
        monkeypatch.setitem(ad._OPS, "layer_norm", ad._OPS["layer_norm"]._replace(
            fwd=lambda attrs, *xs: np.full_like(fwd(attrs, *xs), np.nan)))
        with pytest.raises(ad.NonFiniteError,
                           match="output of 'layer_norm' in hypothesis_score$"):
            dec.hypothesis_score(store, cfg, np.array([dt.BOS, 6, dt.EOS]),
                                 [dt.BOS, 7, dt.EOS], dec.DecodeConfig())

    def test_overflowing_weight_raises_naming_the_op(self):
        cfg, store = random_model(10)
        store.set("dec.0.ffn.w1.w", np.full(store["dec.0.ffn.w1.w"].shape, 1e200))
        store.set("dec.0.ffn.w2.w", np.full(store["dec.0.ffn.w2.w"].shape, 1e200))
        with pytest.raises(ad.NonFiniteError, match="'matmul'"):
            dec.decode(store, cfg, np.array([dt.BOS, 5, dt.EOS]), dec.DecodeConfig())


class TestGenerateFile:
    def make_checkpoint(self, tmp_path, vocab_words=("cat", "dog", "runs", "hides"), seed=2):
        vocab = dt.Vocab(vocab_words)
        cfg = toy_config(vocab_size=len(vocab))
        store = mm.build_model(cfg, seed=seed)
        ckpt = pl.Checkpoint(config=cfg, stage="pretrained", seeds={"bundle": 2},
                             provenance=[], store=store, vocab=vocab)
        path = tmp_path / "model.ckpt"
        pl.save_checkpoint(ckpt, path)
        return path

    def test_empty_input(self, tmp_path):
        ckpt_path = self.make_checkpoint(tmp_path)
        inp = tmp_path / "in.txt"
        inp.write_text("")
        out = tmp_path / "out.txt"
        count = dec.generate_file(ckpt_path, inp, out, dec.DecodeConfig())
        assert count == 0
        assert out.read_text() == ""

    def test_aligned_and_deterministic(self, tmp_path):
        ckpt_path = self.make_checkpoint(tmp_path)
        inp = tmp_path / "in.txt"
        inp.write_text("cat runs\ndog hides\n")
        out1, out2 = tmp_path / "o1.txt", tmp_path / "o2.txt"
        n1 = dec.generate_file(ckpt_path, inp, out1, dec.DecodeConfig(max_decode_len=8))
        n2 = dec.generate_file(ckpt_path, inp, out2, dec.DecodeConfig(max_decode_len=8))
        assert n1 == n2 == 2
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().splitlines()) == 2

    def test_output_has_no_markers(self, tmp_path):
        ckpt_path = self.make_checkpoint(tmp_path)
        inp = tmp_path / "in.txt"
        inp.write_text("cat runs\n")
        out = tmp_path / "out.txt"
        dec.generate_file(ckpt_path, inp, out, dec.DecodeConfig(max_decode_len=8))
        text = out.read_text()
        assert "<s>" not in text and "</s>" not in text

    def test_non_utf8_input_names_path_and_line(self, tmp_path):
        ckpt_path = self.make_checkpoint(tmp_path)
        inp = tmp_path / "in.txt"
        inp.write_bytes(b"cat runs\ndog \xff hides\n")
        with pytest.raises(dt.CorpusFormatError, match=r"in\.txt:2: not UTF-8 text"):
            dec.generate_file(ckpt_path, inp, tmp_path / "out.txt", dec.DecodeConfig())

    def test_scoring_reads_the_lines_decoding_read(self, tmp_path):
        # \x1c and \u2028 separate tokens inside a line, not lines. At seed 0
        # both lines decode to words; an empty output line fails scoring.
        ckpt_path = self.make_checkpoint(tmp_path, seed=0)
        inp, ref, out = tmp_path / "in.txt", tmp_path / "ref.txt", tmp_path / "out.txt"
        inp.write_text("cat\x1cruns\ndog\u2028hides\n", encoding="utf-8")
        ref.write_text("cat runs\x1cfast\ndog\u2028hides\n", encoding="utf-8")
        count = dec.generate_file(ckpt_path, inp, out, dec.DecodeConfig(max_decode_len=8))
        assert count == 2
        assert mx.evaluate_corpus(out, ref, inp).pairs == count

    def test_checkpoint_without_vocab_rejected(self, tmp_path):
        vocab = dt.Vocab(["cat"])
        cfg = toy_config(vocab_size=len(vocab))
        store = mm.build_model(cfg, seed=2)
        ckpt = pl.Checkpoint(config=cfg, stage="pretrained", seeds={},
                             provenance=[], store=store, vocab=None)
        path = tmp_path / "novocab.ckpt"
        pl.save_checkpoint(ckpt, path)
        inp = tmp_path / "in.txt"
        inp.write_text("cat\n")
        with pytest.raises(ValueError, match="vocabulary"):
            dec.generate_file(path, inp, tmp_path / "out.txt", dec.DecodeConfig())


@pytest.mark.slow
def test_copy_trained_checkpoint_copies_inputs(tmp_path):
    # Pretraining with no corruption is an autoencoding task; a model
    # trained on it should reproduce most held-in sentences verbatim.
    specs = dt.domain_family(1, seed=4, nouns=3, verbs=2, places=2)
    texts, sentences = dt.synth_domain(specs[0], 80)
    vocab = dt.Vocab.build([sentences])
    corpus = [dt.preprocess(s, vocab) for s in sentences]
    cfg = mm.ModelConfig(d_model=32, n_heads=2, n_enc_layers=1, n_dec_layers=1,
                         d_ff=64, vocab_size=len(vocab), max_len=24, adapter_hidden=4)
    noise = pl.NoiseConfig(mask_prob=0.0, delete_prob=0.0)
    result = pl.pretrain_stage(cfg, corpus, noise, steps=250, seed=0,
                               batch_size=16, lr=3e-3, vocab=vocab)
    ckpt_path = tmp_path / "copy.ckpt"
    pl.save_checkpoint(result.checkpoint, ckpt_path)

    lines = sentences[:20]
    inp = tmp_path / "in.txt"
    inp.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.txt"
    dec.generate_file(ckpt_path, inp, out, dec.DecodeConfig(max_decode_len=24))
    decoded = out.read_text().splitlines()
    exact = sum(1 for a, b in zip(lines, decoded) if a == b)
    assert exact >= 18, f"only {exact}/20 exact copies"
