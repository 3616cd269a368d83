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
    dict(),  # default adapter placement, two heads
    dict(adapter_placement=frozenset(mm.ADAPTER_SITES)),
    dict(n_heads=1, adapter_placement=frozenset(), adapter_hidden=0),
    dict(n_heads=1, adapter_placement=frozenset({"dec_cross"})),
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
        for (segment,), (moved,) in zip(cache.memory, selected.memory):  # one length
            for (kt, v), (kt_moved, v_moved) in zip(segment, moved):
                np.testing.assert_array_equal(kt_moved.value, kt.value[rows])
                np.testing.assert_array_equal(v_moved.value, v.value[rows])
        assert len({row.tobytes() for row in logits.value}) == 3
        np.testing.assert_array_equal(permuted.value, logits.value[rows])
        np.testing.assert_array_equal(selected.sources, rows)  # the rows' sources moved

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
        for (segment,), (moved,) in zip(cache.memory, selected.memory):  # one length
            for (kt, v), (kt_moved, v_moved) in zip(segment, moved):
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

    def test_width_one_beam_search_runs_one_row_per_live_source(self, monkeypatch):
        cfg, store = random_model(13, n_dec_layers=2)
        sources = [np.array([dt.BOS, 5, 9, 4, dt.EOS]),
                   np.array([dt.BOS, 7, 7, 6, dt.EOS]),
                   np.array([dt.BOS, 11, 4, 8, dt.EOS])]
        row_counts = []
        real_step = mm.decoder_step

        def counted_step(params, config, cache, tokens):
            row_counts.append(len(tokens))
            return real_step(params, config, cache, tokens)

        monkeypatch.setattr(mm, "decoder_step", counted_step)
        out = dec.decode_batch(store, cfg, sources,
                               dec.DecodeConfig(strategy="beam", beam_width=1, max_decode_len=10))
        # Step t emits position t of every source whose output is longer than t.
        live = [sum(len(ids) > t for ids in out) for t in range(1, max(map(len, out)))]
        assert live[0] == 3 and live[-1] < 3  # sources leave mid-search
        assert row_counts == live
        greedy = dec.decode_batch(store, cfg, sources,
                                  dec.DecodeConfig(strategy="greedy", max_decode_len=10))
        assert [list(ids) for ids in out] == [list(ids) for ids in greedy]

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


MIXED_SOURCES = [np.array([dt.BOS, 5, 9, dt.EOS]),  # three lengths, sorted
                 np.array([dt.BOS, 7, 6, dt.EOS]),
                 np.array([dt.BOS, 11, 4, 8, dt.EOS]),
                 np.array([dt.BOS, 6, 10, 5, 9, 7, dt.EOS]),
                 np.array([dt.BOS, 8, 8, 4, 11, 5, dt.EOS])]


def mixed_cache(params, cfg):
    """One fresh cache of ``MIXED_SOURCES``: one memory segment per length."""
    groups = {}
    for src in MIXED_SOURCES:
        groups.setdefault(len(src), []).append(src)
    return mm.KVCache.join([mm.encode_source(params, cfg, np.stack(group))
                            for group in groups.values()])


class TestMixedLengths:
    @pytest.mark.parametrize("dc", [
        dec.DecodeConfig(strategy="greedy", max_decode_len=10),
        dec.DecodeConfig(strategy="beam", beam_width=3, max_decode_len=10),
    ], ids=["greedy", "beam"])
    def test_sources_of_three_lengths_take_one_lockstep(self, dc, monkeypatch):
        cfg, store = random_model(13, n_dec_layers=2)
        steps = []
        real_step = mm.decoder_step

        def counted_step(params, config, cache, tokens):
            steps.append(len(cache.memory[0]))
            return real_step(params, config, cache, tokens)

        monkeypatch.setattr(mm, "decoder_step", counted_step)
        alone = []
        for src in MIXED_SOURCES:
            steps.clear()
            alone.append((list(dec.decode(store, cfg, src, dc)), len(steps)))
        steps.clear()
        order = [3, 0, 4, 2, 1]  # decode_batch sorts by length and restores the order
        batched = dec.decode_batch(store, cfg, [MIXED_SOURCES[i] for i in order], dc)
        assert [list(ids) for ids in batched] == [alone[i][0] for i in order]
        assert len(steps) == max(n for _, n in alone)
        assert steps[0] == 3  # every length in the first step's cache

    def test_search_equals_each_source_searched_alone(self):
        cfg, store = random_model(7, n_dec_layers=2,
                                  adapter_placement=frozenset(mm.ADAPTER_SITES))
        params = mm.as_nodes(store)
        for dc in (dec.DecodeConfig(strategy="greedy", max_decode_len=10),
                   dec.DecodeConfig(strategy="beam", beam_width=3, max_decode_len=10)):
            with ad.no_graph():
                mixed = dec._search(params, cfg, mixed_cache(params, cfg), len(MIXED_SOURCES), dc)
                alone = [dec._search(params, cfg, mm.encode_source(params, cfg, src[None, :]), 1,
                                     dc)[0] for src in MIXED_SOURCES]
            assert mixed == alone  # ids, summed log-probs and pools, bit for bit

    def test_each_step_decodes_one_row_per_distinct_source_and_prefix(self, monkeypatch):
        cfg, store = random_model(7, n_dec_layers=2)
        sources = MIXED_SOURCES + [MIXED_SOURCES[0]]  # a repeated source keeps its own rows
        steps = []
        real_prune = dec._prune

        def recorded_prune(rows, at, live, done, widths):
            keys = [(b // 2, tuple(ids)) for b, beam in enumerate(live) for ids, _ in beam]
            pairs = set(zip(keys, at.tolist()))
            steps.append((len(rows), len(keys), len(set(keys)), len(pairs)))
            return real_prune(rows, at, live, done, widths)

        monkeypatch.setattr(dec, "_prune", recorded_prune)
        out = dec.decode_batch(store, cfg, sources,
                               dec.DecodeConfig(strategy="beam", beam_width=3, max_decode_len=10))
        assert list(out[0]) == list(out[-1])
        # One row per distinct key, and each key's hypotheses read one row.
        assert all(rows == keys == pairs for rows, _, keys, pairs in steps)
        assert steps[0][:2] == (len(sources), 2 * len(sources))  # one row per source starts
        assert all(rows < hyps for rows, hyps, _, _ in steps[1:])  # greedy rows shared

    def test_step_of_several_segments_equals_each_segment_alone(self):
        cfg, store = random_model(11, n_dec_layers=2)
        params = mm.as_nodes(store)
        groups = [MIXED_SOURCES[:2], MIXED_SOURCES[2:3], MIXED_SOURCES[3:]]
        steps = ([dt.BOS] * 5, [5, 6, 7, 8, 9], [4, 4, 10, 11, 5])
        with ad.no_graph():
            cache = mixed_cache(params, cfg)
            alone = [mm.encode_source(params, cfg, np.stack(group)) for group in groups]
            for tokens in steps:
                logits, cache = mm.decoder_step(params, cfg, cache, tokens)
                start = 0
                for g, group in enumerate(groups):
                    rows = slice(start, start + len(group))
                    part, alone[g] = mm.decoder_step(params, cfg, alone[g], tokens[rows])
                    np.testing.assert_array_equal(logits.value[rows], part.value)
                    start += len(group)
        assert [len(layer) for layer in cache.memory] == [3, 3]

    def test_a_cache_keeps_each_rows_source(self):
        cfg, store = random_model(11, n_dec_layers=2)
        params = mm.as_nodes(store)
        rows = [1, 1, 0, 4, 3]
        with ad.no_graph():
            cache = mixed_cache(params, cfg)
            np.testing.assert_array_equal(cache.sources, np.arange(len(MIXED_SOURCES)))
            _, stepped = mm.decoder_step(params, cfg, cache, [dt.BOS] * 5)
            selected = stepped.select(rows)
        assert stepped.sources is cache.sources
        np.testing.assert_array_equal(selected.sources, rows)

    def test_select_that_keeps_every_rows_source_keeps_the_memory(self):
        cfg, store = random_model(11, n_dec_layers=2)
        params = mm.as_nodes(store)
        rows = [1, 0, 2, 4, 3, 5, 6]  # reordered within sources 0 and 2
        tokens = np.arange(4, 11)
        with ad.no_graph():
            cache = mixed_cache(params, cfg).select([0, 0, 1, 2, 2, 3, 4])
            _, cache = mm.decoder_step(params, cfg, cache, [dt.BOS] * 7)
            selected = cache.select(rows)
            logits, _ = mm.decoder_step(params, cfg, cache, tokens)
            moved, _ = mm.decoder_step(params, cfg, selected, tokens[rows])
        assert selected.memory is cache.memory
        np.testing.assert_array_equal(selected.sources, [0, 0, 1, 2, 2, 3, 4])
        for (k, v), (k_moved, v_moved) in zip(cache.prefix, selected.prefix):
            np.testing.assert_array_equal(k_moved.value, k.value[rows])
            np.testing.assert_array_equal(v_moved.value, v.value[rows])
        np.testing.assert_array_equal(moved.value, logits.value[rows])

    @staticmethod
    def recorded_selects(seed, monkeypatch):
        """(rows before, rows after, memory kept) of each select of one beam-3 decode."""
        cfg, store = random_model(seed, n_dec_layers=2)
        kept = []
        real_select = mm.KVCache.select

        def recorded_select(cache, rows):
            selected = real_select(cache, rows)
            kept.append((len(cache.sources), len(rows), selected.memory is cache.memory))
            return selected

        monkeypatch.setattr(mm.KVCache, "select", recorded_select)
        dec.decode(store, cfg, np.array([dt.BOS, 7, 7, 6, dt.EOS]),
                   dec.DecodeConfig(strategy="beam", beam_width=3, max_decode_len=10))
        return kept

    def test_beam_search_moves_memory_only_when_a_source_loses_rows(self, monkeypatch):
        # The first step decodes the source's one row. The greedy hypothesis
        # then stays in the wide beam, so the source holds 3 rows; each row
        # has one child, in order, and selects of every row in order are skipped.
        # No source loses rows here; test_beam_search_keeps_the_memory_once_the_beams_fill
        # checks that the memory stays once the beams are full.
        assert self.recorded_selects(7, monkeypatch) == [(1, 3, False)]

    def test_beam_search_keeps_the_memory_once_the_beams_fill(self, monkeypatch):
        # The memory moves while the source gains rows (1 -> 2 -> 3), then stays.
        assert self.recorded_selects(13, monkeypatch) == [(1, 2, False), (2, 3, False),
                                                          (3, 3, True), (3, 3, True)]

    def test_select_keeps_segments_in_order_and_drops_empty_ones(self):
        cfg, store = random_model(11, n_dec_layers=2)
        params = mm.as_nodes(store)
        rows = [1, 1, 0, 4, 3]  # the one source of length 5 (row 2) is left out
        tokens = np.array([5, 6, 7, 8, 9])
        with ad.no_graph():
            cache = mixed_cache(params, cfg)
            _, cache = mm.decoder_step(params, cfg, cache, [dt.BOS] * 5)
            logits, _ = mm.decoder_step(params, cfg, cache, tokens)
            selected = cache.select(rows)
            moved, _ = mm.decoder_step(params, cfg, selected, tokens[rows])
        assert [mm._segment_rows(layer) for layer in selected.memory] == [[3, 2]] * 2
        np.testing.assert_array_equal(moved.value, logits.value[rows])

    @pytest.mark.parametrize("rows", [[0, 2, 1], [3, 0], [0, 3, 4, 2]])
    def test_select_rejects_rows_that_interleave_segments(self, rows):
        cfg, store = random_model(11)
        params = mm.as_nodes(store)
        with ad.no_graph():
            cache = mixed_cache(params, cfg)
        with pytest.raises(ValueError, match=r"interleave the memory segments of \[2, 1, 2\]"):
            cache.select(rows)


class TestDecodePins:
    """Exact counts of the op nodes that decoding builds.

    How an op is dispatched is free to change, but encoding and each
    decoder step must build the same nodes.
    """

    def test_op_nodes_of_encoding_and_three_decoder_steps(self, monkeypatch):
        built = []

        class CountingNode(ad.Node):
            __slots__ = ()

            def __init__(self, op, inputs, attrs, value, name=None):
                super().__init__(op, inputs, attrs, value, name)
                if op is not None:
                    built.append(op)

        cfg, store = random_model(11, n_dec_layers=2)
        monkeypatch.setattr(ad, "Node", CountingNode)
        params = mm.as_nodes(store)
        with ad.no_graph():
            cache = mixed_cache(params, cfg)
            encoded = len(built)
            for tokens in ([dt.BOS] * 5, [5, 6, 7, 8, 9], [4, 4, 10, 11, 5]):
                _, cache = mm.decoder_step(params, cfg, cache, tokens)
        assert (encoded, len(built) - encoded) == (183, 539)


class TestTopIds:
    def test_ties_across_the_kth_value_go_to_the_lowest_ids(self):
        rows = np.array([[0.0, -1.0, 0.0, -1.0, -1.0, -2.0, 0.0],  # three tied at the top
                         [-1.0, -3.0, -1.0, -2.0, -1.0, -1.0, -3.0],  # four tied at k-th
                         [-5.0, -4.0, -3.0, -2.0, -1.0, -0.5, -6.0],  # no ties
                         [-2.0] * 7])  # all tied
        for k in range(1, 9):
            expected = np.argsort(-rows, axis=-1, kind="stable")[:, :k]
            np.testing.assert_array_equal(dec._top_ids(rows, k), expected)

    def test_random_rows_with_ties_match_a_stable_argsort(self):
        rng = np.random.default_rng(0)
        cases = [(rng.integers(-4, 1, size=(50, 30)).astype(np.float64), (2, 3, 5))]
        for _ in range(300):  # small rows on a grid of ties or without ties, k above the vocabulary
            shape = int(rng.integers(1, 9)), int(rng.integers(1, 12))
            rows = rng.integers(-3, 1, size=shape).astype(np.float64) if rng.random() < 0.5 else \
                rng.standard_normal(shape)
            cases.append((rows, range(1, shape[1] + 3)))
        for rows, ks in cases:
            for k in ks:
                expected = np.argsort(-rows, axis=-1, kind="stable")[:, :k]
                np.testing.assert_array_equal(dec._top_ids(rows, k), expected)


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
        # both lines decode to words.
        ckpt_path = self.make_checkpoint(tmp_path, seed=0)
        inp, ref, out = tmp_path / "in.txt", tmp_path / "ref.txt", tmp_path / "out.txt"
        inp.write_text("cat\x1cruns\ndog\u2028hides\n", encoding="utf-8")
        ref.write_text("cat runs\x1cfast\ndog\u2028hides\n", encoding="utf-8")
        count = dec.generate_file(ckpt_path, inp, out, dec.DecodeConfig(max_decode_len=8))
        assert count == 2
        assert mx.evaluate_corpus(out, ref, inp).pairs == count

    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    def test_a_decode_of_the_end_marker_alone_scores_zero(self, tmp_path, strategy):
        # The final norm's zero gain leaves its bias, which only the end
        # marker's embedding row matches: every source decodes to [BOS, EOS].
        vocab = dt.Vocab(("cat", "dog", "runs", "hides"))
        cfg = toy_config(vocab_size=len(vocab))
        store = mm.build_model(cfg, seed=2)
        tok = np.zeros((cfg.vocab_size, cfg.d_model))
        tok[dt.EOS, 0] = 1.0
        store.set("tok_embed", tok)
        store.set("dec.final_ln.gain", np.zeros(cfg.d_model))
        store.set("dec.final_ln.bias", tok[dt.EOS])
        ckpt_path = tmp_path / "model.ckpt"
        pl.save_checkpoint(pl.Checkpoint(config=cfg, stage="pretrained", seeds={"bundle": 2},
                                         provenance=[], store=store, vocab=vocab), ckpt_path)
        inp, ref, out = tmp_path / "in.txt", tmp_path / "ref.txt", tmp_path / "out.txt"
        inp.write_text("cat runs\ndog hides\n")
        ref.write_text("cat runs\ndog hides\n")
        count = dec.generate_file(ckpt_path, inp, out,
                                  dec.DecodeConfig(strategy=strategy, max_decode_len=8))
        assert count == 2 and out.read_text() == "\n\n"
        report = mx.evaluate_corpus(out, ref, inp)
        assert report.pairs == 2
        assert report.scores == {"BLEU-2": 0.0, "BLEU-4": 0.0, "iBLEU": 0.0,
                                 "ROUGE-1": 0.0, "ROUGE-2": 0.0}

    def test_blank_source_lines_are_skipped_by_decoding_and_scoring(self, tmp_path):
        # At seed 0 both non-blank lines decode to words, as above.
        ckpt_path = self.make_checkpoint(tmp_path, seed=0)
        inp, ref, out = tmp_path / "in.txt", tmp_path / "ref.txt", tmp_path / "out.txt"
        inp.write_text("cat runs\n\ndog hides\n   \n")
        ref.write_text("cat runs fast\n\ndog hides\n\n")
        count = dec.generate_file(ckpt_path, inp, out, dec.DecodeConfig(max_decode_len=8))
        assert count == 2
        assert mx.evaluate_corpus(out, ref, inp).pairs == 2


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
