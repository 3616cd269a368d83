"""Decoder outputs pinned to ids recorded from the graph-building decoder.

``tests/data/decode_golden.json`` holds greedy and beam ids for 200 sources,
decoded with the parameters in ``tests/data/decode_golden_params.npz`` (a
small denoising-pretrained model with random, non-identity adapters at
every site) by the decoder that re-ran ``forward_batch`` over the whole
prefix at every step. Any later decoder must reproduce them token for
token. Regenerate (only for a deliberate change of decoding semantics) with
``PYTHONPATH=src python tests/test_decode_golden.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from metaphrase import autodiff as ad
from metaphrase import data as dt
from metaphrase import decoding as dec
from metaphrase import model as mm
from metaphrase import pipeline as pl

DATA = Path(__file__).resolve().parent / "data"
GOLDEN_IDS = DATA / "decode_golden.json"
GOLDEN_PARAMS = DATA / "decode_golden_params.npz"
N_SOURCES = 200
N_LENGTH_PENALTY = 20

CASES = {
    "greedy": dec.DecodeConfig(strategy="greedy", max_decode_len=14),
    "beam4": dec.DecodeConfig(strategy="beam", beam_width=4, max_decode_len=14),
    "beam3_lp0.7": dec.DecodeConfig(strategy="beam", beam_width=3, max_decode_len=14,
                                    length_penalty=0.7),
}


def golden_config(vocab_size):
    return mm.ModelConfig(d_model=16, n_heads=2, n_enc_layers=2, n_dec_layers=2, d_ff=32,
                          vocab_size=vocab_size, max_len=16, adapter_hidden=4,
                          adapter_placement=frozenset(mm.ADAPTER_SITES))


def golden_domain():
    """(vocabulary, training sentences, source sentences) of one synthetic domain."""
    spec = dt.domain_family(1, seed=4, nouns=3, verbs=2, places=2)[0]
    _, train = dt.synth_domain(spec, 80)
    _, sources = dt.synth_domain(spec, N_SOURCES)
    return dt.Vocab.build([train]), train, sources


def golden_sources():
    """The domain's sentences, every other one with two random word swaps."""
    vocab, _, sentences = golden_domain()
    rng = np.random.default_rng(13)
    out = []
    for i, sentence in enumerate(sentences[:N_SOURCES]):
        ids = dt.preprocess(sentence, vocab)
        if i % 2:
            k = rng.integers(1, len(ids) - 1, size=2)
            ids[k] = rng.integers(len(dt.RESERVED), len(vocab), size=2)
        out.append(ids)
    return out


def decode_all(config, store):
    sources = golden_sources()
    out = {}
    for name, dc in CASES.items():
        n = N_LENGTH_PENALTY if dc.length_penalty else N_SOURCES
        out[name] = [[int(i) for i in dec.decode(store, config, src, dc)] for src in sources[:n]]
    return out


def load_golden_model():
    with np.load(GOLDEN_PARAMS) as arrays:
        vocab_size = arrays["tok_embed"].shape[0]
        config = golden_config(vocab_size)
        store = mm.build_model(config, seed=0)
        for name in store.names():
            store.set(name, arrays[name])
    return config, store


@pytest.fixture(scope="module")
def golden():
    """(config, store, ids from decoding each source alone)."""
    config, store = load_golden_model()
    return config, store, decode_all(config, store)


def test_decoder_reproduces_recorded_ids(golden):
    expected = json.loads(GOLDEN_IDS.read_text())
    got = golden[2]
    assert set(got) == set(expected)
    for name in CASES:
        assert len(got[name]) == len(expected[name])
        mismatches = [i for i, (a, b) in enumerate(zip(got[name], expected[name])) if a != b]
        assert not mismatches, f"{name}: sources {mismatches[:10]} decode differently"


def test_batch_decoding_equals_one_at_a_time(golden):
    config, store, single = golden
    expected = json.loads(GOLDEN_IDS.read_text())
    sources = golden_sources()
    assert len({len(src) for src in sources}) < 10  # equal lengths do share batches
    for name, dc in CASES.items():
        n = len(single[name])
        batched = [[int(i) for i in ids] for ids in dec.decode_batch(store, config, sources[:n], dc)]
        assert batched == single[name] == expected[name], name


def test_batched_hypotheses_and_logprobs_equal_single_source(golden):
    config, store, _ = golden
    params = mm.as_nodes(store)
    by_length = {}
    for src in golden_sources()[:60]:
        by_length.setdefault(len(src), []).append(src)
    dc = CASES["beam4"]

    def search(batch):
        """(greedy (ids, log-prob), beam pool) of each row of a (B, S) batch."""
        cache = mm.encode_source(params, config, batch)
        return dec._search(params, config, cache, len(batch), dc)

    with ad.no_graph():
        for group in by_length.values():
            assert search(np.stack(group)) == [search(src[None, :])[0] for src in group]


def test_one_search_over_every_length_equals_single_source(golden):
    config, store, _ = golden
    params = mm.as_nodes(store)
    sources = sorted(golden_sources()[:40], key=len)
    dc = CASES["beam4"]
    with ad.no_graph():
        caches = [mm.encode_source(params, config, np.stack([src for src in sources
                                                             if len(src) == n]))
                  for n in sorted({len(src) for src in sources})]
        assert len(caches) > 2
        mixed = dec._search(params, config, mm.KVCache.join(caches), len(sources), dc)
        alone = [dec._search(params, config, mm.encode_source(params, config, src[None, :]), 1,
                             dc)[0] for src in sources]
    assert mixed == alone


def test_generate_file_keeps_input_order_across_lengths(golden, tmp_path):
    config, store, _ = golden
    vocab, _, sentences = golden_domain()
    path = tmp_path / "golden.ckpt"
    pl.save_checkpoint(pl.Checkpoint(config=config, stage="pretrained", seeds={}, provenance=[],
                                     store=store, vocab=vocab), path)
    ckpt = pl.load_checkpoint(path)
    mixed = sentences[:4] + ["", sentences[4], "   "] + sentences[5:12]
    assert len({len(line.split()) for line in mixed if line.strip()}) > 1
    inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
    for lines in (mixed, sentences[:1]):
        inp.write_text("\n".join(lines) + "\n")
        for dc in (CASES["greedy"], CASES["beam3_lp0.7"]):
            expected = [dt.detokenize(dec.decode(ckpt.store, ckpt.config,
                                                 dt.preprocess(line, vocab), dc), vocab)
                        for line in lines if line.strip()]
            assert dec.generate_file(path, inp, out, dc) == len(expected)
            assert out.read_text().splitlines() == expected
            assert len(lines) == 1 or len(set(expected)) > 2


def _train_golden_model():
    vocab, train, _ = golden_domain()
    corpus = [dt.preprocess(s, vocab) for s in train]
    config = golden_config(len(vocab))
    result = pl.pretrain_stage(config, corpus, pl.NoiseConfig(), steps=300, seed=0,
                               batch_size=16, lr=3e-3, vocab=vocab)
    store = mm.insert_adapters(result.checkpoint.store, config, seed=1)
    rng = np.random.default_rng(14)
    for name in store.names():
        if store.partition(name) == "adapter":
            store.set(name, 0.05 * rng.standard_normal(store[name].shape))
    return config, store


if __name__ == "__main__":
    config, store = _train_golden_model()
    np.savez(GOLDEN_PARAMS, **dict(store.items()))
    config, store = load_golden_model()
    GOLDEN_IDS.write_text(json.dumps(decode_all(config, store)) + "\n")
