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


def test_decoder_reproduces_recorded_ids():
    expected = json.loads(GOLDEN_IDS.read_text())
    got = decode_all(*load_golden_model())
    assert set(got) == set(expected)
    for name in CASES:
        assert len(got[name]) == len(expected[name])
        mismatches = [i for i, (a, b) in enumerate(zip(got[name], expected[name])) if a != b]
        assert not mismatches, f"{name}: sources {mismatches[:10]} decode differently"


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
