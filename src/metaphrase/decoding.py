"""Autoregressive decoding (greedy and beam) from a trained checkpoint.

Decoding starts from the start marker and stops at the end marker or the
length cap. Argmax ties break toward the lowest token id, which makes every
strategy a pure function of (parameters, source). Beam search scores
hypotheses by length-penalized summed log-probabilities and always includes
the greedy hypothesis among its candidates, so its returned score never
falls below greedy's.

Decoding is incremental and records no autodiff graph: each source is
encoded once, inside ``autodiff.no_graph()``, into a ``model.KVCache`` that
serves both the greedy and the beam pass. The cache keeps the encoder
memory's per-head cross-attention keys and values, plus each decoder
layer's self-attention keys and values, which grow by one position per
step; beam search reorders them by parent hypothesis. A step therefore
runs the decoder on one new position per hypothesis, with the same layer
code as ``model.forward_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import data as dt
from . import model as mm
from . import pipeline as pl


@dataclass
class DecodeConfig:
    strategy: str = "greedy"
    beam_width: int = 4
    max_decode_len: int = 22  # 20 content words + markers
    length_penalty: float = 0.0

    def __post_init__(self):
        if self.strategy not in ("greedy", "beam"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_decode_len < 2:
            raise ValueError("max_decode_len must fit the markers")


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _next_logprobs(params, config, cache, prefixes: list[list[int]]):
    """Next-position log-probs for equal-length prefixes, shape (B, vocab).

    ``cache`` holds every prefix position but the last, row b for prefix b;
    returns the log-probs and the cache grown by that last position.
    """
    last = [ids[-1] for ids in prefixes]
    logits, cache = mm.decoder_step(params, config, cache, last)
    return _log_softmax(logits.value[:, -1, :]), cache


def _hyp_score(logprob_sum: float, n_emitted: int, length_penalty: float) -> float:
    if length_penalty == 0.0 or n_emitted == 0:
        return logprob_sum
    return logprob_sum / (n_emitted**length_penalty)


def _greedy(params, config, cache, dc: DecodeConfig) -> tuple[list[int], float]:
    ids = [dt.BOS]
    logprob = 0.0
    while len(ids) < dc.max_decode_len:
        rows, cache = _next_logprobs(params, config, cache, [ids])
        row = rows[0]
        nxt = int(np.argmax(row))  # first occurrence: ties go to the lowest id
        logprob += float(row[nxt])
        ids.append(nxt)
        if nxt == dt.EOS:
            break
    return ids, logprob


def _beam(params, config, cache, dc: DecodeConfig) -> list[tuple[list[int], float]]:
    live = [([dt.BOS], 0.0)]
    done: list[tuple[list[int], float]] = []
    while live and len(live[0][0]) < dc.max_decode_len:
        rows, cache = _next_logprobs(params, config, cache, [ids for ids, _ in live])
        candidates = []
        for parent, ((ids, logprob), row) in enumerate(zip(live, rows)):
            top = np.argsort(-row, kind="stable")[: dc.beam_width]
            for tok in top:
                candidates.append((ids + [int(tok)], logprob + float(row[tok]), parent))
        candidates.sort(key=lambda c: (-c[1], c[0]))
        live, parents = [], []
        for ids, logprob, parent in candidates:
            if ids[-1] == dt.EOS:
                done.append((ids, logprob))
            elif len(live) < dc.beam_width:
                live.append((ids, logprob))
                parents.append(parent)
            if len(live) >= dc.beam_width and len(done) >= dc.beam_width:
                break
        if live:
            cache = cache.select(parents)
    done.extend(live)
    return done


def decode(params, config: mm.ModelConfig, src_tokens, dc: DecodeConfig) -> np.ndarray:
    """Produce token ids for one source sentence, marker-wrapped.

    ``params`` is a ParamStore or a name -> Node mapping (pass the latter,
    built once, when decoding many sources). A sequence cut off at the
    length cap carries no closing marker.
    """
    src = np.asarray(src_tokens, dtype=np.int64)
    if dc.max_decode_len > config.max_len:
        raise ValueError("max_decode_len exceeds the model's max_len")
    params = mm.as_nodes(params)
    with ad.no_graph():
        cache = mm.encode_source(params, config, src)
        greedy_ids, greedy_logprob = _greedy(params, config, cache, dc)
        if dc.strategy == "greedy" or dc.beam_width == 1:
            return np.asarray(greedy_ids, dtype=np.int64)
        pool = _beam(params, config, cache, dc)
    pool.append((greedy_ids, greedy_logprob))
    scored = [
        (_hyp_score(lp, len(ids) - 1, dc.length_penalty), ids) for ids, lp in pool
    ]
    scored.sort(key=lambda s: (-s[0], s[1]))
    return np.asarray(scored[0][1], dtype=np.int64)


def hypothesis_score(params, config, src_tokens, ids, dc: DecodeConfig) -> float:
    """Score an id sequence under the decoder's scoring function.

    One teacher-forced pass over ``ids[:-1]`` gives every position's log-probs.
    """
    src = np.asarray(src_tokens, dtype=np.int64)
    ids = [int(i) for i in ids]
    logprob = 0.0
    if len(ids) > 1:
        with ad.no_graph():
            logits = mm.forward_batch(params, config, src[None, :], np.asarray([ids[:-1]]))
        rows = _log_softmax(logits.value[0])
        for t in range(1, len(ids)):
            logprob += float(rows[t - 1, ids[t]])
    return _hyp_score(logprob, len(ids) - 1, dc.length_penalty)


def generate_file(checkpoint_path, input_path, output_path, dc: DecodeConfig) -> int:
    """Decode every input line to the output file, aligned; returns the count."""
    ckpt = pl.load_checkpoint(checkpoint_path)
    if ckpt.vocab is None:
        raise ValueError(f"checkpoint {checkpoint_path} carries no vocabulary")
    params = ckpt.store.leaves()
    count = 0
    with open(input_path, encoding="utf-8") as fin, open(
        output_path, "w", encoding="utf-8"
    ) as fout:
        for line in fin:
            line = line.strip()
            if not line:
                continue
            src = dt.preprocess(line, ckpt.vocab)
            out = decode(params, ckpt.config, src, dc)
            fout.write(dt.detokenize(out, ckpt.vocab) + "\n")
            count += 1
    return count
