"""Autoregressive decoding (greedy and beam) from a trained checkpoint.

Decoding starts from the start marker and stops at the end marker or the
length cap. Greedy search is a width-1 beam, and ties break toward the
lowest token id, which makes every strategy a pure function of (parameters,
source). Beam search scores hypotheses by length-penalized summed
log-probabilities and always includes the greedy hypothesis among its
candidates, so its returned score never falls below greedy's.

Decoding is incremental and records no autodiff graph: sources are
encoded once, inside ``autodiff.no_graph()``, into a ``model.KVCache``. The
cache keeps, one row per hypothesis, the source's per-head cross-attention
keys and values plus each decoder layer's self-attention keys and values,
which grow by one position per step. Each source runs a width-1 beam, and
beam search a beam of its width next to it; all beams advance in lockstep,
each decoder step carrying every live hypothesis, and the rows that go on
(by parent hypothesis) are picked with one ``KVCache.select``. A step
therefore runs the decoder on one new position per hypothesis, with the
same layer code as ``model.forward_batch``, and a beam decode takes no more
decoder steps than its longer beam.

Nothing that does not change is redone. ``select`` moves only the
self-attention prefix while every row keeps its source: a source's rows
stay together and reorder only among themselves, so once its beams are full
a step copies cross-attention memory only when some source gains or loses
rows (a finished greedy row, a beam left with fewer live hypotheses). A
``ParamStore`` passed in enters through its cached frozen leaves, checked
once per array (``model.ParamStore``), so decoding the same store again
builds and checks no leaf; a ``set`` makes that name's leaf anew.

Decoding checks finiteness at its boundaries, not after every op: the
encoded cache, each decoder step's log-probs and ``hypothesis_score``'s
rows. Each is an ``autodiff.check_boundary``, the one re-run rule: a failed
check re-runs that one ``encode_source``, ``decoder_step`` or forward inside
``autodiff.checked()``, which raises ``NonFiniteError`` naming the op; the
error also names the decoder step. The re-run sees the inputs of the first
run, since a ``KVCache`` is never mutated.

``decode_batch`` decodes sources of every length in one lockstep search:
their hypotheses are stacked into one decoder step, with no padding. The
sources are sorted by length, each length is encoded once, and the rows of
one length attend over their own cross-attention memory segment. Every
other op of a step is row-wise or a stacked matmul that computes each row
with the same kernel call as a batch of one, so each source gets bit for
bit the ids and log-probs it gets when decoded alone; ``decode`` is the
batch of one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import data as dt
from . import model as mm
from . import pipeline as pl

# Sources per lockstep search, whatever their lengths: bounds the cache at this
# many times (beam width + 1) rows, a source's width-1 beam and its wide beam.
_MAX_BATCH = 64


@dataclass
class DecodeConfig:
    strategy: str = "greedy"
    beam_width: int = 4
    max_decode_len: int = dt.MAX_CONTENT_WORDS + 2  # the longest source and its markers
    length_penalty: float = 0.0

    def __post_init__(self):
        if self.strategy not in ("greedy", "beam"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        mm.check_count("beam_width", self.beam_width, 1)
        mm.check_count("max_decode_len", self.max_decode_len, 2)  # the two markers
        if not mm.finite_number(self.length_penalty):
            raise ValueError(f"length_penalty must be finite, got {self.length_penalty!r}")


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
    logits, grown = mm.decoder_step(params, config, cache, last)
    rows = _log_softmax(logits.value[:, -1, :])
    with ad.non_finite_context(f"at decoder step {cache.length + 1}"):
        ad.check_boundary([("the log-probs", rows)],
                          lambda: mm.decoder_step(params, config, cache, last))
    return rows, grown


def _hyp_score(logprob_sum: float, n_emitted: int, length_penalty: float) -> float:
    if length_penalty == 0.0 or n_emitted == 0:
        return logprob_sum
    return logprob_sum / (n_emitted**length_penalty)


def _top_ids(rows, k: int) -> np.ndarray:
    """Each row's ``k`` best column ids, best first, ties to the lowest id.

    Equals ``np.argsort(-rows, axis=-1, kind="stable")[:, :k]`` without
    sorting whole rows: only the entries at or above a row's k-th best
    value are sorted. Argmax is the first column, at a hundredth of the cost.
    """
    if k == 1:
        return rows.argmax(axis=-1)[:, None]
    k = min(k, rows.shape[-1])
    kth = np.partition(rows, -k, axis=-1)[:, -k, None]
    r, c = np.nonzero(rows >= kth)  # at least k per row, ids ascending
    c = c[np.lexsort((c, -rows[r, c], r))]  # by row, then best first, then lowest id
    starts = np.searchsorted(r, np.arange(len(rows)))
    return c[starts[:, None] + np.arange(k)]


def _prune(rows, live, done, widths) -> list[int]:
    """Expand, rank and prune every beam's live hypotheses in place.

    ``rows`` are the log-probs of the hypotheses in ``live``, beam by beam.
    A hypothesis of beam b proposes its ``widths[b]`` best next tokens, ties
    to the lowest id (a width-1 beam is greedy search); those ending in the
    end marker join the beam's ``done``, the best ``widths[b]`` others stay
    live. Returns the kept hypotheses' parent rows, in the new ``live`` order.
    """
    tops = _top_ids(rows, max(widths))
    parents = []
    r = 0
    for b, width in enumerate(widths):
        candidates = []
        for ids, logprob in live[b]:
            for tok in tops[r, :width]:
                candidates.append((ids + [int(tok)], logprob + float(rows[r, tok]), r))
            r += 1
        candidates.sort(key=lambda c: (-c[1], c[0]))
        kept = []
        for ids, logprob, parent in candidates:
            if ids[-1] == dt.EOS:
                done[b].append((ids, logprob))
            elif len(kept) < width:
                kept.append((ids, logprob))
                parents.append(parent)
            if len(kept) >= width and len(done[b]) >= width:
                break
        live[b] = kept
    return parents


def _search(params, config, cache, n: int, dc: DecodeConfig) -> list[tuple[tuple, list]]:
    """Greedy (ids, summed log-prob) and beam pool of each of the cache's ``n`` rows.

    Every source runs a width-1 beam, its greedy search, and beam search a
    wider beam next to it. All beams advance in lockstep, their live
    hypotheses source by source as a step's rows; one ``cache.select`` picks
    the rows that go on, unless they are all rows in order. A source's pool
    holds its wide beam's finished and live hypotheses, or nothing.
    """
    width = dc.beam_width if dc.strategy == "beam" else 1
    per_source = [1] if width == 1 else [1, width]
    widths = per_source * n
    live = [[([dt.BOS], 0.0)] for _ in widths]
    done = [[] for _ in widths]
    parents = [b // len(per_source) for b in range(len(widths))]  # each beam's source row
    held = n
    while parents and cache.length + 1 < dc.max_decode_len:  # the prefixes' length
        if parents != list(range(held)):
            cache = cache.select(parents)
        rows, cache = _next_logprobs(params, config, cache,
                                     [ids for hyps in live for ids, _ in hyps])
        held = len(rows)
        parents = _prune(rows, live, done, widths)
    pools = [done[b] + live[b] for b in range(len(widths))]
    return [(pools[b][0], pools[b + 1] if width > 1 else [])
            for b in range(0, len(widths), len(per_source))]


def _encoded(params, config, src: np.ndarray) -> mm.KVCache:
    """``encode_source`` of (B, S) equal-length sources, checked finite."""
    cache = mm.encode_source(params, config, src)
    with ad.non_finite_context("in encode_source"):
        ad.check_boundary([("the encoded source", a.value) for layer in cache.memory
                           for kv in layer for pair in kv for a in pair],
                          lambda: mm.encode_source(params, config, src))
    return cache


def _decode_sorted(params, config, sources, dc: DecodeConfig) -> list[list[int]]:
    """Ids for each of ``sources``, sorted by length, decoded in one lockstep search.

    Each length is encoded once into its own memory segment of one cache,
    which serves every beam: ``_search`` gives each source a width-1 beam
    and, for beam search, a beam of its width. The width-1 beam's hypothesis
    competes with the wide beam's pool, so beam search never scores below
    greedy.
    """
    with ad.no_graph():
        cache = mm.KVCache.join([_encoded(params, config, np.stack(list(same)))
                                 for _, same in itertools.groupby(sources, key=len)])
        searched = _search(params, config, cache, len(sources), dc)

    def rank(hyp):  # the best score first, ties to the lower ids
        ids, logprob = hyp
        return -_hyp_score(logprob, len(ids) - 1, dc.length_penalty), ids
    return [min(pool + [greedy], key=rank)[0] for greedy, pool in searched]


def _check_decode_len(config: mm.ModelConfig, dc: DecodeConfig) -> None:
    if dc.max_decode_len > config.max_len:
        raise ValueError(f"max_decode_len exceeds the model's max_len "
                         f"({dc.max_decode_len} > {config.max_len})")


def decode_batch(params, config: mm.ModelConfig, sources, dc: DecodeConfig) -> list[np.ndarray]:
    """Token ids for each source, in order, marker-wrapped.

    Each output equals ``decode`` of that source alone. Sources of every
    length decode in one lockstep search, at most ``_MAX_BATCH`` at a time,
    in order of length. ``params`` is a ParamStore or a name -> Node
    mapping. A sequence cut off at the length cap carries no closing marker.
    """
    _check_decode_len(config, dc)
    sources = [np.asarray(src, dtype=np.int64) for src in sources]
    params = mm.as_nodes(params)
    order = sorted(range(len(sources)), key=lambda i: len(sources[i]))
    out: list[np.ndarray] = [None] * len(sources)
    for start in range(0, len(order), _MAX_BATCH):
        batch = order[start : start + _MAX_BATCH]
        decoded = _decode_sorted(params, config, [sources[i] for i in batch], dc)
        for i, ids in zip(batch, decoded):
            out[i] = np.asarray(ids, dtype=np.int64)
    return out


def decode(params, config: mm.ModelConfig, src_tokens, dc: DecodeConfig) -> np.ndarray:
    """Produce token ids for one source sentence: ``decode_batch`` of one."""
    return decode_batch(params, config, [src_tokens], dc)[0]


def hypothesis_score(params, config, src_tokens, ids, dc: DecodeConfig) -> float:
    """Score an id sequence under the decoder's scoring function.

    One teacher-forced pass over ``ids[:-1]`` gives every position's log-probs.
    """
    src = np.asarray(src_tokens, dtype=np.int64)
    ids = [int(i) for i in ids]
    logprob = 0.0
    if len(ids) > 1:
        prefix = np.asarray([ids[:-1]])
        with ad.no_graph():
            logits = mm.forward_batch(params, config, src[None, :], prefix)
            rows = _log_softmax(logits.value[0])
            with ad.non_finite_context("in hypothesis_score"):
                ad.check_boundary([("the log-probs", rows)],
                                  lambda: mm.forward_batch(params, config, src[None, :], prefix))
        for t in range(1, len(ids)):
            logprob += float(rows[t - 1, ids[t]])
    return _hyp_score(logprob, len(ids) - 1, dc.length_penalty)


def generate_file(checkpoint_path, input_path, output_path, dc: DecodeConfig) -> int:
    """Decode every non-blank input line to the output file, in order; returns the count.

    ``data.load_sentences`` reads the input; ``metrics.evaluate_corpus`` drops
    the same blank and whitespace-only source lines, with their references.
    The output is opened before anything is decoded: an unwritable one fails
    fast, and a failed decode leaves it empty, never stale.
    """
    ckpt = pl.load_checkpoint(checkpoint_path)
    sources = dt.load_sentences(input_path, ckpt.vocab)
    _check_decode_len(ckpt.config, dc)
    with open(output_path, "w", encoding="utf-8") as fout:
        outputs = decode_batch(ckpt.store, ckpt.config, sources, dc)
        fout.writelines(dt.detokenize(out, ckpt.vocab) + "\n" for out in outputs)
    return len(outputs)
