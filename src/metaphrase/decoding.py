"""Autoregressive decoding (greedy and beam) from a trained checkpoint.

Decoding starts from the start marker and stops at the end marker or the
length cap. Greedy search is a width-1 beam, and ties break toward the
lowest token id, which makes every strategy a pure function of (parameters,
source). Beam search scores hypotheses by length-penalized summed
log-probabilities and always includes the greedy hypothesis among its
candidates, so its returned score never falls below greedy's.

Decoding is incremental and records no autodiff graph: sources are
encoded once, inside ``autodiff.no_graph()``, into a ``model.KVCache``. The
cache keeps, for each decoder row, its source's per-head cross-attention
keys and values plus each decoder layer's self-attention keys and values,
which grow by one position per step. Each source runs a width-1 beam, and
beam search a beam of its width next to it; all beams advance in lockstep.
A step's decoder rows are its distinct hypotheses: the distinct (source,
prefix) pairs among every beam's live hypotheses, each hypothesis reading
its pair's row. So a greedy hypothesis that equals a hypothesis of its
source's wide beam is not decoded twice; that changes no value, since a
row's log-probs depend on its source and prefix alone, bit for bit (last
paragraph). The rows that go on (by parent row and new token) are picked
with one ``KVCache.select``. A step
therefore runs the decoder on one new position per distinct hypothesis,
with the same layer code as ``model.forward_batch``, and a beam decode
takes no more decoder steps than its longer beam. Candidates are ranked on
arrays (``_prune``), and an id list is built only for a hypothesis that is
kept or finished.

Nothing that does not change is redone. ``select`` moves only the
self-attention prefix while every row keeps its source: a source's rows
stay together and reorder only among themselves, so once its beams are full
a step copies cross-attention memory only when some source gains or loses
rows (a greedy hypothesis that leaves or rejoins its wide beam, a finished
greedy row, a beam left with fewer live hypotheses). A ``ParamStore``
passed in enters through its cached frozen leaves, checked once per array
(``model.ParamStore``), so decoding the same store again builds and checks
no leaf; a ``set`` makes that name's leaf anew.

Decoding checks finiteness at its boundaries, not after every op: the
encoded cache, each decoder step's log-probs and ``hypothesis_score``'s
rows. Each is an ``autodiff.check_boundary``, the one re-run rule: a failed
check re-runs that one ``encode_source``, ``decoder_step`` or forward inside
``autodiff.checked()``, which raises ``NonFiniteError`` naming the op; the
error also names the decoder step. The re-run sees the inputs of the first
run, since a ``KVCache`` is never mutated.

``decode_batch`` decodes sources of every length in one lockstep search:
their distinct hypotheses are stacked into one decoder step, with no
padding. The sources are sorted by length, each length is encoded once,
and the rows of one length attend over their own cross-attention memory
segment. Every
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
    """Each finite row's ``k`` best column ids, best first, ties to the lowest id.

    Equals ``np.argsort(-rows, axis=-1, kind="stable")[:, :k]`` without
    sorting whole rows: k argmax passes, each taking every row's best
    remaining id (the lowest of tied ones) and then hiding it. That is
    several times cheaper than one ``np.argpartition`` at decoding's sizes.
    """
    k = min(k, rows.shape[-1])
    rest = rows.copy()
    ids = np.empty((len(rows), k), dtype=np.int64)
    every = np.arange(len(rows))
    for i in range(k):
        ids[:, i] = best = rest.argmax(axis=-1)
        rest[every, best] = -np.inf
    return ids


def _prune(rows, at, live, done, widths):
    """Expand, rank and prune every beam's live hypotheses in place.

    ``rows`` are the log-probs of a step's distinct hypotheses, and the h-th
    hypothesis of ``live``, counted beam by beam, reads row ``at[h]``. A
    hypothesis of beam b proposes its ``widths[b]`` best next tokens, ties
    to the lowest id (a width-1 beam is greedy search), and each beam's
    candidates are ranked by (-summed log-prob, ids). In that order, those
    ending in the end marker join the beam's ``done`` and the best
    ``widths[b]`` others stay live, until the beam keeps ``widths[b]`` and
    holds ``widths[b]`` done. The ranking runs on arrays of plain numbers:
    one gather gives every candidate's token and summed log-prob, ids are
    compared only where two sums of a beam tie, and only a kept or finished
    candidate gets an id list. Returns the kept hypotheses' parent rows and
    new tokens, in the new ``live`` order. Width-1 beams alone (greedy
    search) take ``_prune_greedy``, the same rule in a few Python steps;
    without it and ``_search``'s greedy branch, one-sentence greedy decoding
    read 13% slower (``BENCH_32.json``, ``greedy_fork``).
    """
    if max(widths) == 1:
        return _prune_greedy(rows, at, live, done)
    hyps = [hyp for beam in live for hyp in beam]
    sizes = [len(beam) for beam in live]
    tops = _top_ids(rows, max(widths))
    # Each hypothesis's candidates: the first widths[b] ids of its row's tops.
    h, j = np.nonzero(np.arange(tops.shape[1]) < np.repeat(widths, sizes)[:, None])
    beam = np.repeat(np.arange(len(widths)), sizes)[h]
    tok = tops[at[h], j]
    total = rows[at[h], tok] + np.array([lp for _, lp in hyps])[h]
    order = np.lexsort((-total, beam))  # a tie keeps (hypothesis, rank) order
    sums, beams = total[order], beam[order]
    if np.any((sums[1:] == sums[:-1]) & (beams[1:] == beams[:-1])):  # rank ties by the ids
        ranks = np.empty(len(hyps), dtype=np.int64)  # every live prefix has one length
        ranks[sorted(range(len(hyps)), key=lambda i: hyps[i][0])] = np.arange(len(hyps))
        order = np.lexsort((tok, ranks[h], -total, beam))
    beam, h, tok, total = beam[order], h[order], tok[order], total[order]
    eos = tok == dt.EOS
    first = np.searchsorted(beam, beam)  # each candidate's beam's first candidate
    ended = np.cumsum(eos) - eos
    ended = ended - ended[first]  # end-marker candidates before it in its beam
    width = np.asarray(widths)[beam]
    keep = np.arange(len(beam)) - first - ended < width  # fewer kept before it than width
    finish = eos & (keep | (np.array([len(d) for d in done])[beam] + ended < width))
    keep &= ~eos
    live[:] = [[] for _ in widths]
    picked = np.flatnonzero(keep | finish)
    for b, i, t, lp, ends in zip(beam[picked].tolist(), h[picked].tolist(), tok[picked].tolist(),
                                 total[picked].tolist(), finish[picked].tolist()):
        (done[b] if ends else live[b]).append((hyps[i][0] + [t], lp))
    return at[h[keep]], tok[keep]


def _prune_greedy(rows, at, live, done):
    """``_prune`` of width-1 beams: a hypothesis's one candidate is its row's best token."""
    best = rows.argmax(axis=-1).tolist()
    rows_at = iter(at.tolist())
    parents, tokens = [], []
    for b, beam in enumerate(live):
        if beam:
            (ids, logprob), = beam
            r = next(rows_at)
            t = best[r]
            hyp = (ids + [t], logprob + float(rows[r, t]))
            if t == dt.EOS:
                done[b].append(hyp)
                live[b] = []
            else:
                live[b] = [hyp]
                parents.append(r)
                tokens.append(t)
    return np.array(parents, dtype=np.int64), np.array(tokens, dtype=np.int64)


def _search(params, config, cache, n: int, dc: DecodeConfig) -> list[tuple[tuple, list]]:
    """Greedy (ids, summed log-prob) and beam pool of each of the cache's ``n`` rows.

    Every source runs a width-1 beam, its greedy search, and beam search a
    wider beam next to it. All beams advance in lockstep, and a step's rows
    are its distinct hypotheses, the distinct (source, prefix) pairs among
    all live ones. A row is keyed by its parent row and new token, which is
    its (source, prefix) since the parent rows are distinct. Keys in order
    keep a source's rows together and the sources in order; one
    ``cache.select`` picks the parent rows, unless they are all rows in
    order. A source's pool holds its wide beam's finished and live
    hypotheses, or nothing.
    """
    width = dc.beam_width if dc.strategy == "beam" else 1
    per_source = [1] if width == 1 else [1, width]
    widths = per_source * n
    live = [[([dt.BOS], 0.0)] for _ in widths]
    done = [[] for _ in widths]
    at = np.repeat(np.arange(n), len(per_source))  # every beam starts on its source's row
    picks, prefixes = list(range(n)), [[dt.BOS]] * n
    while at.size and cache.length + 1 < dc.max_decode_len:  # the prefixes' length
        if picks != list(range(len(cache.sources))):
            cache = cache.select(picks)
        rows, cache = _next_logprobs(params, config, cache, prefixes)
        parents, tokens = _prune(rows, at, live, done, widths)
        kept = [ids for hyps in live for ids, _ in hyps]
        if width == 1:  # one hypothesis per source: each is its own row, in order
            picks, prefixes, at = parents.tolist(), kept, np.arange(len(kept))
        else:
            keys, first, at = np.unique(parents * config.vocab_size + tokens,
                                        return_index=True, return_inverse=True)
            picks = (keys // config.vocab_size).tolist()
            prefixes = [kept[h] for h in first.tolist()]
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


def _check_source_lens(config: mm.ModelConfig, sources, where) -> None:
    """Every source fits the model's positions; ``where(i)`` names source i in the error."""
    for i, src in enumerate(sources):
        if len(src) > config.max_len:
            raise ValueError(f"{where(i)}: source length {len(src)} exceeds max_len "
                             f"{config.max_len}")


def decode_batch(params, config: mm.ModelConfig, sources, dc: DecodeConfig) -> list[np.ndarray]:
    """Token ids for each source, in order, marker-wrapped.

    Each output equals ``decode`` of that source alone. Sources of every
    length decode in one lockstep search, at most ``_MAX_BATCH`` at a time,
    in order of length. ``params`` is a ParamStore or a name -> Node
    mapping. A sequence cut off at the length cap carries no closing marker.
    A source longer than the model's ``max_len`` is a ``ValueError`` naming
    its index, raised before any search.
    """
    _check_decode_len(config, dc)
    sources = [np.asarray(src, dtype=np.int64) for src in sources]
    _check_source_lens(config, sources, lambda i: f"source {i}")
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

    ``data.sentence_lines`` reads the input, as ``data.load_sentences`` does;
    ``metrics.evaluate_corpus`` drops the same blank and whitespace-only
    source lines, with their references. A line whose source is longer than
    the model's ``max_len`` is a ``ValueError`` naming ``path:line``. The
    output is opened only after these checks and before anything is
    decoded: an unwritable one fails fast, and a failed decode leaves it
    empty, never stale.
    """
    ckpt = pl.load_checkpoint(checkpoint_path)
    lines = dt.sentence_lines(input_path)
    sources = [dt.preprocess(line, ckpt.vocab) for _, line in lines]
    _check_decode_len(ckpt.config, dc)
    _check_source_lens(ckpt.config, sources, lambda i: f"{input_path}:{lines[i][0]}")
    with open(output_path, "w", encoding="utf-8") as fout:
        outputs = decode_batch(ckpt.store, ckpt.config, sources, dc)
        fout.writelines(dt.detokenize(out, ckpt.vocab) + "\n" for out in outputs)
    return len(outputs)
