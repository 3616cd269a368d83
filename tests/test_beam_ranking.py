"""Beam ranking on arrays equals the per-candidate Python ranking it replaced.

``_reference_prune`` is the earlier implementation, kept verbatim apart
from its name and its top ids, which it takes from a stable argsort (what
the earlier ``_top_ids`` computed): every hypothesis had its own row, and
each candidate was a Python tuple with its own id list, sorted in Python.
The tests run both on seeded random steps with forced ties and compare
every result exactly.
"""

import copy
import itertools

import numpy as np

from metaphrase import data as dt
from metaphrase import decoding as dec


def _reference_prune(rows, live, done, widths) -> list[int]:
    """Expand, rank and prune every beam's live hypotheses in place.

    ``rows`` are the log-probs of the hypotheses in ``live``, beam by beam.
    A hypothesis of beam b proposes its ``widths[b]`` best next tokens, ties
    to the lowest id (a width-1 beam is greedy search); those ending in the
    end marker join the beam's ``done``, the best ``widths[b]`` others stay
    live. Returns the kept hypotheses' parent rows, in the new ``live`` order.
    """
    tops = np.argsort(-rows, axis=-1, kind="stable")[:, :max(widths)]
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


def random_rows(rng, n, vocab):
    """Log-prob-like rows: on a coarse grid (many ties, at the k-th value too) or not."""
    if rng.random() < 0.7:
        return rng.integers(-3, 1, size=(n, vocab)).astype(np.float64)
    return -rng.random((n, vocab)) * 4


def random_step(rng):
    """One beam step: widths 1-5, live beams empty to full, done lists, rows, ``at``.

    Every live prefix has one length, as in a search. Prefixes of a beam are
    distinct, their summed log-probs lie on a grid of ties, and the vocabulary
    is at times smaller than the widest beam.
    """
    vocab = int(rng.integers(2, 10))
    widths = [int(w) for w in rng.integers(1, 6, size=int(rng.integers(1, 7)))]
    if rng.random() < 0.3:
        widths = [1] * len(widths)  # greedy beams only
    length = int(rng.integers(0, 4))
    prefixes = [[dt.BOS, *p] for p in itertools.product((5, 6, 7), repeat=length)]
    live, done = [], []
    for width in widths:
        n = int(rng.integers(0, min(width, len(prefixes)) + 1))
        picks = rng.choice(len(prefixes), size=n, replace=False)
        live.append([(prefixes[i], float(rng.integers(-4, 1)) / 2) for i in picks])
        done.append([([dt.BOS, dt.EOS], -1.0)] * int(rng.integers(0, width + 2)))
    n_hyps = sum(map(len, live))
    n_rows = int(rng.integers(1, n_hyps + 1)) if n_hyps else 0
    at = rng.integers(0, max(n_rows, 1), size=n_hyps)
    return random_rows(rng, n_rows, vocab), at, live, done, widths


def test_prune_equals_the_reference_on_random_steps_with_ties():
    rng = np.random.default_rng(20241222)
    seen = {"finished": 0, "stopped": 0, "greedy": 0, "over_vocab": 0, "empty_beam": 0}
    steps = 0
    while steps < 1500:
        rows, at, live, done, widths = random_step(rng)
        if not len(at):
            continue  # a search stops before a step with no live hypothesis
        steps += 1
        live_ref, done_ref = copy.deepcopy(live), copy.deepcopy(done)
        layouts = dict(rows=rows, at=at), dict(rows=rows[at], at=np.arange(len(at)))
        for kw in layouts:  # shared rows, and one row per hypothesis
            live_new, done_new = copy.deepcopy(live), copy.deepcopy(done)
            parents, tokens = dec._prune(kw["rows"], kw["at"], live_new, done_new, widths)
            live_old, done_old = copy.deepcopy(live), copy.deepcopy(done)
            parents_old = _reference_prune(rows[at], live_old, done_old, widths)
            assert live_new == live_old and done_new == done_old
            assert parents.tolist() == kw["at"][parents_old].tolist()
            assert tokens.tolist() == [ids[-1] for beam in live_new for ids, _ in beam]
        seen["finished"] += any(len(a) > len(b) for a, b in zip(done_old, done_ref))
        seen["stopped"] += any(len(beam) == w and len(d) >= w
                               for beam, d, w in zip(live_old, done_old, widths))
        seen["greedy"] += max(widths) == 1
        seen["over_vocab"] += max(widths) > rows.shape[1]
        seen["empty_beam"] += any(not beam for beam in live_ref)
    assert min(seen.values()) > 50, seen


def test_prune_breaks_tied_sums_of_different_parents_by_their_ids():
    # Both parents read one row whose best two tokens tie, so every candidate
    # sum ties and only the ids order them, whichever parent comes first.
    rows = np.full((1, 8), -3.0)
    rows[0, 5:] = -1.0
    for order in ([[0, 6], [0, 5]], [[0, 5], [0, 6]]):
        live = [[(ids, -1.0) for ids in order]]
        done = [[]]
        parents, tokens = dec._prune(rows, np.array([0, 0]), live, done, [2])
        assert live == [[([0, 5, 5], -2.0), ([0, 5, 6], -2.0)]]
        assert done == [[]] and parents.tolist() == [0, 0] and tokens.tolist() == [5, 6]
