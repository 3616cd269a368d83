"""Paraphrase quality metrics: corpus BLEU-n, iBLEU, ROUGE-1/2, reporting.

All metrics work on whitespace token lists with ``data.MARKERS`` stripped.
BLEU is the standard modified-precision geometric mean with a brevity
penalty; n-gram orders longer than the candidate are dropped from the mean
rather than zeroing it (a three-token candidate scores BLEU-4 over orders
1..3). An empty candidate (a decode that emitted the end marker first)
adds no n-gram and a length of 0, and a corpus with no candidate n-gram
scores 0. BLEU is scored per corpus: counts aggregate over pairs before the
ratio (a one-pair corpus gives sentence-level BLEU). It is unsmoothed by
default; ``EvalConfig.smooth_eps`` adds epsilon to zero counts, and the
report flags which mode produced it.

iBLEU = alpha * BLEU(candidate, reference) - (1 - alpha) * BLEU(candidate,
source): high overlap with the reference is rewarded, copying the source is
penalized. Corpus reports use alpha = ``IBLEU_ALPHA`` = 0.9 with BLEU-4
inside. A corpus's ROUGE-n is the mean over the pairs whose reference has at
least n tokens, so a one-word reference leaves ROUGE-2 to the other pairs.

``evaluate_corpus`` splits its generated, reference and source files into
lines as decoding splits its input: through ``data.read_lines``, the reader
``decoding.generate_file`` uses. Only ``\n``, ``\r\n`` and ``\r`` end a
line; a ``\x1c`` or ``\u2028`` inside a line separates tokens, not lines,
so each decoded source line scores as one pair. A blank or whitespace-only
source line, which ``generate_file`` skips, is dropped with its reference.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .data import MARKERS, read_lines
from .model import finite_number

IBLEU_ALPHA = 0.9


def strip_markers(tokens: Sequence[str]) -> list[str]:
    return [t for t in tokens if t not in MARKERS]


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(candidates: Sequence[Sequence[str]],
                references: Sequence[Sequence[Sequence[str]]], n: int,
                smooth_eps: float = 0.0) -> float:
    """Corpus BLEU-n: counts aggregate over pairs before the ratio."""
    if len(candidates) != len(references):
        raise ValueError("candidate/reference counts differ")
    if not candidates:
        raise ValueError("empty corpus")
    clipped, total = [0] * n, [0] * n
    cand_len = ref_len = 0
    for candidate, refs in zip(candidates, references):
        candidate = strip_markers(candidate)
        refs = [strip_markers(r) for r in refs]
        if not refs or any(not r for r in refs):
            raise ValueError("empty reference set")
        for k in range(1, n + 1):
            cand_counts = _ngrams(candidate, k)
            best = Counter()
            for ref in refs:
                for gram, count in _ngrams(ref, k).items():
                    if count > best[gram]:
                        best[gram] = count
            clipped[k - 1] += sum(min(c, best[g]) for g, c in cand_counts.items())
            total[k - 1] += sum(cand_counts.values())
        # Closest reference length; ties break toward the shorter reference.
        cand_len += len(candidate)
        ref_len += min((abs(len(ref) - len(candidate)), len(ref)) for ref in refs)[1]

    log_sum, orders = 0.0, 0
    for hits, count in zip(clipped, total):
        if count == 0:
            continue  # no candidate has n-grams of this order
        orders += 1
        if hits == 0:
            if smooth_eps > 0.0:
                hits = smooth_eps
            else:
                return 0.0
        log_sum += math.log(hits / count)
    if not orders:
        return 0.0  # every candidate is empty
    precision = math.exp(log_sum / orders)
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return precision * bp


def ibleu(bleu_ref: float, bleu_src: float, alpha: float = IBLEU_ALPHA) -> float:
    """alpha * BLEU(cand, ref) - (1 - alpha) * BLEU(cand, source), from the two BLEUs."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return alpha * bleu_ref - (1.0 - alpha) * bleu_src


def rouge_n(candidate: Sequence[str], reference: Sequence[str], n: int) -> float:
    """ROUGE-n recall: clipped overlap / reference n-grams."""
    if n not in (1, 2):
        raise ValueError(f"n must be 1 or 2, got {n}")
    candidate = strip_markers(candidate)
    reference = strip_markers(reference)
    ref_counts = _ngrams(reference, n)
    ref_total = sum(ref_counts.values())
    if ref_total == 0:
        raise ValueError(f"reference shorter than {n} tokens")
    cand_counts = _ngrams(candidate, n)
    overlap = sum(min(c, ref_counts[g]) for g, c in cand_counts.items())
    return overlap / ref_total


# ---------------------------------------------------------------------------
# corpus evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalConfig:
    smooth_eps: float = 0.0  # corpus scores are unsmoothed by default

    def __post_init__(self):
        if not (finite_number(self.smooth_eps) and self.smooth_eps >= 0):
            raise ValueError(f"smooth_eps must be finite and >= 0 (0 disables smoothing), "
                             f"got {self.smooth_eps!r}")


@dataclass
class MetricReport:
    scores: dict[str, float]  # reported x100
    pairs: int
    smoothing: str

    def to_csv(self) -> str:
        lines = ["metric,value"]
        for name, value in self.scores.items():
            lines.append(f"{name},{value:.4f}")
        return "\n".join(lines) + "\n"


def _corpus_rouge(candidates, references, n: int) -> float:
    """Mean ROUGE-n over the pairs whose reference has at least ``n`` tokens.

    A shorter reference has no n-gram to recall, so its pair is left out;
    only a corpus in which no reference is long enough raises.
    """
    scored = [rouge_n(c, r, n) for c, r in zip(candidates, references)
              if len(strip_markers(r)) >= n]
    if not scored:
        raise ValueError(f"ROUGE-{n} needs a reference of at least {n} tokens; none has")
    return sum(scored) / len(scored)


def _read_token_lines(path) -> list[list[str]]:
    return [line.split() for line in read_lines(path)]


def evaluate_corpus(generated_path, reference_path, source_path,
                    config: EvalConfig | None = None) -> MetricReport:
    """Corpus-level metrics over aligned one-sentence-per-line files."""
    config = config or EvalConfig()
    generated = _read_token_lines(generated_path)
    references = _read_token_lines(reference_path)
    sources = _read_token_lines(source_path)
    if len(references) == len(sources):  # generate_file decodes no blank source line
        kept = [i for i, src in enumerate(sources) if src]
        references, sources = [references[i] for i in kept], [sources[i] for i in kept]
    if not (len(generated) == len(references) == len(sources)):
        raise ValueError(
            f"line counts differ: generated={len(generated)} "
            f"references={len(references)} sources={len(sources)}"
        )
    single_refs = [[r] for r in references]
    eps = config.smooth_eps
    bleu4 = corpus_bleu(generated, single_refs, 4, eps)
    bleu4_src = corpus_bleu(generated, [[s] for s in sources], 4, eps)
    scores = {
        "BLEU-2": 100.0 * corpus_bleu(generated, single_refs, 2, eps),
        "BLEU-4": 100.0 * bleu4,
        "iBLEU": 100.0 * ibleu(bleu4, bleu4_src),
        "ROUGE-1": 100.0 * _corpus_rouge(generated, references, 1),
        "ROUGE-2": 100.0 * _corpus_rouge(generated, references, 2),
    }
    return MetricReport(
        scores=scores,
        pairs=len(generated),
        smoothing="unsmoothed" if eps == 0.0 else f"add-eps({eps})",
    )
