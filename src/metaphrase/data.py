"""Corpus ingestion, preprocessing, synthetic paraphrase domains, task sampling.

Tokenization is whitespace word-level: lowercase, split, map through a
vocabulary with <unk> fallback, truncate to 20 content words, then wrap with
sentence markers. The synthetic generator builds families of paraphrase
domains (templated sentences; paraphrase = synonym substitution plus clause
reordering) with disjoint content vocabularies, standing in for real
multi-domain pair corpora at desk scale.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

RESERVED = ("<s>", "</s>", "<pad>", "<mask>", "<unk>")
BOS, EOS, PAD, MASK, UNK = range(5)
# The sentence markers and padding: stripped from decoded text and metrics.
MARKERS = (RESERVED[BOS], RESERVED[EOS], RESERVED[PAD])

MAX_CONTENT_WORDS = 20


class CorpusFormatError(ValueError):
    """A corpus file violates its documented format."""


class TaskSizeError(ValueError):
    """A meta-learning task cannot hold the pairs it needs.

    Raised when a corpus has no domain to draw a task from, when a domain
    has fewer train pairs than a task draws, when a task is too small to
    split into support and query, and when the tasks of a meta-batch hold
    different numbers of pairs.
    """


def read_text(path) -> str:
    """A file's text, decoded as UTF-8 with its newlines as they are.

    Bytes that are not UTF-8 raise ``CorpusFormatError`` naming ``path:line``.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise CorpusFormatError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def read_lines(path) -> list[str]:
    """A UTF-8 text file's lines without newlines, read as a text-mode ``open`` splits them.

    Bytes that are not UTF-8 raise ``CorpusFormatError`` naming ``path:line``.
    """
    return [line.rstrip("\n") for line in io.StringIO(read_text(path), newline=None)]


class Vocab:
    """Token <-> id bijection with fixed reserved ids 0..4."""

    def __init__(self, tokens: Iterable[str] = ()):
        self._tokens: list[str] = list(RESERVED)
        self._index: dict[str, int] = {t: i for i, t in enumerate(self._tokens)}
        for tok in tokens:
            self.add(tok)

    def add(self, token: str) -> int:
        """The token's id, added at the end if it is new; only a new token is checked."""
        known = self._index.get(token)
        if known is None:
            if not token or any(c.isspace() for c in token):
                raise ValueError(f"invalid vocabulary token {token!r}")
            known = self._index[token] = len(self._tokens)
            self._tokens.append(token)
        return known

    def encode(self, token: str) -> int:
        return self._index.get(token, UNK)

    def decode(self, token_id: int) -> str:
        return self._tokens[token_id]

    def __len__(self) -> int:
        return len(self._tokens)

    def tokens(self) -> list[str]:
        return list(self._tokens)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self._tokens:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        """One token per line, the reserved tokens first; a token's id is its line index."""
        tokens = read_lines(path)
        if tokens[: len(RESERVED)] != list(RESERVED):
            raise CorpusFormatError(f"vocab file {path} is missing the reserved tokens")
        vocab = cls()
        for lineno, token in enumerate(tokens[len(RESERVED):], start=len(RESERVED) + 1):
            try:
                if vocab.add(token) != lineno - 1:  # a merged duplicate shifts later ids
                    raise ValueError(f"duplicate vocabulary token {token!r}")
            except ValueError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: {exc}") from None
        return vocab

    @classmethod
    def build(cls, corpora: Iterable[Iterable[str]]) -> "Vocab":
        """Union of lowercased whitespace tokens, in order of appearance."""
        vocab = cls()
        for corpus in corpora:
            for sentence in corpus:
                for tok in sentence.lower().split():
                    vocab.add(tok)
        return vocab


def preprocess(text: str, vocab: Vocab) -> np.ndarray:
    """Lowercase, split, map to ids, truncate to 20 content words, add markers."""
    words = text.lower().split()[:MAX_CONTENT_WORDS]
    if not words:
        raise ValueError("sentence is empty after preprocessing")
    ids = [BOS] + [vocab.encode(w) for w in words] + [EOS]
    return np.asarray(ids, dtype=np.int64)


def detokenize(ids: Sequence[int], vocab: Vocab) -> str:
    """Marker-stripped, space-joined text for a token id sequence."""
    words = [vocab.decode(int(i)) for i in ids]
    return " ".join(w for w in words if w not in MARKERS)


@dataclass
class ParaphrasePair:
    src: np.ndarray
    tgt: np.ndarray


def load_pairs(path, vocab: Vocab) -> list[ParaphrasePair]:
    """Read source<TAB>target pairs, one per line; '#' lines are comments."""
    pairs = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if line.startswith("#"):
            continue
        columns = line.split("\t")
        if len(columns) != 2:
            raise CorpusFormatError(
                f"{path}:{lineno}: expected 2 tab-separated columns, got {len(columns)}"
            )
        try:
            pairs.append(
                ParaphrasePair(preprocess(columns[0], vocab), preprocess(columns[1], vocab))
            )
        except ValueError as exc:
            raise CorpusFormatError(f"{path}:{lineno}: {exc}") from None
    if not pairs:
        raise CorpusFormatError(f"{path}: no pairs found")
    return pairs


def sentence_lines(path) -> list[tuple[int, str]]:
    """Each non-blank line, stripped, with its 1-based number; blank lines count."""
    return [(n, line) for n, line in enumerate(map(str.strip, read_lines(path)), start=1) if line]


def load_sentences(path, vocab: Vocab) -> list[np.ndarray]:
    """One sentence per non-blank line, preprocessed."""
    return [preprocess(line, vocab) for _, line in sentence_lines(path)]


def pad_batch(seqs: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack variable-length id sequences into (ids, valid_mask)."""
    width = max(len(s) for s in seqs)
    ids = np.full((len(seqs), width), PAD, dtype=np.int64)
    mask = np.zeros((len(seqs), width), dtype=bool)
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = s
        mask[i, : len(s)] = True
    return ids, mask


def pad_tasks(tasks: Sequence[Sequence[np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-task id sequences into (n_tasks, batch, width) ids and valid mask.

    Every task is padded to the widest sequence of any task. The tasks must
    hold equal numbers of sequences, since a task's loss is a mean over its
    rows: padding a short task with empty rows would mis-average it.
    """
    sizes = [len(task) for task in tasks]
    if len(set(sizes)) != 1:
        raise TaskSizeError(f"tasks of a meta-batch must hold equal numbers of pairs, got {sizes}")
    ids, mask = pad_batch([s for task in tasks for s in task])
    shape = (len(tasks), sizes[0], ids.shape[-1])
    return ids.reshape(shape), mask.reshape(shape)


# ---------------------------------------------------------------------------
# synthetic paraphrase domains
# ---------------------------------------------------------------------------


@dataclass
class DomainSpec:
    """Everything needed to generate one paraphrase domain deterministically.

    Templates are segment lists; each segment is a token sequence where
    ``{group}`` slots draw from the word groups. A paraphrase keeps the slot
    fills, substitutes synonyms, and may permute segments per a reorder rule.
    """

    name: str
    seed: int
    words: dict[str, list[str]]
    synonyms: dict[str, list[str]]
    templates: list[list[list[str]]]
    reorders: list[tuple[int, ...]] = field(default_factory=list)
    subst_prob: float = 1.0
    reorder_prob: float = 0.5

    def __post_init__(self):
        subset = self.vocabulary()
        for word, alts in self.synonyms.items():
            if word not in subset or not alts or any(a not in subset for a in alts):
                raise ValueError(
                    f"domain {self.name!r}: synonym entry {word!r} not closed over vocabulary"
                )
        groups = set(self.words)
        for template in self.templates:
            for segment in template:
                for tok in segment:
                    if tok.startswith("{") and tok.endswith("}") and tok[1:-1] not in groups:
                        raise ValueError(
                            f"domain {self.name!r}: template slot {tok} has no word group"
                        )
        for rule in self.reorders:
            if sorted(rule) != list(range(len(rule))):
                raise ValueError(f"domain {self.name!r}: reorder {rule} is not a permutation")
        if not self.templates:
            raise ValueError(f"domain {self.name!r}: no templates")

    def vocabulary(self) -> set[str]:
        out = set()
        for group in self.words.values():
            out.update(group)
        for alts in self.synonyms.values():
            out.update(alts)
        return out


def synth_domain(spec: DomainSpec, n_pairs: int) -> tuple[list[tuple[str, str]], list[str]]:
    """Generate (paraphrase text pairs, unlabeled sentences) for one domain."""
    rng = np.random.default_rng(spec.seed)
    pairs = []
    for _ in range(n_pairs):
        template = spec.templates[rng.integers(len(spec.templates))]
        segments = []
        for segment in template:
            filled = []
            for tok in segment:
                if tok.startswith("{") and tok.endswith("}"):
                    group = spec.words[tok[1:-1]]
                    filled.append(group[rng.integers(len(group))])
                else:
                    filled.append(tok)
            segments.append(filled)

        source = [tok for seg in segments for tok in seg]

        para_segments = []
        for segment in segments:
            out = []
            for tok in segment:
                alts = spec.synonyms.get(tok)
                if alts and rng.random() < spec.subst_prob:
                    out.append(alts[rng.integers(len(alts))])
                else:
                    out.append(tok)
            para_segments.append(out)
        rules = [r for r in spec.reorders if len(r) == len(para_segments)]
        if rules and rng.random() < spec.reorder_prob:
            rule = rules[rng.integers(len(rules))]
            para_segments = [para_segments[i] for i in rule]
        target = [tok for seg in para_segments for tok in seg]
        pairs.append((" ".join(source), " ".join(target)))
    # Both sides are natural domain sentences; the unlabeled pool carries
    # the full domain vocabulary while the pairings stay labeled-only.
    sentences = [src for src, _ in pairs] + [tgt for _, tgt in pairs]
    return pairs, sentences


_FUNCTION_WORDS = ["the", "a", "my", "your", "near", "with", "and", "very", "they", "it"]

_SYLLABLES = [
    "ba", "co", "di", "fu", "ga", "he", "ji", "ka", "lo", "mu",
    "na", "pe", "qi", "ro", "su", "ta", "ve", "wo", "xa", "zu",
]


def _word_factory(rng: np.random.Generator, taken: set[str]):
    def new_word() -> str:
        while True:
            n = int(rng.integers(2, 4))
            word = "".join(_SYLLABLES[rng.integers(len(_SYLLABLES))] for _ in range(n))
            if word not in taken and word not in _FUNCTION_WORDS:
                taken.add(word)
                return word

    return new_word


def domain_family(n_domains: int, seed: int, nouns: int = 14, verbs: int = 8,
                  places: int = 8) -> list[DomainSpec]:
    """Build domains with disjoint content vocabularies and synonym maps.

    All domains share function words and template frames, so the paraphrase
    transformation (substitute + reorder) has the same structure everywhere
    while the lexicon shifts per domain. Only nouns get synonyms; verbs and
    places copy through, which keeps source/target sentences of a pair
    lexically related the way real paraphrases are.
    """
    rng = np.random.default_rng(seed)
    taken: set[str] = set()
    new_word = _word_factory(rng, taken)
    specs = []
    for d in range(n_domains):
        words = {
            "noun": [new_word() for _ in range(nouns)],
            "verb": [new_word() for _ in range(verbs)],
            "place": [new_word() for _ in range(places)],
        }
        synonyms = {w: [new_word()] for w in words["noun"]}
        templates = [
            [["the", "{noun}", "can", "{verb}", "a", "{noun}"], ["near", "the", "{place}"]],
            [["my", "{noun}", "will", "{verb}", "the", "{noun}"], ["with", "a", "{noun}"]],
            [["a", "{noun}", "must", "{verb}"], ["near", "a", "{place}"], ["with", "the", "{noun}"]],
            [["the", "{noun}", "in", "the", "{place}", "can", "{verb}"]],
        ]
        reorders = [(1, 0), (2, 0, 1)]
        specs.append(
            DomainSpec(
                name=f"domain{d}",
                seed=int(rng.integers(2**31)),
                words=words,
                synonyms=synonyms,
                templates=templates,
                reorders=reorders,
                subst_prob=1.0,
                reorder_prob=0.6,
            )
        )
    return specs


# ---------------------------------------------------------------------------
# corpora and meta-task sampling
# ---------------------------------------------------------------------------


@dataclass
class SplitPairs:
    train: list[ParaphrasePair]
    valid: list[ParaphrasePair] = field(default_factory=list)
    test: list[ParaphrasePair] = field(default_factory=list)


@dataclass
class CorpusSet:
    """Labeled pairs for one role, keyed by domain label."""

    role: str  # src | tgt
    domains: dict[str, SplitPairs]

    def __post_init__(self):
        if self.role not in ("src", "tgt"):
            raise ValueError(f"unknown corpus role {self.role!r}")


@dataclass
class MetaTask:
    support: list[ParaphrasePair]
    query: list[ParaphrasePair]
    domain: str


def sample_meta_task(corpus: CorpusSet, hyper, rng: np.random.Generator) -> MetaTask:
    """Draw one task: a batch from a single domain, split support/query.

    The support set takes half the batch, rounded half to even, and each
    side keeps at least one pair.
    """
    labels = sorted(corpus.domains)
    if not labels:
        raise TaskSizeError(f"the {corpus.role!r} corpus has no domain to draw a task from")
    domain = labels[rng.integers(len(labels))] if len(labels) > 1 else labels[0]
    train = corpus.domains[domain].train
    if len(train) < hyper.task_batch_size:
        raise TaskSizeError(
            f"domain {domain!r} has {len(train)} train pairs, task needs {hyper.task_batch_size}"
        )
    picked = rng.choice(len(train), size=hyper.task_batch_size, replace=False)
    batch = [train[int(i)] for i in picked]
    if len(batch) < 2:
        raise TaskSizeError("task_batch_size must be >= 2 to split support from query")
    n_support = min(max(1, round(len(batch) / 2)), len(batch) - 1)
    return MetaTask(support=batch[:n_support], query=batch[n_support:], domain=domain)
