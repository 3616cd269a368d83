"""Preprocessing, pair loading, synthetic domains and task sampling."""

import numpy as np
import pytest

from metaphrase import data as dt
from metaphrase.meta import TrainHyper


@pytest.fixture
def vocab():
    return dt.Vocab(["hello", "world", "the", "cat", "sat", "down"] + [f"w{i}" for i in range(30)])


class TestVocab:
    def test_reserved_ids(self, vocab):
        assert [vocab.decode(i) for i in range(5)] == ["<s>", "</s>", "<pad>", "<mask>", "<unk>"]
        assert (dt.BOS, dt.EOS, dt.PAD, dt.MASK, dt.UNK) == (0, 1, 2, 3, 4)

    def test_bijection(self, vocab):
        for tok in vocab.tokens():
            assert vocab.decode(vocab.encode(tok)) == tok

    def test_unknown_maps_to_unk(self, vocab):
        assert vocab.encode("zzzzz") == dt.UNK

    def test_save_load_roundtrip(self, vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = dt.Vocab.load(path)
        assert loaded.tokens() == vocab.tokens()

    def test_rejects_whitespace_token(self):
        with pytest.raises(ValueError):
            dt.Vocab(["two words"])

    @pytest.mark.parametrize("token, message", [
        ("", "invalid vocabulary token ''"),
        ("  ", "invalid vocabulary token '  '"),
        ("cat", "duplicate vocabulary token 'cat'"),
        ("<pad>", "duplicate vocabulary token '<pad>'"),
    ], ids=["blank", "whitespace", "duplicate", "duplicate_reserved"])
    def test_load_names_the_line_of_a_bad_token(self, tmp_path, token, message):
        # A merged duplicate would shift the id of every later token.
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(dt.RESERVED + ("cat", "dog", token, "sat")) + "\n")
        with pytest.raises(dt.CorpusFormatError, match=rf"vocab\.txt:8: {message}$"):
            dt.Vocab.load(path)


class TestPreprocess:
    def test_truncates_to_twenty_content_words(self, vocab):
        sentence = " ".join(f"w{i}" for i in range(25))
        ids = dt.preprocess(sentence, vocab)
        assert len(ids) == 22  # 20 content + markers
        assert ids[0] == dt.BOS and ids[-1] == dt.EOS

    def test_smallest_case_lowercases(self, vocab):
        ids = dt.preprocess("Hello", vocab)
        assert list(ids) == [dt.BOS, vocab.encode("hello"), dt.EOS]

    def test_oov_becomes_unk(self, vocab):
        ids = dt.preprocess("the qqqq cat", vocab)
        assert ids[2] == dt.UNK

    def test_empty_rejected(self, vocab):
        with pytest.raises(ValueError, match="empty"):
            dt.preprocess("   ", vocab)

    def test_idempotent_on_short_preprocessed_text(self, vocab):
        rng = np.random.default_rng(0)
        tokens = vocab.tokens()[5:]
        for _ in range(20):
            words = [tokens[i] for i in rng.integers(0, len(tokens), size=rng.integers(1, 15))]
            once = dt.preprocess(" ".join(words), vocab)
            again = dt.preprocess(dt.detokenize(once, vocab), vocab)
            assert np.array_equal(once, again)


class TestLoadPairs:
    def test_wellformed(self, vocab, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("hello world\tworld hello\nthe cat\tcat the\n")
        pairs = dt.load_pairs(path, vocab)
        assert len(pairs) == 2
        assert list(pairs[0].src[1:-1]) == [vocab.encode("hello"), vocab.encode("world")]

    def test_bad_column_count_names_line(self, vocab, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\nx\ty\tz\tw\n")
        with pytest.raises(dt.CorpusFormatError, match=":2:"):
            dt.load_pairs(path, vocab)

    @pytest.mark.parametrize("line", ["\tworld hello", "hello world\t  "],
                             ids=["empty_source", "whitespace_target"])
    def test_empty_side_names_line(self, vocab, tmp_path, line):
        path = tmp_path / "pairs.tsv"
        path.write_text(f"hello\tworld\n{line}\n")
        with pytest.raises(dt.CorpusFormatError, match=r"pairs\.tsv:2: sentence is empty"):
            dt.load_pairs(path, vocab)

    def test_comments_skipped(self, vocab, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("# header comment\nhello\tworld\n")
        assert len(dt.load_pairs(path, vocab)) == 1

    def test_empty_file_rejected(self, vocab, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("# only a comment\n")
        with pytest.raises(dt.CorpusFormatError, match="no pairs"):
            dt.load_pairs(path, vocab)


@pytest.mark.parametrize("read", [
    dt.Vocab.load,
    lambda path: dt.load_pairs(path, dt.Vocab(["hello", "world"])),
    lambda path: dt.load_sentences(path, dt.Vocab(["hello", "world"])),
], ids=["vocab", "pairs", "sentences"])
def test_non_utf8_file_names_path_and_line(tmp_path, read):
    path = tmp_path / "corpus.txt"
    text = "\n".join(dt.RESERVED + ("hello\tworld",)) + "\n"
    path.write_bytes(text.encode() + b"hello \xff\tworld\n")
    with pytest.raises(dt.CorpusFormatError, match=r"corpus\.txt:7: not UTF-8 text"):
        read(path)


@pytest.mark.parametrize("raw, lines", [
    (b"", []),
    (b"a\nb", ["a", "b"]),
    (b"a\r\nb\rc\n\n", ["a", "b", "c", ""]),
    (b"a\x1cb\x0cc\n", ["a\x1cb\x0cc"]),
], ids=["empty", "no_final_newline", "newline_forms", "other_separators_kept"])
def test_read_lines_splits_as_text_mode_open(tmp_path, raw, lines):
    path = tmp_path / "lines.txt"
    path.write_bytes(raw)
    with open(path, encoding="utf-8") as fh:
        assert [line.rstrip("\n") for line in fh] == lines
    assert dt.read_lines(path) == lines


def small_spec(**kw):
    base = dict(
        name="toy",
        seed=7,
        words={"noun": ["cat", "dog"], "verb": ["runs", "eats"]},
        synonyms={"cat": ["feline"], "runs": ["sprints"]},
        templates=[
            [["the", "{noun}", "{verb}"], ["near", "the", "{noun}"]],
        ],
        reorders=[(1, 0)],
        subst_prob=1.0,
        reorder_prob=0.5,
    )
    base.update(kw)
    return dt.DomainSpec(**base)


class TestSynthDomain:
    def test_deterministic(self):
        spec = small_spec()
        assert dt.synth_domain(spec, 50) == dt.synth_domain(spec, 50)

    def test_degenerate_spec_copies(self):
        spec = small_spec(synonyms={}, reorders=[])
        pairs, sentences = dt.synth_domain(spec, 30)
        assert all(x == y for x, y in pairs)
        assert sentences == [x for x, _ in pairs] + [y for _, y in pairs]

    def test_substitution_applies(self):
        spec = small_spec(reorder_prob=0.0)
        pairs, _ = dt.synth_domain(spec, 40)
        changed = [1 for x, y in pairs if x != y]
        assert changed  # synonym map is non-empty and subst_prob = 1

    def test_disjoint_domains_share_no_pairs(self):
        specs = dt.domain_family(2, seed=1)
        pairs_a, _ = dt.synth_domain(specs[0], 200)
        pairs_b, _ = dt.synth_domain(specs[1], 200)
        assert not set(pairs_a) & set(pairs_b)
        vocab_a = specs[0].vocabulary()
        vocab_b = specs[1].vocabulary()
        assert not vocab_a & vocab_b
        assert not set(specs[0].synonyms) & set(specs[1].synonyms)

    def test_bad_template_slot_rejected(self):
        with pytest.raises(ValueError, match="slot"):
            small_spec(templates=[[["the", "{ghost}"]]])

    def test_synonym_not_closed_rejected(self):
        with pytest.raises(ValueError, match="closed"):
            small_spec(synonyms={"zebra": ["horse"]})

    def test_bad_reorder_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            small_spec(reorders=[(0, 2)])


def pairs_from_texts(texts, vocab):
    return [
        dt.ParaphrasePair(dt.preprocess(a, vocab), dt.preprocess(b, vocab))
        for a, b in texts
    ]


class TestSampling:
    def make_corpus(self, n=30):
        specs = dt.domain_family(2, seed=3)
        vocab = dt.Vocab()
        all_pairs = {}
        for spec in specs:
            texts, _ = dt.synth_domain(spec, n)
            for a, b in texts:
                for tok in (a + " " + b).split():
                    vocab.add(tok)
            all_pairs[spec.name] = texts
        domains = {
            name: dt.SplitPairs(train=pairs_from_texts(texts, vocab))
            for name, texts in all_pairs.items()
        }
        return dt.CorpusSet(role="src", domains=domains)

    # Half the batch, rounded half to even, with at least one pair on each side.
    @pytest.mark.parametrize("size, n_support, n_query",
                             [(2, 1, 1), (3, 2, 1), (4, 2, 2), (5, 2, 3), (7, 4, 3), (10, 5, 5)])
    def test_split_sizes(self, size, n_support, n_query):
        corpus = self.make_corpus()
        hyper = TrainHyper(task_batch_size=size)
        task = dt.sample_meta_task(corpus, hyper, np.random.default_rng(0))
        assert len(task.support) == n_support and len(task.query) == n_query

    def test_deterministic_under_rng(self):
        corpus = self.make_corpus()
        hyper = TrainHyper(task_batch_size=10)
        a = dt.sample_meta_task(corpus, hyper, np.random.default_rng(9))
        b = dt.sample_meta_task(corpus, hyper, np.random.default_rng(9))
        assert a.domain == b.domain
        for pa, pb in zip(a.support + a.query, b.support + b.query):
            assert np.array_equal(pa.src, pb.src) and np.array_equal(pa.tgt, pb.tgt)

    def test_exhausts_small_corpus(self):
        corpus = self.make_corpus(n=10)
        name = sorted(corpus.domains)[0]
        corpus = dt.CorpusSet(role="src", domains={name: corpus.domains[name]})
        hyper = TrainHyper(task_batch_size=10)
        task = dt.sample_meta_task(corpus, hyper, np.random.default_rng(1))
        drawn = {id(p) for p in task.support + task.query}
        assert drawn == {id(p) for p in corpus.domains[name].train}

    def test_single_domain_membership(self):
        corpus = self.make_corpus()
        hyper = TrainHyper(task_batch_size=6)
        rng = np.random.default_rng(2)
        for _ in range(10):
            task = dt.sample_meta_task(corpus, hyper, rng)
            train = corpus.domains[task.domain].train
            member_ids = {id(p) for p in train}
            assert all(id(p) in member_ids for p in task.support + task.query)

    def test_too_small_corpus_rejected(self):
        corpus = self.make_corpus(n=5)
        hyper = TrainHyper(task_batch_size=10)
        with pytest.raises(dt.TaskSizeError, match="train pairs"):
            dt.sample_meta_task(corpus, hyper, np.random.default_rng(0))

    def test_corpus_with_no_domain_rejected(self):
        corpus = dt.CorpusSet(role="src", domains={})
        with pytest.raises(dt.TaskSizeError, match="'src' corpus has no domain"):
            dt.sample_meta_task(corpus, TrainHyper(task_batch_size=4), np.random.default_rng(0))

    def test_one_pair_task_cannot_split(self):
        corpus = self.make_corpus()
        with pytest.raises(dt.TaskSizeError, match="split support from query"):
            dt.sample_meta_task(corpus, TrainHyper(task_batch_size=1), np.random.default_rng(0))


class TestSplitsAndPadding:
    def test_pad_batch(self):
        ids, mask = dt.pad_batch([np.array([0, 7, 1]), np.array([0, 1])])
        assert ids.shape == (2, 3)
        assert list(ids[1]) == [0, 1, dt.PAD]
        assert mask.sum() == 5
