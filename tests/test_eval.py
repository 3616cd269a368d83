"""Metric oracles: hand-counted n-gram cases and aggregation checks."""

import math

import numpy as np
import pytest

from metaphrase import data as dt
from metaphrase import metrics as mx

CAT = "the cat sat".split()
CAT_REF = "the cat sat down".split()


def bleu(candidate, references, n, smooth_eps=0.0):
    """BLEU-n of one candidate: corpus BLEU over a one-pair corpus."""
    return mx.corpus_bleu([candidate], [references], n, smooth_eps)


def ibleu(candidate, reference, source, alpha=mx.IBLEU_ALPHA):
    """iBLEU of one candidate from one-pair corpus BLEU-4 scores."""
    return mx.ibleu(bleu(candidate, [reference], 4), bleu(candidate, [source], 4), alpha)


class TestBleu:
    def test_identity_is_one(self):
        assert bleu(CAT_REF, [CAT_REF], 4) == pytest.approx(1.0)

    def test_disjoint_unigrams_zero(self):
        assert bleu("a b c".split(), ["x y z".split()], 1) == 0.0

    def test_hand_counted_bleu2(self):
        # p1 = 3/3, p2 = 2/2, BP = exp(1 - 4/3)
        expected = math.exp(1.0 - 4.0 / 3.0)
        assert bleu(CAT, [CAT_REF], 2) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.7165, abs=5e-5)

    def test_orders_beyond_candidate_length_dropped(self):
        # 3-token candidate has no 4-grams; BLEU-4 falls back to orders 1..3.
        expected = math.exp(1.0 - 4.0 / 3.0)
        assert bleu(CAT, [CAT_REF], 4) == pytest.approx(expected, abs=1e-12)

    def test_bleu1_is_clipped_precision_times_bp(self):
        cand = "the the the cat".split()
        ref = "the cat sat".split()
        # clipped: 'the' min(3,1)=1, 'cat' 1 -> 2/4; BP: c=4 > r=3 -> 1
        assert bleu(cand, [ref], 1) == pytest.approx(0.5)

    def test_multi_reference_clipping_and_bp(self):
        cand = "a b".split()
        refs = ["a x".split(), "b y z".split()]
        # p1 = 2/2 (a from ref1, b from ref2); closest ref length = 2 -> BP 1
        assert bleu(cand, refs, 1) == pytest.approx(1.0)

    def test_permutation_never_beats_identity(self):
        rng = np.random.default_rng(0)
        ref = "w1 w2 w3 w4 w5 w6".split()
        identity = bleu(ref, [ref], 4)
        for _ in range(20):
            perm = list(rng.permutation(ref))
            assert bleu(perm, [ref], 4) <= identity + 1e-12

    def test_markers_stripped(self):
        wrapped = ["<s>"] + CAT + ["</s>"]
        assert bleu(wrapped, [CAT_REF], 2) == pytest.approx(bleu(CAT, [CAT_REF], 2))

    def test_empty_candidate_rejected(self):
        with pytest.raises(ValueError, match="empty candidate"):
            bleu([], [CAT_REF], 2)
        with pytest.raises(ValueError, match="empty reference"):
            bleu(CAT, [[]], 2)

    def test_sentence_smoothing_flagged_path(self):
        cand = "a b".split()
        ref = "a c".split()
        # bigram clipped count is 0: unsmoothed dies, smoothed survives
        assert bleu(cand, [ref], 2) == 0.0
        smoothed = bleu(cand, [ref], 2, smooth_eps=0.1)
        assert 0.0 < smoothed < 1.0


class TestIBleu:
    def test_identity_reference_zero_source_overlap(self):
        cand = "p q r s".split()
        source = "x y z w".split()
        assert ibleu(cand, cand, source, alpha=0.9) == pytest.approx(0.9)

    def test_all_identical(self):
        cand = "p q r s".split()
        assert ibleu(cand, cand, cand, alpha=0.9) == pytest.approx(0.8)

    def test_hand_composition(self):
        # candidate/reference from the BLEU hand case, source = candidate
        expected = 0.9 * math.exp(1.0 - 4.0 / 3.0) - 0.1 * 1.0
        got = ibleu(CAT, CAT_REF, CAT, alpha=0.9)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.5449, abs=5e-5)

    def test_monotone_in_both_arguments(self):
        source = "s1 s2 s3 s4".split()
        ref = "r1 r2 r3 r4 r5".split()
        low = ibleu("r1 r2 r3 r4 x1 x2".split(), ref, source)
        high = ibleu("r1 r2 r3 r4 r5 x1".split(), ref, source)
        assert high > low  # more reference overlap, same (zero) source overlap
        copying = ibleu("r1 r2 r3 r4 s1 s2 s3 s4".split(), ref, source)
        not_copying = ibleu("r1 r2 r3 r4 x1 x2 x3 x4".split(), ref, source)
        assert copying < not_copying  # same reference overlap, source copied

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            mx.ibleu(1.0, 0.0, alpha=1.5)


class TestRouge:
    def test_identity(self):
        assert mx.rouge_n(CAT_REF, CAT_REF, 1) == pytest.approx(1.0)
        assert mx.rouge_n(CAT_REF, CAT_REF, 2) == pytest.approx(1.0)

    def test_disjoint_bigrams(self):
        assert mx.rouge_n("a b".split(), "c d".split(), 2) == 0.0

    def test_hand_counted(self):
        assert mx.rouge_n(CAT, CAT_REF, 1) == pytest.approx(3.0 / 4.0)
        assert mx.rouge_n(CAT, CAT_REF, 2) == pytest.approx(2.0 / 3.0)

    def test_short_reference_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            mx.rouge_n(CAT, ["one"], 2)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            mx.rouge_n(CAT, CAT_REF, 3)


class TestEvalConfig:
    @pytest.mark.parametrize("eps", [0, 0.0, 0.1, 1])
    def test_finite_non_negative_accepted(self, eps):
        assert mx.EvalConfig(smooth_eps=eps).smooth_eps == eps

    @pytest.mark.parametrize("eps", [math.nan, -1.0, math.inf, -math.inf, True, "0.1", None],
                             ids=repr)
    def test_bad_smoothing_rejected(self, eps):
        with pytest.raises(ValueError, match="smooth_eps"):
            mx.EvalConfig(smooth_eps=eps)


class TestCorpus:
    def write(self, tmp_path, name, lines):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_identity_scores_100(self, tmp_path):
        lines = ["the cat sat down", "a dog ran away fast"]
        gen = self.write(tmp_path, "gen.txt", lines)
        ref = self.write(tmp_path, "ref.txt", lines)
        src = self.write(tmp_path, "src.txt", ["x y z w", "q r s t u"])
        report = mx.evaluate_corpus(gen, ref, src)
        for metric in ("BLEU-2", "BLEU-4", "ROUGE-1", "ROUGE-2"):
            assert report.scores[metric] == pytest.approx(100.0)
        assert report.scores["iBLEU"] == pytest.approx(90.0)
        assert report.pairs == 2

    def test_single_pair_equals_sentence_level(self, tmp_path):
        gen = self.write(tmp_path, "gen.txt", ["the cat sat"])
        ref = self.write(tmp_path, "ref.txt", ["the cat sat down"])
        src = self.write(tmp_path, "src.txt", ["the cat sat"])
        report = mx.evaluate_corpus(gen, ref, src)
        # The hand cases of TestBleu and TestIBleu.
        assert report.scores["BLEU-2"] == pytest.approx(
            100.0 * math.exp(1.0 - 4.0 / 3.0), abs=1e-9
        )
        assert report.scores["iBLEU"] == pytest.approx(
            100.0 * (0.9 * math.exp(1.0 - 4.0 / 3.0) - 0.1), abs=1e-9
        )

    def test_three_pair_aggregation_matches_hand_counts(self, tmp_path):
        cands = ["a b c", "a b", "x y z w"]
        refs = ["a b c d", "a q", "x y z"]
        gen = self.write(tmp_path, "gen.txt", cands)
        ref = self.write(tmp_path, "ref.txt", refs)
        src = self.write(tmp_path, "src.txt", ["m n", "m n", "m n o p"])
        report = mx.evaluate_corpus(gen, ref, src)

        # Aggregated unigram: clipped (3 + 1 + 3) / total (3 + 2 + 4)
        # Aggregated bigram:  clipped (2 + 0 + 2) / total (2 + 1 + 3)
        # Lengths: c = 3 + 2 + 4 = 9, r = 4 + 2 + 3 = 9 -> BP = 1
        expected = math.sqrt((7 / 9) * (4 / 6))
        assert report.scores["BLEU-2"] == pytest.approx(100.0 * expected, abs=1e-9)

    def test_line_count_mismatch(self, tmp_path):
        gen = self.write(tmp_path, "gen.txt", ["a b", "c d"])
        ref = self.write(tmp_path, "ref.txt", ["a b"])
        src = self.write(tmp_path, "src.txt", ["a b", "c d"])
        with pytest.raises(ValueError, match="line counts differ"):
            mx.evaluate_corpus(gen, ref, src)

    def test_csv_emission(self, tmp_path):
        lines = ["the cat sat"]
        gen = self.write(tmp_path, "gen.txt", lines)
        ref = self.write(tmp_path, "ref.txt", lines)
        src = self.write(tmp_path, "src.txt", ["u v w"])
        report = mx.evaluate_corpus(gen, ref, src)
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == "metric,value"
        assert any(line.startswith("BLEU-2,100.0000") for line in csv_text.splitlines())

    def test_report_score_ranges(self, tmp_path):
        gen = self.write(tmp_path, "gen.txt", ["a b c", "d e f"])
        ref = self.write(tmp_path, "ref.txt", ["a b x", "d y f"])
        src = self.write(tmp_path, "src.txt", ["a b c", "d e f"])
        report = mx.evaluate_corpus(gen, ref, src)
        for name, value in report.scores.items():
            if name == "iBLEU":
                assert -10.0 - 1e-9 <= value <= 100.0
            else:
                assert 0.0 <= value <= 100.0

    @pytest.mark.parametrize("bad", ["gen.txt", "ref.txt", "src.txt"])
    def test_non_utf8_file_names_path_and_line(self, tmp_path, bad):
        paths = {name: self.write(tmp_path, name, ["a b", "c d"])
                 for name in ("gen.txt", "ref.txt", "src.txt")}
        paths[bad].write_bytes(b"a b\nc \xff d\n")
        with pytest.raises(dt.CorpusFormatError, match=rf"{bad}:2: not UTF-8 text"):
            mx.evaluate_corpus(paths["gen.txt"], paths["ref.txt"], paths["src.txt"])

    def test_lines_split_as_read_lines(self, tmp_path):
        text = "a b\x0bc d\u2028e f\x1cg h\r\ni j\n"
        paths = []
        for name in ("gen.txt", "ref.txt", "src.txt"):
            paths.append(tmp_path / name)
            paths[-1].write_bytes(text.encode())
        assert mx.evaluate_corpus(*paths).pairs == len(dt.read_lines(paths[0])) == 2
