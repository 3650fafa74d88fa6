"""Accuracy, edit distance, splits and report formatting."""

import random

import pytest

from wordbeam import (
    InputValidationError,
    build_report,
    format_report_kv,
    format_report_table,
    length_breakdown,
    levenshtein,
    oov_split,
    word_accuracy,
)
from wordbeam.evaluation import MAX_CONFUSIONS


def random_word(rng, n=6, letters="abcdef"):
    return "".join(rng.choice(letters) for _ in range(rng.randint(0, n)))


class TestWordAccuracy:
    def test_all_correct(self):
        assert word_accuracy(["a", "b"], ["a", "b"]) == 100.0

    def test_case_flag(self):
        assert word_accuracy(["Abc"], ["abc"], case_insensitive=True) == 100.0
        assert word_accuracy(["Abc"], ["abc"], case_insensitive=False) == 0.0

    def test_accents_stay_significant(self):
        assert word_accuracy(["cafe"], ["café"], case_insensitive=True) == 0.0

    def test_unicode_composition_normalized(self):
        assert word_accuracy(["café"], ["café"]) == 100.0

    def test_planted_match_count(self):
        rng = random.Random(6)
        n, k = 1000, 317
        gts = [f"w{i}" for i in range(n)]
        preds = [g if i < k else g + "x" for i, g in enumerate(gts)]
        order = list(range(n))
        rng.shuffle(order)
        acc = word_accuracy([preds[i] for i in order], [gts[i] for i in order])
        assert acc == pytest.approx(100.0 * k / n)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputValidationError):
            word_accuracy(["a"], ["a", "b"])

    def test_empty_inputs_rejected(self):
        with pytest.raises(InputValidationError, match="word_accuracy needs at least one pair"):
            word_accuracy([], [])

    def test_case_insensitive_never_worse(self):
        rng = random.Random(41)
        for _ in range(100):
            n = rng.randint(1, 30)
            gts = [random_word(rng) for _ in range(n)]
            preds = [
                g.upper() if rng.random() < 0.3 else random_word(rng) for g in gts
            ]
            assert word_accuracy(preds, gts, True) >= word_accuracy(preds, gts, False)


class TestLevenshtein:
    def test_insertions(self):
        assert levenshtein("", "abc") == 3

    def test_identity(self):
        assert levenshtein("word", "word") == 0

    def test_classic_pair(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_metric_axioms(self):
        rng = random.Random(10)
        for _ in range(500):
            a, b, c = (random_word(rng, 8) for _ in range(3))
            assert levenshtein(a, b) == levenshtein(b, a)
            assert (levenshtein(a, b) == 0) == (a == b)
            assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestOovSplit:
    def test_basic_partition(self):
        assert oov_split({"a"}, ["a", "b"]) == ([0], [1])

    def test_empty_vocab(self):
        assert oov_split(set(), ["a", "b"]) == ([], [0, 1])

    def test_case_folding(self):
        assert oov_split({"Ab"}, ["ab"], case_insensitive=True) == ([0], [])

    def test_matches_naive_scan(self):
        rng = random.Random(2)
        vocab = {random_word(rng) for _ in range(40)}
        test = [random_word(rng) for _ in range(200)]
        inv, oov = oov_split(vocab, test)
        assert inv == [i for i, w in enumerate(test) if w in vocab]
        assert oov == [i for i, w in enumerate(test) if w not in vocab]
        assert sorted(inv + oov) == list(range(len(test)))


class TestLengthBreakdown:
    def test_single_bucket(self):
        out = length_breakdown(["ab"], ["ab"])
        assert out == {2: (100.0, 1)}

    def test_unequal_lengths_rejected(self):
        with pytest.raises(InputValidationError,
                           match="length_breakdown needs equal-length, non-empty inputs"):
            length_breakdown(["ab"], ["ab", "cd"])

    def test_planted_rates(self):
        gts = ["a"] * 4 + ["bb"] * 5
        preds = ["a"] * 2 + ["x"] * 2 + ["bb"] * 4 + ["x"]
        out = length_breakdown(preds, gts)
        assert out[1] == (50.0, 4)
        assert out[2] == (80.0, 5)

    def test_counts_partition_input(self):
        rng = random.Random(9)
        gts = [random_word(rng) or "q" for _ in range(77)]
        preds = [random_word(rng) or "q" for _ in range(77)]
        out = length_breakdown(preds, gts)
        assert sum(count for _, count in out.values()) == 77


class TestReport:
    def test_report_fields_and_formats(self):
        gts = ["aa", "bb", "ccc"]
        preds = ["aa", "xb", "ccc"]
        report = build_report(preds, gts, train_vocab={"aa", "bb"}, case_insensitive=False)
        assert report.word_accuracy == pytest.approx(200 / 3)
        assert report.inv_count == 2 and report.oov_count == 1
        assert report.inv_accuracy == pytest.approx(50.0)
        assert report.oov_accuracy == pytest.approx(100.0)
        assert report.confusion_samples == [("bb", "xb", 1)]
        table = format_report_table(report)
        kv = format_report_kv(report)
        assert "word_accuracy" in table
        assert "word_accuracy=66.666667" in kv
        assert "length_accuracy.2=50.000000" in kv
        pairs = dict(
            line.split("=", 1) for line in kv.strip().split("\n")
        )
        assert pairs["samples"] == "3"

    def test_confusions_are_the_first_ones_in_input_order(self):
        # Every other pair is misrecognized, more of them than a report lists.
        gts = [f"w{i}" for i in range(3 * MAX_CONFUSIONS)]
        preds = [g if i % 2 else g + "x" for i, g in enumerate(gts)]
        report = build_report(preds, gts)
        listed = gts[0::2][:MAX_CONFUSIONS]
        assert report.confusion_samples == [(g, g + "x", 1) for g in listed]
