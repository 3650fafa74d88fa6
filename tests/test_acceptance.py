"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criteria 5 to 7 share one full-scale synthetic
trend experiment (5 seeds x 1000 words x 10 ensemble members).
"""

import itertools
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from wordbeam import (
    Alphabet,
    Hypothesis,
    NGRAMS_FORECAST,
    NgramModel,
    PrefixTree,
    TrieScorer,
    best_path_decode,
    decode,
    forecast_sample,
    levenshtein,
    vote,
    word_accuracy,
)
from wordbeam.cli import EXIT_OK, main
from wordbeam.trends import TrendConfig, run_trend_experiment

from _support import (
    constrained_argmax,
    labeling_distribution,
    naive_best_path,
    random_matrix,
    reference_trie,
    scorer_forecast,
    trie_node,
)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num:2d}: {description}")
        raise
    print(f"\n[PASS] criterion {num:2d}: {description}")


@pytest.fixture(scope="module")
def trend():
    start = time.monotonic()
    report = run_trend_experiment(TrendConfig())
    elapsed = time.monotonic() - start
    return report, elapsed


def test_criterion_1_decoder_oracle_equivalence():
    with criterion(1, "constrained decoder equals exhaustive argmax, 200/200"):
        rng = np.random.default_rng(20260810)
        py_rng = random.Random(20260810)
        pool = [
            "".join(p)
            for k in (1, 2, 3)
            for p in itertools.product("abc", repeat=k)
        ]
        start = time.monotonic()
        for i in range(200):
            use_nonword = i % 2 == 1
            alphabet = Alphabet("abc" + ("." if use_nonword else ""))
            words = py_rng.sample(pool, py_rng.randint(1, 8))
            tree = PrefixTree(words, set("abc"))
            t = int(rng.integers(2, 7))
            m = random_matrix(rng, t, alphabet.num_classes)
            got_label, got_p = decode(m, alphabet, tree, width=10_000)
            exp_label, exp_p = constrained_argmax(
                labeling_distribution(m, alphabet), reference_trie(words), tree.word_chars
            )
            assert got_label == exp_label, f"instance {i}: {got_label!r} != {exp_label!r}"
            assert abs(got_p - exp_p) <= 1e-9, f"instance {i}"
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_partition_of_unity():
    with criterion(2, "labeling probabilities sum to 1 +- 1e-9 on 50 matrices"):
        rng = np.random.default_rng(88)
        for _ in range(50):
            c = int(rng.integers(2, 7))
            t_max = 1
            while c ** (t_max + 1) <= 100_000:
                t_max += 1
            t = int(rng.integers(1, t_max + 1))
            m = random_matrix(rng, t, c)
            dist = labeling_distribution(m, Alphabet("abcdef"[: c - 1]))
            assert abs(sum(dist.values()) - 1.0) <= 1e-9


def test_criterion_3_best_path_definition():
    with criterion(3, "best path equals row-argmax collapse with exact product, 1000x"):
        rng = np.random.default_rng(1003)
        for _ in range(1000):
            t = int(rng.integers(1, 9))
            c = int(rng.integers(2, 7))
            m = random_matrix(rng, t, c)
            alphabet = Alphabet("abcde"[: c - 1])
            got = best_path_decode(m, alphabet)
            expected = naive_best_path(m, alphabet)
            assert got[0] == expected[0]
            assert got[1] == expected[1]  # bit-exact by construction


def test_criterion_4_forecast_sampling_estimator():
    with criterion(4, "sampled forecast unbiased within 3 SE and exact when exhaustive"):
        corpus = ["ab"] * 6 + ["ac"] * 3 + ["ad"] * 2 + ["ae", "af", "ag", "ah"]
        lm = NgramModel.train(corpus, order=2)
        tree = PrefixTree(sorted(set(corpus)), set("abcdefgh"))
        node = trie_node(reference_trie(corpus), "a")

        def forecast(mode):  # the value the decoder reads for prefix "a"
            return scorer_forecast(TrieScorer(tree, lm, mode), node)

        exact = forecast(NGRAMS_FORECAST)
        draws = [forecast(forecast_sample(sample_size=3, seed=s)) for s in range(10_000)]
        mean = sum(draws) / len(draws)
        var = sum((d - mean) ** 2 for d in draws) / (len(draws) - 1)
        se = (var / len(draws)) ** 0.5
        assert abs(mean - exact) <= 3 * se, f"mean {mean} vs exact {exact} (se {se})"
        # sample size >= number of completions: exact equality, not approximate
        covering = forecast(forecast_sample(sample_size=7, seed=1))
        assert covering == exact


def test_criterion_5_ensemble_trend(trend):
    report, elapsed = trend
    with criterion(5, "voting gains: acc(5) >= acc(1) + 2 pp with diminishing returns"):
        acc1 = report.mean_ensemble(1)
        acc5 = report.mean_ensemble(5)
        acc10 = report.mean_ensemble(10)
        assert 80.0 <= acc1 <= 92.0, f"single-recognizer accuracy {acc1:.2f} off band"
        assert acc5 >= acc1 + 2.0, f"acc(5)={acc5:.2f} vs acc(1)={acc1:.2f}"
        assert (acc5 - acc1) > (acc10 - acc5), "no diminishing returns"
        assert elapsed < 120.0, f"trend run took {elapsed:.1f}s"
        print(
            f"  acc(1)={acc1:.2f} acc(5)={acc5:.2f} acc(10)={acc10:.2f} "
            f"runtime={elapsed:.1f}s",
            end="",
        )


def test_criterion_6_dictionary_benefit(trend):
    report, _ = trend
    with criterion(6, "word beam search beats best path by >= 3 pp at every seed"):
        for outcome in report.outcomes:
            gap = outcome.wbs_extrasep - outcome.bestpath_extrasep
            assert gap >= 3.0, f"seed {outcome.seed}: gap {gap:.2f} pp"


def test_criterion_7_extra_separator_non_inferiority(trend):
    report, _ = trend
    with criterion(7, "extra-separator coding within 0.5 pp of plain (means reported)"):
        mean_plain = report.mean("wbs_plain")
        mean_x = report.mean("wbs_extrasep")
        print(
            f"  mean accuracy: plain={mean_plain:.2f} extra-separator={mean_x:.2f}",
        )
        assert mean_x >= mean_plain - 0.5


def hyp(*pairs):
    return [Hypothesis(t, p) for t, p in pairs]


VOTING_FIXTURE = [
    # unique largest group: likelihoods must not matter
    (hyp(("a", 0.5), ("a", 0.1), ("b", 0.9), ("c", 0.8), ("d", 0.7)), "a"),
    (hyp(("b", 0.0), ("b", 0.0), ("b", 0.0), ("a", 1.0), ("a", 1.0)), "b"),
    (hyp(("e", 0.2), ("e", 0.2), ("e", 0.2), ("e", 0.2), ("e", 0.2)), "e"),
    (hyp(("x", 0.9), ("y", 0.1), ("y", 0.2), ("x", 0.3), ("x", 0.1)), "x"),
    # tied largest groups: higher mean likelihood wins
    (hyp(("a", 0.2), ("a", 0.3), ("b", 0.6), ("b", 0.1), ("c", 0.9)), "b"),  # .25 vs .35
    (hyp(("a", 0.8), ("a", 0.6), ("b", 0.6), ("b", 0.1), ("c", 0.9)), "a"),  # .7 vs .35
    (hyp(("a", 0.4), ("b", 0.4), ("a", 0.2), ("b", 0.2), ("c", 0.9)), "a"),  # mean tie -> lex
    # all groups size one: highest likelihood, then lexicographic
    (hyp(("a", 0.2), ("b", 0.3), ("c", 0.4), ("d", 0.1), ("e", 0.0)), "c"),
    (hyp(("d", 0.4), ("b", 0.4), ("c", 0.1), ("a", 0.2), ("e", 0.3)), "b"),
]


def test_criterion_8_voting_truth_table():
    with criterion(8, "voting cascade matches hand winners; 1000-shuffle invariance"):
        for hyps, expected in VOTING_FIXTURE:
            assert vote(hyps).text == expected, f"{hyps} -> {expected}"
        rng = random.Random(2026)
        for i in range(1000):
            hyps, expected = VOTING_FIXTURE[i % len(VOTING_FIXTURE)]
            shuffled = list(hyps)
            rng.shuffle(shuffled)
            assert vote(shuffled).text == expected


def test_criterion_9_metric_properties():
    with criterion(9, "edit-distance metric axioms and case-folding monotonicity"):
        rng = random.Random(9001)
        letters = "abcdxyz"
        for _ in range(10_000):
            a, b, c = (
                "".join(rng.choice(letters) for _ in range(rng.randint(0, 7)))
                for _ in range(3)
            )
            d_ab = levenshtein(a, b)
            assert d_ab == levenshtein(b, a)
            assert (d_ab == 0) == (a == b)
            assert levenshtein(a, c) <= d_ab + levenshtein(b, c)
        for _ in range(100):
            n = rng.randint(1, 40)
            gts = ["".join(rng.choice("abC") for _ in range(3)) for _ in range(n)]
            preds = [
                g.swapcase() if rng.random() < 0.5 else g + rng.choice("ab")
                for g in gts
            ]
            assert word_accuracy(preds, gts, True) >= word_accuracy(preds, gts, False)


def test_criterion_10_reproduce_trends_determinism(tmp_path):
    with criterion(10, "reproduce-trends reports are byte-identical for equal seeds"):
        args = [
            "reproduce-trends", "--seed", "5", "--seeds", "2", "--n-words", "40",
            "--members", "3",
        ]
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        assert main([*args, "--out", str(out1)]) == EXIT_OK
        assert main([*args, "--out", str(out2)]) == EXIT_OK
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        assert b1  # non-empty report
