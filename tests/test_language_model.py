"""N-gram training, smoothed conditionals and forecast scoring."""

import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from wordbeam import (
    InputValidationError,
    NGRAMS,
    NGRAMS_FORECAST,
    NgramModel,
    PrefixTree,
    ScoringMode,
    TrieScorer,
    WORD_BOUNDARY,
    forecast_sample,
)

from _support import (
    best_completion,
    forecast_for_prefix,
    reference_completions,
    reference_ngram_counts,
    reference_trie,
    trie_node,
)

WC = set("abcdefgh")


class TestTraining:
    def test_bigram_single_observation(self):
        lm = NgramModel.train(["ab"], order=2, smoothing_k=1.0)
        # one observation of b after a, vocab {a, b} plus boundary
        assert lm.num_outcomes == 3
        assert lm.conditional("a", "b") == pytest.approx((1 + 1) / (1 + 1 * 3))

    def test_unigram_frequency(self):
        lm = NgramModel.train(["aa", "aa"], order=1)
        outcomes = ["a", WORD_BOUNDARY]
        probs = {c: lm.conditional("", c) for c in outcomes}
        assert max(probs, key=probs.get) == "a"

    def test_conditionals_sum_to_one(self):
        rng = random.Random(17)
        corpus = [
            "".join(rng.choice("abcd") for _ in range(rng.randint(1, 6)))
            for _ in range(100)
        ]
        for order in (1, 2, 3):
            lm = NgramModel.train(corpus, order=order, smoothing_k=0.5)
            outcomes = sorted(lm.vocabulary) + [WORD_BOUNDARY]
            for prefix in ("", "a", "ab", "dcba", "zz"):
                total = sum(lm.conditional(prefix, c) for c in outcomes)
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_empty_corpus_rejected(self):
        with pytest.raises(InputValidationError):
            NgramModel.train([])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(corpus=st.lists(st.text("ab\u00e9", min_size=1, max_size=5), min_size=1,
                           max_size=15),
           bad=st.lists(st.tuples(st.integers(0, 15),
                                  st.sampled_from(["", WORD_BOUNDARY, "a" + WORD_BOUNDARY])),
                        max_size=2),
           order=st.integers(1, 4))
    def test_counts_match_window_loop(self, corpus, bad, order):
        # Same counts in the same insertion order; for a bad corpus, the
        # first offending word decides the message.
        for i, word in bad:
            corpus.insert(i, word)
        try:
            want = reference_ngram_counts(corpus, order)
        except InputValidationError as exc:
            with pytest.raises(InputValidationError) as err:
                NgramModel.train(corpus, order=order)
            assert str(err.value) == str(exc)
            return
        lm = NgramModel.train(corpus, order=order)
        assert [(ctx, list(ctr.items())) for ctx, ctr in lm._counts.items()] == [
            (ctx, list(ctr.items())) for ctx, ctr in want.items()]
        assert lm.vocabulary == frozenset(ch for word in corpus for ch in word)

    @pytest.mark.parametrize("corpus, message", [
        (["ab", "", "a" + WORD_BOUNDARY], "corpus words must be non-empty"),
        (["ab", "a" + WORD_BOUNDARY, ""], "corpus word contains the boundary sentinel"),
    ])
    def test_first_bad_word_decides_the_error(self, corpus, message):
        with pytest.raises(InputValidationError, match=message):
            NgramModel.train(corpus)

    def test_bad_order_and_k(self):
        with pytest.raises(InputValidationError):
            NgramModel.train(["ab"], order=0)
        for k in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InputValidationError, match="positive and finite"):
                NgramModel.train(["ab"], smoothing_k=k)


class TestForecast:
    """The forecasts and completions the decoder reads from its scorer."""

    def _fixture(self):
        lm = NgramModel.train(["abc", "abc", "abd"], order=2)
        words = ["abc", "abd"]
        return lm, PrefixTree(words, WC), reference_trie(words)

    @staticmethod
    def _forecast(lm, tree, root, prefix, mode):
        return TrieScorer(tree, lm, mode).forecast(trie_node(root, prefix))

    def test_hand_computed_remainders(self):
        lm, tree, root = self._fixture()
        # vocab {a,b,c,d} plus boundary: V = 5
        assert lm.remainder_probability("ab", "c") == pytest.approx((3 / 8) * (3 / 7))
        assert lm.remainder_probability("ab", "d") == pytest.approx((2 / 8) * (2 / 6))
        remainder, _, p = TrieScorer(tree, lm, NGRAMS).complete(trie_node(root, "ab"))
        assert remainder == "c"
        assert p == pytest.approx((3 / 8) * (3 / 7))

    def test_forecast_is_sum_over_completions(self):
        lm, tree, root = self._fixture()
        expected = sum(
            lm.remainder_probability("ab", r) for _, r in reference_completions(root, "ab")
        )
        assert self._forecast(lm, tree, root, "ab", NGRAMS_FORECAST) == pytest.approx(expected)
        assert forecast_for_prefix(lm, root, "ab", NGRAMS_FORECAST) == pytest.approx(expected)

    def test_single_completion(self):
        lm = NgramModel.train(["abc"], order=2)
        tree = PrefixTree(["abc"], WC)
        root = reference_trie(["abc"])
        assert self._forecast(lm, tree, root, "ab", NGRAMS_FORECAST) == pytest.approx(
            lm.remainder_probability("ab", "c")
        )

    def test_dead_prefix_scores_zero(self):
        lm, tree, root = self._fixture()
        # The search only holds live prefixes: a dead one has no trie node.
        assert trie_node(root, "zz") is None
        assert forecast_for_prefix(lm, root, "zz", NGRAMS_FORECAST) == 0.0

    def test_sample_equals_exact_when_large_enough(self):
        lm, tree, root = self._fixture()
        exact = self._forecast(lm, tree, root, "ab", NGRAMS_FORECAST)
        sampled = self._forecast(lm, tree, root, "ab", forecast_sample(sample_size=2, seed=3))
        assert sampled == exact  # 2 completions, sample of 2: no sampling happens

    def test_sampling_deterministic_per_seed(self):
        corpus = [f"a{c}" for c in "bcdefgh"]
        lm = NgramModel.train(corpus, order=2)
        tree, root = PrefixTree(corpus, WC), reference_trie(corpus)
        mode = forecast_sample(sample_size=3, seed=12)
        scorer = TrieScorer(tree, lm, mode)
        first = scorer.forecast(trie_node(root, "a"))
        assert scorer.forecast(trie_node(root, "a")) == first
        assert self._forecast(lm, tree, root, "a", mode) == first  # a fresh scorer agrees
        assert first == forecast_for_prefix(lm, root, "a", mode)  # same draw and arithmetic

    def test_sampling_estimator_unbiased(self):
        # skewed counts so the per-completion probabilities differ and the
        # subsample estimate really varies
        corpus = ["ab"] * 5 + ["ac"] * 3 + ["ad"] * 2 + ["ae", "af", "ag", "ah"]
        lm = NgramModel.train(corpus, order=2)
        tree, root = PrefixTree(sorted(set(corpus)), WC), reference_trie(corpus)
        exact = self._forecast(lm, tree, root, "a", NGRAMS_FORECAST)
        draws = [
            self._forecast(lm, tree, root, "a", forecast_sample(sample_size=3, seed=s))
            for s in range(2000)
        ]
        mean = sum(draws) / len(draws)
        var = sum((d - mean) ** 2 for d in draws) / (len(draws) - 1)
        se = (var / len(draws)) ** 0.5
        assert abs(mean - exact) <= 3 * se


class TestTrieScorerTables:
    def test_index_draw_picks_the_list_draw(self):
        # The sampled forecast draws indices into the lexicographic
        # completion list instead of drawing from the list itself.
        for n in range(2, 400):
            population = [f"w{i:03d}" for i in range(n)]
            for k in (1, 3, 20, 60):
                if k < n:
                    seed = f"forecast|{k}|p{n}"
                    chosen = random.Random(seed).sample(range(n), k)
                    assert [population[i] for i in chosen] == random.Random(seed).sample(
                        population, k)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        words=st.lists(st.text("abc", min_size=1, max_size=5), min_size=1, max_size=12),
        extra=st.lists(st.text("abcd", min_size=1, max_size=4), max_size=6),
        order=st.integers(1, 3),
        smoothing_k=st.sampled_from([0.5, 1.0]),
        data=st.data(),
    )
    def test_tables_match_enumeration(self, words, extra, order, smoothing_k, data):
        tree, root = PrefixTree(words, set("abc")), reference_trie(words)
        lm = NgramModel.train(words + extra, order=order, smoothing_k=smoothing_k)
        sample_mode = forecast_sample(sample_size=2, seed=order)
        exact, sampled = TrieScorer(tree, lm, NGRAMS_FORECAST), TrieScorer(tree, lm, sample_mode)
        prefixes = sorted({w[:i] for w in words for i in range(len(w) + 1)})
        # Query the nodes in any order: each entry must not depend on which
        # node filled the tables first.
        for prefix in data.draw(st.permutations(prefixes)):
            node = trie_node(root, prefix)
            if prefix in words:
                assert exact.word_probability(node) == lm.word_probability(prefix)
            assert exact.forecast(node) == pytest.approx(
                forecast_for_prefix(lm, root, prefix, NGRAMS_FORECAST), rel=1e-12)
            want = forecast_for_prefix(lm, root, prefix, sample_mode)
            if len(reference_completions(root, prefix)) > sample_mode.sample_size:
                assert sampled.forecast(node) == want  # same draw, same sum order
            else:  # the sample covers every completion: the exact table value
                assert sampled.forecast(node) == pytest.approx(want, rel=1e-12)
            remainder, end, p = exact.complete(node)
            assert end == trie_node(root, prefix + remainder) and prefix + remainder in words
            # Bit-identical, ties included: the completion's products run in
            # the order of remainder_probability's.
            assert (prefix + remainder, p) == best_completion(lm, root, prefix)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(words=st.lists(st.text("abé", min_size=1, max_size=6), min_size=1, max_size=30))
    def test_smallest_word_array_equals_sorted_words(self, words):
        # "é" sorts after "a" and "b" by code point, as Python compares text.
        tree = PrefixTree(words, set("abé"))
        scorer = TrieScorer(tree)
        ordered = sorted(set(words))
        for node in range(len(tree._kids)):
            prefix = tree._prefix(node)
            smallest = ordered[bisect_left(ordered, prefix)]
            assert smallest.startswith(prefix)
            word = int(scorer.lexmin[node])
            assert tree._prefix(word) == smallest
            assert scorer.complete(node) == (smallest[len(prefix):], word, 1.0)

    def test_sampled_forecast_is_the_enumerated_draw(self):
        # Samples of three or more terms: the sum runs in draw order.
        rng = random.Random(5)
        words = sorted({"".join(rng.choice("abcd") for _ in range(rng.randint(1, 6)))
                        for _ in range(300)})
        tree, root = PrefixTree(words, set("abcd")), reference_trie(words)
        lm = NgramModel.train(words, order=2)
        for k in (3, 20):
            mode = forecast_sample(sample_size=k, seed=k)
            scorer = TrieScorer(tree, lm, mode)
            sampled = 0
            for prefix in sorted({w[:i] for w in words for i in range(len(w))}):
                if len(reference_completions(root, prefix)) > k:
                    sampled += 1
                    assert scorer.forecast(trie_node(root, prefix)) == (
                        forecast_for_prefix(lm, root, prefix, mode))
            assert sampled >= 5

    def test_completions_equal_in_exact_arithmetic(self):
        # From "" the completions ba and bc score 0.25 * 0.7 and 0.58333 * 0.3
        # after P(b): both 0.175 in exact arithmetic, but the rounded
        # products differ, so a different product order picks another word.
        words = ["a", "c", "ba", "bc", "bcba", "bcba"]
        tree, root = PrefixTree(words, set("abc")), reference_trie(words)
        lm = NgramModel.train(words, order=3, smoothing_k=0.5)
        scorer = TrieScorer(tree, lm, NGRAMS)
        for prefix in ("", "b"):
            remainder, _, p = scorer.complete(trie_node(root, prefix))
            assert (prefix + remainder, p) == best_completion(lm, root, prefix)


class TestScoringMode:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InputValidationError):
            ScoringMode("viterbi")

    def test_sample_size_validated(self):
        with pytest.raises(InputValidationError):
            forecast_sample(sample_size=0)
