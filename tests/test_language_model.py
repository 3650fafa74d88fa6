"""N-gram training, smoothed conditionals and forecast scoring."""

import random
import tracemalloc
from bisect import bisect_left
from itertools import permutations

import numpy as np

import pytest
from hypothesis import example, given, settings, strategies as st

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
    conditional,
    forecast_for_prefix,
    model_counts,
    node_prefixes,
    ref_find,
    reference_completions,
    reference_forecast,
    reference_ngram_counts,
    reference_trie,
    remainder_probability,
    scorer_completion,
    trie_node,
    word_probability,
)

WC = set("abcdefgh")
_WIDE = "".join(map(chr, range(0x100, 0x150)))  # 80 characters


class TestTraining:
    def test_bigram_single_observation(self):
        lm = NgramModel.train(["ab"], order=2, smoothing_k=1.0)
        # one observation of b after a, vocab {a, b} plus boundary
        assert lm.num_outcomes == 3
        assert conditional(lm, "a", "b") == pytest.approx((1 + 1) / (1 + 1 * 3))

    def test_unigram_frequency(self):
        lm = NgramModel.train(["aa", "aa"], order=1)
        outcomes = ["a", WORD_BOUNDARY]
        probs = {c: conditional(lm, "", c) for c in outcomes}
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
                total = sum(conditional(lm, prefix, c) for c in outcomes)
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_empty_corpus_rejected(self):
        with pytest.raises(InputValidationError):
            NgramModel.train([])

    # An astral character, so that code points need more than two bytes, and
    # orders up to 12. The example's 81 symbols would make a window of 12 a
    # number beyond 2**76, so its codes are renumbered on the way.
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(corpus=st.lists(st.text("ab\u00e9\U0001d11e", min_size=1, max_size=5), min_size=1,
                           max_size=15),
           bad=st.lists(st.tuples(st.integers(0, 15),
                                  st.sampled_from(["", WORD_BOUNDARY, "a" + WORD_BOUNDARY])),
                        max_size=2),
           order=st.integers(1, 12))
    @example(corpus=[_WIDE[:40], _WIDE[40:], _WIDE[::-1], _WIDE[:40]], bad=[], order=12)
    def test_counts_match_window_loop(self, corpus, bad, order):
        # The same counts; for a bad corpus, the first offending word decides
        # the message.
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
        assert model_counts(lm) == {ctx: dict(ctr) for ctx, ctr in want.items()}
        assert lm.vocabulary == frozenset(ch for word in corpus for ch in word)

    # Prefixes longer than every word, characters outside the vocabulary, a
    # boundary inside the prefix, after which the context starts afresh, and
    # in the example a context whose newest nine characters training never
    # had: its code, renumbered, lands next to a trained one's.
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(corpus=st.lists(st.text("ab\u00e9\U0001d11e", min_size=1, max_size=4), min_size=1,
                           max_size=10),
           prefix=st.text("abc\u00e9\U0001d11e" + WORD_BOUNDARY, max_size=7),
           c=st.sampled_from("abc\u00e9\U0001d11e" + WORD_BOUNDARY),
           order=st.integers(1, 8), smoothing_k=st.sampled_from([0.5, 1.0]))
    @example(corpus=[_WIDE[:40], _WIDE[40:], _WIDE[::-1], _WIDE[:40]],
             prefix=_WIDE[9:19] + _WIDE[18], c=_WIDE[20], order=12, smoothing_k=1.0)
    @example(corpus=["ab", "ba"], prefix="a" + WORD_BOUNDARY + "b", c="a", order=4,
             smoothing_k=1.0)
    def test_conditional_is_the_smoothed_count(self, corpus, prefix, c, order, smoothing_k):
        word = prefix.rpartition(WORD_BOUNDARY)[2]
        counts = reference_ngram_counts(corpus, order).get(
            (WORD_BOUNDARY * (order - 1) + word)[len(word):], {})
        lm = NgramModel.train(corpus, order=order, smoothing_k=smoothing_k)
        assert conditional(lm, prefix, c) == (counts.get(c, 0) + smoothing_k) / (
            sum(counts.values()) + smoothing_k * lm.num_outcomes)

    def test_training_on_fifty_thousand_words_keeps_little_memory(self):
        # The dictionary of the trie's memory test: one narrow code per window
        # and the count of them, a few MiB, where the per-window counter this
        # replaced took 0.4 MiB.
        words = _fifty_thousand_words()
        lm, peak = _trained(words, 2)
        assert peak <= 6 * 2**20
        assert int(lm.totals.sum()) == sum(map(len, words)) + len(words)

    def test_order_five_training_on_fifty_thousand_words(self):
        # A dict of counters per context peaked at 72.5 MiB here.
        words = _fifty_thousand_words()
        lm, peak = _trained(words, 5)
        assert peak <= 36 * 2**20
        assert int(lm.totals.sum()) == sum(map(len, words)) + len(words)

    def test_orders_past_the_longest_word_change_nothing(self):
        # A context never holds more than the longest word, 12 letters here,
        # so order 13 and order 10,000 are the same model, at the same cost.
        rng = random.Random(13)
        words = ["".join(rng.choices("abcdef", k=rng.randint(1, 12))) for _ in range(2_000)]
        words.append("abcdefabcdef")
        tree = PrefixTree(words, set("abcdef"))
        mode = forecast_sample(sample_size=3, seed=1)
        (short, short_peak), (long, long_peak) = _trained(words, 13), _trained(words, 10_000)
        assert long_peak <= 1.25 * short_peak
        for prefix in ("", "a", "abcdef", "abcdefabcde", "abcdefabcdef", "fedcbafedcbaf"):
            for c in "abcdefg" + WORD_BOUNDARY:
                assert conditional(long, prefix, c) == conditional(short, prefix, c)
        for word in words[:200] + ["abcdefabcdefa", "zz"]:
            assert word_probability(long, word) == word_probability(short, word)
        tables = [TrieScorer(tree, lm, mode) for lm in (short, long)]
        for name in ("step", "end", "word_prob", "exact", "counts"):
            assert getattr(tables[1], name) == getattr(tables[0], name), name

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


def _fifty_thousand_words() -> list[str]:
    rng = random.Random(50_000)
    letters = "abcdefghijklmnopqrstuvwxyz"
    return ["".join(rng.choices(letters, k=rng.randint(2, 12))) for _ in range(50_000)]


def _trained(words: list[str], order: int) -> tuple[NgramModel, int]:
    """The model of ``words`` at ``order`` and the tracemalloc peak of training it."""
    tracemalloc.start()
    try:
        lm = NgramModel.train(words, order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return lm, peak


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
        assert remainder_probability(lm, "ab", "c") == pytest.approx((3 / 8) * (3 / 7))
        assert remainder_probability(lm, "ab", "d") == pytest.approx((2 / 8) * (2 / 6))
        scorer = TrieScorer(tree, lm, NGRAMS)
        remainder, _, p = scorer_completion(tree, scorer, trie_node(root, "ab"))
        assert remainder == "c"
        assert p == pytest.approx((3 / 8) * (3 / 7))

    def test_forecast_is_sum_over_completions(self):
        lm, tree, root = self._fixture()
        expected = sum(
            remainder_probability(lm, "ab", r) for _, r in reference_completions(root, "ab")
        )
        assert self._forecast(lm, tree, root, "ab", NGRAMS_FORECAST) == pytest.approx(expected)
        assert forecast_for_prefix(lm, root, "ab", NGRAMS_FORECAST) == pytest.approx(expected)

    def test_single_completion(self):
        lm = NgramModel.train(["abc"], order=2)
        tree = PrefixTree(["abc"], WC)
        root = reference_trie(["abc"])
        assert self._forecast(lm, tree, root, "ab", NGRAMS_FORECAST) == pytest.approx(
            remainder_probability(lm, "ab", "c")
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
                assert exact.word_probability(node) == word_probability(lm, prefix)
            reference = reference_forecast(lm, ref_find(root, prefix), prefix)
            assert exact.forecast(node) == reference
            if len(reference_completions(root, prefix)) > sample_mode.sample_size:
                # Same draw, same sum order.
                assert sampled.forecast(node) == forecast_for_prefix(lm, root, prefix, sample_mode)
            else:  # the sample covers every completion: the exact table value
                assert sampled.forecast(node) == reference
            remainder, end, p = scorer_completion(tree, exact, node)
            assert end == trie_node(root, prefix + remainder) and prefix + remainder in words
            # Bit-identical, ties included: the completion's products run in
            # the order of remainder_probability's.
            assert (prefix + remainder, p) == best_completion(lm, root, prefix)

    # Every dictionary has an astral character, whose code point takes four
    # bytes. With ``lacking`` the model is trained on a corpus of its own
    # without it, as ``--lm-corpus`` allows: the contexts that hold it are
    # ones the model never saw.
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        words=st.lists(st.text("abé\U0001d11e", min_size=1, max_size=5), max_size=12),
        extra=st.lists(st.text("abé", min_size=1, max_size=4), min_size=1, max_size=6),
        lacking=st.booleans(),
        order=st.integers(1, 5) | st.just(40),  # 40: longer than every word
        smoothing_k=st.sampled_from([0.5, 1.0]),
    )
    def test_tables_equal_model_and_recursion_at_every_node(self, words, extra, lacking, order,
                                                            smoothing_k):
        words = words + ["b\U0001d11e"]
        corpus = words + extra
        if lacking:
            corpus = [w for w in corpus if "\U0001d11e" not in w]
        tree, root = PrefixTree(words, set("abé\U0001d11e")), reference_trie(words)
        lm = NgramModel.train(corpus, order=order, smoothing_k=smoothing_k)
        scorer = TrieScorer(tree, lm, forecast_sample(sample_size=2, seed=order))
        word_only = TrieScorer(tree, lm, NGRAMS)
        assert word_only.word_prob == scorer.word_prob and word_only.exact is None
        for node, prefix in enumerate(node_prefixes(root)):
            p = scorer.word_probability(node)
            assert type(p) is float and p == word_probability(lm, prefix)
            f = scorer.exact[node]
            assert type(f) is float and f == reference_forecast(lm, ref_find(root, prefix), prefix)
            assert scorer.counts[node] == len(reference_completions(root, prefix))

    def test_tables_where_context_codes_are_renumbered(self):
        # 81 symbols at order 12: a context's code would pass 2**63 on the
        # way, so it is renumbered, as training renumbers its window codes.
        words = [_WIDE[:40], _WIDE[40:], _WIDE[::-1], _WIDE[:20] + _WIDE[60:], _WIDE[:3]]
        tree, root = PrefixTree(words, set(_WIDE)), reference_trie(words)
        lm = NgramModel.train(words + [_WIDE[10:30]], order=12)
        scorer = TrieScorer(tree, lm, NGRAMS_FORECAST)
        for node, prefix in enumerate(node_prefixes(root)):
            assert scorer.word_probability(node) == word_probability(lm, prefix)
            assert scorer.exact[node] == reference_forecast(lm, ref_find(root, prefix), prefix)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(words=st.lists(st.text("abé", min_size=1, max_size=6), min_size=1, max_size=30))
    def test_smallest_word_array_equals_sorted_words(self, words):
        # "é" sorts after "a" and "b" by code point, as Python compares text.
        tree = PrefixTree(words, set("abé"))
        scorer = TrieScorer(tree)
        ordered = sorted(set(words))
        for node in range(len(tree._first) - 1):
            prefix = tree._prefix(node)
            smallest = ordered[bisect_left(ordered, prefix)]
            assert smallest.startswith(prefix)
            word = int(scorer.lexmin[node])
            assert tree._prefix(word) == smallest
            assert scorer_completion(tree, scorer, node) == (smallest[len(prefix):], word, 1.0)

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
            remainder, _, p = scorer_completion(tree, scorer, trie_node(root, prefix))
            assert (prefix + remainder, p) == best_completion(lm, root, prefix)


class TestBestCompletions:
    """``via`` and the completions walked along it against ``_search`` and
    enumeration, at every node."""

    @staticmethod
    def _closed(words, swapped, permuted):
        """``words`` with each word's a/b swap (the model then scores a word
        and its swap alike, exact ties) and the orders of the letters of the
        first ``permuted`` words (equal products in exact arithmetic, which
        rounding parts by a few ulps)."""
        out = set(words)
        if swapped:
            out |= {w.translate(str.maketrans("ab", "ba")) for w in words}
        for w in words[:permuted]:
            out |= {"".join(p) for p in permutations(w)}
        return sorted(out)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        words=st.lists(st.text("abc", min_size=1, max_size=5), min_size=1, max_size=10),
        swapped=st.booleans(),
        permuted=st.integers(0, 3),
        order=st.integers(1, 5),
        smoothing_k=st.sampled_from([0.5, 1.0]),
    )
    def test_completions_equal_search_at_every_node(self, words, swapped, permuted, order,
                                                    smoothing_k):
        words = self._closed(words, swapped, permuted)
        tree, root = PrefixTree(words, set("abc")), reference_trie(words)
        lm = NgramModel.train(words, order=order, smoothing_k=smoothing_k)
        scorer = TrieScorer(tree, lm, NGRAMS)
        nodes = np.arange(len(tree._first) - 1, dtype=np.intc)
        word, p = scorer.completions_at(nodes)
        via = np.asarray(scorer.via)
        for node, prefix in enumerate(node_prefixes(root)):
            end, prob = scorer._search(node)
            remainder = tree._prefix(end, node)
            assert (int(word[node]), float(p[node])) == (end, prob)
            assert (prefix + remainder, prob) == best_completion(lm, root, prefix)
            if via[node] >= 0:  # certain: the chain of ``via`` reaches the word
                hop = node
                while via[hop] != hop:
                    hop = int(via[hop])
                assert hop == end

    def test_search_runs_only_at_uncertain_nodes(self, monkeypatch):
        # Swapped and permuted words at order 1: exact ties and near-ties.
        words = self._closed(["abc", "aab", "bca", "cab", "ab", "ccab"], True, 4)
        tree, root = PrefixTree(words, set("abc")), reference_trie(words)
        lm = NgramModel.train(words, order=1)
        scorer = TrieScorer(tree, lm, NGRAMS)
        searched = []
        search = TrieScorer._search
        monkeypatch.setattr(TrieScorer, "_search",
                            lambda self, node: searched.append(node) or search(self, node))
        nodes = np.arange(len(tree._first) - 1, dtype=np.intc)
        scorer.completions_at(nodes)
        for node, prefix in enumerate(node_prefixes(root)):
            remainder, _, p = scorer_completion(tree, scorer, node)
            assert (prefix + remainder, p) == best_completion(lm, root, prefix)
        uncertain = np.flatnonzero(np.asarray(scorer.via) < 0).tolist()
        assert 0 < len(uncertain) < len(nodes) // 2
        assert searched == uncertain  # once each: the memo serves the second ask

    def test_products_below_the_normal_range_are_searched(self):
        # Completions of 700 to 750 factors below 0.4: their products lie
        # below 2**-1000 (the last one underflows to 0.0), where ``via`` does
        # not trust rounding bounds unless a node has one completion.
        words = ["a" * 750, "a" * 749 + "b", "b" * 700]
        tree, root = PrefixTree(words, set("ab")), reference_trie(words)
        lm = NgramModel.train(words + ["ccd"] * 400, order=1)
        scorer = TrieScorer(tree, lm, NGRAMS)
        via = np.asarray(scorer._via())
        assert via[0] == via[trie_node(root, "a")] == -1
        assert via[trie_node(root, "b" * 100)] >= 0  # one completion
        assert via[trie_node(root, "a" * 100)] >= 0  # products of 2**-900 or so
        for prefix in ("", "a", "a" * 5, "b" * 100, "a" * 100):
            remainder, _, p = scorer_completion(tree, scorer, trie_node(root, prefix))
            assert (p < 2.0 ** -1000) == (prefix != "a" * 100)
            assert (prefix + remainder, p) == best_completion(lm, root, prefix)


class TestScoringMode:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InputValidationError):
            ScoringMode("viterbi")

    def test_sample_size_validated(self):
        with pytest.raises(InputValidationError):
            forecast_sample(sample_size=0)
