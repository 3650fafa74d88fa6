"""Dual-state word beam search: bookkeeping, constraints and completion."""

import gc
import random
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wordbeam import (
    Alphabet,
    ConfigurationError,
    InputValidationError,
    NGRAMS,
    NGRAMS_FORECAST,
    NgramModel,
    PosteriorMatrix,
    PrefixTree,
    RecognizerSim,
    WORDS,
    best_path_decode,
    decode,
    forecast_sample,
)
from wordbeam import decoder, language_model
from wordbeam.decoder import complete_beams, decode_batch, frame_beams

from _support import (
    Beam,
    candidate,
    children,
    constrained_argmax,
    entries,
    forward_probability,
    labeling_distribution,
    node_prefixes,
    random_matrix,
    reference_complete_beams,
    reference_decode,
    reference_frame_beams,
    reference_trie,
    remainder_probability,
    trie_node,
    word_probability,
)

WC = set("abcdefgh")


class TestDecodeBasics:
    def test_peaked_word_matches_exhaustive(self):
        alphabet = Alphabet("ab")
        tree = PrefixTree(["ab"], {"a", "b"})
        m = PosteriorMatrix([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        label, p = decode(m, alphabet, tree, width=10_000)
        exp_label, exp_p = constrained_argmax(labeling_distribution(m, alphabet),
                                              reference_trie(["ab"]), tree.word_chars)
        assert label == exp_label == "ab"
        assert p == pytest.approx(exp_p, abs=1e-12)

    def test_width_one_degenerates_to_best_path(self):
        alphabet = Alphabet("ab")
        tree = PrefixTree(["ab"], {"a", "b"})
        m = PosteriorMatrix([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05]])
        label, _ = decode(m, alphabet, tree, width=1)
        assert label == best_path_decode(m, alphabet)[0] == "ab"

    def test_uniform_two_frame_hand_scores(self):
        alphabet = Alphabet("a")
        tree = PrefixTree(["a"], {"a"})
        m = PosteriorMatrix([[0.5, 0.5], [0.5, 0.5]])
        beams = None
        for beams in frame_beams(m, alphabet, tree, width=100):
            pass
        last = entries(beams, reference_trie(["a"]))
        assert last["a"][1:3] == pytest.approx((0.25, 0.5))
        assert sum(last[""][1:3]) == pytest.approx(0.25)
        label, p = decode(m, alphabet, tree, width=100)
        assert label == "a"
        assert p == pytest.approx(0.75)

    def test_bad_width(self):
        alphabet = Alphabet("a")
        tree = PrefixTree(["a"], {"a"})
        m = PosteriorMatrix([[0.5, 0.5]])
        with pytest.raises(InputValidationError):
            decode(m, alphabet, tree, width=0)

    def test_unextendable_configuration(self):
        alphabet = Alphabet("ab")
        tree = PrefixTree([], {"a", "b"})
        m = PosteriorMatrix([[0.4, 0.3, 0.3]])
        with pytest.raises(ConfigurationError):
            decode(m, alphabet, tree)

    def test_word_character_missing_from_alphabet(self):
        alphabet = Alphabet("ab")
        tree = PrefixTree(["ab"], {"a", "b", "c"})  # 'c' spells no word, but is not a symbol
        m = PosteriorMatrix([[0.4, 0.3, 0.3]])
        with pytest.raises(ConfigurationError, match=r"\['c'\]"):
            decode(m, alphabet, tree)

    def test_symbols_outside_word_chars_are_nonword(self):
        # 'c' is no word character, so it may stand between words; the
        # search reads it as a non-word character, like the reference.
        alphabet = Alphabet("abc")
        tree = PrefixTree(["ab"], {"a", "b"})
        m = PosteriorMatrix([[0.1, 0.1, 0.7, 0.1], [0.7, 0.1, 0.1, 0.1], [0.1, 0.7, 0.1, 0.1]])
        label, _ = decode(m, alphabet, tree, width=10_000)
        exp_label, _ = constrained_argmax(labeling_distribution(m, alphabet),
                                          reference_trie(["ab"]), tree.word_chars)
        assert label == exp_label == "cab"

    def test_lm_required_for_ngram_modes(self):
        alphabet = Alphabet("ab")
        tree = PrefixTree(["ab"], {"a", "b"})
        m = PosteriorMatrix([[0.8, 0.1, 0.1]])
        with pytest.raises(InputValidationError):
            decode(m, alphabet, tree, mode=NGRAMS)


class TestOracleEquivalence:
    def test_random_instances(self):
        rng = np.random.default_rng(1234)
        py_rng = __import__("random").Random(1234)
        for i in range(40):
            use_nonword = i % 2 == 1
            chars = "abc" + ("." if use_nonword else "")
            alphabet = Alphabet(chars)
            pool = [
                "".join(p)
                for k in (1, 2, 3)
                for p in __import__("itertools").product("abc", repeat=k)
            ]
            words = py_rng.sample(pool, py_rng.randint(1, 8))
            tree = PrefixTree(words, {"a", "b", "c"})
            t = int(rng.integers(2, 7))
            m = random_matrix(rng, t, alphabet.num_classes)
            label, p = decode(m, alphabet, tree, width=10_000)
            exp_label, exp_p = constrained_argmax(labeling_distribution(m, alphabet),
                                                  reference_trie(words), tree.word_chars)
            assert label == exp_label, f"instance {i}"
            assert p == pytest.approx(exp_p, abs=1e-9)

    def test_every_output_is_dictionary_consistent(self):
        rng = np.random.default_rng(77)
        py_rng = __import__("random").Random(77)
        alphabet = Alphabet("abc.")
        for _ in range(25):
            words = py_rng.sample(["a", "b", "ab", "abc", "ba", "ca", "cc"], 4)
            tree = PrefixTree(words, {"a", "b", "c"})
            m = random_matrix(rng, int(rng.integers(2, 6)), 5)
            label, _ = decode(m, alphabet, tree, width=50)
            for fragment in label.split("."):
                assert fragment == "" or fragment in words

    def test_monotone_width(self):
        rng = np.random.default_rng(5)
        py_rng = __import__("random").Random(5)
        alphabet = Alphabet("abc")
        for _ in range(20):
            words = py_rng.sample(["a", "ab", "abc", "b", "bc", "ca", "cb"], 5)
            tree = PrefixTree(words, {"a", "b", "c"})
            m = random_matrix(rng, 5, 4)
            scores = [
                decode(m, alphabet, tree, width=w)[1] for w in (1, 2, 4, 8, 1000)
            ]
            for lo, hi in zip(scores, scores[1:]):
                assert hi >= lo - 1e-12

    def test_mass_conservation_without_constraints(self):
        # With no word characters every symbol is non-word and the search
        # is unconstrained, so the merged beams must carry all path mass.
        rng = np.random.default_rng(21)
        alphabet = Alphabet("ab")
        tree = PrefixTree([], set())
        for _ in range(10):
            m = random_matrix(rng, int(rng.integers(1, 8)), 3)
            for beams in frame_beams(m, alphabet, tree, width=10**9):
                assert sum(c[2] + c[3] for c in beams) == pytest.approx(1.0, abs=1e-9)


class TestScoringModes:
    def _setup(self):
        alphabet = Alphabet("ab", separator="|")
        tree = PrefixTree(["ab"], {"a", "b"})
        m = PosteriorMatrix(
            [
                [0.90, 0.04, 0.02, 0.04],
                [0.04, 0.90, 0.02, 0.04],
                [0.02, 0.02, 0.92, 0.04],
            ]
        )
        lm = NgramModel.train(["ab"], order=2)
        return alphabet, tree, m, lm

    def test_words_mode_ignores_lm(self):
        alphabet, tree, m, lm = self._setup()
        assert decode(m, alphabet, tree, None, 50, WORDS) == decode(
            m, alphabet, tree, lm, 50, WORDS
        )

    def test_ngrams_scores_word_on_transition(self):
        alphabet, tree, m, lm = self._setup()
        label_w, p_w = decode(m, alphabet, tree, None, 50, WORDS)
        label_n, p_n = decode(m, alphabet, tree, lm, 50, NGRAMS)
        assert label_w == label_n == "ab|"
        assert p_n == pytest.approx(p_w * word_probability(lm, "ab"))

    def test_forecast_modes_agree_on_completed_words(self):
        alphabet, tree, m, lm = self._setup()
        _, p_n = decode(m, alphabet, tree, lm, 50, NGRAMS)
        label_f, p_f = decode(m, alphabet, tree, lm, 50, NGRAMS_FORECAST)
        label_s, p_s = decode(m, alphabet, tree, lm, 50, forecast_sample(5, seed=2))
        assert label_f == label_s == "ab|"
        assert p_f == pytest.approx(p_n)
        assert p_s == p_f  # sample covers all completions: identical arithmetic

    def test_ngrams_can_overturn_a_narrow_mass_lead(self):
        # "ab|" has slightly more path mass than "aa|", but the model is
        # trained mostly on "aa" and flips the ranking at the transition.
        alphabet = Alphabet("ab", separator="|")
        tree = PrefixTree(["aa", "ab"], {"a", "b"})
        lm = NgramModel.train(["aa", "aa", "aa", "ab"], order=2)
        m = PosteriorMatrix(
            [
                [0.9, 0.02, 0.04, 0.04],
                [0.02, 0.02, 0.02, 0.94],
                [0.47, 0.47, 0.02, 0.04],
                [0.02, 0.02, 0.92, 0.04],
            ]
        )
        label_words, _ = decode(m, alphabet, tree, None, 200, WORDS)
        label_ngrams, _ = decode(m, alphabet, tree, lm, 200, NGRAMS)
        assert label_words == "ab|"
        assert label_ngrams == "aa|"
        assert word_probability(lm, "aa") > word_probability(lm, "ab")


class TestCompleteBeams:
    @staticmethod
    def _complete(words, hand, lm=None, mode=WORDS):
        """Complete hand-built ``(text, word_prefix, p_blank, p_nonblank)``
        hypotheses over ``words``; the entries of the result."""
        tree = PrefixTree(words, WC)
        root = reference_trie(words)
        return entries(complete_beams([candidate(root, *h) for h in hand], tree, lm, mode), root)

    def test_unique_completion(self):
        out = self._complete(["abc"], [("ab", "ab", 0.3, 0.2)])
        assert out == {"abc": ("abc", 0.3, 0.2, 1.0)}

    def test_complete_word_untouched(self):
        assert list(self._complete(["ab", "abc"], [("ab", "ab", 0.1, 0.1)])) == ["ab"]

    def test_nonword_state_untouched(self):
        assert list(self._complete(["ab"], [("ab|", "", 0.1, 0.1)])) == ["ab|"]

    def test_lm_ranked_completion(self):
        lm = NgramModel.train(["abc", "abc", "abd"], order=2)
        out = self._complete(["abc", "abd"], [("ab", "ab", 0.2, 0.2)], lm, NGRAMS)
        assert list(out) == ["abc"]  # hand-checked: (3/8)(3/7) > (2/8)(2/6)
        assert out["abc"][3] == pytest.approx(word_probability(lm, "abc"))

    def test_lexicographic_completion_in_words_mode(self):
        assert list(self._complete(["abd", "abc"], [("ab", "ab", 0.2, 0.2)])) == ["abc"]

    def test_collision_sums_mass(self):
        out = self._complete(["abc"], [("ab", "ab", 0.1, 0.2), ("abc", "abc", 0.05, 0.15)])
        assert list(out) == ["abc"]
        assert sum(out["abc"][1:3]) == pytest.approx(0.5)


class TestSharedScorer:
    MODES = (WORDS, NGRAMS, NGRAMS_FORECAST, forecast_sample(3, seed=4))

    def _setup(self):
        rng = np.random.default_rng(8)
        py_rng = __import__("random").Random(8)
        alphabet = Alphabet("abc", separator="|")
        words = sorted({"".join(py_rng.choice("abc") for _ in range(py_rng.randint(1, 4)))
                        for _ in range(25)})
        tree = PrefixTree(words, {"a", "b", "c"})
        lm = NgramModel.train(words, order=2)
        matrices = [random_matrix(rng, int(rng.integers(3, 9)), 5) for _ in range(6)]
        return alphabet, words, tree, lm, matrices

    @staticmethod
    def _count_model_calls(monkeypatch) -> list:
        """One entry per call of ``NgramModel._conditionals``, the model's one query."""
        calls = []
        query = NgramModel._conditionals

        def counted(*args, **kwargs):
            calls.append("_conditionals")
            return query(*args, **kwargs)

        monkeypatch.setattr(NgramModel, "_conditionals", counted)
        return calls

    def test_tables_filled_by_earlier_decodes_change_nothing(self):
        alphabet, words, tree, lm, matrices = self._setup()
        for mode in self.MODES:
            for m in matrices:
                shared = decode(m, alphabet, tree, lm, 8, mode)
                fresh = PrefixTree(words, tree.word_chars)
                assert shared == decode(m, alphabet, fresh, lm, 8, mode)

    def test_second_decode_reads_only_tables(self, monkeypatch):
        alphabet, words, tree, lm, matrices = self._setup()
        calls = self._count_model_calls(monkeypatch)
        built = []
        build = language_model._best_completions
        monkeypatch.setattr(language_model, "_best_completions",
                            lambda *args: built.append(args) or build(*args))
        for mode in self.MODES[1:]:
            scorer = decoder._scorer(tree, lm, mode)
            assert calls  # building the tables queried the model ...
            calls.clear()
            for engine in (lambda m: [decode(m, alphabet, tree, lm, 8, mode)],
                           lambda m: decode_batch([m, m], alphabet, tree, lm, 8, mode)):
                first = engine(matrices[0])
                assert tree._scorers[lm, mode] is scorer
                via = scorer.via
                assert via is not None, mode  # the first completion built it
                memo = dict(scorer._searched), dict(scorer._sampled)
                assert engine(matrices[0]) == first
                assert scorer.via is via
                assert (scorer._searched, scorer._sampled) == memo, mode
            assert len(built) == len(tree._scorers)  # once per scorer
            assert calls == []  # ... the lazy entries are products of table entries

    def test_equal_modes_share_one_set_of_tables(self, monkeypatch):
        alphabet, words, tree, lm, matrices = self._setup()
        decode(matrices[0], alphabet, tree, lm, 8, forecast_sample(3, seed=4))
        calls = self._count_model_calls(monkeypatch)
        decode(matrices[0], alphabet, tree, lm, 8, forecast_sample(3, seed=4))
        assert calls == []
        assert len(tree._scorers) == 1

    def test_forecast_completion_scores_committed_times_remainder(self):
        alphabet = Alphabet("abcd")
        tree = PrefixTree(["abc", "abd"], set("abcd"))
        lm = NgramModel.train(["abc", "abc", "abd"], order=2)
        m = PosteriorMatrix([[0.9, 0.02, 0.02, 0.02, 0.04], [0.02, 0.9, 0.02, 0.02, 0.04]])
        for mode in (NGRAMS_FORECAST, forecast_sample(1, seed=0)):
            beams = None
            for beams in frame_beams(m, alphabet, tree, lm, 50, mode):
                pass
            ab = next(c for c in beams if c[1] == "ab")
            assert ab[4] != 1.0  # ranked by the forecast of "ab"
            out = entries(complete_beams([ab], tree, lm, mode), reference_trie(["abc", "abd"]))
            # nothing committed before "ab", so the completion scores its remainder
            assert out["abc"][3] == pytest.approx(remainder_probability(lm, "ab", "c"))


class TestLifetime:
    """A tree's scorers and extension arrays go with it: without the cyclic
    collector, the tree dies as soon as its last outside reference does."""

    @pytest.mark.parametrize("mode", TestSharedScorer.MODES[:3] + (forecast_sample(1, seed=2),),
                             ids=lambda mode: mode.kind)
    @pytest.mark.parametrize("count", [1, 3])
    def test_tree_dies_with_its_last_reference(self, mode, count):
        # "ab" and "ac" tie at "a" ("ba" and "ca" tie their ends too), so the
        # completion of "a" is searched; in the sampling mode its forecast
        # draws one of its two words.
        alphabet = Alphabet("abc", separator="|")
        words = ["ab", "ac", "ba", "ca"]
        lm = NgramModel.train(words, order=2)
        ends_at_a = PosteriorMatrix([[0.8, 0.05, 0.05, 0.05, 0.05]] * 3)
        rng = np.random.default_rng(5)
        matrices = [ends_at_a] + [random_matrix(rng, 6, 5) for _ in range(count - 1)]
        tree = PrefixTree(words, set("abc"))
        gc.disable()
        try:
            decode_batch(matrices, alphabet, tree, lm, 4, mode)
            scorer = tree._scorers[lm if mode.uses_lm else None, mode]
            if mode.uses_lm:
                assert scorer.via is not None and scorer._searched
            if mode.kind == "ngrams_forecast_sample":
                assert scorer._sampled
            assert bool(tree._extensions) == (count > 1)
            del scorer
            alive = weakref.ref(tree)
            del tree
            assert alive() is None
        finally:
            gc.enable()


WORD_CHARS = "abcdefghijkl"


def _matrix(rows: str, rng: np.random.Generator, t: int, c: int) -> PosteriorMatrix:
    """A ``t`` x ``c`` matrix of one kind of rows."""
    if rows.startswith("levels"):  # few distinct values, so scores tie and texts break ties
        arr = rng.integers(1, int(rows[-1]) + 1, (t, c)).astype(float)
        return PosteriorMatrix(arr / arr.sum(axis=1, keepdims=True))
    if rows == "peaked":  # one column of each row holds at least 0.9, so whole
        # survivors fall below the running bound and are skipped
        arr = rng.random((t, c)) + 1e-3
        arr = 0.1 * arr / arr.sum(axis=1, keepdims=True)
        arr[np.arange(t), rng.integers(0, c, t)] += 0.9
        return PosteriorMatrix(arr)
    if rows == "uniform":  # every equal-length extension ties
        return PosteriorMatrix(np.full((t, c), 1.0 / c))
    return random_matrix(rng, t, c)


def _coded(coding: str) -> Alphabet:
    """The alphabet of one of three codings over ``WORD_CHARS``."""
    sep = "|" if coding == "extrasep" else None
    return Alphabet(WORD_CHARS + (" " if coding == "plain+space" else ""), separator=sep)


def _top(beams, width: int) -> dict:
    """The reference set cut to ``width`` by (-score, text), as the search cuts it."""
    return entries(sorted(beams.values(), key=lambda b: (-b.score, b.text))[:width])


class TestFlatFrameLoop:
    """The candidate-tuple frame loop against the Beam-per-candidate reference."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        starts=st.lists(st.sampled_from(WORD_CHARS), min_size=10, max_size=12, unique=True),
        tails=st.lists(st.text(WORD_CHARS[:5], max_size=4), min_size=1, max_size=30),
        coding=st.sampled_from(["plain", "plain+space", "extrasep"]),
        mode=st.sampled_from([WORDS, NGRAMS, NGRAMS_FORECAST, forecast_sample(2, seed=3)]),
        order=st.integers(1, 3),
        t=st.integers(1, 60),
        width=st.integers(1, 40),
        rows=st.sampled_from(["random", "levels2", "levels3", "peaked"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_frames_and_decode_equal_reference(self, starts, tails, coding, mode, order, t,
                                               width, rows, seed):
        words = starts + [starts[i % len(starts)] + tail for i, tail in enumerate(tails)]
        alphabet = _coded(coding)
        tree = PrefixTree(words, set(WORD_CHARS))
        lm = NgramModel.train(words, order=order)
        m = _matrix(rows, np.random.default_rng(seed), t, alphabet.num_classes)
        root = reference_trie(words)
        frames = list(frame_beams(m, alphabet, tree, lm, width, mode))
        reference = list(reference_frame_beams(m, alphabet, tree, root, lm, width, mode))
        assert len(frames) == len(reference) == t
        # Every frame but the last yields the reference's top ``width``; the
        # last one yields the reference's uncut set, which completion re-ranks.
        for got, want in zip(frames[:-1], reference[:-1]):
            assert len(got) <= width
            assert entries(got, root) == _top(want, width)
        assert entries(frames[-1], root) == entries(reference[-1])
        assert decode(m, alphabet, tree, lm, width, mode) == reference_decode(
            m, alphabet, tree, root, lm, width, mode)


class TestCompletionEqualsReference:
    """``complete_beams`` against the best merged candidates of the
    Beam-per-input reference."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        words=st.lists(st.text("abc", min_size=1, max_size=5), min_size=1, max_size=12),
        mode=st.sampled_from(TestSharedScorer.MODES),
        t=st.integers(1, 8),
        width=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        hand=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(["", "|", "a|", "ab|"]),
                                st.floats(0, 1), st.floats(0, 1), st.floats(0.01, 1)),
                      max_size=12),
    )
    def test_completion_equals_reference(self, words, mode, t, width, seed, hand):
        alphabet = Alphabet("abc", separator="|")
        tree = PrefixTree(words, set("abc"))
        root = reference_trie(words)
        lm = NgramModel.train(words, order=2)
        m = random_matrix(np.random.default_rng(seed), t, alphabet.num_classes)
        last = None
        for last in frame_beams(m, alphabet, tree, lm, width, mode):
            pass
        # Hand-built candidates: any live prefix after a non-word head, texts repeating.
        prefixes = sorted({w[:k] for w in words for k in range(len(w) + 1)})
        hand_built = [candidate(root, head + prefixes[i % len(prefixes)],
                                prefixes[i % len(prefixes)], pb, pnb, p_text)
                      for i, head, pb, pnb, p_text in hand]
        # A live prefix often completes to another candidate's text, so the
        # masses of the two are merged.
        prefixes = node_prefixes(root)
        for cands in (last, hand_built):
            got = complete_beams(cands, tree, lm, mode)
            want = reference_complete_beams([Beam.of(c, prefixes) for c in cands], tree, root,
                                            lm, mode)
            best = max((b.score for b in want.values()), default=0.0)
            want = {text: b for text, b in want.items() if b.score == best}
            assert list(entries(got, root).items()) == list(entries(want).items())
            assert all(-c[0] == best for c in got)


class TestSurvivorSkip:
    def test_skipped_survivor_reads_no_word_probability(self):
        # Width 2. After frame 0 the survivors are "a" (0.6) and "b" (0.3).
        # Frame 1 starts with thr = 0.255 ("b"'s copy); "a" extends to "ab"
        # (0.27), which lifts thr to 0.27. "b"'s best extension is at most
        # 0.3 * 0.45 = 0.135, so "b" is skipped whole: its "b|" extension,
        # which would read the word probability of "b", is never looked at,
        # and "b" drops out at the cut.
        alphabet = Alphabet("ab", separator="|")
        tree = PrefixTree(["a", "ab", "b"], {"a", "b"})
        lm = NgramModel.train(["a", "ab", "b"], order=2)
        m = PosteriorMatrix([[0.6, 0.3, 0.05, 0.05],
                             [0.1, 0.45, 0.05, 0.4],
                             [0.1, 0.1, 0.4, 0.4]])
        scorer = decoder._scorer(tree, lm, NGRAMS)  # the one the decode reads
        table_read = scorer.word_probability
        read = []

        def word_probability(node):
            read.append(node)
            return table_read(node)

        scorer.word_probability = word_probability
        got = decode(m, alphabet, tree, lm, 2, NGRAMS)
        root = reference_trie(["a", "ab", "b"])
        assert trie_node(root, "a") in read
        assert trie_node(root, "b") not in read
        assert got == reference_decode(m, alphabet, tree, root, lm, 2, NGRAMS)


class TestRealisticSize:
    """One line of hundreds of frames over a dictionary of thousands of words."""

    def test_long_line_decode_equals_reference(self):
        py_rng = random.Random(2026)
        letters = "abcdefghijklmnopqrstuvwxyz"
        words = sorted({"".join(py_rng.choice(letters) for _ in range(py_rng.randint(2, 8)))
                        for _ in range(6000)})
        line = " ".join(py_rng.sample([w for w in words if len(w) >= 7], 13))
        alphabet = Alphabet(letters + " ")
        tree = PrefixTree(words, set(letters))
        lm = NgramModel.train(words, order=2)
        m = RecognizerSim(alphabet, frames_per_char=3, noise_level=0.3, seed=5).emit(line)
        assert m.num_frames >= 400 and len(words) >= 5000
        root = reference_trie(words)
        for mode in (WORDS, NGRAMS):
            got = decode(m, alphabet, tree, lm, 25, mode)
            assert got == reference_decode(m, alphabet, tree, root, lm, 25, mode), mode
            assert got[1] > 0.0  # no underflow, so the cut was live


def _exact(results) -> list[tuple[str, str]]:
    """(text, score bits) pairs, so that equal lists are bit for bit equal."""
    return [(text, score.hex()) for text, score in results]


class TestDecodeBatch:
    """``decode_batch`` against the scalar search, decode by decode."""

    _strategies = dict(
        starts=st.lists(st.sampled_from(WORD_CHARS), min_size=10, max_size=12, unique=True),
        tails=st.lists(st.text(WORD_CHARS[:5], max_size=4), min_size=1, max_size=30),
        coding=st.sampled_from(["plain", "plain+space", "extrasep"]),
        lengths=st.lists(st.integers(1, 60), max_size=12),
        width=st.integers(1, 40),
        rows=st.sampled_from(["random", "levels2", "levels3", "peaked", "uniform"]),
        seed=st.integers(0, 2**32 - 1),
    )
    _cases = given(**_strategies)
    # Every mode, with a model of order 1 to 3 trained on the dictionary.
    _modes = dict(mode=st.sampled_from([WORDS, NGRAMS, NGRAMS_FORECAST, forecast_sample(3, 1)]),
                  order=st.integers(1, 3))

    @staticmethod
    def _check(starts, tails, coding, lengths, width, rows, seed, mode=WORDS, order=2):
        words = starts + [starts[i % len(starts)] + tail for i, tail in enumerate(tails)]
        alphabet = _coded(coding)
        tree = PrefixTree(words, set(WORD_CHARS))
        lm = NgramModel.train(words, order) if mode.uses_lm else None
        rng = np.random.default_rng(seed)
        matrices = [_matrix(rows, rng, t, alphabet.num_classes) for t in lengths]
        want = [decode(m, alphabet, tree, lm, width, mode) for m in matrices]
        assert _exact(decode_batch(matrices, alphabet, tree, lm, width, mode)) == _exact(want)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @_cases
    def test_batch_equals_scalar(self, starts, tails, coding, lengths, width, rows, seed):
        self._check(starts, tails, coding, lengths, width, rows, seed)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @_cases
    def test_batch_equals_scalar_compacting_every_frame(self, starts, tails, coding, lengths,
                                                        width, rows, seed):
        # Every frame forgets the texts no survivor can reach and renumbers the rest.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(decoder, "_COMPACT_AT", -1)
            self._check(starts, tails, coding, lengths, width, rows, seed)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(**_strategies, **_modes)
    def test_every_mode_equals_scalar(self, starts, tails, coding, lengths, width, rows, seed,
                                      mode, order):
        self._check(starts, tails, coding, lengths, width, rows, seed, mode, order)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(**{**_strategies, "lengths": st.lists(st.integers(1, 60), min_size=1, max_size=1)},
           **_modes)
    def test_a_batch_of_one_equals_scalar(self, starts, tails, coding, lengths, width, rows,
                                          seed, mode, order):
        self._check(starts, tails, coding, lengths, width, rows, seed, mode, order)

    def test_a_step_may_fill_the_text_table(self, monkeypatch):
        # With ``_COMPACT_AT`` 0, each compaction leaves room for one step's
        # new texts, one per survivor. Frame 0 has no blank mass, so the
        # empty text's copy scores 0.0 and every decode keeps its three
        # extensions "a", "b" and " ": four decodes name 12 texts at once.
        alphabet = Alphabet("ab ")
        tree = PrefixTree(["a", "b", "ab", "ba", "aab", "bba"], {"a", "b"})
        rng = np.random.default_rng(3)
        matrices = []
        for t in (2, 3, 5, 8):
            arr = rng.random((t, 4)) + 0.05
            arr[0] = [0.3, 0.3, 0.4, 0.0]
            matrices.append(PosteriorMatrix(arr / arr.sum(axis=1, keepdims=True)))
        steps = []
        name = decoder._Texts.name

        def counted(texts, cand):
            before = texts.count
            name(texts, cand)
            steps.append((texts.count - before, len(texts.child) - texts.count))

        monkeypatch.setattr(decoder._Texts, "name", counted)
        monkeypatch.setattr(decoder, "_COMPACT_AT", 0)
        got = decode_batch(matrices, alphabet, tree, width=3)
        assert steps[0] == (4 * 3, 0)  # named: one per survivor; rows left free: none
        assert _exact(got) == _exact([decode(m, alphabet, tree, width=3) for m in matrices])

    def test_text_order_decides_a_tie_across_the_cut(self):
        # Frame 0 leaves "" (0.5) and a tie at the cut of width 2: "b" and
        # " " (0.25 each). The smaller text, " ", survives, though the
        # extension by the trie child "b" comes first. Keeping "b" instead
        # would end in ("b", 0.3125).
        alphabet = Alphabet("b ")
        tree = PrefixTree(["b"], {"b"})
        m = PosteriorMatrix([[0.25, 0.25, 0.5], [0.25, 0.25, 0.5]])
        first = next(iter(frame_beams(m, alphabet, tree, width=2)))
        assert sorted(c[1] for c in first) == ["", " "]
        other = PosteriorMatrix([[0.5, 0.25, 0.25], [0.25, 0.25, 0.5], [0.6, 0.2, 0.2]])
        got = decode_batch([m, other, m], alphabet, tree, width=2)
        assert got[0] == got[2] == (" ", 0.3125)
        assert _exact(got) == _exact([decode(x, alphabet, tree, width=2) for x in (m, other, m)])

    @staticmethod
    def _spelled_at_the_cut(monkeypatch, matrices, alphabet, tree, width):
        """``decode_batch``'s results, and the texts its cut spelled out for ties."""
        spelled = []
        cut = decoder._cut

        def spy(dec, score, width, n, text_of):
            def spell(i):
                spelled.append(text_of(i))
                return spelled[-1]

            return cut(dec, score, width, n, spell)

        monkeypatch.setattr(decoder, "_cut", spy)
        return decode_batch(matrices, alphabet, tree, width=width), spelled

    # Frame 0 keeps "", "a" and "b" (0.0, 0.5, 0.5), as width 3 cuts nothing.
    _tie_tree = (["a", "b", "ab", "ba", "abb", "baa", "bab"], {"a", "b"})

    @pytest.mark.parametrize("compact_at", [None, -1])
    def test_a_tie_between_extensions_of_two_survivors_goes_by_text(self, monkeypatch,
                                                                    compact_at):
        # Frame 1 scores the copies of "a" and "b" 0.375 each, and their
        # extensions "ab" and "ba", new texts, 0.125 each: the cut keeps the
        # third place for "ab", the smaller text, spelled from its parent.
        if compact_at is not None:
            monkeypatch.setattr(decoder, "_COMPACT_AT", compact_at)
        alphabet, tree = Alphabet("ab"), PrefixTree(*self._tie_tree)
        m = PosteriorMatrix([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.3, 0.3, 0.4]])
        frames = [sorted(c[1] for c in f) for f in frame_beams(m, alphabet, tree, width=3)]
        assert frames[1] == ["a", "ab", "b"]
        matrices = [m, random_matrix(np.random.default_rng(5), 6, 3), m]
        got, spelled = self._spelled_at_the_cut(monkeypatch, matrices, alphabet, tree, 3)
        assert {"ab", "ba"} <= set(spelled)
        assert _exact(got) == _exact([decode(x, alphabet, tree, width=3) for x in matrices])

    @pytest.mark.parametrize("compact_at", [None, -1])
    def test_a_tie_between_a_copy_and_an_extension_goes_by_text(self, monkeypatch, compact_at):
        # Frame 1 has no blank mass, so the copies of "a" and "b" score their
        # own repeats, 0.3 and 0.2, and the extensions "ba" and "ab" the same:
        # the third place falls to the extension "ab", before the copy "b".
        if compact_at is not None:
            monkeypatch.setattr(decoder, "_COMPACT_AT", compact_at)
        alphabet, tree = Alphabet("ab"), PrefixTree(*self._tie_tree)
        m = PosteriorMatrix([[0.5, 0.5, 0.0], [0.6, 0.4, 0.0], [0.3, 0.5, 0.2]])
        frames = [sorted(c[1] for c in f) for f in frame_beams(m, alphabet, tree, width=3)]
        assert frames[1] == ["a", "ab", "ba"]
        matrices = [m, random_matrix(np.random.default_rng(6), 6, 3), m]
        got, spelled = self._spelled_at_the_cut(monkeypatch, matrices, alphabet, tree, 3)
        assert {"ab", "b"} <= set(spelled)
        assert _exact(got) == _exact([decode(x, alphabet, tree, width=3) for x in matrices])

    def test_three_or_more_candidates_complete_to_one_word(self):
        # Every non-empty text of the last frame is a prefix of "abcd" and
        # completes to it, so their masses are summed, in text order.
        alphabet = Alphabet("abcd")
        tree = PrefixTree(["abcd"], set("abcd"))
        rng = np.random.default_rng(8)
        matrices = [random_matrix(rng, t, 5) for t in (3, 4, 5, 6) * 10]
        last = list(frame_beams(matrices[0], alphabet, tree, width=10))[-1]
        assert sorted(c[1] for c in last) == ["", "a", "ab", "abc"]
        got = decode_batch(matrices, alphabet, tree, width=10)
        assert {text for text, _ in got} == {"abcd"}
        assert _exact(got) == _exact([decode(m, alphabet, tree, width=10) for m in matrices])

    def test_a_group_sums_in_node_order_which_is_text_order(self, monkeypatch):
        # Lines of several words over a trie of shared prefixes: groups of
        # three or more candidates of one decode, after one word-start text,
        # complete to one word. Completion sums each group in node order;
        # the scalar search sums it in text order.
        alphabet = Alphabet("abcd ")
        tree = PrefixTree(["abcd", "abca", "abdd", "bcda", "bcdb", "cab", "d"], set("abcd"))
        rng = np.random.default_rng(11)
        matrices = [random_matrix(rng, t, 6) for t in range(4, 16) for _ in range(4)]
        sizes = []
        complete = decoder._complete_batch

        def spy(cand, fields, scorer, tree, texts, found):
            node = cand[decoder._NODE]
            groups: dict = {}
            for q in np.flatnonzero(node).tolist():
                key = (int(cand[decoder._WST, q]), int(scorer.lexmin[node[q]]))
                groups.setdefault(key, []).append(q)
            for (start, _), group in groups.items():
                if len(group) > 2:
                    sizes.append((len(group), texts.text(start)))
                    by_node = sorted(group, key=lambda q: node[q])
                    assert by_node == sorted(group, key=lambda q: texts.of(cand[:, q]))
            return complete(cand, fields, scorer, tree, texts, found)

        monkeypatch.setattr(decoder, "_complete_batch", spy)
        got = decode_batch(matrices, alphabet, tree, width=12)
        assert max(sizes)[0] > 3
        assert len({start for _, start in sizes}) > 3  # groups after several word-start texts
        assert _exact(got) == _exact([decode(m, alphabet, tree, width=12) for m in matrices])

    @pytest.mark.parametrize("words, word_chars, symbols, width, classes, error", [
        (["ab"], "ab", "ab", 0, 3, InputValidationError),   # width below 1
        (["ab"], "ab", "ab", 5, 4, InputValidationError),   # a matrix of the wrong width
        (["ab"], "abc", "ab", 5, 3, ConfigurationError),    # word character "c" no symbol
        ([], "ab", "ab", 5, 3, ConfigurationError),         # nothing can ever extend
    ])
    def test_errors_come_before_any_frame(self, monkeypatch, words, word_chars, symbols, width,
                                          classes, error):
        alphabet = Alphabet(symbols)
        tree = PrefixTree(words, set(word_chars))
        good = PosteriorMatrix([[0.4, 0.3, 0.3]])
        # A faulty matrix is named even at the end of the batch.
        matrices = [good, good, PosteriorMatrix(np.full((1, classes), 1.0 / classes))]
        with pytest.raises(error) as scalar:
            [decode(m, alphabet, tree, width=width) for m in matrices]

        def searched(*args):
            raise AssertionError("the batch was searched")

        monkeypatch.setattr(decoder, "_run_batch", searched)
        with pytest.raises(error) as batched:
            decode_batch(matrices, alphabet, tree, width=width)
        assert str(batched.value) == str(scalar.value)

    def test_every_mode_batches_two_or_more_matrices(self, monkeypatch):
        # Two or more matrices of any mode run as one batched search; a lone
        # matrix is decoded by ``decode``. At order 1 "cab" and "cba" tie from
        # "c", which completion settles by a search.
        alphabet = _coded("plain+space")
        words = ["abd", "cab", "cba", "a", "dab", "bcd"]
        tree = PrefixTree(words, set(WORD_CHARS))
        lm = NgramModel.train(words, order=1)
        rng = np.random.default_rng(12)
        matrices = [_matrix("random", rng, t, alphabet.num_classes) for t in (5, 9, 7)]
        batched = []
        run = decoder._run_batch

        def spy(matrices, alphabet, width, scorer, tree, nonword):
            batched.append((scorer.mode, len(matrices)))
            return run(matrices, alphabet, width, scorer, tree, nonword)

        monkeypatch.setattr(decoder, "_run_batch", spy)
        modes = [WORDS, NGRAMS, NGRAMS_FORECAST, forecast_sample(2, 3)]
        for mode in modes:
            for k in (1, 2, 3):
                want = [decode(m, alphabet, tree, lm, 6, mode) for m in matrices[:k]]
                got = decode_batch(matrices[:k], alphabet, tree, lm, 6, mode)
                assert _exact(got) == _exact(want)
        assert batched == [(mode, k) for mode in modes for k in (2, 3)]
        c = tree._first[0] + children(tree, 0).index("c")
        for mode in modes[1:]:
            assert list(decoder._scorer(tree, lm, mode)._searched) == [c]

    def test_node_arrays_are_built_once_per_tree_and_alphabet(self, monkeypatch):
        # Two batches over one tree and alphabet build the extension arrays
        # once; a second alphabet on that tree (the trend lanes' plain and
        # extra-separator alphabets) builds its own, and reuses them too.
        tree = PrefixTree(["a", "ab", "ba"], {"a", "b"})
        plain, sep = Alphabet("ab"), Alphabet("ab", "|")
        rng = np.random.default_rng(5)
        built = []
        build = decoder._node_arrays

        def spy(tree, alphabet, nonword):
            built.append(alphabet.symbols)
            return build(tree, alphabet, nonword)

        monkeypatch.setattr(decoder, "_node_arrays", spy)
        for alphabet in (plain, plain, sep, sep, plain):
            matrices = [_matrix("random", rng, t, alphabet.num_classes) for t in (3, 5)]
            want = [decode(m, alphabet, tree, width=4) for m in matrices]
            assert _exact(decode_batch(matrices, alphabet, tree, width=4)) == _exact(want)
        assert built == ["ab", "ab|"]
        assert not tree._extensions["ab|"][2].flags.writeable

    def test_empty_batch(self):
        assert decode_batch([], Alphabet("a"), PrefixTree(["a"], {"a"}), width=3) == []


class TestForwardOracle:
    """The last frame's masses against the CTC forward pass, past enumeration's T <= 6."""

    def test_forward_pass_equals_enumeration(self):
        rng = np.random.default_rng(3)
        alphabet = Alphabet("ab")
        for t in range(1, 7):
            m = random_matrix(rng, t, 3)
            dist = labeling_distribution(m, alphabet)
            for labeling in ("", "a", "b", "ab", "aa", "aba", "abab", "bbb"):
                assert forward_probability(m, labeling, alphabet) == pytest.approx(
                    dist.get(labeling, 0.0), rel=1e-12, abs=0.0)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(word=st.text("abcd", min_size=1, max_size=8), t=st.integers(1, 300),
           rows=st.sampled_from(["spelled", "random"]), seed=st.integers(0, 2**32 - 1))
    def test_unpruned_masses_are_forward_probabilities(self, word, t, rows, seed):
        # One word and no non-word characters: every text is a prefix of the
        # word, so width len(word) + 1 prunes nothing, and each text's mass
        # is the probability of its labeling.
        alphabet = Alphabet("".join(dict.fromkeys(word)))
        tree = PrefixTree([word], set(word))
        rng = np.random.default_rng(seed)
        c = alphabet.num_classes
        if rows == "spelled":  # peaked rows, the peaks spelling the word between blanks
            arr = rng.random((t, c)) + 1e-3
            arr = 0.1 * arr / arr.sum(axis=1, keepdims=True)
            col = alphabet.column_map()
            peaks = [c - 1 if k % 2 else col[word[k * len(word) // t]] for k in range(t)]
            arr[np.arange(t), peaks] += 0.9
            m = PosteriorMatrix(arr)
        else:
            m = random_matrix(rng, t, c)
        last = list(frame_beams(m, alphabet, tree, width=len(word) + 1))[-1]
        normal = [cand for cand in last if cand[2] + cand[3] >= sys.float_info.min]
        assert normal
        for _, text, p_blank, p_nonblank, *_ in normal:
            assert word.startswith(text)
            assert p_blank + p_nonblank == pytest.approx(
                forward_probability(m, text, alphabet), rel=1e-9, abs=0.0)
