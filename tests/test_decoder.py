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
from wordbeam.decoder import decode_batch, frame_beams

from _support import (
    candidate,
    children,
    complete_candidates,
    constrained_argmax,
    entries,
    forward_probability,
    labeling_distribution,
    random_matrix,
    reference_decode,
    reference_frame_beams,
    reference_pick,
    reference_trie,
    remainder_probability,
    search_frames,
    words_50k,
    word_probability,
)

WC = set("abcdefgh")
LETTERS = "abcdefghijklmnopqrstuvwxyz"


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
        *_, beams = search_frames([m], alphabet, tree, width=100)
        last = entries(beams[0], reference_trie(["a"]))
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
        # is unconstrained, so the merged beams must carry all path mass:
        # each frame's survivors, and the last frame's uncut candidates.
        rng = np.random.default_rng(21)
        alphabet = Alphabet("ab")
        tree = PrefixTree([], set())
        for _ in range(10):
            m = random_matrix(rng, int(rng.integers(1, 8)), 3)
            for frame in frame_beams([m], alphabet, tree, width=10**9):
                parts = [frame.survivors] + ([frame.ending] if frame.ending else [])
                mass = sum(fields[0].sum() + fields[1].sum() for _, fields in parts)
                assert mass == pytest.approx(1.0, abs=1e-9)


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
        """``complete_beams``' pick among hand-built ``(text, word_prefix,
        p_blank, p_nonblank[, p_text])`` hypotheses over ``words``, checked
        bit for bit against the reference's."""
        tree = PrefixTree(words, WC)
        root = reference_trie(words)
        cands = [candidate(root, *h) for h in hand]
        got = complete_candidates(cands, tree, lm, mode)
        assert _exact([got]) == _exact([reference_pick(cands, tree, root, lm, mode)])
        return got

    def test_unique_completion(self):
        assert self._complete(["abc"], [("ab", "ab", 0.3, 0.2)]) == ("abc", 0.5)

    def test_complete_word_untouched(self):
        assert self._complete(["ab", "abc"], [("ab", "ab", 0.1, 0.1)])[0] == "ab"

    def test_nonword_state_untouched(self):
        assert self._complete(["ab"], [("ab|", "", 0.1, 0.1)])[0] == "ab|"

    def test_lm_ranked_completion(self):
        lm = NgramModel.train(["abc", "abc", "abd"], order=2)
        text, score = self._complete(["abc", "abd"], [("ab", "ab", 0.2, 0.2)], lm, NGRAMS)
        assert text == "abc"  # hand-checked: (3/8)(3/7) > (2/8)(2/6)
        assert score == pytest.approx(0.4 * word_probability(lm, "abc"))

    def test_lexicographic_completion_in_words_mode(self):
        assert self._complete(["abd", "abc"], [("ab", "ab", 0.2, 0.2)])[0] == "abc"

    def test_collision_sums_mass(self):
        got = self._complete(["abc"], [("ab", "ab", 0.1, 0.2), ("abc", "abc", 0.05, 0.15)])
        assert got == ("abc", pytest.approx(0.5))

    def test_best_score_then_smallest_text(self):
        hand = [("b|", "", 0.25, 0.0), ("a|", "", 0.0, 0.25), ("ab", "ab", 0.1, 0.1)]
        assert self._complete(["ab"], hand) == ("a|", 0.25)

    def test_a_group_of_three_sums_in_text_order_and_keeps_the_first_model_score(self):
        # "a", "ab" and "abc" complete to "abcd". Summed from "a" on, each
        # 2**-54 is half an ulp of 0.5 and rounds away (to even); summed the
        # other way, the two add up to a whole ulp first, which the
        # reference check tells apart. The group is ranked by the model
        # score of "a", its first member in text order.
        lm = NgramModel.train(["abcd"], order=2)
        hand = [("abc", "abc", 2.0 ** -54, 0.0, 0.25), ("a", "a", 0.5, 0.0, 0.5),
                ("ab", "ab", 2.0 ** -54, 0.0, 0.75)]
        text, score = self._complete(["abcd"], hand, lm, NGRAMS)
        assert text == "abcd"
        assert score == pytest.approx(0.25 * word_probability(lm, "abcd"))


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
            *_, beams = search_frames([m], alphabet, tree, lm, 50, mode)
            ab = next(c for c in beams[0] if c[1] == "ab")
            assert ab[4] != 1.0  # ranked by the forecast of "ab"
            got = complete_candidates([ab], tree, lm, mode)
            root = reference_trie(["abc", "abd"])
            assert _exact([got]) == _exact([reference_pick([ab], tree, root, lm, mode)])
            # nothing committed before "ab", so the completion scores its remainder
            mass = ab[2] + ab[3]
            assert got == ("abc", pytest.approx(mass * remainder_probability(lm, "ab", "c")))


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
            assert list(tree._extensions) == [alphabet.symbols]  # every decode reads them
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
    """The frame loop against the Beam-per-candidate reference."""

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
        frames = [f[0] for f in search_frames([m], alphabet, tree, lm, width, mode)]
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
    """``complete_beams``' pick against the best merged candidate of the
    Beam-per-input reference, text and score bits."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        words=st.lists(st.text("abc", min_size=1, max_size=5), min_size=1, max_size=12),
        mode=st.sampled_from(TestSharedScorer.MODES),
        t=st.integers(1, 8),
        width=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        hand=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(["", "|", "a|", "ab|"]),
                                st.floats(0, 1), st.floats(0, 1), st.floats(0.01, 1)),
                      min_size=1, max_size=12),
    )
    def test_completion_equals_reference(self, words, mode, t, width, seed, hand):
        alphabet = Alphabet("abc", separator="|")
        tree = PrefixTree(words, set("abc"))
        root = reference_trie(words)
        lm = NgramModel.train(words, order=2)
        m = random_matrix(np.random.default_rng(seed), t, alphabet.num_classes)
        *_, last = search_frames([m], alphabet, tree, lm, width, mode)
        # Hand-built candidates: any live prefix after a non-word head, the
        # first of each text kept, as a decode's texts are distinct.
        prefixes = sorted({w[:k] for w in words for k in range(len(w) + 1)})
        hand_built: dict[str, tuple] = {}
        for i, head, pb, pnb, p_text in hand:
            prefix = prefixes[i % len(prefixes)]
            hand_built.setdefault(head + prefix, candidate(root, head + prefix, prefix, pb, pnb,
                                                           p_text))
        # A live prefix often completes to another candidate's text, so the
        # masses of the two are merged.
        for cands in (last[0], list(hand_built.values())):
            got = complete_candidates(cands, tree, lm, mode)
            assert _exact([got]) == _exact([reference_pick(cands, tree, root, lm, mode)])


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


def _reference(matrices, alphabet, tree, words, lm=None, width=25, mode=WORDS):
    """``_exact`` of the reference search's result for each of ``matrices``;
    ``tree`` is the trie of ``words``."""
    root = reference_trie(words)
    return _exact([reference_decode(m, alphabet, tree, root, lm, width, mode) for m in matrices])


class TestDecodeBatch:
    """``decode_batch`` against the reference search (``reference_decode``,
    a beam per candidate), decode by decode."""

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
    def _setup(starts, tails, coding, lengths, rows, seed, mode, order):
        """``(words, alphabet, tree, lm, matrices)`` of one drawn case."""
        words = starts + [starts[i % len(starts)] + tail for i, tail in enumerate(tails)]
        alphabet = _coded(coding)
        tree = PrefixTree(words, set(WORD_CHARS))
        lm = NgramModel.train(words, order) if mode.uses_lm else None
        rng = np.random.default_rng(seed)
        return words, alphabet, tree, lm, [_matrix(rows, rng, t, alphabet.num_classes)
                                           for t in lengths]

    @classmethod
    def _check(cls, starts, tails, coding, lengths, width, rows, seed, mode=WORDS, order=2):
        words, alphabet, tree, lm, matrices = cls._setup(starts, tails, coding, lengths, rows,
                                                         seed, mode, order)
        want = _reference(matrices, alphabet, tree, words, lm, width, mode)
        assert _exact(decode_batch(matrices, alphabet, tree, lm, width, mode)) == want

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @_cases
    def test_batch_equals_reference(self, starts, tails, coding, lengths, width, rows, seed):
        self._check(starts, tails, coding, lengths, width, rows, seed)

    @pytest.mark.parametrize("mode", [WORDS, NGRAMS])
    @pytest.mark.parametrize("lengths", [[30, 5, 30], [30, 30, 5]])
    def test_a_decode_that_ends_early_leaves_the_others_as_alone(self, lengths, mode):
        # A decode that ends frames before its neighbours, in the middle of
        # the batch and at its end: from its last frame on, its run of
        # survivors is empty, which the cut's bound, one ``reduceat`` over the
        # runs of the live decodes, skips. Width 2 keeps the bound active.
        words, alphabet, tree, lm, matrices = self._setup(
            list("abcdefghij"), ["ab", "c", "dd", "ba"], "extrasep", lengths, "random", 7,
            mode, 2)
        alone = [decode(m, alphabet, tree, lm, 2, mode) for m in matrices]
        got = decode_batch(matrices, alphabet, tree, lm, 2, mode)
        assert _exact(got) == _exact(alone) == _reference(matrices, alphabet, tree, words, lm,
                                                          2, mode)

    def test_picked_texts_that_end_in_nul_or_the_separator_come_back_whole(self):
        # "\x00" is a non-word symbol here, so a text may end in it or be it
        # alone. The picks are spelled together, through an array of code
        # points, where a fixed-width string view would drop a final NUL.
        alphabet = Alphabet("ab\x00", "|")
        words = ["ab", "ba"]
        tree = PrefixTree(words, {"a", "b"})
        col = alphabet.column_map()

        def spelling(labeling: str) -> PosteriorMatrix:
            # Each symbol's row peaks at its column, then a blank row.
            arr = np.full((2 * len(labeling), alphabet.num_classes), 0.02)
            for k, ch in enumerate(labeling):
                arr[2 * k, col[ch]] = arr[2 * k + 1, alphabet.blank_index] = 0.92
            return PosteriorMatrix(arr)

        want = ["ab\x00", "ab|", "\x00", "ba\x00\x00", "\x00ab\x00"]
        matrices = [spelling(text) for text in want]
        alone = [decode(m, alphabet, tree, width=4) for m in matrices]
        assert [text for text, _ in alone] == want
        rng = np.random.default_rng(9)
        mixed = matrices + [random_matrix(rng, 7, alphabet.num_classes)]
        got = decode_batch(mixed, alphabet, tree, width=4)
        assert _exact(got[:len(want)]) == _exact(alone)
        assert _exact(got) == _reference(mixed, alphabet, tree, words, width=4)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @_cases
    def test_batch_equals_reference_compacting_every_frame(self, starts, tails, coding,
                                                           lengths, width, rows, seed):
        # Every frame forgets the texts no survivor can reach and renumbers the rest.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(decoder, "_COMPACT_AT", -1)
            self._check(starts, tails, coding, lengths, width, rows, seed)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(**_strategies, **_modes)
    def test_every_mode_equals_reference(self, starts, tails, coding, lengths, width, rows,
                                         seed, mode, order):
        self._check(starts, tails, coding, lengths, width, rows, seed, mode, order)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(**{**_strategies, "lengths": st.lists(st.integers(1, 60), min_size=1, max_size=1)},
           **_modes)
    def test_a_batch_of_one_equals_reference(self, starts, tails, coding, lengths, width,
                                             rows, seed, mode, order):
        self._check(starts, tails, coding, lengths, width, rows, seed, mode, order)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(**{**_strategies, "lengths": st.lists(st.integers(1, 60), min_size=1, max_size=8)},
           **_modes, data=st.data())
    def test_a_decode_is_the_same_alone_in_any_split_and_in_any_order(
            self, starts, tails, coding, lengths, width, rows, seed, mode, order, data):
        _, alphabet, tree, lm, matrices = self._setup(starts, tails, coding, lengths, rows, seed,
                                                      mode, order)
        alone = [decode(m, alphabet, tree, lm, width, mode) for m in matrices]
        k = len(matrices)
        perm = data.draw(st.permutations(range(k)))
        cuts = sorted(data.draw(st.sets(st.integers(1, k - 1)))) if k > 1 else []
        got = [None] * k
        for a, b in zip([0] + cuts, cuts + [k]):
            batch = perm[a:b]
            for i, result in zip(batch, decode_batch([matrices[i] for i in batch], alphabet,
                                                     tree, lm, width, mode)):
                got[i] = result
        assert _exact(got) == _exact(alone)

    def test_a_step_may_fill_the_text_table(self, monkeypatch):
        # With ``_COMPACT_AT`` 0, each compaction leaves room for one step's
        # new texts, one per survivor. Frame 0 has no blank mass, so the
        # empty text's copy scores 0.0 and every decode keeps its three
        # extensions "a", "b" and " ": four decodes name 12 texts at once.
        alphabet = Alphabet("ab ")
        words = ["a", "b", "ab", "ba", "aab", "bba"]
        tree = PrefixTree(words, {"a", "b"})
        rng = np.random.default_rng(3)
        matrices = []
        for t in (2, 3, 5, 8):
            arr = rng.random((t, 4)) + 0.05
            arr[0] = [0.3, 0.3, 0.4, 0.0]
            matrices.append(PosteriorMatrix(arr / arr.sum(axis=1, keepdims=True)))
        steps = []
        name = decoder._Texts.name

        def counted(texts, *args):
            before = texts.count
            name(texts, *args)
            steps.append((texts.count - before, len(texts.child) - texts.count))

        monkeypatch.setattr(decoder._Texts, "name", counted)
        monkeypatch.setattr(decoder, "_COMPACT_AT", 0)
        got = decode_batch(matrices, alphabet, tree, width=3)
        assert steps[0] == (4 * 3, 0)  # named: one per survivor; rows left free: none
        assert _exact(got) == _reference(matrices, alphabet, tree, words, width=3)

    def test_text_order_decides_a_tie_across_the_cut(self):
        # Frame 0 leaves "" (0.5) and a tie at the cut of width 2: "b" and
        # " " (0.25 each). The smaller text, " ", survives, though the
        # extension by the trie child "b" comes first. Keeping "b" instead
        # would end in ("b", 0.3125).
        alphabet = Alphabet("b ")
        tree = PrefixTree(["b"], {"b"})
        m = PosteriorMatrix([[0.25, 0.25, 0.5], [0.25, 0.25, 0.5]])
        first = next(search_frames([m], alphabet, tree, width=2))
        assert sorted(c[1] for c in first[0]) == ["", " "]
        other = PosteriorMatrix([[0.5, 0.25, 0.25], [0.25, 0.25, 0.5], [0.6, 0.2, 0.2]])
        got = decode_batch([m, other, m], alphabet, tree, width=2)
        assert got[0] == got[2] == (" ", 0.3125)
        assert _exact(got) == _reference([m, other, m], alphabet, tree, ["b"], width=2)

    @staticmethod
    def _spelled_at_the_cut(monkeypatch, matrices, alphabet, tree, width):
        """``decode_batch``'s results, and the texts its cut spelled out for ties."""
        spelled = []
        cut = decoder._cut

        def spy(dec, score, width, n, texts_of):
            def spell(i):
                texts = texts_of(i)
                spelled.extend(texts)
                return texts

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
        frames = [sorted(c[1] for c in f[0]) for f in search_frames([m], alphabet, tree, width=3)]
        assert frames[1] == ["a", "ab", "b"]
        matrices = [m, random_matrix(np.random.default_rng(5), 6, 3), m]
        got, spelled = self._spelled_at_the_cut(monkeypatch, matrices, alphabet, tree, 3)
        assert {"ab", "ba"} <= set(spelled)
        assert _exact(got) == _reference(matrices, alphabet, tree, self._tie_tree[0], width=3)

    @pytest.mark.parametrize("compact_at", [None, -1])
    def test_a_tie_between_a_copy_and_an_extension_goes_by_text(self, monkeypatch, compact_at):
        # Frame 1 has no blank mass, so the copies of "a" and "b" score their
        # own repeats, 0.3 and 0.2, and the extensions "ba" and "ab" the same:
        # the third place falls to the extension "ab", before the copy "b".
        if compact_at is not None:
            monkeypatch.setattr(decoder, "_COMPACT_AT", compact_at)
        alphabet, tree = Alphabet("ab"), PrefixTree(*self._tie_tree)
        m = PosteriorMatrix([[0.5, 0.5, 0.0], [0.6, 0.4, 0.0], [0.3, 0.5, 0.2]])
        frames = [sorted(c[1] for c in f[0]) for f in search_frames([m], alphabet, tree, width=3)]
        assert frames[1] == ["a", "ab", "ba"]
        matrices = [m, random_matrix(np.random.default_rng(6), 6, 3), m]
        got, spelled = self._spelled_at_the_cut(monkeypatch, matrices, alphabet, tree, 3)
        assert {"ab", "b"} <= set(spelled)
        assert _exact(got) == _reference(matrices, alphabet, tree, self._tie_tree[0], width=3)

    def test_ties_after_an_underflow_spell_each_text_from_the_last_step(self, monkeypatch):
        # A 20-word line's ngrams score underflows to 0.0 long before its
        # last frame, and from there every candidate ties at the cut. Each
        # step's texts are spelled on from the step before's, so the
        # characters walked stay near one per survivor and frame, where
        # spelling each text in full walks frames times the text's length.
        letters = "abcdef"
        rng = random.Random(3)
        words = sorted({"".join(rng.choices(letters, k=rng.randint(3, 7))) for _ in range(100)})
        alphabet, tree = Alphabet(letters + " "), PrefixTree(words, set(letters))
        lm = NgramModel.train(words, 2, 1.0)
        line = " ".join(rng.choice(words) for _ in range(20))
        matrices = [RecognizerSim(alphabet, noise_level=0.3, seed=1).emit(line),
                    RecognizerSim(alphabet, noise_level=0.3, seed=2).emit(words[0])]
        want = _reference(matrices, alphabet, tree, words, lm, 4, NGRAMS)
        assert want[0][1] == (0.0).hex()
        walked = []

        class Counted(str):
            def __getitem__(self, k):
                walked.append(k)
                return str.__getitem__(self, k)

        init = decoder._Texts.__init__
        monkeypatch.setattr(decoder._Texts, "__init__",
                            lambda texts, symbols, *rest: init(texts, Counted(symbols), *rest))
        got = decode_batch(matrices, alphabet, tree, lm, 4, NGRAMS)
        assert _exact(got) == want
        assert 0 < len(walked) <= 2 * matrices[0].num_frames * 4

    def test_three_or_more_candidates_complete_to_one_word(self):
        # Every non-empty text of the last frame is a prefix of "abcd" and
        # completes to it, so their masses are summed, in text order.
        alphabet = Alphabet("abcd")
        tree = PrefixTree(["abcd"], set("abcd"))
        rng = np.random.default_rng(8)
        matrices = [random_matrix(rng, t, 5) for t in (3, 4, 5, 6) * 10]
        *_, last = search_frames(matrices[:1], alphabet, tree, width=10)
        assert sorted(c[1] for c in last[0]) == ["", "a", "ab", "abc"]
        got = decode_batch(matrices, alphabet, tree, width=10)
        assert {text for text, _ in got} == {"abcd"}
        assert _exact(got) == _reference(matrices, alphabet, tree, ["abcd"], width=10)

    def test_a_group_sums_in_node_order_which_is_text_order(self, monkeypatch):
        # Lines of several words over a trie of shared prefixes: groups of
        # three or more candidates of one decode, after one word-start text,
        # complete to one word, in one batch and in batches of one alike.
        # Completion sums each group in node order, which is text order;
        # both are also checked against the reference search.
        alphabet = Alphabet("abcd ")
        words = ["abcd", "abca", "abdd", "bcda", "bcdb", "cab", "d"]
        tree = PrefixTree(words, set("abcd"))
        rng = np.random.default_rng(11)
        matrices = [random_matrix(rng, t, 6) for t in range(4, 16) for _ in range(4)]
        sizes: list[list] = []
        pick = decoder.complete_beams

        def spy(dec, wst, node, fields, scorer, tree, texts, found):
            groups: dict = {}
            for q in np.flatnonzero(node).tolist():
                key = (int(dec[q]), int(wst[q]), int(scorer.lexmin[node[q]]))
                groups.setdefault(key, []).append(q)
            for group in groups.values():
                if len(group) > 2:
                    group = sorted(group, key=lambda q: node[q])
                    spelled = texts(np.array(group))
                    assert spelled == sorted(spelled)
                    depth = np.searchsorted(tree._levels, node[group[0]], "right") - 1
                    sizes[-1].append((len(group), spelled[0][:len(spelled[0]) - depth]))
            return pick(dec, wst, node, fields, scorer, tree, texts, found)

        monkeypatch.setattr(decoder, "complete_beams", spy)
        got = []
        for engine in (lambda: decode_batch(matrices, alphabet, tree, width=12),
                       lambda: [decode(m, alphabet, tree, width=12) for m in matrices]):
            sizes.append([])
            got.append(_exact(engine()))
            assert max(sizes[-1])[0] > 3
            assert len({start for _, start in sizes[-1]}) > 3  # after several word-start texts
        assert got[0] == got[1] == _reference(matrices, alphabet, tree, words, width=12)

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
        with pytest.raises(error) as alone:
            [decode(m, alphabet, tree, width=width) for m in matrices]

        def searched(*args):
            raise AssertionError("a frame was searched")

        monkeypatch.setattr(decoder, "_frames", searched)
        with pytest.raises(error) as batched:
            decode_batch(matrices, alphabet, tree, width=width)
        assert str(batched.value) == str(alone.value)

    def test_every_mode_batches_two_or_more_matrices(self, monkeypatch):
        # Any number of matrices of any mode, one included, run as one search
        # of their frames. At order 1 "cab" and "cba" tie from "c", which
        # completion settles by a search.
        alphabet = _coded("plain+space")
        words = ["abd", "cab", "cba", "a", "dab", "bcd"]
        tree = PrefixTree(words, set(WORD_CHARS))
        lm = NgramModel.train(words, order=1)
        rng = np.random.default_rng(12)
        matrices = [_matrix("random", rng, t, alphabet.num_classes) for t in (5, 9, 7)]
        batched = []
        run = decoder.frame_beams

        def spy(matrices, alphabet, tree, lm, width, mode):
            batched.append((mode, len(matrices)))
            return run(matrices, alphabet, tree, lm, width, mode)

        monkeypatch.setattr(decoder, "frame_beams", spy)
        modes = [WORDS, NGRAMS, NGRAMS_FORECAST, forecast_sample(2, 3)]
        for mode in modes:
            for k in (1, 2, 3):
                got = decode_batch(matrices[:k], alphabet, tree, lm, 6, mode)
                assert _exact(got) == _reference(matrices[:k], alphabet, tree, words, lm, 6, mode)
            assert _exact([decode(matrices[0], alphabet, tree, lm, 6, mode)]) == _exact(got[:1])
        assert batched == [(mode, k) for mode in modes for k in (1, 2, 3, 1)]
        c = tree._first[0] + children(tree, 0).index("c")
        for mode in modes[1:]:
            assert list(decoder._scorer(tree, lm, mode)._searched) == [c]

    def test_node_arrays_are_built_once_per_tree_and_alphabet(self, monkeypatch):
        # Two batches over one tree and alphabet build the extension arrays
        # once; a second alphabet on that tree (the trend lanes' plain and
        # extra-separator alphabets) builds its own, and reuses them too.
        words = ["a", "ab", "ba"]
        tree = PrefixTree(words, {"a", "b"})
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
            want = _reference(matrices, alphabet, tree, words, width=4)
            assert _exact(decode_batch(matrices, alphabet, tree, width=4)) == want
        assert built == ["ab", "ab|"]
        assert not any(a.flags.writeable for a in tree._extensions["ab|"])

    def test_node_arrays_take_few_bytes_a_node(self):
        # They are read at every decode, so the arrays of a 50,000-word trie
        # take at most 4 bytes a node (an int64 and an int32 a node took 12).
        words, _ = words_50k()
        tree = PrefixTree(words, LETTERS)
        matrix = PosteriorMatrix(np.full((3, 28), 1 / 28))
        decode_batch([matrix, matrix], Alphabet(LETTERS + " "), tree)
        [arrays] = tree._extensions.values()
        assert sum(a.nbytes for a in arrays) <= 4 * tree._first[-1]

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
        *_, last = search_frames([m], alphabet, tree, width=len(word) + 1)
        normal = [cand for cand in last[0] if cand[2] + cand[3] >= sys.float_info.min]
        assert normal
        for _, text, p_blank, p_nonblank, *_ in normal:
            assert word.startswith(text)
            assert p_blank + p_nonblank == pytest.approx(
                forward_probability(m, text, alphabet), rel=1e-9, abs=0.0)
