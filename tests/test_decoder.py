"""Dual-state word beam search: bookkeeping, constraints and completion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wordbeam import (
    Alphabet,
    Beam,
    ConfigurationError,
    InputValidationError,
    NGRAMS,
    NGRAMS_FORECAST,
    NgramModel,
    PosteriorMatrix,
    PrefixTree,
    WORDS,
    best_path_decode,
    complete_beams,
    decode,
    forecast_sample,
    frame_beams,
    labeling_distribution,
)

from _support import constrained_argmax, random_matrix, reference_decode, reference_frame_beams

WC = set("abcdefgh")


class TestDecodeBasics:
    def test_peaked_word_matches_exhaustive(self):
        alphabet = Alphabet("ab")
        tree = PrefixTree(["ab"], {"a", "b"})
        m = PosteriorMatrix([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        label, p = decode(m, alphabet, tree, width=10_000)
        exp_label, exp_p = constrained_argmax(labeling_distribution(m, alphabet), tree)
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
        a = beams["a"]
        assert a.p_blank == pytest.approx(0.25)
        assert a.p_nonblank == pytest.approx(0.5)
        assert beams[""].p_total == pytest.approx(0.25)
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

    def test_partition_mismatch(self):
        alphabet = Alphabet("abc")
        tree = PrefixTree(["ab"], {"a", "b"})  # 'c' is unclassified
        m = PosteriorMatrix([[0.25, 0.25, 0.25, 0.25]])
        with pytest.raises(ConfigurationError):
            decode(m, alphabet, tree)

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
            tree = PrefixTree(
                words, {"a", "b", "c"}, {"."} if use_nonword else set()
            )
            t = int(rng.integers(2, 7))
            m = random_matrix(rng, t, alphabet.num_classes)
            label, p = decode(m, alphabet, tree, width=10_000)
            exp_label, exp_p = constrained_argmax(labeling_distribution(m, alphabet), tree)
            assert label == exp_label, f"instance {i}"
            assert p == pytest.approx(exp_p, abs=1e-9)

    def test_every_output_is_dictionary_consistent(self):
        rng = np.random.default_rng(77)
        py_rng = __import__("random").Random(77)
        alphabet = Alphabet("abc.")
        for _ in range(25):
            words = py_rng.sample(["a", "b", "ab", "abc", "ba", "ca", "cc"], 4)
            tree = PrefixTree(words, {"a", "b", "c"}, {"."})
            m = random_matrix(rng, int(rng.integers(2, 6)), 5)
            label, _ = decode(m, alphabet, tree, width=50)
            for fragment in label.split("."):
                assert fragment == "" or tree.is_word(fragment)

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
        # With every character classified non-word the search is
        # unconstrained, so the merged beams must carry all path mass.
        rng = np.random.default_rng(21)
        alphabet = Alphabet("ab")
        tree = PrefixTree([], set(), {"a", "b"})
        for _ in range(10):
            m = random_matrix(rng, int(rng.integers(1, 8)), 3)
            for beams in frame_beams(m, alphabet, tree, width=10**9):
                assert sum(b.p_total for b in beams.values()) == pytest.approx(
                    1.0, abs=1e-9
                )


class TestScoringModes:
    def _setup(self):
        alphabet = Alphabet("ab", separator="|")
        tree = PrefixTree(["ab"], {"a", "b"}, {"|"})
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
        assert p_n == pytest.approx(p_w * lm.word_probability("ab"))

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
        tree = PrefixTree(["aa", "ab"], {"a", "b"}, {"|"})
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
        assert lm.word_probability("aa") > lm.word_probability("ab")


class TestCompleteBeams:
    def test_unique_completion(self):
        tree = PrefixTree(["abc"], WC)
        out = complete_beams([Beam("ab", "ab", 0.3, 0.2)], tree)
        assert list(out) == ["abc"]
        assert out["abc"].p_blank == 0.3
        assert out["abc"].p_nonblank == 0.2
        assert out["abc"].word_prefix == "abc"

    def test_complete_word_untouched(self):
        tree = PrefixTree(["ab", "abc"], WC)
        out = complete_beams([Beam("ab", "ab", 0.1, 0.1)], tree)
        assert list(out) == ["ab"]

    def test_nonword_state_untouched(self):
        tree = PrefixTree(["ab"], WC, {"|"})
        out = complete_beams([Beam("ab|", "", 0.1, 0.1)], tree)
        assert list(out) == ["ab|"]

    def test_lm_ranked_completion(self):
        tree = PrefixTree(["abc", "abd"], WC)
        lm = NgramModel.train(["abc", "abc", "abd"], order=2)
        out = complete_beams([Beam("ab", "ab", 0.2, 0.2)], tree, lm, NGRAMS)
        assert list(out) == ["abc"]  # hand-checked: (3/8)(3/7) > (2/8)(2/6)
        assert out["abc"].p_text == pytest.approx(lm.word_probability("abc"))

    def test_lexicographic_completion_in_words_mode(self):
        tree = PrefixTree(["abd", "abc"], WC)
        out = complete_beams([Beam("ab", "ab", 0.2, 0.2)], tree)
        assert list(out) == ["abc"]

    def test_collision_sums_mass(self):
        tree = PrefixTree(["abc"], WC)
        out = complete_beams(
            [Beam("ab", "ab", 0.1, 0.2), Beam("abc", "abc", 0.05, 0.15)], tree
        )
        assert list(out) == ["abc"]
        assert out["abc"].p_total == pytest.approx(0.5)


class TestSharedScorer:
    MODES = (WORDS, NGRAMS, NGRAMS_FORECAST, forecast_sample(3, seed=4))

    def _setup(self):
        rng = np.random.default_rng(8)
        py_rng = __import__("random").Random(8)
        alphabet = Alphabet("abc", separator="|")
        words = sorted({"".join(py_rng.choice("abc") for _ in range(py_rng.randint(1, 4)))
                        for _ in range(25)})
        tree = PrefixTree(words, {"a", "b", "c"}, {"|"})
        lm = NgramModel.train(words, order=2)
        matrices = [random_matrix(rng, int(rng.integers(3, 9)), 5) for _ in range(6)]
        return alphabet, tree, lm, matrices

    @staticmethod
    def _count_conditionals(monkeypatch) -> list:
        calls = []
        conditional = NgramModel.conditional

        def counted(self, word_prefix, c):
            calls.append(c)
            return conditional(self, word_prefix, c)

        monkeypatch.setattr(NgramModel, "conditional", counted)
        return calls

    def test_tables_filled_by_earlier_decodes_change_nothing(self):
        alphabet, tree, lm, matrices = self._setup()
        for mode in self.MODES:
            for m in matrices:
                shared = decode(m, alphabet, tree, lm, 8, mode)
                fresh = PrefixTree(tree.words(), tree.word_chars, tree.nonword_chars)
                assert shared == decode(m, alphabet, fresh, lm, 8, mode)

    def test_second_decode_reads_only_tables(self, monkeypatch):
        alphabet, tree, lm, matrices = self._setup()
        calls = self._count_conditionals(monkeypatch)
        for mode in self.MODES[1:]:
            first = decode(matrices[0], alphabet, tree, lm, 8, mode)
            assert calls, mode  # the first decode filled tables
            calls.clear()
            assert decode(matrices[0], alphabet, tree, lm, 8, mode) == first
            assert calls == [], mode

    def test_equal_modes_share_one_set_of_tables(self, monkeypatch):
        alphabet, tree, lm, matrices = self._setup()
        decode(matrices[0], alphabet, tree, lm, 8, forecast_sample(3, seed=4))
        calls = self._count_conditionals(monkeypatch)
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
            assert beams["ab"].p_text != 1.0  # ranked by the forecast of "ab"
            out = complete_beams([beams["ab"]], tree, lm, mode)
            # nothing committed before "ab", so the completion scores its remainder
            assert out["abc"].p_text == pytest.approx(lm.remainder_probability("ab", "c"))


WORD_CHARS = "abcdefghijkl"


class TestFlatFrameLoop:
    """The flat-candidate frame loop against the Beam-per-candidate reference."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        starts=st.lists(st.sampled_from(WORD_CHARS), min_size=10, max_size=12, unique=True),
        tails=st.lists(st.text(WORD_CHARS[:5], max_size=4), min_size=1, max_size=30),
        coding=st.sampled_from(["plain", "plain+space", "extrasep"]),
        mode=st.sampled_from([WORDS, NGRAMS, NGRAMS_FORECAST, forecast_sample(2, seed=3)]),
        order=st.integers(1, 3),
        t=st.integers(1, 60),
        width=st.integers(1, 40),
        levels=st.sampled_from([0, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_frames_and_decode_equal_reference(self, starts, tails, coding, mode, order, t,
                                               width, levels, seed):
        words = starts + [starts[i % len(starts)] + tail for i, tail in enumerate(tails)]
        sep = "|" if coding == "extrasep" else None
        chars = WORD_CHARS + (" " if coding == "plain+space" else "")
        alphabet = Alphabet(chars, separator=sep)
        nonword = set(alphabet.symbols) - set(WORD_CHARS)
        tree = PrefixTree(words, set(WORD_CHARS), nonword)
        lm = NgramModel.train(words, order=order)
        rng = np.random.default_rng(seed)
        if levels:  # few distinct values, so that scores tie and texts break the ties
            arr = rng.integers(1, levels + 1, (t, alphabet.num_classes)).astype(float)
            m = PosteriorMatrix(arr / arr.sum(axis=1, keepdims=True))
        else:
            m = random_matrix(rng, t, alphabet.num_classes)
        frames = frame_beams(m, alphabet, tree, lm, width, mode)
        reference = reference_frame_beams(m, alphabet, tree, lm, width, mode)
        count = 0
        for got, want in zip(frames, reference, strict=True):
            assert len(got) == len(want)
            assert {k: (b.word_prefix, b.p_blank, b.p_nonblank, b.p_text)
                    for k, b in got.items()} == {
                k: (b.word_prefix, b.p_blank, b.p_nonblank, b.p_text)
                for k, b in want.items()}
            count += 1
        assert count == t
        assert decode(m, alphabet, tree, lm, width, mode) == reference_decode(
            m, alphabet, tree, lm, width, mode)

    def test_frame_set_is_a_read_only_mapping(self):
        alphabet = Alphabet("ab")
        tree = PrefixTree(["ab", "b"], {"a", "b"})
        m = PosteriorMatrix([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3]])
        first = next(iter(frame_beams(m, alphabet, tree)))
        assert len(first) == 3
        with pytest.raises(TypeError):
            first["x"] = Beam("x")
        assert sorted(first) == ["", "a", "b"]
        assert first["a"] is first["a"]
