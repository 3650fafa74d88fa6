"""Plain vs extra-separator label coding, set by the alphabet."""

import random

import pytest

from wordbeam import Alphabet, InputValidationError, choose_separator, decode_label, encode_label

LETTERS = "abcdefghijklmnopqrstuvwxyzàéüß"
BAR = Alphabet("A" + LETTERS, separator="|")
PLAIN = Alphabet("A" + LETTERS)


class TestEncodeDecode:
    def test_append_separator(self):
        assert encode_label("Afdeeling", BAR) == "Afdeeling|"

    def test_plain_is_identity(self):
        assert encode_label("x", PLAIN) == "x"

    def test_empty_word(self):
        assert encode_label("", BAR) == "|"

    def test_word_containing_separator_rejected(self):
        with pytest.raises(InputValidationError):
            encode_label("a|b", BAR)

    def test_strip_trailing_separator(self):
        assert decode_label("advocaat|", BAR) == "advocaat"

    def test_missing_separator_tolerated(self):
        assert decode_label("advocaat", BAR) == "advocaat"

    def test_only_one_separator_stripped(self):
        assert decode_label("ab||", BAR) == "ab|"

    def test_round_trip_random_words(self):
        rng = random.Random(13)
        for _ in range(1000):
            word = "".join(rng.choice(LETTERS) for _ in range(rng.randint(0, 12)))
            assert decode_label(encode_label(word, BAR), BAR) == word
            assert decode_label(encode_label(word, PLAIN), PLAIN) == word


class TestChooseSeparator:
    def test_first_absent_candidate(self):
        assert choose_separator("abc") == "|"
        assert choose_separator("ab|") == "#"
        assert choose_separator("|#") == "~"

    def test_all_present_rejected(self):
        with pytest.raises(InputValidationError):
            choose_separator("|#~¤")
