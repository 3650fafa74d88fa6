"""Plurality voting cascade."""

import random

import pytest

from wordbeam import Hypothesis, InputValidationError, vote, winning_group_size


def hyp(*pairs):
    return [Hypothesis(t, p) for t, p in pairs]


class TestVoteCascade:
    def test_plurality_overrides_likelihood(self):
        winner = vote(hyp(("a", 0.5), ("a", 0.1), ("b", 0.9)))
        assert winner.text == "a"

    def test_size_tie_falls_to_mean_likelihood(self):
        # groups of two each: mean 0.25 for "a", 0.35 for "b"
        winner = vote(hyp(("a", 0.2), ("a", 0.3), ("b", 0.6), ("b", 0.1)))
        assert winner.text == "b"

    def test_all_distinct_falls_to_likelihood(self):
        winner = vote(hyp(("a", 0.2), ("b", 0.3), ("c", 0.4)))
        assert winner.text == "c"

    def test_full_tie_falls_to_lexicographic(self):
        winner = vote(hyp(("b", 0.2), ("a", 0.2)))
        assert winner.text == "a"

    def test_returned_member_is_best_of_group(self):
        winner = vote(hyp(("a", 0.1), ("a", 0.7), ("b", 0.9)))
        assert winner == Hypothesis("a", 0.7)

    def test_empty_rejected(self):
        with pytest.raises(InputValidationError):
            vote([])

    def test_majority_of_five_always_wins(self):
        rng = random.Random(3)
        for _ in range(200):
            hyps = hyp(
                ("maj", rng.random()),
                ("maj", rng.random()),
                ("maj", rng.random()),
                (rng.choice(["x", "y"]), rng.random()),
                (rng.choice(["x", "maj"]), rng.random()),
            )
            assert vote(hyps).text == "maj"

    def test_permutation_invariance(self):
        rng = random.Random(8)
        hyps = hyp(("a", 0.2), ("b", 0.7), ("a", 0.4), ("c", 0.9), ("b", 0.1))
        expected = vote(hyps)
        for _ in range(300):
            shuffled = hyps[:]
            rng.shuffle(shuffled)
            assert vote(shuffled) == expected

    def test_scale_invariance_with_unique_plurality(self):
        rng = random.Random(4)
        for _ in range(100):
            hyps = hyp(("a", rng.random()), ("a", rng.random()), ("b", rng.random()))
            scaled = [Hypothesis(h.text, h.likelihood * 37.5) for h in hyps]
            assert vote(hyps).text == vote(scaled).text == "a"

    def test_group_size(self):
        hyps = hyp(("a", 0.5), ("a", 0.1), ("b", 0.9))
        assert winning_group_size(hyps, vote(hyps)) == 2


class TestHypothesis:
    def test_negative_likelihood_rejected(self):
        with pytest.raises(InputValidationError):
            Hypothesis("a", -0.1)

    def test_non_finite_rejected(self):
        with pytest.raises(InputValidationError):
            Hypothesis("a", float("nan"))

