"""Trie construction, prefix queries and the linear-scan reference."""

import gc
import random

import pytest

from wordbeam import InputValidationError, PrefixTree, TrieScorer

from _support import trie_node

WC = set("abcdefgh")


def scan_next_chars(words, prefix):
    return {w[len(prefix)] for w in words if w.startswith(prefix) and len(w) > len(prefix)}


def scan_completions(words, prefix):
    return sorted((w, w[len(prefix):]) for w in set(words) if w.startswith(prefix))


def test_branching():
    t = PrefixTree(["ab", "ac"], WC)
    assert t.next_chars("a") == {"b", "c"}


def test_empty_dictionary():
    t = PrefixTree([], WC)
    assert t.next_chars("") == set()
    assert len(t) == 0


def test_dead_prefix():
    t = PrefixTree(["ab"], WC)
    assert t.next_chars("x") == set()


def test_completions_include_remainders():
    t = PrefixTree(["ab", "abc"], WC)
    assert t.completions("ab") == [("ab", ""), ("abc", "c")]
    assert t.completions("") == [("ab", "ab"), ("abc", "abc")]  # empty prefix: all words


def test_membership():
    t = PrefixTree(["ab"], WC)
    assert t.is_word("ab")
    assert "ab" in t
    assert not t.is_word("a")
    assert "x" not in t


def test_deduplication():
    t = PrefixTree(["ab", "ab", "ab"], WC)
    assert len(t) == 1
    assert t.words() == ["ab"]


def test_rejects_empty_word():
    with pytest.raises(InputValidationError):
        PrefixTree([""], WC)


def test_rejects_nonword_character():
    with pytest.raises(InputValidationError):
        PrefixTree(["a|b"], WC, {"|"})


def test_bad_word_error_names_first_word_and_character():
    with pytest.raises(InputValidationError) as err:
        PrefixTree(["ab", "hzy", "zq", "a|"], WC, {"|"})
    assert str(err.value) == "word 'hzy' contains non-word character 'z'"


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("words", [["ab", "abc", "b"], ["ab", "ax"]])
def test_collector_state_is_restored(enabled, words):
    # The build pauses the cyclic collector; it must leave it as it found
    # it, after a validation error ("ax") too.
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            PrefixTree(words, WC)
        except InputValidationError:
            pass
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_rejects_overlapping_sets():
    with pytest.raises(InputValidationError):
        PrefixTree(["a"], {"a", "b"}, {"b"})


def test_random_dictionary_matches_scan():
    rng = random.Random(99)
    words = [
        "".join(rng.choice("abcd") for _ in range(rng.randint(1, 5))) for _ in range(50)
    ]
    t = PrefixTree(words, WC)
    prefixes = {""} | {w[:k] for w in words for k in range(1, len(w) + 1)} | {"zz", "ad"}
    for prefix in prefixes:
        assert t.next_chars(prefix) == scan_next_chars(set(words), prefix)
        assert t.completions(prefix) == scan_completions(words, prefix)
        node = trie_node(t, prefix)
        if node is not None:
            assert list(node.children) == sorted(node.children)
    for w in words:
        assert t.is_word(w)
    for probe in ("", "zzz", "abcde", "da"):
        assert t.is_word(probe) == (probe in set(words))


def test_first_completion_matches_full_enumeration():
    # Words-mode completion (no model) is the lexicographically first word.
    rng = random.Random(44)
    words = ["".join(rng.choice("abc") for _ in range(rng.randint(1, 5))) for _ in range(40)]
    t = PrefixTree(words, WC)
    scorer = TrieScorer(t)
    prefixes = {""} | {w[:k] for w in words for k in range(1, len(w) + 1)} | {"zz"}
    for prefix in prefixes:
        completions = t.completions(prefix)
        node = trie_node(t, prefix)
        if node is None:
            assert completions == []
            continue
        remainder, end, p = scorer.complete(node, prefix)
        assert (prefix + remainder, remainder) == completions[0]
        assert end.is_word and p == 1.0


def test_next_chars_consistent_with_completions():
    rng = random.Random(5)
    words = ["".join(rng.choice("abc") for _ in range(rng.randint(1, 4))) for _ in range(30)]
    t = PrefixTree(words, WC)
    for prefix in {w[:k] for w in words for k in range(len(w) + 1)}:
        from_completions = {r[0] for _, r in t.completions(prefix) if r}
        assert t.next_chars(prefix) == from_completions
