"""Trie construction, prefix queries and the linear-scan reference."""

import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from wordbeam import InputValidationError, PrefixTree, TrieScorer

from _support import reference_level_order, reference_trie, trie_node

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
    # The build leaves the cyclic collector as it found it, after a
    # validation error ("ax") too.
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
            assert t._kids[node] == "".join(sorted(t._kids[node]))
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
        assert end == trie_node(t, prefix + remainder) and t.is_word(prefix + remainder)
        assert p == 1.0


def test_next_chars_consistent_with_completions():
    rng = random.Random(5)
    words = ["".join(rng.choice("abc") for _ in range(rng.randint(1, 4))) for _ in range(30)]
    t = PrefixTree(words, WC)
    for prefix in {w[:k] for w in words for k in range(len(w) + 1)}:
        from_completions = {r[0] for _, r in t.completions(prefix) if r}
        assert t.next_chars(prefix) == from_completions


# Code points from three UTF-8 lengths and one astral character, so that
# sorting by code point differs from sorting by UTF-8 or UTF-16 units.
_TRIE_CHARS = "abcé€\U0001d11e"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(words=st.lists(st.text(_TRIE_CHARS, min_size=1, max_size=6), max_size=25),
       probes=st.lists(st.text(_TRIE_CHARS + "z", max_size=7), max_size=10))
def test_flat_layout_is_the_level_order_of_the_reference_trie(words, probes):
    t = PrefixTree(words, set(_TRIE_CHARS))
    root = reference_trie(words)
    kids, first, is_word = reference_level_order(root)
    assert t._kids == kids
    assert list(t._first) == first
    assert list(t._is_word) == is_word
    # Prefix queries agree with a walk of the reference trie.
    for prefix in {w[:i] for w in words for i in range(len(w) + 1)} | set(probes):
        ref, ref_id = root, 0
        for ch in prefix:
            if ch not in ref.children:
                ref = None
                break
            ref_id = first[ref_id] + kids[ref_id].index(ch)
            ref = ref.children[ch]
        if ref is None:
            assert t._find(prefix) is None
            assert t.next_chars(prefix) == set()
            assert t.completions(prefix) == []
            continue
        assert t._find(prefix) == ref_id
        assert t.next_chars(prefix) == set(ref.children)
        assert t.is_word(prefix) == ref.is_word
        out = []
        stack = [(ref, "")]
        while stack:
            node, suffix = stack.pop()
            if node.is_word:
                out.append((prefix + suffix, suffix))
            stack.extend((node.children[c], suffix + c) for c in sorted(node.children, reverse=True))
        assert t.completions(prefix) == out
    assert len(t) == len(set(words))
    assert t.words() == sorted(set(words))


def test_large_trie_keeps_little_memory_and_few_collector_objects():
    # 50,000 words, the size of a lexicon the decoder must hold: the flat
    # arrays keep a few MiB and add a handful of objects the cyclic
    # collector tracks, where a trie of node objects kept about 46 MiB
    # and 400k tracked objects of this dictionary.
    rng = random.Random(50_000)
    letters = "abcdefghijklmnopqrstuvwxyz"
    words = ["".join(rng.choices(letters, k=rng.randint(2, 12))) for _ in range(50_000)]
    gc.collect()
    tracked = len(gc.get_objects())
    tracemalloc.start()
    try:
        tree = PrefixTree(words, letters)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gc.collect()
    assert len(gc.get_objects()) - tracked < 100
    assert retained < 15 * 2**20
    assert len(tree) == len(set(words))
