"""Trie construction: the flat arrays against literal layouts, a linear scan and
the reference trie."""

import gc
import random
import string
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from wordbeam import InputValidationError, PrefixTree, TrieScorer

from _support import (
    children,
    node_prefixes,
    reference_completions,
    reference_level_order,
    reference_trie,
    scorer_completion,
    trie_node,
    words_50k,
)

WC = set("abcdefgh")


def layout(t: PrefixTree) -> tuple[list[str], list[int], list[int]]:
    """``(kids, first, is_word)`` of a tree as plain lists: each node's child
    characters, ``_first`` (its last entry the node count) and ``_is_word``."""
    return ([children(t, n) for n in range(len(t._first) - 1)], list(t._first),
            list(t._is_word))


def scan_next_chars(words, prefix):
    return {w[len(prefix)] for w in words if w.startswith(prefix) and len(w) > len(prefix)}


def scan_completions(words, prefix):
    return sorted((w, w[len(prefix):]) for w in set(words) if w.startswith(prefix))


def test_branching():
    # root -a-> 1, whose children b and c are nodes 2 and 3
    assert layout(PrefixTree(["ab", "ac"], WC)) == (["a", "bc", "", ""], [1, 2, 4, 4, 4],
                                                   [0, 0, 1, 1])


def test_empty_dictionary():
    assert layout(PrefixTree([], WC)) == ([""], [1, 1], [0])


def test_dead_prefix():
    # "a" is the root's only child and "b" the only one of "a": "x" and "ax" are dead
    t = PrefixTree(["ab"], WC)
    assert [children(t, 0), children(t, 1)] == ["a", "b"]


def test_membership():
    # "ab" ends a word at node 2, its prefix "a" (node 1) does not
    t = PrefixTree(["ab", "abc"], WC)
    assert layout(t) == (["a", "b", "c", ""], [1, 2, 3, 4, 4], [0, 0, 1, 1])


def test_deduplication():
    assert layout(PrefixTree(["ab", "ab", "ab"], WC)) == layout(PrefixTree(["ab"], WC))


def test_rejects_empty_word():
    with pytest.raises(InputValidationError):
        PrefixTree([""], WC)


def test_rejects_nonword_character():
    with pytest.raises(InputValidationError):
        PrefixTree(["a|b"], WC)


def test_bad_word_error_names_first_word_and_character():
    with pytest.raises(InputValidationError) as err:
        PrefixTree(["ab", "hzy", "zq", "a|"], WC)
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


def test_random_dictionary_matches_scan():
    rng = random.Random(99)
    words = [
        "".join(rng.choice("abcd") for _ in range(rng.randint(1, 5))) for _ in range(50)
    ]
    t = PrefixTree(words, WC)
    root = reference_trie(words)
    prefixes = {""} | {w[:k] for w in words for k in range(1, len(w) + 1)} | {"zz", "ad"}
    for prefix in prefixes:
        assert reference_completions(root, prefix) == scan_completions(words, prefix)
        node = trie_node(root, prefix)
        if node is None:
            assert not scan_completions(words, prefix)
            continue
        assert children(t, node) == "".join(sorted(scan_next_chars(set(words), prefix)))
        assert t._is_word[node] == (prefix in set(words))


def test_first_completion_matches_full_enumeration():
    # Words-mode completion (no model) is the lexicographically first word.
    rng = random.Random(44)
    words = ["".join(rng.choice("abc") for _ in range(rng.randint(1, 5))) for _ in range(40)]
    t = PrefixTree(words, WC)
    scorer = TrieScorer(t)
    prefixes = {""} | {w[:k] for w in words for k in range(1, len(w) + 1)} | {"zz"}
    root = reference_trie(words)
    for prefix in prefixes:
        completions = scan_completions(words, prefix)
        node = trie_node(root, prefix)
        if node is None:
            assert completions == []
            continue
        remainder, end, p = scorer_completion(t, scorer, node)
        assert (prefix + remainder, remainder) == completions[0]
        assert end == trie_node(root, prefix + remainder) and t._is_word[end]
        assert p == 1.0


# Code points from three UTF-8 lengths and one astral character, so that
# sorting by code point differs from sorting by UTF-8 or UTF-16 units.
_TRIE_CHARS = "abcé€\U0001d11e"


def _stemmed_words(seed: int, n: int) -> list[str]:
    """``n`` words of 1-40 characters, many of which share long stems."""
    rng = random.Random(seed)
    stems = ["".join(rng.choices(_TRIE_CHARS, k=rng.randint(0, 30))) for _ in range(40)]
    return [(rng.choice(stems) + "".join(rng.choices(_TRIE_CHARS, k=rng.randint(1, 10))))[:40]
            for _ in range(n)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(words=st.lists(st.text(_TRIE_CHARS, min_size=1, max_size=40), max_size=25),
       probes=st.lists(st.text(_TRIE_CHARS + "z", max_size=7), max_size=10))
@example(words=_stemmed_words(2_000, 2_000), probes=[])
def test_flat_layout_is_the_level_order_of_the_reference_trie(words, probes):
    t = PrefixTree(words, set(_TRIE_CHARS))
    root = reference_trie(words)
    kids, first, is_word = reference_level_order(root)
    assert layout(t) == (kids, first, is_word)
    assert t._first[-1] == len(kids)
    assert t._chars == "".join(kids)
    # A walk of the flat arrays reaches, for every live prefix, the node
    # whose id the reference trie gives it, and no node for a dead one; and
    # ``_prefix`` walks every node back to its prefix.
    for prefix in {w[:i] for w in words for i in range(len(w) + 1)} | set(probes):
        node = 0
        for ch in prefix:
            k = children(t, node).find(ch)
            if k < 0:
                node = None
                break
            node = t._first[node] + k
        assert node == trie_node(root, prefix)
    assert [t._prefix(n) for n in range(len(kids))] == node_prefixes(root)
    assert sum(t._is_word) == len(set(words))


def _reference_layout(words, word_chars) -> PrefixTree:
    """The tree of ``words``, after checking its arrays against the reference trie's."""
    t = PrefixTree(words, word_chars)
    kids, first, is_word = reference_level_order(reference_trie(words))
    assert layout(t) == (kids, first, is_word)
    assert t._first[-1] == len(kids)
    assert t._chars == "".join(kids)
    return t


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _stems_and_tails(seed: int) -> list[str]:
    """14-20-letter words, many sharing their first 13 letters (as many as one
    key of a-z holds), and a 13-letter word among its extensions."""
    rng = random.Random(seed)
    stems = ["".join(rng.choices(_LETTERS, k=rng.randint(13, 16))) for _ in range(8)]
    words = [(rng.choice(stems) + "".join(rng.choices(_LETTERS, k=4)))[:rng.randint(14, 20)]
             for _ in range(300)]
    return words + [stems[0][:13], _LETTERS]


def _long_among_short(seed: int) -> list[str]:
    """A 5,000-letter word, a copy of it with another last letter and one of
    its prefixes, among 2,000 words of 1-12 letters."""
    rng = random.Random(seed)
    long = "".join(rng.choices(_LETTERS, k=5_000))
    short = ["".join(rng.choices(_LETTERS, k=rng.randint(1, 12))) for _ in range(2_000)]
    return short[:1_000] + [long, long[:-1] + "z", long[:2_500]] + short[1_000:]


@pytest.mark.parametrize("words, word_chars", [
    (["\x00a", "a\x00", "a\x00b", "\x00", "\x00\x00", "\n", "a\nb", "ab\n", "ab"], "ab\x00\n"),
    (["\x00\U0001d11e", "\U0001d11e\x00", "\U0001d11e", "\x00", "a\x00\n"], "a\x00\n\U0001d11e"),
    ([chr(c) + chr(255 - c) for c in range(256)] + ["\xff\x00\x01"], [chr(c) for c in range(256)]),
    (["".join(chr(0x100 + (7 * i + j) % 300) for j in range(i % 5 + 1)) for i in range(900)],
     [chr(0x100 + c) for c in range(300)]),
    (_stems_and_tails(14), _LETTERS),
    (_long_among_short(5_000), _LETTERS),
], ids=["nul-and-newline", "nul-and-astral", "256-latin-1", "300-bmp", "14-20-letters",
        "5000-letters"])
def test_edge_dictionaries_match_the_reference_trie(words, word_chars):
    # Code points the build could take for its own markers, more distinct
    # characters than one byte ranks, ties past one sort key, and a word
    # far longer than the rest.
    _reference_layout(words, word_chars)


def test_shuffled_and_duplicated_input_gives_identical_arrays():
    words = _stems_and_tails(7) + _long_among_short(8)
    rng = random.Random(9)
    shuffled = words + rng.sample(words, 1_000)
    rng.shuffle(shuffled)
    a, b = PrefixTree(sorted(set(words)), _LETTERS), _reference_layout(shuffled, _LETTERS)
    assert (a._first, a._is_word, a._chars) == (b._first, b._is_word, b._chars)


@pytest.mark.parametrize("words, message", [
    (["ab", "a|", ""], "word 'a|' contains non-word character '|'"),
    (["ab", "", "a|"], "dictionary words must be non-empty"),
    (["hb", "hb", "zz", "aq", ""], "word 'zz' contains non-word character 'z'"),
])
def test_fault_error_names_the_first_faulty_word_in_input_order(words, message):
    with pytest.raises(InputValidationError) as err:
        PrefixTree(words, WC)
    assert str(err.value) == message


def test_large_trie_keeps_little_memory_and_few_collector_objects():
    # 50,000 words, the size of a lexicon the decoder must hold: the flat
    # arrays keep under 2 MiB (1.3 MiB; 3.8 MiB with a string of child
    # characters per node) and add a handful of objects the cyclic
    # collector tracks, where a trie of node objects kept about 46 MiB
    # and 400k tracked objects of this dictionary.
    words, _ = words_50k()
    gc.collect()
    tracked = len(gc.get_objects())
    tracemalloc.start()
    try:
        tree = PrefixTree(words, string.ascii_lowercase)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gc.collect()
    assert len(gc.get_objects()) - tracked < 100
    assert retained < 2 * 2**20
    # The build's arrays live a stage at a time, and its matrices of ranks
    # are bounded by the number of characters: 7.5 MiB on a build that
    # sorted the words as strings, 7.8 MiB on the one over ranks.
    assert peak <= 9 * 2**20
    assert sum(tree._is_word) == len(set(words))
