"""Character trie over a dictionary and the characters its words may use."""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import InputValidationError


class PrefixTree:
    """Trie over a deduplicated word list.

    ``word_chars`` are the characters legal inside words; the tree keeps no
    others, so a decode's non-word characters (separators, punctuation) are
    its alphabet's other symbols. After construction its words and structure
    are immutable. It also holds the decoder's language-model tables, one
    ``TrieScorer`` per (model, scoring mode), made and filled as decodes
    first need them.

    The trie is stored as flat arrays over integer node ids, and those
    arrays are its interface: it has no per-node objects and no prefix
    queries. Nodes are numbered in level order with the root at 0, and a
    node's children have consecutive ids in code-point order of their
    characters. Per node ``n``: ``_kids[n]`` is the string of its child
    characters, sorted; ``_first[n]`` is the id of its first child, so
    child ``k`` is ``_first[n] + k``; ``_is_word[n]`` is 1 when the node
    ends a word. A node id is the only form in which the decoder and
    ``TrieScorer`` hold a prefix: they walk children in that order without
    sorting, and a table that misses rebuilds its node's prefix with
    ``_prefix``.
    """

    def __init__(self, words: Iterable[str], word_chars: Iterable[str]) -> None:
        self.word_chars = frozenset(word_chars)
        self._scorers: dict = {}
        words = list(words)
        distinct = set(words)  # duplicates carry no extra information here
        if "" in distinct or not self.word_chars.issuperset(chain.from_iterable(distinct)):
            _raise_first_fault(words, self.word_chars)
        self._kids, self._first, self._is_word = _level_order(sorted(distinct))

    def _children(self, node: int) -> enumerate:
        """``(child id, character)`` pairs of ``node``, in code-point order."""
        return enumerate(self._kids[node], self._first[node])

    def _prefix(self, node: int) -> str:
        """The characters on the path from the root to ``node``.

        Ids ascend with ``_first``, so a node's parent is the last node whose
        first child is at or before it, and its character is the parent's
        child string at its offset from that first child.
        """
        first, kids = self._first, self._kids
        chars = []
        while node:
            parent = bisect_right(first, node) - 1
            chars.append(kids[parent][node - first[parent]])
            node = parent
        return "".join(reversed(chars))


def _raise_first_fault(words: list[str], word_chars: frozenset[str]) -> None:
    """Name the first word, in input order, that is empty or has a non-word character."""
    for word in words:
        if not word:
            raise InputValidationError("dictionary words must be non-empty")
        if not word_chars.issuperset(word):
            bad = next(ch for ch in word if ch not in word_chars)
            raise InputValidationError(f"word {word!r} contains non-word character {bad!r}")


def _level_order(words: list[str]) -> tuple[list[str], array, bytearray]:
    """``(kids, first, is_word)`` of the trie over sorted, distinct, non-empty words.

    One pass over the words: each word shares its longest common prefix
    with the one before it, and adds a node for every character after
    that. Nodes are appended to per-depth lists, so each depth's nodes come
    in lexicographic order of their prefixes, which is level order, and
    each node's children come in code-point order. The lists are then
    flattened: node ``n``'s children follow those of every node before it,
    so its first child is 1 plus the number of children of nodes ``< n``
    (a running sum, taken in numpy).
    """
    depth = max(map(len, words), default=0)
    level_kids: list[list[str]] = [[""]] + [[] for _ in range(depth)]
    level_word = [bytearray(1)] + [bytearray() for _ in range(depth)]
    prev = ""
    for word in words:
        # The word sorts after ``prev``, so it is not a prefix of it: the scan
        # stops at a differing character or, if ``prev`` is a prefix of the
        # word, at the end of ``prev``.
        shared = 0
        try:
            while prev[shared] == word[shared]:
                shared += 1
        except IndexError:
            pass
        # The node of the shared prefix gains child ``word[shared]``; each new
        # node below it has one child so far, the word's next character, and
        # the last one ends the word.
        level_kids[shared][-1] += word[shared]
        end = len(word)
        for d in range(shared + 1, end):
            level_kids[d].append(word[d])
            level_word[d].append(0)
        level_kids[end].append("")
        level_word[end].append(1)
        prev = word
    kids = list(chain.from_iterable(level_kids))
    ends = np.cumsum(np.fromiter(map(len, kids), np.intc, len(kids)), dtype=np.intc)
    first = array("i", [1])  # C int, as np.intc
    first.frombytes((ends[:-1] + 1).tobytes())
    return kids, first, bytearray().join(level_word)
