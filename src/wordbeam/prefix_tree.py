"""Character trie over a dictionary and the characters its words may use."""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import count
from typing import Iterable

import numpy as np

from .errors import InputValidationError


class PrefixTree:
    """Trie over a deduplicated word list.

    ``word_chars`` are the characters legal inside words; the tree keeps no
    others, so a decode's non-word characters (separators, punctuation) are
    its alphabet's other symbols. After construction its words and structure
    are immutable. It also holds the decoder's language-model tables, one
    ``TrieScorer`` per (model, scoring mode), made when a decode first needs
    it, with its arrays by node.

    The trie is stored as flat arrays over integer node ids, and those
    arrays are its interface: it has no per-node objects and no prefix
    queries. Nodes are numbered in level order with the root at 0, and a
    node's children have consecutive ids in code-point order of their
    characters. Per node ``n``: ``_kids[n]`` is the string of its child
    characters, sorted; ``_first[n]`` is the id of its first child, so
    child ``k`` is ``_first[n] + k``; ``_is_word[n]`` is 1 when the node
    ends a word; for ``n >= 1``, ``_chars[n - 1]`` is its own character,
    so ``_chars`` is the child strings joined. A node id is the only form
    in which the decoder and ``TrieScorer`` hold a prefix: they walk
    children in that order without sorting. Only what the scorer fills
    lazily (a sampled forecast, a best completion) and the spelling of a
    completed text rebuild a node's prefix, with ``_prefix``.
    """

    def __init__(self, words: Iterable[str], word_chars: Iterable[str]) -> None:
        self.word_chars = frozenset(word_chars)
        self._scorers: dict = {}
        words = list(words)
        distinct = sorted(set(words))  # duplicates carry no extra information here
        used = set("".join(distinct))
        if distinct[:1] == [""] or not self.word_chars.issuperset(used):
            _raise_first_fault(words, self.word_chars)
        self._kids, self._first, self._is_word, self._chars = _level_order(distinct, used)

    def _children(self, node: int) -> enumerate:
        """``(child id, character)`` pairs of ``node``, in code-point order."""
        return enumerate(self._kids[node], self._first[node])

    def _prefix(self, node: int, top: int = 0) -> str:
        """The characters on the path from ``top``, the root unless given, down
        to ``node``, which must lie below it.

        Ids ascend with ``_first``, so a node's parent is the last node whose
        first child is at or before it.
        """
        first, own = self._first, self._chars
        chars = []
        while node != top:
            chars.append(own[node - 1])
            node = bisect_right(first, node) - 1
        return "".join(reversed(chars))


def _raise_first_fault(words: list[str], word_chars: frozenset[str]) -> None:
    """Name the first word, in input order, that is empty or has a non-word character."""
    for word in words:
        if not word:
            raise InputValidationError("dictionary words must be non-empty")
        if not word_chars.issuperset(word):
            bad = next(ch for ch in word if ch not in word_chars)
            raise InputValidationError(f"word {word!r} contains non-word character {bad!r}")


def _level_order(words: list[str], used: set[str]) -> tuple[list[str], array, bytearray, str]:
    """``(kids, first, is_word, chars)`` of the trie over sorted, distinct,
    non-empty words whose characters are ``used``.

    Whole-array passes over the words' code points, each word followed by a
    separator (a character no word has). A word shares its longest common
    prefix, of ``lcp`` characters, with the word before it: the first
    position where the two differ, the shorter word's separator at the
    latest. It owns the nodes of its longer prefixes, one per depth ``d``
    with ``lcp < d <= len(word)``. Owners come in sorted order, so a stable
    sort of the nodes by depth puts them in level order, with each node's
    children in code-point order. A node's parent is the node of the depth
    above whose owner is the last one there at or before its own (the first
    word with the parent's prefix). A node's first child is 1 plus the
    number of children of nodes before it; the child strings are one string
    split: each node's character, after the children of the nodes before its
    parent and one separator per such node.
    """
    sep = next(ch for ch in map(chr, count()) if ch not in used)
    codes = _code_points(sep.join([*words, ""]), max(map(ord, used | {sep})))
    ends = np.flatnonzero(codes == ord(sep)).astype(np.intc)
    starts = np.zeros(len(words), np.intc)
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts
    del ends
    # Compare each word with the one before it up to the shorter one's
    # separator: ``at`` lists the compared positions that differ, and the
    # first at or after a pair's ``seg`` is its lcp.
    span = np.minimum(lengths[:-1], lengths[1:]) + 1
    seg = np.cumsum(span, dtype=np.intc) - span
    at = np.arange(seg[-1] + span[-1] if len(span) else 0, dtype=np.intc)
    at += np.repeat(starts[:-1] - seg, span)  # positions in the earlier word
    before = codes[at]
    at += np.repeat(lengths[:-1] + 1, span)  # and in the later one
    at = np.flatnonzero(before != codes[at]).astype(np.intc)
    del before
    lcp = np.zeros(len(words), np.intc)
    lcp[1:] = at[at.searchsorted(seg)] - seg
    del at, span, seg
    # Owner and depth of each node, word by word, then in level order.
    made = lengths - lcp
    owner = np.repeat(np.arange(len(words), dtype=np.intc), made)
    depth = np.repeat(lcp + 1 - (np.cumsum(made, dtype=np.intc) - made), made)
    del made, lcp
    depth += np.arange(len(depth), dtype=np.intc)
    depth = depth.astype(np.min_scalar_type(depth.max(initial=0)))
    order = np.argsort(depth, kind="stable")
    owner, depth = owner[order], depth[order]
    del order
    key = np.zeros(len(owner) + 1, np.int64)  # depth * len(words) + owner, the root first
    key[1:] = depth
    key *= len(words)
    key[1:] += owner
    parent = key.searchsorted(key[1:] - len(words), "right").astype(np.intc) - 1
    del key
    chars = codes[starts[owner] + depth - 1]
    is_word = bytearray(1)
    is_word.extend((lengths[owner] == depth).view(np.uint8).tobytes())
    del codes, starts, lengths, owner, depth
    nodes = len(parent) + 1
    first = array("i", [1])  # C int, as np.intc
    first.frombytes((np.cumsum(np.bincount(parent, minlength=nodes)[:-1], dtype=np.intc)
                     + 1).tobytes())
    # Node k >= 1 has index k - 1 among characters and ``parent[k]`` separators before it.
    joined = np.full(2 * nodes - 2, ord(sep), chars.dtype)
    parent += np.arange(nodes - 1, dtype=np.intc)
    joined[parent] = chars
    del parent
    return _text(joined).split(sep), first, is_word, _text(chars)


def _code_points(text: str, top: int) -> np.ndarray:
    """The code points of ``text``, one byte each when ``top``, their
    largest, fits in one, else four."""
    if top < 0x100:
        return np.frombuffer(text.encode("latin-1"), np.uint8)
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)


def _text(codes: np.ndarray) -> str:
    """The string of ``_code_points``' code points."""
    if codes.dtype == np.uint8:
        return codes.tobytes().decode("latin-1")
    return codes.astype("<u4").tobytes().decode("utf-32-le", "surrogatepass")
