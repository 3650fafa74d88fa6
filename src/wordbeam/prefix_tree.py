"""Character trie over a dictionary and the characters its words may use."""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Iterable

import numpy as np

from .errors import InputValidationError


class PrefixTree:
    """Trie over a deduplicated word list.

    ``word_chars`` are the characters legal inside words; the tree keeps no
    others, so a decode's non-word characters (separators, punctuation) are
    its alphabet's other symbols. After construction its words and structure
    are immutable. It also owns the decoder's language-model tables, one
    ``TrieScorer`` per (model, scoring mode), made when a decode first needs
    it, with its arrays by node, and the search's arrays of the
    extensions a node allows, one set per alphabet column order. Neither
    refers back to the tree (a scorer keeps the trie arrays it reads), so
    they go with the tree's last reference, without a collector pass.

    The trie is stored as flat arrays over integer node ids, and those
    arrays are its interface: it has no per-node objects and no prefix
    queries. Nodes are numbered in level order with the root at 0, and a
    node's children have consecutive ids in code-point order of their
    characters. Per node ``n``: ``_first[n]`` is the id of its first
    child; ``_is_word[n]`` is 1 when it ends a word; for ``n >= 1``,
    ``_chars[n - 1]`` is its own character. ``_first`` ends with the node
    count, so node ``n``'s children are ids ``_first[n]`` to ``_first[n +
    1] - 1``, their characters, sorted, are ``_chars[_first[n] -
    1:_first[n + 1] - 1]``, and ``np.diff(_first)`` counts every node's
    children. Level order puts the nodes of depth ``d`` at ids
    ``_levels[d]`` to ``_levels[d + 1] - 1``, so a node's depth, the length
    of its prefix, is one ``bisect``. A node id is the only form in which
    the decoder and ``TrieScorer`` hold a prefix: they walk children in
    that order without sorting. Only what the scorer fills lazily (a
    sampled forecast, a best completion) and the spelling of a completed
    text rebuild a node's prefix, with ``_spell``. The build (``_build``)
    sorts and numbers the words in whole-array passes, in memory linear in
    the dictionary's characters.
    """

    def __init__(self, words: Iterable[str], word_chars: Iterable[str]) -> None:
        self.word_chars = frozenset(word_chars)
        self._scorers: dict = {}
        self._extensions: dict = {}
        self._first, self._is_word, self._chars = _build(list(words), self.word_chars)
        # The first node id of each depth, then the node count: a depth
        # starts at the first child of the depth above's first node.
        self._levels = [0, 1]
        while self._levels[-1] < self._first[-1]:
            self._levels.append(self._first[self._levels[-1]])

    def _prefix(self, node: int, top: int = 0) -> str:
        """``_spell`` over this tree's arrays."""
        return _spell(self._first, self._chars, node, top)


def _spell(first: array, chars: str, node: int, top: int = 0) -> str:
    """The characters on the path from ``top``, the root unless given, down
    to ``node``, which must lie below it, in the trie of ``first`` and
    ``chars`` (see ``PrefixTree``).

    Ids ascend with ``first``, so a node's parent is the last node whose
    first child is at or before it.
    """
    out = []
    while node != top:
        out.append(chars[node - 1])
        node = bisect_right(first, node) - 1
    return "".join(reversed(out))


def _raise_first_fault(words: list[str], word_chars: frozenset[str]) -> None:
    """Name the first word, in input order, that is empty or has a non-word character."""
    for word in words:
        if not word:
            raise InputValidationError("dictionary words must be non-empty")
        if not word_chars.issuperset(word):
            bad = next(ch for ch in word if ch not in word_chars)
            raise InputValidationError(f"word {word!r} contains non-word character {bad!r}")


def _build(words: list[str], word_chars: frozenset[str]) -> tuple[array, bytearray, str]:
    """``(first, is_word, chars)`` of the trie over ``words``; calls
    ``_raise_first_fault`` when a word is empty or has a non-word character.

    Whole-array passes over the words' code points laid end to end, each
    word followed by a 0. A code point becomes its rank 1..k among the k
    that the words use, so ranks compare as the characters do, with the 0
    below them all. Memory stays linear in the number of characters.

    Sort: a key per word packs the ranks of its first ``width`` characters
    in base k + 1, as many as an int64 holds, up to twice the mean word
    length. Words with equal keys are the
    same word unless both have as many characters as the key or more; only
    such groups are sorted again, on their next characters, until none is
    tied. Equal neighbours then go.

    Nodes: a distinct word makes the node of its ``d``-prefix, for each
    ``d`` up to its length, when it is the first word in sorted order with
    that prefix, that is when the prefix differs from the word's before it.
    Taken depth by depth, and within a depth in word order, these nodes are
    in level order, siblings in code-point order. The depths go in blocks,
    over a matrix of the ranks of the words that reach the block, a row per
    depth and a column per word: a word makes a node at a row when its path
    node at the block's top, or its rank at any row down to that one,
    differs from its left neighbour's, and its rank there is not 0. One
    cumulative sum of those flags numbers the nodes row by row, and gives
    each word the id of its node at every depth: a node's parent is its
    word's node a row up. A node's first child is 1 plus the number of
    children of nodes before it, and the nodes' characters, in id order,
    are ``chars``.
    """
    if not words:
        return array("i", [1, 1]), bytearray(1), ""
    lengths = np.fromiter(map(len, words), np.intc, len(words))
    text = "\0".join([*words, ""])  # each word ends in a "\0", ranked 0 below
    try:
        codes = _code_points(text, 0xFF)
    except UnicodeEncodeError:
        codes = _code_points(text, 0x10FFFF)
    del text
    ends = np.cumsum(lengths + 1, dtype=np.intc) - 1
    starts = ends - lengths
    # Ranks from a table by code point, or from a sort where the table would
    # span the astral planes; "\0" is a character used only if a word has it.
    if codes.dtype == np.uint8 or codes.max() < 1 << 16:
        counts = np.bincount(codes)
        counts[0] -= len(words)
        used = np.flatnonzero(counts)
        ranks = np.cumsum(counts > 0, dtype=np.min_scalar_type(len(used))).take(codes)
    else:
        used, ranks, counts = np.unique(codes, return_inverse=True, return_counts=True)
        if counts[0] == len(words):
            used = used[1:]
        else:
            ranks += 1
        ranks = ranks.astype(np.min_scalar_type(len(used)))
    del codes, counts
    ranks[ends] = 0  # past each word's end
    if lengths.min() == 0 or not word_chars.issuperset(map(chr, used.tolist())):
        _raise_first_fault(words, word_chars)
    # Characters per key: as many as an int64 holds (radix ** width <= 2 **
    # 63), but no more than the longest word has, nor twice the mean length,
    # which bounds the first block's matrix by the number of characters.
    radix, longest = len(used) + 1, int(lengths.max())
    most = min(longest, 2 * (len(ranks) - len(words)) // len(words))
    width = 1
    while width < most and radix ** (width + 1) <= 1 << 63:
        width += 1

    # Sort, refine the ties of words as long as the key or longer, and drop duplicates.
    block = _rows(ranks, starts, ends, 0, width + 1)
    key = _key(block[:width], radix)
    order = np.argsort(key)
    key = key[order]
    new = np.empty(len(order), bool)  # the first of its equals in sorted order
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    # Equal keys so far mean the same word, or two of ``top`` characters or
    # more: sort each group of those on their next characters, twice as
    # many each round.
    long, top, count = np.arange(len(order)), width, 1
    while top < longest:
        tied = ~new[long]
        tied[:-1] |= tied[1:]
        tied &= lengths[order[long]] >= top
        long = long[tied]
        if not len(long):
            break
        word = order[long]
        rows = _rows(ranks, starts[word], ends[word], top, count * width)
        key = _key(rows.reshape(count, width, -1).swapaxes(0, 1), radix)
        by = np.lexsort((*key[::-1], np.cumsum(new[long])))
        order[long], key = word[by], key[:, by]
        new[long[1:]] |= (key[:, 1:] != key[:, :-1]).any(axis=0)
        top, count = top + count * width, 2 * count
    alive = order[new]
    block = block.take(alive, axis=1)
    del order, new, key, long

    # Nodes, a block of depths at a time: the first ``width``, then as many
    # as the words left have characters on average, at least ``width``.
    path = np.zeros(len(alive), np.intc)  # each word's node at the block's top
    parents, chars, is_word = [], [], [np.zeros(1, bool)]
    last, top = 0, 0  # the last node id, and the depth above the block
    while True:
        rows, size = len(block) - 1, len(alive)
        made = np.empty((rows, size), bool)
        made[:, 0] = True  # no word before the first reaches this block
        np.not_equal(block[:rows, 1:], block[:rows, :-1], out=made[:, 1:])
        made[0, 1:] |= path[1:] != path[:-1]
        shift = 1  # or each row into those below it, in log2(rows) passes
        while shift < rows:
            made[shift:] |= made[:-shift]
            shift *= 2
        np.logical_and(made, block[:rows], out=made)
        ids = np.empty((rows + 1) * size, np.intc)
        ids[:size] = path
        np.cumsum(made, dtype=np.intc, out=ids[size:])
        ids[size:] += last
        at = np.flatnonzero(made)
        del made
        parents.append(ids.take(at))
        last, top = int(ids[-1]), top + rows
        deeper = block[rows] != 0
        alive, path = alive[deeper], ids[-size:][deeper]
        del ids
        chars.append(block.take(at))
        is_word.append(block[1:].ravel().take(at) == 0)
        if top == longest:
            break
        rows = max(width, (int(lengths[alive].sum()) - top * len(alive)) // len(alive))
        block = _rows(ranks, starts[alive], ends[alive], top, min(rows, longest - top) + 1)
    del block, at, path, alive, ranks, starts, ends, lengths

    parent = np.concatenate(parents)
    del parents
    first = array("i", [1])  # C int, as np.intc
    first.frombytes((np.cumsum(np.bincount(parent, minlength=len(parent) + 1), dtype=np.intc)
                     + 1).tobytes())
    del parent
    spell = np.zeros(radix, np.uint8 if used[-1] < 0x100 else np.uint32)
    spell[1:] = used
    return (first, bytearray(np.concatenate(is_word).view(np.uint8)),
            _text(spell.take(np.concatenate(chars))))


def _rows(ranks: np.ndarray, starts: np.ndarray, ends: np.ndarray, top: int,
          count: int) -> np.ndarray:
    """The ranks of characters ``top`` to ``top + count - 1`` of the words
    that start at ``starts`` and end at ``ends``, where a 0 stands, a row
    per character and a column per word; 0 past a word's end."""
    at = np.arange(top, top + count)[:, None] + starts  # intp, as ``take`` wants
    np.minimum(at, ends, out=at)
    return ranks.take(at)


def _key(rows: np.ndarray, radix: int) -> np.ndarray:
    """The int64 that packs each column of ``rows``, the first row most significant."""
    key = rows[0].astype(np.int64)
    for row in rows[1:]:
        key *= radix
        key += row
    return key


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
