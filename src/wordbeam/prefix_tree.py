"""Character trie over a dictionary, split into word and non-word characters."""

from __future__ import annotations

from typing import Iterable

from .errors import InputValidationError


class _Node:
    __slots__ = ("children", "is_word")

    def __init__(self) -> None:
        self.children: dict[str, _Node] = {}
        self.is_word = False


class PrefixTree:
    """Trie over a deduplicated word list.

    ``word_chars`` are the characters legal inside words; ``nonword_chars``
    are legal outside them (separators, punctuation). The two sets must be
    disjoint. After construction its words and structure are immutable. It
    also holds the decoder's language-model tables, one ``TrieScorer`` per
    (model, scoring mode), made and filled as decodes first need them.
    """

    def __init__(
        self,
        words: Iterable[str],
        word_chars: Iterable[str],
        nonword_chars: Iterable[str] = (),
    ) -> None:
        self.word_chars = frozenset(word_chars)
        self.nonword_chars = frozenset(nonword_chars)
        if self.word_chars & self.nonword_chars:
            overlap = sorted(self.word_chars & self.nonword_chars)
            raise InputValidationError(f"characters {overlap!r} are both word and non-word")
        self._root = _Node()
        self._words: set[str] = set()
        self._scorers: dict = {}
        for word in words:
            if not word:
                raise InputValidationError("dictionary words must be non-empty")
            bad = next((ch for ch in word if ch not in self.word_chars), None)
            if bad is not None:
                raise InputValidationError(
                    f"word {word!r} contains non-word character {bad!r}"
                )
            if word in self._words:
                continue  # duplicates carry no extra information here
            self._words.add(word)
            node = self._root
            for ch in word:
                node = node.children.setdefault(ch, _Node())
            node.is_word = True

    def _find(self, prefix: str) -> _Node | None:
        node = self._root
        for ch in prefix:
            node = node.children.get(ch)
            if node is None:
                return None
        return node

    def next_chars(self, prefix: str) -> set[str]:
        """Characters ``c`` such that ``prefix + c`` is a prefix of a stored word."""
        node = self._find(prefix)
        return set(node.children) if node is not None else set()

    def completions(self, prefix: str) -> list[tuple[str, str]]:
        """All stored words with the given prefix as ``(word, remainder)`` pairs.

        The result is in lexicographic order of the word.
        """
        node = self._find(prefix)
        if node is None:
            return []
        out: list[tuple[str, str]] = []

        def descend(cur: _Node, suffix: str) -> None:
            if cur.is_word:
                out.append((prefix + suffix, suffix))
            for ch in sorted(cur.children):
                descend(cur.children[ch], suffix + ch)

        descend(node, "")
        return out

    def is_word(self, s: str) -> bool:
        node = self._find(s)
        return node is not None and node.is_word

    def __contains__(self, s: str) -> bool:
        return self.is_word(s)

    def __len__(self) -> int:
        return len(self._words)

    def words(self) -> list[str]:
        return sorted(self._words)
