"""Character n-gram scoring for the constrained decoder.

The model is trained on a word list (by default the decoding dictionary
itself) with add-k smoothing, which keeps every conditional strictly
positive; the decoder's multiplicative ranking requires that. Contexts
never cross word boundaries: only the trailing run of word characters
of a hypothesis feeds the conditioning context.
The decoder reads every model score from a ``TrieScorer``'s per-node tables.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputValidationError
from .prefix_tree import PrefixTree

WORD_BOUNDARY = "\x00"

_MODE_KINDS = ("words", "ngrams", "ngrams_forecast", "ngrams_forecast_sample")


@dataclass(frozen=True)
class ScoringMode:
    """How the language model contributes to beam ranking.

    ``words``: dictionary constraint only, no model score.
    ``ngrams``: a completed word is scored once, when the beam leaves it.
    ``ngrams_forecast``: every word-character extension is scored with the
    summed probability of all completions of the current prefix.
    ``ngrams_forecast_sample``: like forecast, but the sum is estimated
    from a uniform sample of ``sample_size`` completions and rescaled by
    (total / sampled). Sampling is a pure function of ``seed`` and the
    prefix, so repeated queries agree.
    """

    kind: str
    sample_size: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _MODE_KINDS:
            raise InputValidationError(f"unknown scoring mode {self.kind!r}")
        if self.sample_size < 1:
            raise InputValidationError("sample_size must be at least 1")

    @property
    def uses_lm(self) -> bool:
        return self.kind != "words"

    @property
    def uses_forecast(self) -> bool:
        return self.kind in ("ngrams_forecast", "ngrams_forecast_sample")


WORDS = ScoringMode("words")
NGRAMS = ScoringMode("ngrams")
NGRAMS_FORECAST = ScoringMode("ngrams_forecast")


def forecast_sample(sample_size: int = 20, seed: int = 0) -> ScoringMode:
    return ScoringMode("ngrams_forecast_sample", sample_size=sample_size, seed=seed)


class NgramModel:
    """Add-k smoothed character n-gram model over word-boundary-padded words."""

    def __init__(
        self,
        order: int,
        smoothing_k: float,
        vocabulary: frozenset[str],
        counts: dict[str, Counter],
    ) -> None:
        self.order = order
        self.smoothing_k = smoothing_k
        self.vocabulary = vocabulary
        self._counts = counts
        self._totals = {ctx: sum(ctr.values()) for ctx, ctr in counts.items()}

    @classmethod
    def train(
        cls, corpus: Sequence[str], order: int = 2, smoothing_k: float = 1.0
    ) -> "NgramModel":
        """Count all length <= order windows over boundary-padded words."""
        if not corpus:
            raise InputValidationError("training corpus must be non-empty")
        if order < 1:
            raise InputValidationError("n-gram order must be at least 1")
        if not (math.isfinite(smoothing_k) and smoothing_k > 0):
            raise InputValidationError("smoothing constant must be positive and finite")
        bad = next((word for word in corpus if not word or WORD_BOUNDARY in word), None)
        if bad is not None:
            raise InputValidationError("corpus words must be non-empty" if not bad
                                       else "corpus word contains the boundary sentinel")
        pad = WORD_BOUNDARY * (order - 1)
        seqs = (pad + word + WORD_BOUNDARY for word in corpus)
        windows = Counter(seq[i : i + order] for seq in seqs for i in range(len(seq) - order + 1))
        # Split in first-occurrence order, so contexts, and each context's
        # next characters, are inserted as a window-by-window count would.
        counts: dict[str, Counter] = {}
        for window, n in windows.items():
            ctx = window[:-1]
            ctr = counts.get(ctx)
            if ctr is None:
                ctr = counts[ctx] = Counter()
            ctr[window[-1]] = n
        return cls(order, smoothing_k, frozenset("".join(corpus)), counts)

    @property
    def num_outcomes(self) -> int:
        """Vocabulary size including the boundary sentinel."""
        return len(self.vocabulary) + 1

    def _context(self, word_prefix: str) -> str:
        if self.order == 1:
            return ""
        width = self.order - 1
        return (WORD_BOUNDARY * width + word_prefix)[-width:]

    def conditional(self, word_prefix: str, c: str) -> float:
        """Smoothed P(c | last order-1 characters of the current word)."""
        ctx = self._context(word_prefix)
        ctr = self._counts.get(ctx)
        count = ctr[c] if ctr is not None else 0
        total = self._totals.get(ctx, 0)
        k = self.smoothing_k
        return (count + k) / (total + k * self.num_outcomes)

    def word_probability(self, word: str) -> float:
        """Chain probability of a whole word, boundary close included."""
        return self.remainder_probability("", word)

    def remainder_probability(self, prefix: str, remainder: str) -> float:
        """Chain probability of completing ``prefix`` with ``remainder``."""
        p = 1.0
        cur = prefix
        for ch in remainder:
            p *= self.conditional(cur, ch)
            cur += ch
        return p * self.conditional(cur, WORD_BOUNDARY)


class TrieScorer:
    """Language-model tables of one (trie, model, scoring mode), per trie node id.

    A query names the current word by its trie node alone. Each entry is
    filled the first time the search asks for it, from the node's prefix,
    which the scorer rebuilds from the trie (``PrefixTree._prefix``); every
    later query reads the entry and builds no string. The decoder keeps one
    scorer per (model, mode) on the tree, so every decode with that
    configuration shares its tables.
    Per node: the word probability; the exact forecast
    ``F(n) = [word]·P(⊥|n) + Σ_c P(c|n)·F(child_c)``, filled for the whole
    subtree at once (so it matches the per-completion sum to a few ulps);
    the completion count and the sampled forecast, drawn by index so that
    no subtree is enumerated; and the best completion. In ``words`` mode the
    best completion is the smallest word below the node: the scorer reads
    it from ``lexmin``, an array by node built with the scorer (``None`` in
    the model modes, which search for it).
    """

    def __init__(self, tree: PrefixTree, lm: NgramModel | None = None,
                 mode: ScoringMode = WORDS) -> None:
        if mode.uses_lm and lm is None:
            raise InputValidationError(f"scoring mode {mode.kind!r} requires a language model")
        self.tree, self.lm, self.mode = tree, lm, mode
        self._word: dict = {}
        self._forecast: dict = {}
        self._sampled: dict = {}
        self._counts: dict = {}
        self._best: dict = {}
        self.lexmin = None if mode.uses_lm else _smallest_words(tree)

    def word_probability(self, node: int) -> float:
        """``NgramModel.word_probability`` of the word ending at ``node``."""
        p = self._word.get(node)
        if p is None:
            p = self._word[node] = self.lm.word_probability(self.tree._prefix(node))
        return p

    def forecast(self, node: int) -> float:
        """Completion probability of the live prefix at ``node``; in the
        sampling mode, summed over a seeded sample and rescaled (total / sampled)."""
        if self.mode.kind != "ngrams_forecast_sample":
            f = self._forecast.get(node)
            return self._exact_forecast(node, self.tree._prefix(node)) if f is None else f
        f = self._sampled.get(node)
        if f is None:
            prefix = self.tree._prefix(node)
            n, k = self._count(node), self.mode.sample_size
            if k >= n:
                f = self._exact_forecast(node, prefix)
            else:
                # ``sample`` picks indices from the length alone, so drawing from
                # ``range(n)`` chooses the same completions, in the same order, as
                # drawing from the lexicographic list of them.
                chosen = random.Random(f"forecast|{self.mode.seed}|{prefix}").sample(range(n), k)
                f = sum(self.lm.remainder_probability(prefix, self._nth_remainder(node, i))
                        for i in chosen) * (n / k)
            self._sampled[node] = f
        return f

    def _count(self, node: int) -> int:
        """Number of stored words at or below ``node``."""
        n = self._counts.get(node)
        if n is None:
            n = self.tree._is_word[node] + sum(
                self._count(child) for child, _ in self.tree._children(node))
            self._counts[node] = n
        return n

    def _nth_remainder(self, node: int, i: int) -> str:
        """Remainder of the ``i``-th completion below ``node``, in lexicographic order."""
        remainder = ""
        while True:
            if self.tree._is_word[node]:
                if i == 0:
                    return remainder
                i -= 1
            for child, c in self.tree._children(node):
                n = self._count(child)
                if i < n:
                    remainder += c
                    node = child
                    break
                i -= n

    def _exact_forecast(self, node: int, prefix: str) -> float:
        f = self._forecast.get(node)
        if f is None:
            cond = self.lm.conditional
            f = cond(prefix, WORD_BOUNDARY) if self.tree._is_word[node] else 0.0
            for child, c in self.tree._children(node):
                f += cond(prefix, c) * self._exact_forecast(child, prefix + c)
            self._forecast[node] = f
        return f

    def complete(self, node: int) -> tuple[str, int, float]:
        """(remainder, word node, remainder probability) of the completion of
        the live prefix at ``node`` with the largest ``remainder_probability``,
        ties to the smallest word (without a model, every probability is 1)."""
        best = self._best.get(node)
        if best is None:
            prefix = self.tree._prefix(node)
            if self.lexmin is None:
                best = self._search(node, prefix)
            else:
                word = int(self.lexmin[node])
                best = (self.tree._prefix(word)[len(prefix):], word, 1.0)
            self._best[node] = best
        return best

    def _search(self, node: int, prefix: str) -> tuple[str, int, float]:
        # Uniform-cost search: every factor is at most 1, so the first word end
        # popped beats all unexplored completions. Products run left to right,
        # bit-identical to ``remainder_probability``, and only prefixes at
        # least as probable as the answer are visited.
        cond = self.lm.conditional
        is_word, children = self.tree._is_word, self.tree._children
        heap = [(-1.0, prefix, False, node)]
        while True:
            neg_p, text, at_end, cur = heapq.heappop(heap)
            if at_end:
                return text[len(prefix):], cur, -neg_p
            if is_word[cur]:
                heapq.heappush(heap, (neg_p * cond(text, WORD_BOUNDARY), text, True, cur))
            for child, c in children(cur):
                heapq.heappush(heap, (neg_p * cond(text, c), text + c, False, child))


def _smallest_words(tree: PrefixTree) -> np.ndarray:
    """Per node, the node of the smallest word that starts with its prefix.

    A word node is its own smallest word, as a prefix sorts before its
    extensions; any other node's is its first child's, as children come in
    code-point order: ``lexmin[n] = n if is_word[n] else lexmin[first[n]]``.
    Every node jumps along that chain at once, twice as far each pass, so
    the passes are about log2 of the tree's depth.
    """
    first = np.frombuffer(tree._first, np.intc)
    ids = np.arange(len(first), dtype=np.intc)
    # A childless node is a word, but for the root of an empty tree, which keeps itself.
    ends = np.frombuffer(tree._is_word, np.uint8).astype(bool) | (first >= len(first))
    lexmin = np.where(ends, ids, first)
    while True:
        jumped = lexmin[lexmin]
        if np.array_equal(jumped, lexmin):
            return lexmin
        lexmin = jumped
