"""Character n-gram scoring for the constrained decoder.

The model is trained on a word list (by default the decoding dictionary
itself) with add-k smoothing, which keeps every conditional strictly
positive; the decoder's multiplicative ranking requires that. Contexts
never cross word boundaries: only the trailing run of word characters
of a hypothesis feeds the conditioning context.
The decoder reads every model score from a ``TrieScorer``, whose tables
are arrays by trie node, built once per (trie, model, mode).
"""

from __future__ import annotations

import heapq
import math
import random
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .errors import InputValidationError
from .prefix_tree import PrefixTree, _code_points, _text

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
        """Count every window of ``order`` characters over the words, each
        padded with ``order - 1`` boundaries in front and one behind: per
        context, the characters that follow it (``_window_counts``)."""
        if not corpus:
            raise InputValidationError("training corpus must be non-empty")
        if order < 1:
            raise InputValidationError("n-gram order must be at least 1")
        if not (math.isfinite(smoothing_k) and smoothing_k > 0):
            raise InputValidationError("smoothing constant must be positive and finite")
        text = "".join(corpus)
        if not all(corpus) or WORD_BOUNDARY in text:
            bad = next(word for word in corpus if not word or WORD_BOUNDARY in word)
            raise InputValidationError("corpus words must be non-empty" if not bad
                                       else "corpus word contains the boundary sentinel")
        vocabulary = frozenset(text)
        del text
        return cls(order, smoothing_k, vocabulary, _window_counts(corpus, order, vocabulary))

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


def _window_counts(corpus: Sequence[str], order: int,
                   vocabulary: frozenset[str]) -> dict[str, Counter]:
    """Per context, the counts of the characters that follow it, over every
    window of ``order`` characters of the boundary-padded words.

    The padded words are laid end to end, and a window is named by the
    position of its first character. A window whose last character is a
    pad straddles two words: it ends on a boundary that follows another.
    Each window gets an integer code, built one symbol at a time as a
    number in base (symbols, boundary included); when the next symbol
    would overflow the code, the codes are first renumbered densely. One
    sort of ``code * windows + position`` then gives each distinct window
    with its count and first position. Taken in first-occurrence order,
    contexts, and each context's next characters, are inserted as a
    window-by-window count would insert them.
    """
    symbols = [WORD_BOUNDARY, *sorted(vocabulary)]
    flat = WORD_BOUNDARY * (order - 1) + (WORD_BOUNDARY * order).join(corpus) + WORD_BOUNDARY
    top = ord(symbols[-1])
    table = np.zeros(top + 1, np.min_scalar_type(len(symbols) - 1))
    table[[ord(ch) for ch in symbols]] = np.arange(len(symbols))
    sym = table[_code_points(flat, top)]  # the boundary is symbol 0
    del table
    base, n = len(symbols), len(flat) - order + 1
    limit = np.iinfo(np.int64).max // n - 1  # the largest code, straddlers' included
    code, span = np.zeros(n, np.uint8), 1  # codes are below span
    for j in range(order):
        if span * base > limit:
            distinct, code = np.unique(code, return_inverse=True)
            span = len(distinct)
        span *= base
        code = code.astype(np.min_scalar_type(span), copy=False) * base
        code += sym[j:j + n]
    boundary = sym == 0
    straddles = boundary[order - 1:] & np.roll(boundary, 1)[order - 1:]
    del sym, boundary
    code = code.astype(np.min_scalar_type(span * n + n - 1))
    code[straddles] = span  # sorts after every window of a word
    kept = n - int(np.count_nonzero(straddles))
    del straddles
    code *= n
    code += np.arange(n, dtype=code.dtype)
    code.sort()
    code = code[:kept]
    window = code // n
    starts = np.concatenate([[0], np.flatnonzero(window[1:] != window[:-1]) + 1])
    del window
    sizes = np.diff(starts, append=kept)
    firsts = code[starts] % n
    del code, starts
    by_first = np.argsort(firsts)
    counts: dict[str, Counter] = {}
    for i, size in zip(firsts[by_first].tolist(), sizes[by_first].tolist()):
        ctx = flat[i:i + order - 1]
        ctr = counts.get(ctx)
        if ctr is None:
            ctr = counts[ctx] = Counter()
        ctr[flat[i + order - 1]] = size
    return counts


class TrieScorer:
    """Language-model tables of one (trie, model, scoring mode), by trie node id.

    A query names the current word by its trie node alone. The decoder
    keeps one scorer per (model, mode) on the tree, so every decode with
    that configuration shares its tables. The scorer builds, when it is
    made, the arrays by node that its mode reads, in whole-array passes
    over the trie (``_model_tables``), so a read is an index:

    - ``word_prob[n]``, in every model mode: ``NgramModel.word_probability``
      of the word ending at ``n``;
    - ``exact[n]``, in the forecast modes: the exact forecast
      ``F(n) = [word]·P(⊥|n) + Σ_c P(c|n)·F(child_c)``;
    - ``counts[n]``, in the sampling mode: the number of words at or
      below ``n``, by which a sampled forecast walks straight to the
      completions it draws;
    - ``lexmin[n]``, in ``words`` mode: the node of the smallest word
      below ``n``, which is its best completion there.

    A table its mode does not read is ``None``.

    Two things stay lazy, filled per node the first time the search asks:
    the sampled forecast, a seeded draw from the node's prefix, and the
    best completion in the model modes, a search from the node (products
    taken from a node down are not associative, so no bottom-up pass
    reproduces ``remainder_probability``'s left-to-right ones). Both
    spell the node's prefix out with ``PrefixTree._prefix``.
    """

    def __init__(self, tree: PrefixTree, lm: NgramModel | None = None,
                 mode: ScoringMode = WORDS) -> None:
        if mode.uses_lm and lm is None:
            raise InputValidationError(f"scoring mode {mode.kind!r} requires a language model")
        self.tree, self.lm, self.mode = tree, lm, mode
        self._sampled: dict = {}
        self._best: dict = {}
        self.lexmin = self.word_prob = self.exact = self.counts = None
        if mode.uses_lm:
            self.word_prob, self.exact, self.counts = _model_tables(tree, lm, mode)
        else:
            self.lexmin = _smallest_words(tree)

    def word_probability(self, node: int) -> float:
        """``NgramModel.word_probability`` of the word ending at ``node``."""
        return self.word_prob[node]

    def forecast(self, node: int) -> float:
        """Completion probability of the live prefix at ``node``; in the
        sampling mode, summed over a seeded sample and rescaled (total / sampled)
        unless the sample would cover every completion."""
        if self.counts is None or self.counts[node] <= self.mode.sample_size:
            return self.exact[node]
        f = self._sampled.get(node)
        if f is None:
            prefix = self.tree._prefix(node)
            n, k = self.counts[node], self.mode.sample_size
            # ``sample`` picks indices from the length alone, so drawing from
            # ``range(n)`` chooses the same completions, in the same order, as
            # drawing from the lexicographic list of them.
            chosen = random.Random(f"forecast|{self.mode.seed}|{prefix}").sample(range(n), k)
            f = self._sampled[node] = sum(
                self.lm.remainder_probability(prefix, self._nth_remainder(node, i))
                for i in chosen) * (n / k)
        return f

    def _nth_remainder(self, node: int, i: int) -> str:
        """Remainder of the ``i``-th completion below ``node``, in lexicographic order."""
        remainder = ""
        while True:
            if self.tree._is_word[node]:
                if i == 0:
                    return remainder
                i -= 1
            for child, c in self.tree._children(node):
                n = self.counts[child]
                if i < n:
                    remainder += c
                    node = child
                    break
                i -= n

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


def _model_tables(tree: PrefixTree, lm: NgramModel, mode: ScoringMode
                  ) -> tuple[array, array | None, array | None]:
    """``(word_prob, exact, counts)`` by node: each an ``array`` (whose reads
    are Python numbers), or ``None`` where ``mode`` reads no such table.

    Node ``n``'s character is ``c(n)``; ``step(n) = P(c(n) | ctx(parent))``
    (1.0 at the root) and ``end(n) = P(⊥ | ctx(n))`` come from
    ``_conditionals``. Level by level from the root, the prefix probability
    is ``prob[n] = prob[parent] * step(n)``, so ``word_prob[n] = prob[n] *
    end(n)`` is ``remainder_probability("", word)``'s product, taken in the
    same order (``1.0 * x`` is exact). The exact forecast and the count are
    sums over the children, taken bottom up (``_subtree_sums``) in child
    order, which is the order of the recursion ``F(n) = [word]·P(⊥|n) +
    Σ_c P(c|n)·F(child_c)``.
    """
    first = np.frombuffer(tree._first, np.intc)
    n = len(first)
    levels = [0, 1]  # a level's first node; the next level starts at its first child
    while levels[-1] < n:
        levels.append(first[levels[-1]])
    kids = np.diff(first, append=n)
    parent = np.zeros(n, np.intc)  # the root's is itself
    for lo, hi, nxt in zip(levels, levels[1:], levels[2:]):
        parent[hi:nxt] = np.repeat(np.arange(lo, hi, dtype=np.intc), kids[lo:hi])
    del kids
    seen, pair, end, ctx = _conditionals(tree, lm, parent)
    word_prob, word = _table("d", n)
    prob, above = np.ones(1), 0  # the level above's prefix probabilities, from node ``above``
    for lo, hi in zip(levels, levels[1:]):
        prob = prob[parent[lo:hi] - above] * seen[pair[lo:hi]]
        np.multiply(prob, end[ctx[lo:hi]], out=word[lo:hi])
        above = lo
    exact = counts = None
    is_word = np.frombuffer(tree._is_word, np.uint8)
    if mode.uses_forecast:
        exact, forecast = _table("d", n)
        np.multiply(end[ctx], is_word, out=forecast)
        _subtree_sums(parent, levels, forecast, seen[pair])
    if mode.kind == "ngrams_forecast_sample":
        counts, count = _table("q", n)
        count += is_word
        _subtree_sums(parent, levels, count)
    return word_prob, exact, counts


def _conditionals(tree: PrefixTree, lm: NgramModel, parent: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(seen, pair, end, ctx)``: ``step(n) = seen[pair[n]]`` is
    ``P(c(n) | ctx(parent(n)))`` (1.0 at the root) and ``end(n) =
    end[ctx[n]]`` is ``P(⊥ | ctx(n))``, each bit-identical to ``lm.conditional``.

    A context is ``order - 1`` symbols, boundary-padded, the boundary being
    symbol 0. A node's is the last symbols of its prefix, one per ancestor;
    each of the model's is one key of its counts. All of them get a code, a
    number in base (symbols), renumbered densely when the next symbol would
    overflow it, so a node finds its context's index in the model's dicts
    (from 1; 0 is an empty count, for a context the model lacks) without
    spelling it out. The model's dicts are then read by C-level ``map``s,
    in their own order: each context's total and boundary count, and the
    count of each distinct (parent's context, character) pair of the trie.
    (Read in node order, the same counters take several times as long,
    each a cache miss.)
    """
    k, width, n = lm.smoothing_k, lm.order - 1, len(parent)
    counters = [{}, *lm._counts.values()]  # the context at 0 is one the model lacks
    symbols = "".join(sorted(lm.vocabulary | tree.word_chars | {WORD_BOUNDARY}))
    base, top = len(symbols), ord(symbols[-1])
    table = np.zeros(top + 1, np.min_scalar_type(base - 1))
    table[_code_points(symbols, top)] = np.arange(base)
    sym = np.zeros(n, table.dtype)
    sym[1:] = table[_code_points(tree._chars, top)]
    held = table[_code_points("".join(lm._counts), top)].reshape(len(counters) - 1, width)
    del table
    # Nodes, then the model's contexts; the newest symbol is the lowest digit.
    code, span, digits = np.zeros(n + len(held), np.uint8), 1, sym
    for j in range(width):
        if span * base > np.iinfo(np.int64).max:
            code, values = _dense(code, span)
            span = len(values)
        code = code.astype(np.min_scalar_type(span * base - 1), copy=False)
        scale = code.dtype.type(span)
        code[:n] += digits * scale
        code[n:] += held[:, width - 1 - j] * scale
        span *= base
        digits = digits[parent]  # the symbols one ancestor up
    del held, digits
    if span > 4 * len(code):  # else the codes index ``found`` as they are
        code, values = _dense(code, span)
        span = len(values)
    found = np.zeros(span, np.min_scalar_type(len(counters) - 1))
    found[code[n:]] = np.arange(1, len(counters))
    ctx = found[code[:n]]
    del code, found
    denominator = np.fromiter(chain([0], lm._totals.values()), np.float64, len(counters))
    denominator += k * lm.num_outcomes
    end = np.fromiter(map(dict.get, counters, repeat(WORD_BOUNDARY), repeat(0)), np.float64,
                      len(counters))
    end += k
    end /= denominator
    # A pair's code is context * base + symbol, and the root's is above them
    # all: ranked, the pairs come in the model's order of contexts.
    code = ctx[parent].astype(np.min_scalar_type(len(counters) * base))
    code *= base
    code += sym
    code[0] = len(counters) * base
    del sym
    pair, code = _dense(code, len(counters) * base + 1)
    pair_ctx = code[:-1] // base
    seen = np.ones(len(code))
    seen[:-1] = np.fromiter(map(dict.get, map(counters.__getitem__, pair_ctx.tolist()),
                                _text(_code_points(symbols, top)[code[:-1] % base]),
                                repeat(0)), np.float64, len(pair_ctx))
    seen[:-1] += k
    seen[:-1] /= denominator[pair_ctx]
    return seen, pair, end, ctx


def _dense(code: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """``(ranks, values)``: the distinct ``values`` of ``code`` (all below
    ``span``), ascending, and per element the rank of its value among them.

    A span of a few times the length is ranked by a table over every
    value, a larger one by a sort.
    """
    if span > 4 * len(code):
        values, ranks = np.unique(code, return_inverse=True)
        return ranks.astype(np.intc), values
    seen = np.zeros(span, bool)
    seen[code] = True
    return (np.cumsum(seen, dtype=np.intc) - 1)[code], np.flatnonzero(seen)


def _subtree_sums(parent: np.ndarray, levels: list[int], own: np.ndarray,
                  weight: np.ndarray | None = None) -> None:
    """``own[n] += Σ_k weight[c_k] * own[c_k]`` over ``n``'s children ``c_k``
    (weights 1 without ``weight``), each child's sum taken first.

    Levels run deepest first, so a child is final before its parent reads
    it. ``np.add.at`` adds a level's terms to their parents one at a time,
    in node order, so each node's sum runs in child order.
    """
    for lo, hi in zip(levels[-2:0:-1], levels[:1:-1]):
        np.add.at(own, parent[lo:hi], own[lo:hi] if weight is None else weight[lo:hi] * own[lo:hi])


def _table(typecode: str, n: int) -> tuple[array, np.ndarray]:
    """An ``array`` of ``n`` zeros of ``typecode`` and a numpy view to fill it
    through. The scorer keeps the ``array``: its reads are Python numbers,
    and a decode prints the ``repr`` of a float it read.
    """
    out = array(typecode, [0]) * n
    return out, np.frombuffer(out, typecode)
