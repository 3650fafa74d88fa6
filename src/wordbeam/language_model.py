"""Character n-gram scoring for the constrained decoder.

The model is trained on a word list (by default the decoding dictionary
itself) with add-k smoothing, which keeps every conditional strictly
positive; the decoder's multiplicative ranking requires that. Contexts
never cross word boundaries: only the trailing run of word characters
of a hypothesis feeds the conditioning context.

The model is count arrays under one context code (``_context_codes``),
shared by training and the trie tables. The decoder reads every model
score from a ``TrieScorer``, whose tables are arrays by trie node, built
once per (trie, model, mode); no decode calls into the model.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputValidationError
from .prefix_tree import PrefixTree, _code_points, _spell

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
    """Add-k smoothed character n-gram model over word-boundary-padded words.

    Its ``symbols`` are the boundary, digit 0, then the sorted vocabulary.
    A context, the ``order - 1`` symbols before a position of a word,
    boundary-padded, has a code from ``_context_codes``; a window, a context
    and the symbol after it, has the code ``context * (len(symbols) + 1) +
    symbol``, symbol ``len(symbols)`` standing for any other character. The
    model keeps, as sorted ``uint64`` arrays, the codes of the distinct
    ``windows`` it was trained on with their ``counts``, and of the distinct
    ``contexts`` with their ``totals``. A context is coded by its newest
    ``width`` symbols, ``order - 1`` or the longest word if that is shorter.

    Its one query, ``_conditionals``, reads ``P(c | ctx) = (count(ctx, c)
    + k) / (total(ctx) + k * V)`` for ``V`` symbols, ``ctx`` being the
    context before ``c``. A word's probability is the product, from the
    left from 1.0, of ``P`` of each of its characters, then of the closing
    boundary ``⊥``; a completion of prefix ``p`` by remainder ``r`` takes
    the factors of ``p + r`` from position ``len(p)`` on.
    """

    def __init__(self, order: int, smoothing_k: float, symbols: str, width: int,
                 renumbered: tuple[np.ndarray, ...], windows: np.ndarray,
                 counts: np.ndarray) -> None:
        self.order = order
        self.smoothing_k = smoothing_k
        self.symbols = symbols
        self.vocabulary = frozenset(symbols[1:])
        self._width, self._renumbered = width, renumbered
        self.windows, self.counts = windows, counts
        context = windows // np.uint64(len(symbols) + 1)
        starts = np.flatnonzero(np.concatenate([[True], context[1:] != context[:-1]]))
        self.contexts, self.totals = context[starts], np.add.reduceat(counts, starts)

    @classmethod
    def train(
        cls, corpus: Sequence[str], order: int = 2, smoothing_k: float = 1.0
    ) -> "NgramModel":
        """Count the window at every position of the words, each closed by
        the boundary: that position's symbol after its context. Only real
        positions are coded, so the work ends with the longest word."""
        if not corpus:
            raise InputValidationError("training corpus must be non-empty")
        if order < 1:
            raise InputValidationError("n-gram order must be at least 1")
        if not (math.isfinite(smoothing_k) and smoothing_k > 0):
            raise InputValidationError("smoothing constant must be positive and finite")
        text = WORD_BOUNDARY.join(corpus) + WORD_BOUNDARY
        if not all(corpus) or text.count(WORD_BOUNDARY) > len(corpus):
            bad = next(word for word in corpus if not word or WORD_BOUNDARY in word)
            raise InputValidationError("corpus words must be non-empty" if not bad
                                       else "corpus word contains the boundary sentinel")
        symbols = "".join(sorted(set(text)))  # the boundary sorts first
        sym = _symbol_digits(symbols, text, ord(symbols[-1]))
        del text
        width = min(order - 1, int(np.diff(np.flatnonzero(sym == 0), prepend=-1).max()) - 1)
        renumbered: list[np.ndarray] = []
        code, span = _context_codes(_window_digits(sym, order - 1), len(sym), len(symbols),
                                    width, renumbered)
        code *= len(symbols) + 1
        code += sym
        del sym
        windows, counts = _tally(code, span * (len(symbols) + 1))
        return cls(order, smoothing_k, symbols, width, tuple(renumbered), windows, counts)

    @property
    def num_outcomes(self) -> int:
        """Vocabulary size including the boundary sentinel."""
        return len(self.symbols)

    def _conditionals(self, code: np.ndarray, span: int, sym) -> np.ndarray:
        """``P(sym | context)``, each ``(count + k) / (total + k * V)``, for
        contexts coded by ``_context_codes`` (below ``span``) and symbols by
        ``_symbol_digits``."""
        k, stride = self.smoothing_k, len(self.symbols) + 1
        window = code * code.dtype.type(stride) + sym
        p = _lookup(self.windows, self.counts, window, span * stride, k)
        del window
        p /= _lookup(self.contexts, self.totals, code, span, k * (stride - 1))
        return p


def _lookup(keys: np.ndarray, values: np.ndarray, queries: np.ndarray, span: int,
            add: float) -> np.ndarray:
    """Per query, ``add`` plus the value at its key in the sorted ``keys`` (0
    where it has none), keys and queries below ``span``: read from a table
    over the span when that is a few times the queries' number, else by
    binary search. The table's sums are the same floats as the search's."""
    if span <= 4 * len(queries):
        table = np.full(span, add)
        table[keys] += values
        return table[queries]
    at = np.minimum(keys.searchsorted(queries), len(keys) - 1)
    return np.where(keys[at] == queries, values[at], 0) + add


def _symbol_digits(symbols: str, text: str, top: int) -> np.ndarray:
    """Per character of ``text``, whose code points are at most ``top``, its
    index in the sorted ``symbols``, or ``len(symbols)`` for a character
    that is not one of them."""
    top = max(top, ord(symbols[-1]))
    digits = np.full(top + 1, len(symbols), np.min_scalar_type(len(symbols)))
    digits[_code_points(symbols, top)] = np.arange(len(symbols))
    return digits[_code_points(text, top)]


def _window_digits(sym: np.ndarray, places: int) -> Iterator[np.ndarray]:
    """The contexts of the windows of ``sym``, symbols of words each closed
    by the boundary (0): per window, place by place from the newest, the
    symbol ``place + 1`` before it, or 0 once that is before the word."""
    alive = np.ones(len(sym), bool)
    for place in range(places):
        d = np.zeros_like(sym)
        d[place + 1:] = sym[:max(len(sym) - place - 1, 0)]
        alive &= d != 0
        d *= alive
        yield d


def _context_codes(digits: Iterable[np.ndarray], n: int, base: int, width: int,
                   renumbered: list | tuple) -> tuple[np.ndarray, int]:
    """``(code, span)`` of ``n`` contexts whose symbols ``digits`` gives place
    by place, newest first, one array of ``n`` per place (of which it reads
    at most ``width + 1``).

    The one context code of training and of trie nodes. The first
    ``width`` places are the digits of a number in base ``base``, the
    newest the lowest, so boundary pads add nothing. Every code is below
    ``span``, in a dtype that holds ``span * (base + 1)``, the span of the
    window codes. When that span would pass 2**63, the codes are renumbered
    by rank among the sorted codes training had there, ``renumbered[i]``,
    and their number becomes the span. Training passes an empty list, to
    which each renumbering adds its distinct codes; the trie's nodes, with
    the model's, replay the same spans and so meet the same renumberings.

    Code ``span - 1`` is no trained context's: it is the code of every
    context that holds a symbol outside ``base`` (digit ``base``), a symbol
    at a place past ``width``, or a code that a renumbering lacks.
    """
    code, span, unseen, done = np.zeros(n, np.uint8), 1, np.zeros(n, bool), 0
    for place, d in zip(range(width + 1), digits):
        if place == width:
            unseen |= d != 0
            continue
        unseen |= d == base  # its digit may carry into other places: the code is replaced
        code = code.astype(np.min_scalar_type(span * base), copy=False)
        code += d * code.dtype.type(span)
        span *= base
        if (span + 1) * (base + 1) > 2**63:
            if done == len(renumbered):
                renumbered.append(np.unique(code))
            values = renumbered[done]
            done += 1
            rank = np.minimum(values.searchsorted(code), len(values) - 1)
            unseen |= values[rank] != code
            code, span = rank, len(values)
    code = code.astype(np.min_scalar_type((span + 1) * (base + 1)), copy=False)
    code[unseen] = span
    return code, span + 1


def _tally(code: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``code`` (all below ``span``), ascending, as
    ``uint64``, with their counts: counted over every value when the span
    is a few times the length, else by a sort."""
    if span <= 4 * len(code):
        counts = np.bincount(code, minlength=span)
        values = np.flatnonzero(counts)
        return values.astype(np.uint64), counts[values]
    code.sort()
    starts = np.flatnonzero(np.concatenate([[True], code[1:] != code[:-1]]))
    return code[starts].astype(np.uint64), np.diff(starts, append=len(code))


class TrieScorer:
    """Language-model tables of one (trie, model, scoring mode), by trie node id.

    A query names the current word by its trie node alone. The decoder
    keeps one scorer per (model, mode) on the tree, so every decode with
    that configuration shares its tables. It keeps the trie arrays it
    reads (``_first``, ``_is_word``, ``_chars``, ``_levels``), not the
    tree, so it goes with the tree, its one owner. It builds, when it is
    made, the arrays by node that its mode reads, in whole-array passes
    over the trie (``_model_tables``), so a read is an index:

    - ``step[n]`` and ``end[n]``, in every model mode: ``P(c(n) | ctx(parent))``
      (1.0 at the root) and ``P(⊥ | ctx(n))``, for node ``n``'s character
      ``c(n)`` and the context ``ctx(n)`` its prefix ends in;
    - ``word_prob[n]``, in every model mode: the probability of the word
      ending at ``n``;
    - ``exact[n]``, in the forecast modes: the exact forecast
      ``F(n) = [word]·P(⊥|n) + Σ_c P(c|n)·F(child_c)``;
    - ``counts[n]``, in the sampling mode: the number of words at or
      below ``n``, from which a sampled forecast ranks the completions it
      draws and walks straight to them (``_word_keys``);
    - ``lexmin[n]``, in ``words`` mode: the node of the smallest word
      below ``n``, which is its best completion there.

    A table its mode does not read is ``None``.

    The model modes build one more array when a completion first asks for
    it, not before, so that a command's set-up does not pay for it
    (``_best_completions``): ``via[n]``, the first node on the way from
    ``n`` down to the word whose completion of ``n``'s prefix is the most
    probable (see ``NgramModel``), ties to the smallest word; ``n`` itself
    where that is its own word. ``completions_at`` follows ``via`` to the
    word, multiplying the ``step`` factors on the way and the word's
    ``end`` from the left, which is that probability bit for bit. Where
    rounding leaves the pick in doubt, ``via[n]`` is -1 and
    ``completions_at`` settles the node by a search from it (``_search``),
    memoised. The sampled forecast stays lazy too, a seeded draw from the
    node's prefix, filled per node the first time the search asks; the
    batched search draws the nodes a step asks for together
    (``forecasts``). Neither reads the model.
    """

    def __init__(self, tree: PrefixTree, lm: NgramModel | None = None,
                 mode: ScoringMode = WORDS) -> None:
        if mode.uses_lm and lm is None:
            raise InputValidationError(f"scoring mode {mode.kind!r} requires a language model")
        self.mode = mode
        self._first, self._is_word, self._chars = tree._first, tree._is_word, tree._chars
        self._levels = tree._levels
        self._sampled: dict = {}
        self._keys = None
        self._searched: dict = {}
        self.lexmin = self.step = self.end = self.word_prob = self.exact = self.counts = None
        self.via = None
        if mode.uses_lm:
            self.step, self.end, self.word_prob, self.exact, self.counts = _model_tables(
                tree, lm, mode)
        else:
            self.lexmin = _smallest_words(tree)

    def word_probability(self, node: int) -> float:
        """The probability of the word ending at ``node`` (``word_prob``)."""
        return self.word_prob[node]

    def forecast(self, node: int) -> float:
        """Completion probability of the live prefix at ``node``; in the
        sampling mode, summed over a seeded sample and rescaled (total / sampled)
        unless the sample would cover every completion."""
        if self.counts is None or self.counts[node] <= self.mode.sample_size:
            return self.exact[node]
        if node not in self._sampled:
            self._draw([node])
        return self._sampled[node]

    def forecasts(self, nodes: np.ndarray) -> np.ndarray:
        """``forecast`` at each of ``nodes``, an array; the sampled forecasts
        not yet drawn are drawn together, once per distinct node."""
        f = np.take(self.exact, nodes)
        if self.counts is not None:
            drawn = np.flatnonzero(np.take(self.counts, nodes) > self.mode.sample_size)
            if drawn.size:
                distinct, at = np.unique(nodes[drawn], return_inverse=True)
                distinct = distinct.tolist()
                self._draw([v for v in distinct if v not in self._sampled])
                f[drawn] = np.array([self._sampled[v] for v in distinct])[at]
        return f

    def _draw(self, nodes: list[int]) -> None:
        """Fill the sampled forecasts of ``nodes``: at each, the sum, in draw
        order, of the probabilities of a seeded sample of its completions,
        times (total / sampled)."""
        if not nodes:
            return
        k, counts = self.mode.sample_size, self.counts
        # ``sample`` picks indices from the length alone, so drawing from
        # ``range(n)`` chooses the same completions, in the same order, as
        # drawing from the lexicographic list of them.
        seed, first, chars = self.mode.seed, self._first, self._chars
        chosen = [random.Random(f"forecast|{seed}|{_spell(first, chars, v)}")
                  .sample(range(counts[v]), k) for v in nodes]
        p = self._nth_probabilities(np.repeat(nodes, k), np.array(chosen).ravel())
        for v, row in zip(nodes, p.reshape(-1, k).tolist()):
            self._sampled[v] = sum(row) * (counts[v] / k)

    def _nth_probabilities(self, node: np.ndarray, i: np.ndarray) -> np.ndarray:
        """The probability of the ``i``-th completion below each
        ``node``, in lexicographic order: walks down to it, all in step,
        each taking the child whose words hold that rank (``_word_keys``)."""
        if self._keys is None:
            self._keys = _word_keys(self._first, self._is_word, self._levels, self.counts)
        keys, span = self._keys, self.counts[0] + 1
        is_word = np.frombuffer(self._is_word, np.uint8)
        target = keys.take(node) % span + i  # the rank of the word sought
        cur, p, out = node.copy(), np.ones(len(node)), np.empty(len(node))
        go = np.arange(len(node))
        while go.size:
            key = keys.take(cur[go])
            here = (is_word.take(cur[go]) == 1) & (key % span == target[go])
            out[go[here]] = p[go[here]] * np.take(self.end, cur[go[here]])
            go, key = go[~here], key[~here]
            child = keys.searchsorted((key // span + 1) * span + target[go], "right") - 1
            cur[go] = child
            p[go] *= np.take(self.step, child)
        return out

    def completions_at(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The word nodes and probabilities of the best completions of the
        live prefixes at ``nodes``, an array, in a model mode: the largest
        probability, ties to the smallest word. Each walk follows ``via``,
        all in step; a node whose ``via`` is -1 is settled by ``_search``,
        memoised."""
        via, step = np.asarray(self._via()), np.asarray(self.step)
        word, p = nodes.copy(), np.ones(len(nodes))
        first = via.take(nodes)
        go = np.flatnonzero((first != nodes) & (first >= 0))
        while go.size:
            nxt = via.take(word[go])
            word[go] = nxt
            p[go] *= step.take(nxt)
            go = go[via.take(nxt) != nxt]
        p *= np.take(self.end, word)
        for i in np.flatnonzero(first < 0).tolist():
            node = int(nodes[i])
            best = self._searched.get(node)
            if best is None:
                best = self._searched[node] = self._search(node)
            word[i], p[i] = best
        return word, p

    def _via(self) -> memoryview:
        """The ``via`` array of a model mode, built on the first call."""
        if self.via is None:
            self.via = _best_completions(self._first, self._is_word, self._levels,
                                         self.step, self.end)
        return self.via

    def _search(self, node: int) -> tuple[int, float]:
        # Uniform-cost search: every factor is at most 1, so the first word end
        # popped beats all unexplored completions, ties to the smallest text.
        # Products run left to right, as a completion's probability is
        # defined, and only prefixes at least as probable as the answer are
        # visited.
        step, end = self.step, self.end
        is_word, first, chars = self._is_word, self._first, self._chars
        heap = [(-1.0, "", False, node)]
        while True:
            neg_p, text, at_end, cur = heapq.heappop(heap)
            if at_end:
                return cur, -neg_p
            if is_word[cur]:
                heapq.heappush(heap, (neg_p * end[cur], text, True, cur))
            lo = first[cur]
            for child, c in enumerate(chars[lo - 1:first[cur + 1] - 1], lo):
                heapq.heappush(heap, (neg_p * step[child], text + c, False, child))


def _smallest_words(tree: PrefixTree) -> np.ndarray:
    """Per node, the node of the smallest word that starts with its prefix.

    A word node is its own smallest word, as a prefix sorts before its
    extensions; any other node's is its first child's, as children come in
    code-point order: ``lexmin[n] = n if is_word[n] else lexmin[first[n]]``.
    Every node jumps along that chain at once, twice as far each pass, so
    the passes are about log2 of the tree's depth.
    """
    first = np.frombuffer(tree._first, np.intc)
    ids = np.arange(len(first) - 1, dtype=np.intc)
    # A childless node is a word, but for the root of an empty tree, which keeps itself.
    ends = np.frombuffer(tree._is_word, np.uint8).astype(bool) | (np.diff(first) == 0)
    lexmin = np.where(ends, ids, first[:-1])
    while True:
        jumped = lexmin[lexmin]
        if np.array_equal(jumped, lexmin):
            return lexmin
        lexmin = jumped


def _model_tables(tree: PrefixTree, lm: NgramModel, mode: ScoringMode) -> tuple:
    """``(step, end, word_prob, exact, counts)`` by node: each a memoryview
    of a numpy array, whose reads are Python numbers (a decode prints the
    ``repr`` of a float it read), or ``None`` where ``mode`` reads no such
    table.

    Node contexts are coded from the symbols of each node and its ancestors,
    and ``step`` and ``end`` are read from the model's arrays
    (``lm._conditionals``). Level by level from the root, the prefix
    probability is ``prob[n] = prob[parent] * step(n)``, so ``word_prob[n] =
    prob[n] * end(n)`` is the word's probability, its product taken from
    the left as ``NgramModel`` defines it (``1.0 * x`` is exact). The exact
    forecast and the count are sums over the children, taken bottom up
    (``_subtree_sums``) in child order, which is the order of the recursion
    ``F(n) = [word]·P(⊥|n) + Σ_c P(c|n)·F(child_c)``.
    """
    first = np.frombuffer(tree._first, np.intc)
    n, levels = len(first) - 1, tree._levels
    parent = np.zeros(n, np.intc)  # the root's is itself
    parent[1:] = np.repeat(np.arange(n, dtype=np.intc), np.diff(first))
    sym = np.zeros(n, np.min_scalar_type(lm.num_outcomes))  # the root's is the boundary
    sym[1:] = _symbol_digits(lm.symbols, tree._chars, ord(max(tree.word_chars, default="\0")))
    code, span = _context_codes(_ancestor_digits(sym, parent, lm.order - 1), n, lm.num_outcomes,
                                lm._width, lm._renumbered)
    step = lm._conditionals(code[parent], span, sym)
    step[0] = 1.0
    end = lm._conditionals(code, span, 0)
    del code, sym
    word = np.empty(n)
    prob, above = np.ones(1), 0  # the level above's prefix probabilities, from node ``above``
    for lo, hi in zip(levels, levels[1:]):
        prob = prob[parent[lo:hi] - above] * step[lo:hi]
        np.multiply(prob, end[lo:hi], out=word[lo:hi])
        above = lo
    exact = count = None
    is_word = np.frombuffer(tree._is_word, np.uint8)
    if mode.uses_forecast:
        exact = end * is_word
        _subtree_sums(parent, levels, exact, step)
    if mode.kind == "ngrams_forecast_sample":
        count = is_word.astype(np.int64)
        _subtree_sums(parent, levels, count)
    return tuple(None if t is None else memoryview(t) for t in (step, end, word, exact, count))


# Nodes of one level that ``_best_completions`` takes at a time, which bounds
# its temporaries.
_PARENTS = 1 << 12
# The least best product ``_best_completions`` certifies by rounding bounds
# (a lone completion needs none): a product of factors at most 1 that ends
# there has kept every partial product normal.
_NORMAL = 2.0 ** -1000


def _best_completions(first, is_word, levels: list[int], step, end) -> memoryview:
    """``via`` by node (see ``TrieScorer``), as a memoryview like
    ``_model_tables``' arrays.

    A completion of node ``n`` to word ``w`` has the probability of the
    ``step`` factors of the nodes below ``n`` down to ``w``, then
    ``end[w]``, multiplied from the left. Level
    by level from the deepest, each node keeps the best and the runner-up of
    its completions' products taken from the right: its own word's ``end``,
    and each child's two, times the child's ``step``. Rounding is monotone,
    so these are the two best products from the right. Ties go to the
    smallest word: the node's own, then the children's in code-point order.

    The two orders of a product of ``f`` factors round ``f - 1`` times each,
    so both lie within a factor ``1 ± (f - 1) * 2**-53`` (to first order)
    of the exact product. A node is certain where it has one completion, or
    where its best is at least ``_NORMAL`` and its runner-up falls short of
    it by more than ``(f + 1) * 2**-50``, ``f`` the factors of its longest
    completion: then the best from the right is the best from the left too,
    strictly. The gap grows by ``2**-50`` a level up, more than one product
    can close, so the ``via`` chain of a certain node meets only certain
    nodes. An uncertain node's ``via`` is -1.

    Besides ``via``, the passes hold a level's arrays and its children's at
    a time.
    """
    first = np.frombuffer(first, np.intc)
    is_word = np.frombuffer(is_word, np.uint8).view(bool)
    step, end = np.asarray(step), np.asarray(end)
    via = np.empty(len(first) - 1, np.intc)
    deepest = len(levels) - 2
    top = bot = None  # the best and runner-up products of the level below
    for d in range(deepest, -1, -1):
        lo, hi = levels[d], levels[d + 1]
        best = np.where(is_word[lo:hi], end[lo:hi], -np.inf)  # -inf: none, whatever scales it
        run = np.full(hi - lo, -np.inf)
        via[lo:hi] = np.arange(lo, hi, dtype=np.intc)
        parents = hi if d < deepest else lo  # the deepest level's have no children
        # Nodes ``a`` to ``b`` at a time, and their children ``first[a]`` to ``first[b]``.
        for a in range(lo, parents, _PARENTS):
            b = min(a + _PARENTS, hi)
            c0, c1 = first[a] - hi, first[b] - hi
            products, factor = top[c0:c1], step[hi + c0:hi + c1]
            products *= factor
            kids = np.diff(first[a:b + 1])
            has = np.flatnonzero(kids)
            starts = first[a:b][has] - (hi + c0)
            m = np.maximum.reduceat(products, starts)
            k = np.flatnonzero(products == np.repeat(m, kids[has]))  # children that reach it
            if len(k) > len(m):  # ties: the first child of each node
                k = k[np.r_[True, np.diff(np.searchsorted(starts, k, "right")) > 0]]
            second = factor[k] * bot[c0 + k]
            products[k] = -np.inf
            np.maximum(second, np.maximum.reduceat(products, starts), out=second)
            has += a - lo
            own = best[has]
            mine = own >= m
            best[has] = np.where(mine, own, m)
            run[has] = np.where(mine, m, np.maximum(own, second))
            child = ~mine
            via[lo + has[child]] = k[child] + (hi + c0)
        top = bot = None  # freed before the test's temporaries
        gap = (deepest - d + 2) * 2.0 ** -50
        via[lo:hi][(run >= 0) & ((best < _NORMAL) | (run >= best * (1 - gap)))] = -1
        top, bot = best, run
    return memoryview(via)


def _word_keys(first, is_word, levels: list[int], counts) -> np.ndarray:
    """Per node, ``depth * (words + 1) + rank``: its depth, and the number of
    words that sort before every word at or below it. A node's own word is
    the smallest there; its children's words follow in child order. A
    level's nodes come in text order and ids are level order, so the keys
    ascend with the ids, and the child at or above rank ``r`` at depth
    ``d`` is the last node whose key is at most ``d * (words + 1) + r``."""
    first, is_word = np.frombuffer(first, np.intc), np.frombuffer(is_word, np.uint8)
    counts = np.asarray(counts)
    span = int(counts[0]) + 1
    keys = np.zeros(len(first) - 1, np.int64)
    for d, (lo, hi, below) in enumerate(zip(levels, levels[1:], levels[2:])):
        kids = np.diff(first[lo:hi + 1])
        has = np.flatnonzero(kids)
        before = np.cumsum(counts[hi:below]) - counts[hi:below]  # words of earlier children
        before -= np.repeat(before[first[lo:hi][has] - hi], kids[has])  # ... of the same node
        before += np.repeat((keys[lo:hi] % span + is_word[lo:hi])[has], kids[has])
        keys[hi:below] = (d + 1) * span + before
    return keys


def _ancestor_digits(sym: np.ndarray, parent: np.ndarray, places: int) -> Iterator[np.ndarray]:
    """The contexts of trie nodes: per node, place by place from the newest,
    the symbol of its ``place``-th ancestor, 0 (the boundary) past the root."""
    for _ in range(places):
        yield sym
        sym = sym[parent]


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
