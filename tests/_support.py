"""Shared test oracles: brute-force references independent of the library."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import numpy as np

from wordbeam import (
    WORD_BOUNDARY,
    WORDS,
    Alphabet,
    DataFormatError,
    InputValidationError,
    NgramModel,
    PosteriorMatrix,
    PrefixTree,
    RecognizerSim,
    ScoringMode,
    TrieScorer,
    encode_label,
)
from wordbeam.files import read_text, unescape_alphabet
from wordbeam.language_model import _context_codes, _symbol_digits, _window_digits


def collapse(path: list[int], alphabet: Alphabet) -> str:
    """The labeling of a frame-level path: adjacent repeats merged, then
    blanks removed."""
    blank, symbols = alphabet.blank_index, alphabet.symbols
    out: list[str] = []
    last = -1
    for idx in path:
        if idx != last and idx != blank:
            out.append(symbols[idx])
        last = idx
    return "".join(out)


def scorer_completion(tree: PrefixTree, scorer: TrieScorer,
                      node: int) -> tuple[str, int, float]:
    """(remainder, word node, remainder probability) of ``scorer``'s best
    completion of the live prefix at ``node`` of ``tree``, the scorer's
    trie: its ``lexmin`` word, with probability 1, in ``words`` mode, else
    ``completions_at``'s."""
    if scorer.lexmin is not None:
        word, p = int(scorer.lexmin[node]), 1.0
    else:
        words, probs = scorer.completions_at(np.array([node], np.intc))
        word, p = int(words[0]), float(probs[0])
    return tree._prefix(word, node), word, p


def random_matrix(rng: np.random.Generator, t: int, c: int) -> PosteriorMatrix:
    arr = rng.random((t, c)) + 1e-3
    return PosteriorMatrix(arr / arr.sum(axis=1, keepdims=True))


ENUMERATION_CAP = 10_000_000


class CapacityError(RuntimeError):
    """An exhaustive enumeration would exceed ``ENUMERATION_CAP`` paths."""


def labeling_distribution(m: PosteriorMatrix, alphabet: Alphabet) -> dict[str, float]:
    """Exhaustively enumerate all C^T paths, grouped by collapsed labeling.

    This is the brute-force reference the beam decoders are checked
    against; it shares no machinery with them. Enumeration is capped at
    ``ENUMERATION_CAP`` paths.
    """
    if m.num_classes != alphabet.num_classes:
        raise InputValidationError(
            f"matrix has {m.num_classes} classes but the alphabet implies "
            f"{alphabet.num_classes}"
        )
    t_max, c_max = m.num_frames, m.num_classes
    if c_max ** t_max > ENUMERATION_CAP:
        raise CapacityError(
            f"{c_max}^{t_max} paths exceed the enumeration cap of {ENUMERATION_CAP}"
        )
    rows = m.probs.tolist()
    blank = alphabet.blank_index
    symbols = alphabet.symbols
    dist: dict[str, float] = {}

    def walk(t: int, labeling: str, last: int, prob: float) -> None:
        if t == t_max:
            dist[labeling] = dist.get(labeling, 0.0) + prob
            return
        row = rows[t]
        for c in range(c_max):
            p = prob * row[c]
            if p == 0.0:
                continue  # zero-probability subtree contributes nothing
            walk(t + 1, labeling if (c == blank or c == last) else labeling + symbols[c], c, p)

    walk(0, "", -1, 1.0)
    return dist


def labeling_probability(m: PosteriorMatrix, labeling: str, alphabet: Alphabet) -> float:
    """Total probability of all paths collapsing to ``labeling``."""
    if len(labeling) > m.num_frames:
        return 0.0
    symbols = set(alphabet.symbols)
    for ch in labeling:
        if ch not in symbols:
            raise InputValidationError(f"labeling character {ch!r} is not in the alphabet")
    return labeling_distribution(m, alphabet).get(labeling, 0.0)


def forward_probability(m: PosteriorMatrix, labeling: str, alphabet: Alphabet) -> float:
    """Total probability of all paths collapsing to ``labeling``, by the CTC
    forward pass (Graves et al., 2006) in O(T * len(labeling)).

    After each frame the forward variables are rescaled by a power of two,
    exact for normal doubles, so that the largest stays near 1; the result
    is the final mass times the summed scale, below the normal range only
    where the probability is.
    """
    col = alphabet.column_map()
    blank = alphabet.blank_index
    states = [blank]  # the labeling with a blank around each symbol
    for ch in labeling:
        states += [col[ch], blank]
    states = np.array(states)
    # A symbol state may also be entered from two states back, the previous
    # symbol, unless the two symbols are equal.
    skip = np.zeros(len(states), bool)
    skip[3::2] = states[3::2] != states[1:-2:2]
    alpha = np.zeros(len(states))
    alpha[:2] = 1.0  # a path starts in the leading blank or on the first symbol
    exponent = 0
    for t, row in enumerate(m.probs):
        if t:
            prev = alpha
            alpha = prev.copy()
            alpha[1:] += prev[:-1]
            alpha[2:] += np.where(skip[2:], prev[:-2], 0.0)
        alpha *= row[states]
        top = float(alpha.max())
        if top > 0.0:
            shift = math.frexp(top)[1]
            alpha = np.ldexp(alpha, -shift)
            exponent += shift
    # A path ends in the trailing blank or on the last symbol.
    return math.ldexp(float(alpha[-2:].sum() if labeling else alpha[-1]), exponent)


def itertools_distribution(m: PosteriorMatrix, alphabet: Alphabet) -> dict[str, float]:
    """Path enumeration via itertools.product, no shared code with the library."""
    rows = m.probs.tolist()
    blank = alphabet.blank_index
    symbols = alphabet.symbols
    dist: dict[str, float] = {}
    for path in itertools.product(range(m.num_classes), repeat=m.num_frames):
        prob = 1.0
        for t, idx in enumerate(path):
            prob *= rows[t][idx]
        out = []
        last = -1
        for idx in path:
            if idx != last and idx != blank:
                out.append(symbols[idx])
            last = idx
        labeling = "".join(out)
        dist[labeling] = dist.get(labeling, 0.0) + prob
    return dist


def naive_best_path(m: PosteriorMatrix, alphabet: Alphabet) -> tuple[str, float]:
    """Pure-Python per-row argmax scan."""
    rows = m.probs.tolist()
    blank = alphabet.blank_index
    symbols = alphabet.symbols
    likelihood = 1.0
    out = []
    last = -1
    for row in rows:
        best = 0
        for j in range(1, len(row)):
            if row[j] > row[best]:
                best = j
        likelihood *= row[best]
        if best != last and best != blank:
            out.append(symbols[best])
        last = best
    return "".join(out), likelihood


def reference_best_path(m: PosteriorMatrix, alphabet: Alphabet) -> tuple[str, float]:
    """Best path one row at a time: ``np.argmax`` of each row and a running
    product of the chosen values, starting from 1.0."""
    path: list[int] = []
    likelihood = 1.0
    for row in m.probs:
        j = int(np.argmax(row))
        path.append(j)
        likelihood *= float(row[j])
    return collapse(path, alphabet), likelihood


def reference_parse_matrix(text: str, path: str = "<string>") -> tuple[str, PosteriorMatrix]:
    """Matrix file parser that converts each row's fields with ``float()``
    as it reaches the row, so the first faulty row raises."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 2:
        raise DataFormatError("expected a 'T C' header and an alphabet line", path=path, line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise DataFormatError(f"malformed header {lines[0]!r}", path=path, line=1)
    try:
        t, c = int(header[0]), int(header[1])
    except ValueError:
        raise DataFormatError(f"non-integer header {lines[0]!r}", path=path, line=1) from None
    symbols = unescape_alphabet(lines[1], path=path, line=2)
    if len(symbols) + 1 != c:
        raise DataFormatError(
            f"alphabet has {len(symbols)} symbols but header says C={c}", path=path, line=2
        )
    if len(lines) != 2 + t:
        raise DataFormatError(
            f"expected {t} value rows, found {len(lines) - 2}", path=path, line=len(lines)
        )
    rows: list[list[float]] = []
    for i, line in enumerate(lines[2:], start=3):
        fields = line.split(" ")
        if len(fields) != c:
            raise DataFormatError(
                f"expected {c} values, found {len(fields)}", path=path, line=i
            )
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise DataFormatError(f"malformed float in row {line!r}", path=path, line=i) from None
    try:
        matrix = PosteriorMatrix(rows)
    except InputValidationError as exc:
        row = getattr(exc, "row", None)  # value row ``row`` is file line ``row + 3``
        raise DataFormatError(str(exc), path=path, line=None if row is None else row + 3) from exc
    return symbols, matrix


def reference_load_word_list(path) -> list[str]:
    """Word list reader that strips and checks one line at a time: comment
    and blank lines skipped, a word with embedded whitespace an error that
    names its line."""
    words: list[str] = []
    for i, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if len(line.split()) != 1:
            raise DataFormatError(
                f"word {line!r} contains embedded whitespace", path=str(path), line=i
            )
        words.append(line)
    return words


def reference_ngram_counts(corpus, order: int) -> dict[str, Counter]:
    """Per-context next-character counts, one window at a time, over
    boundary-padded words; validates each word as it reaches it."""
    counts: dict[str, Counter] = {}
    pad = WORD_BOUNDARY * (order - 1)
    for word in corpus:
        if not word:
            raise InputValidationError("corpus words must be non-empty")
        if WORD_BOUNDARY in word:
            raise InputValidationError("corpus word contains the boundary sentinel")
        seq = pad + word + WORD_BOUNDARY
        for i in range(order - 1, len(seq)):
            ctx = seq[i - order + 1 : i]
            ctr = counts.get(ctx)
            if ctr is None:
                ctr = counts[ctx] = Counter()
            ctr[seq[i]] += 1
    return counts


def model_counts(lm: NgramModel) -> dict[str, dict[str, int]]:
    """The model's window counts spelled out as ``{context: {character:
    count}}``, contexts boundary-padded to ``order - 1`` characters.

    Each window code is ``context * (base + 1) + symbol``, and a context code is
    undone place by place from the oldest: a place added ``digit * span``,
    where ``span`` is replayed from the model's symbols and renumberings,
    and a renumbering is undone by reading the code it ranked.
    """
    base = len(lm.symbols)
    places, span, renumbered = [], 1, iter(lm._renumbered)
    for _ in range(lm._width):  # per place: its span, and the renumbering after it
        values = next(renumbered) if (span * base + 1) * (base + 1) > 2**63 else None
        places.append((span, values))
        span = span * base if values is None else len(values)
    assert next(renumbered, None) is None
    counts: dict[str, dict[str, int]] = {}
    for window, count in zip(lm.windows.tolist(), lm.counts.tolist()):
        code, last = divmod(window, base + 1)
        oldest_first = []
        for span, values in reversed(places):
            if values is not None:
                code = int(values[code])
            digit, code = divmod(code, span)
            oldest_first.append(lm.symbols[digit])
        assert code == 0
        context = WORD_BOUNDARY * (lm.order - 1 - lm._width) + "".join(oldest_first)
        counts.setdefault(context, {})[lm.symbols[last]] = count
    return counts


def chain(lm: NgramModel, word: str) -> list[float]:
    """``P(word[i] | word[:i])`` at each position, then ``P(⊥ | word)``,
    read from the model's count arrays; a boundary in ``word`` closes it
    there, so the current word is what follows the last one,
    boundary-padded as at a word's start."""
    sym = _symbol_digits(lm.symbols, word + WORD_BOUNDARY, ord(max(word, default="\0")))
    code, span = _context_codes(_window_digits(sym, lm.order - 1), len(sym),
                                len(lm.symbols), lm._width, lm._renumbered)
    return lm._conditionals(code, span, sym).tolist()


def conditional(lm: NgramModel, word_prefix: str, c: str) -> float:
    """Smoothed P(c | last order-1 characters of the current word)."""
    return chain(lm, word_prefix + c)[len(word_prefix)]


def remainder_probability(lm: NgramModel, prefix: str, remainder: str) -> float:
    """Chain probability of completing ``prefix`` with ``remainder``, the
    product taken from the left."""
    p = 1.0
    for q in chain(lm, prefix + remainder)[len(prefix):]:
        p *= q
    return p


def word_probability(lm: NgramModel, word: str) -> float:
    """Chain probability of a whole word, boundary close included."""
    return remainder_probability(lm, "", word)


class RefNode:
    """A node of the reference trie: one object per prefix, children in a
    dict, and ``id``, its index in the level-order walk of the trie."""

    __slots__ = ("children", "is_word", "id")

    def __init__(self) -> None:
        self.children: dict[str, RefNode] = {}
        self.is_word = False
        self.id = -1


def _breadth_first(root: RefNode) -> list[RefNode]:
    """The nodes of a breadth-first walk that visits children in sorted order
    of their characters."""
    queue = [root]
    for node in queue:  # the queue grows as the walk goes
        queue.extend(node.children[c] for c in sorted(node.children))
    return queue


def reference_trie(words) -> RefNode:
    """The root of a trie built by inserting each distinct word, in sorted
    order, one character at a time; each node's ``id`` is its index in
    ``reference_level_order``'s walk, which equals the flat trie's node id."""
    root = RefNode()
    for word in sorted(set(words)):
        node = root
        for ch in word:
            child = node.children.get(ch)
            if child is None:
                child = node.children[ch] = RefNode()
            node = child
        node.is_word = True
    for i, node in enumerate(_breadth_first(root)):
        node.id = i
    return root


def reference_level_order(root: RefNode) -> tuple[list[str], list[int], list[int]]:
    """``(kids, first, is_word)`` of a breadth-first walk of the reference
    trie that visits children in sorted order of their characters: per node
    in visiting order, its sorted child characters, the visiting index of
    its first child, and 1 if it ends a word; ``first`` ends with the node
    count."""
    kids: list[str] = []
    first: list[int] = []
    is_word: list[int] = []
    seen = 1  # nodes visited or queued so far: the root
    for node in _breadth_first(root):
        kids.append("".join(sorted(node.children)))
        first.append(seen)
        is_word.append(int(node.is_word))
        seen += len(node.children)
    return kids, first + [seen], is_word


def children(tree: PrefixTree, node: int) -> str:
    """The characters of ``node``'s children in the flat trie, in id order."""
    return tree._chars[tree._first[node] - 1:tree._first[node + 1] - 1]


def ref_find(root: RefNode, prefix: str) -> RefNode | None:
    """The reference node of a live prefix, None for a dead one."""
    node = root
    for ch in prefix:
        node = node.children.get(ch)
        if node is None:
            return None
    return node


def trie_node(root: RefNode, prefix: str) -> int | None:
    """The trie node id of a live prefix (None for a dead one), as the decoder holds it."""
    node = ref_find(root, prefix)
    return None if node is None else node.id


def node_prefixes(root: RefNode) -> list[str]:
    """The prefix of every reference node, indexed by its id."""
    prefixes = {root.id: ""}
    for node in _breadth_first(root):
        for c, child in node.children.items():
            prefixes[child.id] = prefixes[node.id] + c
    return [prefixes[i] for i in range(len(prefixes))]


def reference_completions(root: RefNode, prefix: str) -> list[tuple[str, str]]:
    """All words with the given prefix as ``(word, remainder)`` pairs, in
    lexicographic order of the word; empty for a dead prefix."""
    node = ref_find(root, prefix)
    out: list[tuple[str, str]] = []
    stack = [] if node is None else [(node, "")]
    while stack:
        node, suffix = stack.pop()
        if node.is_word:
            out.append((prefix + suffix, suffix))
        stack.extend((node.children[c], suffix + c) for c in sorted(node.children, reverse=True))
    return out


def final_text(labeling: str, root: RefNode, word_chars) -> str | None:
    """Map a labeling to the decoder's final text, or None if unreachable.

    Fragments are maximal runs of word characters. Interior fragments
    must be complete dictionary words; the trailing fragment may also be
    a live incomplete prefix, in which case it is extended by its
    lexicographically first completion (the words-mode completion rule).
    """
    fragments: list[str] = []
    cur = ""
    for ch in labeling:
        if ch in word_chars:
            cur += ch
        else:
            if cur:
                fragments.append(cur)
                cur = ""
            fragments.append("")  # marks a non-word character position
    trailing = cur
    for frag in fragments:
        node = ref_find(root, frag)
        if frag and (node is None or not node.is_word):
            return None
    if not trailing:
        return labeling
    completions = reference_completions(root, trailing)
    if not completions:
        return None
    return labeling + completions[0][1]


def constrained_argmax(dist: dict[str, float], root: RefNode, word_chars) -> tuple[str, float]:
    """Exhaustive words-mode reference: best final text by total mass.

    Masses of labelings folding into the same final text are summed,
    mirroring the decoder's documented completion-merge contract; ties
    break lexicographically.
    """
    candidates: dict[str, float] = {}
    for labeling in sorted(dist):
        text = final_text(labeling, root, word_chars)
        if text is None:
            continue
        candidates[text] = candidates.get(text, 0.0) + dist[labeling]
    best_text, best_mass = min(candidates.items(), key=lambda kv: (-kv[1], kv[0]))
    return best_text, best_mass


def forecast_for_prefix(lm: NgramModel, root: RefNode, prefix: str, mode: ScoringMode) -> float:
    """Forecast by enumeration: the remainder probabilities of every
    completion summed, or of a seeded uniform sample of ``sample_size``
    of them rescaled by (total / sampled). 0 for a dead prefix."""
    completions = reference_completions(root, prefix)
    n = len(completions)
    if n == 0:
        return 0.0
    if mode.kind != "ngrams_forecast_sample" or mode.sample_size >= n:
        return sum(remainder_probability(lm, prefix, r) for _, r in completions)
    rng = random.Random(f"forecast|{mode.seed}|{prefix}")
    chosen = rng.sample(completions, mode.sample_size)
    partial = sum(remainder_probability(lm, prefix, r) for _, r in chosen)
    return partial * (n / mode.sample_size)


def reference_forecast(lm: NgramModel, node: RefNode, prefix: str) -> float:
    """The exact forecast of the live ``prefix`` at its reference ``node`` by
    the recursion ``F(n) = [word]·P(⊥|n) + Σ_c P(c|n)·F(child_c)``, children
    added in code-point order: the order of the scorer's bottom-up pass."""
    f = conditional(lm, prefix, WORD_BOUNDARY) if node.is_word else 0.0
    for c in sorted(node.children):
        f += conditional(lm, prefix, c) * reference_forecast(lm, node.children[c], prefix + c)
    return f


def best_completion(lm: NgramModel, root: RefNode, prefix: str) -> tuple[str, float]:
    """(word, remainder probability) of the most probable completion by
    enumeration, ties to the lexicographically smallest word."""
    scored = [(remainder_probability(lm, prefix, r), w)
              for w, r in reference_completions(root, prefix)]
    p, word = min(scored, key=lambda pw: (-pw[0], pw[1]))
    return word, p


def candidate(root: RefNode, text: str, word_prefix: str, p_blank: float, p_nonblank: float,
              p_text: float = 1.0) -> tuple:
    """The decoder's candidate tuple of a hand-built hypothesis whose word
    prefix is live, at that prefix's reference node; nothing is committed
    before it, so ``committed`` is ``p_text``."""
    node = trie_node(root, word_prefix)
    assert node is not None, f"dead word prefix {word_prefix!r}"
    return (-(p_text * (p_blank + p_nonblank)), text, p_blank, p_nonblank, p_text, p_text, node)


class Beam:
    """One hypothesis of the reference search, as an object: the fields of a
    candidate tuple by name, ``_node`` the trie node id of a non-empty
    ``word_prefix``, ``_last_col`` the column of the last character."""

    __slots__ = ("text", "word_prefix", "p_blank", "p_nonblank", "p_text", "_node",
                 "_committed", "_last_col")

    def __init__(self, text: str = "", word_prefix: str = "", p_blank: float = 0.0,
                 p_nonblank: float = 0.0, p_text: float = 1.0) -> None:
        self.text = text
        self.word_prefix = word_prefix
        self.p_blank = p_blank
        self.p_nonblank = p_nonblank
        self.p_text = p_text
        self._node = None
        self._committed = p_text
        self._last_col = -1

    @classmethod
    def of(cls, cand: tuple, prefixes: list[str]) -> "Beam":
        """The Beam of a candidate tuple, its word prefix read from
        ``prefixes``, the ``node_prefixes`` of the reference trie."""
        _, text, p_blank, p_nonblank, p_text, committed, node = cand
        b = cls(text, prefixes[node], p_blank, p_nonblank, p_text)
        b._node, b._committed = node, committed
        return b

    @property
    def score(self) -> float:
        return self.p_text * (self.p_blank + self.p_nonblank)


def entries(items, root: RefNode | None = None) -> dict[str, tuple]:
    """``{text: (word_prefix, p_blank, p_nonblank, p_text)}``, in order, of
    candidate tuples or of Beams (a text -> Beam dict stands for its Beams):
    the form in which the search and the reference search are compared. A
    candidate's word prefix is its node's in ``root``, the reference trie."""
    if isinstance(items, dict):
        items = items.values()
    prefixes = None if root is None else node_prefixes(root)
    out = {}
    for x in items:
        b = Beam.of(x, prefixes) if isinstance(x, tuple) else x
        out[b.text] = (b.word_prefix, b.p_blank, b.p_nonblank, b.p_text)
    return out


def _rank_key(b: Beam):
    return (-b.score, b.text)


def reference_frame_beams(m: PosteriorMatrix, alphabet: Alphabet, tree: PrefixTree,
                          root: RefNode, lm: NgramModel | None = None, width: int = 25,
                          mode: ScoringMode = WORDS, scorer: TrieScorer | None = None):
    """The frame loop with one Beam per candidate, merged in a dict: yields
    the uncut beam set after each frame. ``frame_beams`` yields the top
    ``width`` of each of these sets but the last, and the last uncut. The
    dictionary is read from ``root``, the reference trie of ``tree``'s
    words, whose node ids are the ones the scorer takes; ``tree`` gives
    the word characters and the scorer. The non-word characters are the
    alphabet's other symbols."""
    scorer = scorer or TrieScorer(tree, lm, mode)
    col = alphabet.column_map()
    nonword_exts = [(c, col[c]) for c in sorted(set(alphabet.symbols) - tree.word_chars)]
    blank = alphabet.blank_index
    rows = m.probs.tolist()
    kind = scorer.mode.kind
    uses_forecast = scorer.mode.uses_forecast
    exts_cache: dict[str, list] = {}

    def exts_of(prefix: str) -> list:
        """(character, column, child node id or None, is word character) per extension."""
        exts = exts_cache.get(prefix)
        if exts is None:
            node = ref_find(root, prefix)
            exts = [(c, col[c], child.id, True) for c, child in sorted(node.children.items())]
            if not prefix or node.is_word:
                exts = exts + [(c, ci, None, False) for c, ci in nonword_exts]
            exts_cache[prefix] = exts
        return exts

    def extend(b: Beam, c: str, cidx: int, child, is_word_char: bool) -> Beam:
        committed = b._committed
        p_text = b.p_text
        if is_word_char:
            prefix = b.word_prefix + c
            if uses_forecast:
                p_text = committed * scorer.forecast(child)
        else:
            prefix = ""
            if b.word_prefix and kind != "words":
                committed = p_text = committed * scorer.word_probability(b._node)
        nb = Beam(b.text + c, prefix, 0.0, 0.0, p_text)
        nb._node = child
        nb._committed = committed
        nb._last_col = cidx
        return nb

    beams: dict[str, Beam] = {"": Beam(p_blank=1.0)}
    for row in rows:
        ranked = sorted(beams.values(), key=_rank_key)[:width]
        nxt: dict[str, Beam] = {}
        blank_p = row[blank]
        for b in ranked:
            tot = b.p_blank + b.p_nonblank
            cur = nxt.get(b.text)
            if cur is None:
                cur = Beam(b.text, b.word_prefix, 0.0, 0.0, b.p_text)
                cur._node = b._node
                cur._committed = b._committed
                cur._last_col = b._last_col
                nxt[b.text] = cur
            if b.text:
                cur.p_nonblank += b.p_nonblank * row[b._last_col]
            cur.p_blank += tot * blank_p
            for c, cidx, child, is_word_char in exts_of(b.word_prefix):
                contrib = (b.p_blank if cidx == b._last_col else tot) * row[cidx]
                text2 = b.text + c
                nb = nxt.get(text2)
                if nb is None:
                    nb = extend(b, c, cidx, child, is_word_char)
                    nxt[text2] = nb
                nb.p_nonblank += contrib
        beams = nxt
        yield beams


def reference_complete_beams(beams, tree: PrefixTree, root: RefNode,
                             lm: NgramModel | None = None, mode: ScoringMode = WORDS,
                             scorer: TrieScorer | None = None) -> dict[str, Beam]:
    """Completion with one Beam per input and per output, merged in a dict
    in text order: the reference for ``complete_beams``. ``beams`` are
    Beams or a text -> Beam dict; each one's trie node is looked up in
    ``root`` by its word prefix."""
    scorer = scorer or TrieScorer(tree, lm, mode)
    items = beams.values() if isinstance(beams, dict) else beams
    out: dict[str, Beam] = {}
    for b in sorted(items, key=lambda x: x.text):
        text, word_prefix, p_text = b.text, b.word_prefix, b.p_text
        node = ref_find(root, word_prefix)
        if not node.is_word and word_prefix:
            remainder, end, prob = scorer_completion(tree, scorer, node.id)
            text += remainder
            word_prefix += remainder
            if mode.kind == "ngrams":
                p_text = b.p_text * scorer.word_probability(end)
            elif mode.uses_forecast:
                p_text = b._committed * prob
        cur = out.get(text)
        if cur is None:
            out[text] = Beam(text, word_prefix, b.p_blank, b.p_nonblank, p_text)
        else:
            cur.p_blank += b.p_blank
            cur.p_nonblank += b.p_nonblank
    return out


def reference_decode(m: PosteriorMatrix, alphabet: Alphabet, tree: PrefixTree, root: RefNode,
                     lm: NgramModel | None = None, width: int = 25,
                     mode: ScoringMode = WORDS) -> tuple[str, float]:
    """``decode`` driven by ``reference_frame_beams`` and
    ``reference_complete_beams``, with a scorer of its own."""
    scorer = TrieScorer(tree, lm, mode)
    beams: dict[str, Beam] = {}
    for beams in reference_frame_beams(m, alphabet, tree, root, lm, width, mode, scorer):
        pass
    best = min(reference_complete_beams(beams, tree, root, lm, mode, scorer).values(),
               key=_rank_key)
    return best.text, best.score


def reference_emit(sim: RecognizerSim, word: str) -> PosteriorMatrix:
    """``sim.emit(word)`` one row at a time, each draw a call of the
    stdlib generator: the reference for the batched emitter."""
    label = encode_label(word, sim.alphabet)
    if not label:
        raise InputValidationError("cannot emit a matrix for an empty label")
    col = sim.alphabet.column_map()
    targets: list[int] = []
    for ch in label:
        if ch not in col:
            raise InputValidationError(
                f"label character {ch!r} is not in the recognizer alphabet"
            )
        targets.append(col[ch])
    rng = random.Random(f"emit|{sim.seed}|{label}")
    blank = sim.alphabet.blank_index
    c_max = sim.alphabet.num_classes
    sep_col = None
    if sim.alphabet.separator is not None:
        sep_col = col[sim.alphabet.separator]
    rows: list[list[float]] = []
    for i, target in enumerate(targets):
        if i:
            rows.append(reference_row(rng, sim, c_max, blank, sim.noise_level, sep_col))
        noise = sim.noise_level
        if target == sep_col:
            noise = noise * sim.separator_noise_factor
        for _ in range(sim.frames_per_char):
            rows.append(reference_row(rng, sim, c_max, target, noise, sep_col))
    return PosteriorMatrix(rows)


def reference_row(rng, sim: RecognizerSim, c_max: int, target: int, noise: float,
                  sep_col: int | None) -> list[float]:
    """One emitted row; ``rng`` needs ``expovariate``, ``randrange`` and ``random``."""
    if noise == 0.0:
        row = [0.0] * c_max
        row[target] = 1.0
        return row
    peak = 1.0 - noise * rng.expovariate(1.0)
    if peak < 0.02:
        peak = 0.02
    leak = 1.0 - peak
    share = sim.confusion_spread / (sim.confusion_spread + 1.0)
    excluded = {target}
    if sep_col is not None and target != sep_col:
        excluded.add(sep_col)
    j = target
    while j in excluded:
        j = rng.randrange(c_max)
    weights = [rng.random() for _ in range(c_max)]
    for idx in excluded:
        weights[idx] = 0.0
    wsum = _sum_left_to_right(weights)
    if wsum == 0.0:
        weights = [float(i not in excluded) for i in range(c_max)]
        wsum = _sum_left_to_right(weights)
    diffuse = leak * (1.0 - share)
    row = [diffuse * w / wsum for w in weights]
    row[j] += leak * share
    row[target] += peak
    total = _sum_left_to_right(row)
    return [v / total for v in row]


def _sum_left_to_right(values: list[float]) -> float:
    """``sum`` of floats as Python adds them up to 3.11: one at a time, left
    to right (3.12 compensates the rounding, which can move the last bit)."""
    total = 0.0
    for v in values:
        total += v
    return total


# Matrix texts with a fault, and the message that names the first one, for a
# file named m.mat.
FIRST_FAULTS = [
    ("0 3\nab\n", "m.mat: posterior matrix must be two-dimensional"),
    ("2 2\na\n0.5 0.5\n\n", "m.mat:4: expected 2 values, found 1"),
    ("2 2\na\n0.5 0.5 \n0.5\t0.5\n", "m.mat:3: expected 2 values, found 3"),
    ("3 2\na\n0.5 0.5\n0.5 x\n0.5\n", "m.mat:4: malformed float in row '0.5 x'"),
    ("2 2\na\n0.5 nan\n-1 2\n", "m.mat:3: posterior matrix contains non-finite entries"),
    ("3 2\na\n0.5 0.5\n-1 2\n0.5 inf\n",
     "m.mat:5: posterior matrix contains non-finite entries"),
    ("1 2\na\n-0.5 1.5\n", "m.mat:3: posterior matrix contains negative entries"),
    ("2 2\na\n0.5 0.5\n0.75 0.75\n",
     "m.mat:4: row 1 sums to 1.5; matrices are rejected, not renormalized"),
    ("1 2\n", "m.mat:1: expected a 'T C' header and an alphabet line"),
    ("1\na\n0.5 0.5\n", "m.mat:1: malformed header '1'"),
    ("1 two\na\n0.5 0.5\n", "m.mat:1: non-integer header '1 two'"),
]
