"""Shared test oracles: brute-force references independent of the library."""

from __future__ import annotations

import itertools
import random
from collections.abc import Mapping

import numpy as np

from collections import Counter

from wordbeam import (
    WORD_BOUNDARY,
    WORDS,
    Alphabet,
    Beam,
    DataFormatError,
    InputValidationError,
    NgramModel,
    PosteriorMatrix,
    PrefixTree,
    ScoringMode,
    TrieScorer,
    collapse,
)
from wordbeam.files import unescape_alphabet


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
        raise DataFormatError(str(exc), path=path) from exc
    return symbols, matrix


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


def final_text(labeling: str, tree: PrefixTree) -> str | None:
    """Map a labeling to the decoder's final text, or None if unreachable.

    Fragments are maximal runs of word characters. Interior fragments
    must be complete dictionary words; the trailing fragment may also be
    a live incomplete prefix, in which case it is extended by its
    lexicographically first completion (the words-mode completion rule).
    """
    fragments: list[str] = []
    cur = ""
    for ch in labeling:
        if ch in tree.word_chars:
            cur += ch
        else:
            if cur:
                fragments.append(cur)
                cur = ""
            fragments.append("")  # marks a non-word character position
    trailing = cur
    for frag in fragments:
        if frag and not tree.is_word(frag):
            return None
    if not trailing:
        return labeling
    if tree.is_word(trailing):
        return labeling
    completions = tree.completions(trailing)
    if not completions:
        return None
    return labeling + completions[0][1]


def constrained_argmax(dist: dict[str, float], tree: PrefixTree) -> tuple[str, float]:
    """Exhaustive words-mode reference: best final text by total mass.

    Masses of labelings folding into the same final text are summed,
    mirroring the decoder's documented completion-merge contract; ties
    break lexicographically.
    """
    candidates: dict[str, float] = {}
    for labeling in sorted(dist):
        text = final_text(labeling, tree)
        if text is None:
            continue
        candidates[text] = candidates.get(text, 0.0) + dist[labeling]
    best_text, best_mass = min(candidates.items(), key=lambda kv: (-kv[1], kv[0]))
    return best_text, best_mass


def trie_node(tree: PrefixTree, prefix: str) -> int | None:
    """The trie node id of a live prefix (None for a dead one), as the decoder holds it."""
    return tree._find(prefix)


class RefNode:
    """A node of the reference trie: one object per prefix, children in a dict."""

    __slots__ = ("children", "is_word")

    def __init__(self) -> None:
        self.children: dict[str, RefNode] = {}
        self.is_word = False


def reference_trie(words) -> RefNode:
    """The root of a trie built by inserting each distinct word, in sorted
    order, one character at a time."""
    root = RefNode()
    for word in sorted(set(words)):
        node = root
        for ch in word:
            child = node.children.get(ch)
            if child is None:
                child = node.children[ch] = RefNode()
            node = child
        node.is_word = True
    return root


def reference_level_order(root: RefNode) -> tuple[list[str], list[int], list[int]]:
    """``(kids, first, is_word)`` of a breadth-first walk of the reference
    trie that visits children in sorted order of their characters: per node
    in visiting order, its sorted child characters, the visiting index of
    its first child, and 1 if it ends a word."""
    kids: list[str] = []
    first: list[int] = []
    is_word: list[int] = []
    queue = [root]
    for node in queue:  # the queue grows as the walk goes
        chars = sorted(node.children)
        kids.append("".join(chars))
        first.append(len(queue))
        is_word.append(int(node.is_word))
        queue.extend(node.children[c] for c in chars)
    return kids, first, is_word


def forecast_for_prefix(
    lm: NgramModel, tree: PrefixTree, prefix: str, mode: ScoringMode
) -> float:
    """Forecast by enumeration: the remainder probabilities of every
    completion summed, or of a seeded uniform sample of ``sample_size``
    of them rescaled by (total / sampled). 0 for a dead prefix."""
    completions = tree.completions(prefix)
    n = len(completions)
    if n == 0:
        return 0.0
    if mode.kind != "ngrams_forecast_sample" or mode.sample_size >= n:
        return sum(lm.remainder_probability(prefix, r) for _, r in completions)
    rng = random.Random(f"forecast|{mode.seed}|{prefix}")
    chosen = rng.sample(completions, mode.sample_size)
    partial = sum(lm.remainder_probability(prefix, r) for _, r in chosen)
    return partial * (n / mode.sample_size)


def best_completion(lm: NgramModel, tree: PrefixTree, prefix: str) -> tuple[str, float]:
    """(word, remainder probability) of the most probable completion by
    enumeration, ties to the lexicographically smallest word."""
    scored = [(lm.remainder_probability(prefix, r), w) for w, r in tree.completions(prefix)]
    p, word = min(scored, key=lambda pw: (-pw[0], pw[1]))
    return word, p


def _rank_key(b: Beam):
    return (-(b.p_text * (b.p_blank + b.p_nonblank)), b.text)


class _RefBeam(Beam):
    """A Beam that also keeps the column of its last character."""

    __slots__ = ("_last_col",)


def reference_frame_beams(m: PosteriorMatrix, alphabet: Alphabet, tree: PrefixTree,
                          lm: NgramModel | None = None, width: int = 25,
                          mode: ScoringMode = WORDS, scorer: TrieScorer | None = None):
    """The frame loop with one Beam per candidate, merged in a dict: yields
    the uncut beam set after each frame. ``frame_beams`` yields the top
    ``width`` of each of these sets but the last, and the last uncut. The
    trie is read through its prefix queries only; a Beam's ``_node`` is the
    node id of its word prefix, as the scorer takes it."""
    scorer = scorer or TrieScorer(tree, lm, mode)
    col = alphabet.column_map()
    nonword_exts = [(c, col[c]) for c in sorted(tree.nonword_chars)]
    blank = alphabet.blank_index
    rows = m.probs.tolist()
    kind = scorer.mode.kind
    uses_forecast = scorer.mode.uses_forecast
    exts_cache: dict[str, list] = {}

    def exts_of(prefix: str) -> list:
        """(character, column, child node id or None, is word character) per extension."""
        exts = exts_cache.get(prefix)
        if exts is None:
            exts = [(c, col[c], tree._find(prefix + c), True)
                    for c in sorted(tree.next_chars(prefix))]
            if not prefix or tree.is_word(prefix):
                exts = exts + [(c, ci, None, False) for c, ci in nonword_exts]
            exts_cache[prefix] = exts
        return exts

    def extend(b: Beam, c: str, cidx: int, child, is_word_char: bool) -> Beam:
        committed = b._committed
        p_text = b.p_text
        if is_word_char:
            prefix = b.word_prefix + c
            if uses_forecast:
                p_text = committed * scorer.forecast(child, prefix)
        else:
            prefix = ""
            if b.word_prefix and kind != "words":
                committed = p_text = committed * scorer.word_probability(b._node, b.word_prefix)
        nb = _RefBeam(b.text + c, prefix, 0.0, 0.0, p_text)
        nb._node = child
        nb._committed = committed
        nb._last_col = cidx
        return nb

    init = _RefBeam()
    init.p_blank, init._last_col = 1.0, -1
    beams: dict[str, Beam] = {"": init}
    for row in rows:
        ranked = sorted(beams.values(), key=_rank_key)[:width]
        nxt: dict[str, Beam] = {}
        blank_p = row[blank]
        for b in ranked:
            tot = b.p_blank + b.p_nonblank
            cur = nxt.get(b.text)
            if cur is None:
                cur = _RefBeam(b.text, b.word_prefix, 0.0, 0.0, b.p_text)
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


def reference_complete_beams(beams, tree: PrefixTree, lm: NgramModel | None = None,
                             mode: ScoringMode = WORDS,
                             scorer: TrieScorer | None = None) -> dict[str, Beam]:
    """Completion with one Beam per input and per output, merged in a dict
    in text order: the reference for ``complete_beams``."""
    scorer = scorer or TrieScorer(tree, lm, mode)
    items = beams.values() if isinstance(beams, Mapping) else beams
    out: dict[str, Beam] = {}
    for b in sorted(items, key=lambda x: x.text):
        text, word_prefix, p_text = b.text, b.word_prefix, b.p_text
        # A hand-built beam carries no node; the root's id, 0, is falsy.
        node = b._node if b._node is not None else tree._find(word_prefix)
        if word_prefix and node is None:
            raise InputValidationError(f"beam prefix {word_prefix!r} is dead in the dictionary")
        if word_prefix and not tree.is_word(word_prefix):
            remainder, end, prob = scorer.complete(node, word_prefix)
            text += remainder
            word_prefix += remainder
            if mode.kind == "ngrams":
                p_text = b.p_text * scorer.word_probability(end, word_prefix)
            elif mode.uses_forecast:
                p_text = b._committed * prob
        cur = out.get(text)
        if cur is None:
            out[text] = Beam(text, word_prefix, b.p_blank, b.p_nonblank, p_text)
        else:
            cur.p_blank += b.p_blank
            cur.p_nonblank += b.p_nonblank
    return out


def reference_decode(m: PosteriorMatrix, alphabet: Alphabet, tree: PrefixTree,
                     lm: NgramModel | None = None, width: int = 25,
                     mode: ScoringMode = WORDS) -> tuple[str, float]:
    """``decode`` driven by ``reference_frame_beams`` and
    ``reference_complete_beams``, with a scorer of its own."""
    scorer = TrieScorer(tree, lm, mode)
    beams: dict[str, Beam] = {}
    for beams in reference_frame_beams(m, alphabet, tree, lm, width, mode, scorer):
        pass
    best = min(reference_complete_beams(beams, tree, lm, mode, scorer).values(), key=_rank_key)
    return best.text, best.score
