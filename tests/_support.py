"""Shared test oracles: brute-force references independent of the library."""

from __future__ import annotations

import itertools
import random

import numpy as np

from wordbeam import (
    WORDS,
    Alphabet,
    Beam,
    NgramModel,
    PosteriorMatrix,
    PrefixTree,
    ScoringMode,
    TrieScorer,
    complete_beams,
)


def random_matrix(rng: np.random.Generator, t: int, c: int) -> PosteriorMatrix:
    arr = rng.random((t, c)) + 1e-3
    return PosteriorMatrix(arr / arr.sum(axis=1, keepdims=True))


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


def trie_node(tree: PrefixTree, prefix: str):
    """The trie node of a live prefix (None for a dead one), as the decoder holds it."""
    return tree._find(prefix)


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


def reference_frame_beams(m: PosteriorMatrix, alphabet: Alphabet, tree: PrefixTree,
                          lm: NgramModel | None = None, width: int = 25,
                          mode: ScoringMode = WORDS, scorer: TrieScorer | None = None):
    """The frame loop with one Beam per candidate, merged in a dict: yields
    the uncut beam set after each frame, as ``frame_beams`` does."""
    scorer = scorer or TrieScorer(tree, lm, mode)
    col = alphabet.column_map()
    root = tree._root
    word_starts = [(c, col[c], root.children[c]) for c in sorted(root.children)]
    nonword_exts = [(c, col[c]) for c in sorted(tree.nonword_chars)]
    blank = alphabet.blank_index
    rows = m.probs.tolist()
    kind = scorer.mode.kind
    uses_forecast = scorer.mode.uses_forecast
    child_cache: dict[int, list] = {}

    def word_state_exts(node) -> list:
        exts = child_cache.get(id(node))
        if exts is None:
            exts = [(c, col[c], node.children[c], True) for c in sorted(node.children)]
            if node.is_word:
                exts = exts + [(c, ci, None, False) for c, ci in nonword_exts]
            child_cache[id(node)] = exts
        return exts

    nonword_state_exts = [(c, ci, child, True) for c, ci, child in word_starts]
    nonword_state_exts += [(c, ci, None, False) for c, ci in nonword_exts]

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
        nb = Beam(b.text + c, prefix, 0.0, 0.0, p_text)
        nb._node = child
        nb._committed = committed
        nb._last_col = cidx
        return nb

    init = Beam()
    init.p_blank = 1.0
    beams: dict[str, Beam] = {"": init}
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
            exts = word_state_exts(b._node) if b.word_prefix else nonword_state_exts
            for c, cidx, child, is_word_char in exts:
                contrib = (b.p_blank if cidx == b._last_col else tot) * row[cidx]
                text2 = b.text + c
                nb = nxt.get(text2)
                if nb is None:
                    nb = extend(b, c, cidx, child, is_word_char)
                    nxt[text2] = nb
                nb.p_nonblank += contrib
        beams = nxt
        yield beams


def reference_decode(m: PosteriorMatrix, alphabet: Alphabet, tree: PrefixTree,
                     lm: NgramModel | None = None, width: int = 25,
                     mode: ScoringMode = WORDS) -> tuple[str, float]:
    """``decode`` driven by ``reference_frame_beams``."""
    scorer = TrieScorer(tree, lm, mode)
    beams: dict[str, Beam] = {}
    for beams in reference_frame_beams(m, alphabet, tree, lm, width, mode, scorer):
        pass
    best = min(complete_beams(beams, tree, lm, mode).values(), key=_rank_key)
    return best.text, best.score
