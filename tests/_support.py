"""Shared test oracles: brute-force references independent of the library."""

from __future__ import annotations

import itertools
import random

import numpy as np

from wordbeam import Alphabet, NgramModel, PosteriorMatrix, PrefixTree, ScoringMode


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
