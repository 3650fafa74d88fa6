"""Dual-state word beam search over CTC posteriors.

Each hypothesis is either inside a word or outside one. The trailing
run of word characters of an in-word hypothesis is always a live prefix
of the dictionary trie, so the only legal word-character extensions are
the trie's children; a non-word character may follow only once that
prefix is a complete word. Out-of-word hypotheses may extend with any
non-word character or start a new dictionary word. The non-word
characters are the alphabet's symbols outside the tree's word characters.

Per frame, each hypothesis tracks the path mass ending in blank
(``p_blank``) and in a non-blank (``p_nonblank``) separately, which makes
merging of equal-text hypotheses and the repeated-character rule exact:
extending with the hypothesis' own last character may only use the
blank-ending mass, everything else uses the total. Hypotheses are ranked
by the product of the language-model score and the total mass. After the
last frame, hypotheses whose trailing prefix is not yet a complete word
are extended by their most probable completion without consuming
posterior mass. Language-model scores are read at each in-word
hypothesis' trie node from the ``TrieScorer`` of (tree, model, mode),
which the tree keeps: its per-node tables fill on first use and serve
every later decode with that tree, model and mode.

The search state is one flat tuple per hypothesis, a candidate::

    (-score, text, p_blank, p_nonblank, p_text, committed, node)

``score`` is ``p_text * (p_blank + p_nonblank)``; ``p_text`` is the
language-model score it is ranked by (1 in words mode) and ``committed``
the score of its finished words alone, which the forecast modes multiply
by a forecast or a completion's remainder probability. ``node`` is the
current word: the trie node id of the trailing run of word characters of
``text``. Outside a word it is the root, 0, which is never a word, as
the tree rejects empty words. The search never spells that run out;
the ``TrieScorer`` takes the node alone. Texts are unique, so ranking on
the tuple compares (-score, text) only.

Each posterior row is read by character, and the trie keeps every
node's child characters as one sorted string, so a decode builds no
extension table of its own; a child's id is computed only for an
extension that is kept (or, in the forecast modes, scored). Within a
frame the search keeps a running lower bound on the ``width``-th best
score and never builds an extension strictly below it, as the cut to
``width`` would drop it anyway; in ``words`` and ``ngrams`` mode it also
skips a whole survivor whose best possible extension, ``p_text`` times
its total mass times the row's largest non-blank value, is below that
bound (the arguments are in ``_run_frames``). ``decode`` runs two
stages: ``frame_beams`` yields each frame's ``width`` survivors and, for
the last frame, the merged, uncut set, as lists of candidates;
``complete_beams`` completes that last set, and ``decode`` takes the
best completed candidate.
"""

from __future__ import annotations

from collections.abc import Iterator
from heapq import heapify, heapreplace
from operator import itemgetter

from .ctc import Alphabet, PosteriorMatrix, _check_shape
from .errors import ConfigurationError, InputValidationError
from .language_model import NgramModel, ScoringMode, TrieScorer, WORDS
from .prefix_tree import PrefixTree


def decode(
    m: PosteriorMatrix,
    alphabet: Alphabet,
    tree: PrefixTree,
    lm: NgramModel | None = None,
    width: int = 25,
    mode: ScoringMode = WORDS,
) -> tuple[str, float]:
    """Run the dual-state word beam search and return (labeling, score).

    The reported score is the winning hypothesis' ``p_text * (p_blank +
    p_nonblank)``, the quantity the search ranks by.
    """
    cands: list[tuple] = []
    for cands in frame_beams(m, alphabet, tree, lm, width, mode):
        pass
    neg_score, text = min(complete_beams(cands, tree, lm, mode))[:2]
    return text, -neg_score


# The benchmark's tracer wraps the two stages below by name and reads their width/mode.
def frame_beams(
    m: PosteriorMatrix,
    alphabet: Alphabet,
    tree: PrefixTree,
    lm: NgramModel | None = None,
    width: int = 25,
    mode: ScoringMode = WORDS,
) -> Iterator[list[tuple]]:
    """Yield the candidates after each frame.

    Every list but the last holds the frame's survivors: its at most
    ``width`` best candidates by (score, text), the ones the next frame
    extends. The last list is the frame's merged, uncut set, as completion
    may re-rank it. Every word character of ``tree`` must be an alphabet symbol.
    """
    if width < 1:
        raise InputValidationError("beam width must be at least 1")
    _check_shape(m, alphabet)
    scorer = _scorer(tree, lm, mode)
    missing = tree.word_chars.difference(alphabet.symbols)
    if missing:
        raise ConfigurationError(f"word characters {sorted(missing)!r} are not alphabet symbols")
    nonword = sorted(set(alphabet.symbols) - tree.word_chars)
    if not tree._kids[0] and not nonword:
        raise ConfigurationError(
            "no beam can ever extend: the dictionary is empty and there are "
            "no non-word characters"
        )
    return _run_frames(m, alphabet, width, scorer, tree, nonword)


def _scorer(tree: PrefixTree, lm: NgramModel | None, mode: ScoringMode) -> TrieScorer:
    """The tree's scorer for (lm, mode), made on first use; words mode reads no model."""
    key = (lm if mode.uses_lm else None, mode)
    scorer = tree._scorers.get(key)
    if scorer is None:
        scorer = tree._scorers[key] = TrieScorer(tree, *key)
    return scorer


def _run_frames(
    m: PosteriorMatrix,
    alphabet: Alphabet,
    width: int,
    scorer: TrieScorer,
    tree: PrefixTree,
    nonword: list[str],
) -> Iterator[list[tuple]]:
    # Every candidate, a survivor's copy or an extension, is one tuple of the
    # layout in the module docstring. A full ``sorted`` runs in C, which beats
    # ``heapq.nsmallest`` at these sizes.
    #
    # This stays bit-exact with a loop that builds and merges one object per
    # candidate. Survivor texts are distinct and every symbol is one
    # character, so extension texts are unique, and an extension can only
    # merge into the copy of the survivor with the same text. That copy's
    # p_nonblank is 0.0 plus at most two terms (its own repeat and the
    # extension), whose sum does not depend on their order. Each row is read
    # by character, which yields the same floats as reading it by column.
    # p_text and committed come from the same memoised ``forecast``/
    # ``word_probability`` reads, at the same trie node.
    #
    # Extensions that cannot survive the cut are never built. A frame with
    # ``width`` survivors, other than the last, starts a min-heap with the
    # ``width`` lower bounds ``p_text * (p_blank + own repeat)`` of the
    # survivors' copies; ``thr`` is its smallest value. An extension scoring
    # strictly below ``thr`` is skipped before its text or tuple is built; a
    # kept one scoring above it replaces the smallest value, so ``thr`` rises
    # as the frame goes on. This loses nothing:
    # - the heap always holds lower bounds of ``width`` distinct candidates:
    #   a copy's bound or an extension's exact score;
    # - under round-to-nearest, adding non-negative terms and multiplying by
    #   non-negative factors never lowers a value, so the merges added to a
    #   copy later can only lift its score above its bound;
    # - so an extension strictly below ``thr`` ranks below ``width`` other
    #   candidates whatever its text, and the cut would drop it anyway.
    # When every score has underflowed to 0.0, ``thr`` is 0.0 and nothing is
    # skipped. Frames with fewer survivors keep an empty heap and skip
    # nothing, and so does the last frame, which completion re-ranks uncut.
    # Merges into copies are added in full, and forecasts are read before
    # the test.
    #
    # In ``words`` and ``ngrams`` mode a whole survivor is skipped, before
    # any of its extensions, when none of them merges into a copy and
    # ``p_text * (tot * row_max) < thr``, with ``row_max`` the row's largest
    # non-blank value (computed only in frames with a heap, as ``thr`` is
    # -1.0 in the others). In these modes ``p_text == committed``: a word
    # extension scores ``p_text * mass`` and a non-word one
    # ``p_text * word_probability * mass``, every ``mass`` is at most
    # ``tot * row_max`` and every word probability at most 1, so, rounding
    # being monotone, no extension of that survivor reaches ``thr``, which
    # only rises. The forecast modes keep the per-extension test, as a
    # child's forecast can exceed its parent's score. In ``ngrams`` mode a
    # skipped survivor's ``word_probability`` is not read, so the tables
    # fill less; their values do not change.
    symbols, blank = alphabet.symbols, alphabet.blank_index
    uses_lm = scorer.mode.uses_lm
    uses_forecast = scorer.mode.uses_forecast
    forecast, word_probability = scorer.forecast, scorer.word_probability
    tree_kids, first, is_word = tree._kids, tree._first, tree._is_word
    rows = m.probs.tolist()
    last_frame = len(rows) - 1
    survivors = [(-1.0, "", 1.0, 0.0, 1.0, 1.0, 0)]
    for t, r in enumerate(rows):
        # The blank is the last column, so ``zip`` with the symbols leaves it out.
        row, blank_p = dict(zip(symbols, r)), r[blank]
        # Extensions of survivor ``text[:-1]`` by ``text[-1]`` merge into survivor ``text``.
        texts = {s[1] for s in survivors}
        merges: dict[str, dict[str, int]] = {}
        for i, s in enumerate(survivors):
            text = s[1]
            if text and text[:-1] in texts:
                merges.setdefault(text[:-1], {})[text[-1]] = i
        copy_nb = [s[3] * row[s[1][-1]] if s[1] else 0.0 for s in survivors]
        heap: list[float] = []
        if t < last_frame and len(survivors) == width:
            heap = [s[4] * ((s[2] + s[3]) * blank_p + nb) for s, nb in zip(survivors, copy_nb)]
            heapify(heap)
        thr = heap[0] if heap else -1.0
        row_max = max(row.values()) if heap and not uses_forecast else 0.0
        cands = []
        append = cands.append
        for _, text, pb, pnb, p_text, committed, node in survivors:
            tot = pb + pnb
            into = merges.get(text)
            if into is None and not uses_forecast and p_text * (tot * row_max) < thr:
                continue
            # Children of the trie node (the root's outside a word), plus
            # non-word characters outside a word or once the node is itself
            # a complete word. Child ``k``'s id, ``first[node] + k``, is
            # computed only for an extension that is scored by its forecast
            # or kept.
            last = text[-1:]
            sep_exts = nonword if not node or is_word[node] else ()
            for k, c in enumerate(tree_kids[node]):
                mass = (pb if c == last else tot) * row[c]
                if into is not None and c in into:
                    copy_nb[into[c]] += mass
                    continue
                if uses_forecast:
                    p_ext = committed * forecast(first[node] + k)
                else:
                    p_ext = p_text
                score = p_ext * mass
                if score < thr:
                    continue
                append((-score, text + c, 0.0, mass, p_ext, committed, first[node] + k))
                if score > thr and heap:
                    heapreplace(heap, score)
                    thr = heap[0]
            if not sep_exts:
                continue
            if node and uses_lm:
                committed = p_text = committed * word_probability(node)
            for c in sep_exts:
                mass = (pb if c == last else tot) * row[c]
                if into is not None and c in into:
                    copy_nb[into[c]] += mass
                    continue
                score = p_text * mass
                if score < thr:
                    continue
                append((-score, text + c, 0.0, mass, p_text, committed, 0))
                if score > thr and heap:
                    heapreplace(heap, score)
                    thr = heap[0]
        for (_, text, pb, pnb, p_text, committed, node), p_nonblank in zip(survivors, copy_nb):
            p_blank = (pb + pnb) * blank_p
            append((-(p_text * (p_blank + p_nonblank)), text, p_blank, p_nonblank, p_text,
                    committed, node))
        if t < last_frame:
            survivors = sorted(cands)[:width]
            yield survivors
        else:
            yield cands


def complete_beams(
    beams: list[tuple],
    tree: PrefixTree,
    lm: NgramModel | None = None,
    mode: ScoringMode = WORDS,
) -> list[tuple]:
    """Extend candidates ending in an incomplete prefix to their best completion.

    Posterior mass is never consumed: a completed candidate keeps its
    ``p_blank``/``p_nonblank``. Candidates already ending in a complete
    word or in non-word state are unchanged. When a completion collides
    with another candidate's text, the masses are summed and the first
    candidate's language-model score (in text order) is kept. In the
    forecast modes a completion scores the candidate's committed score
    times the remainder probability. Returns the merged candidates.
    """
    scorer = _scorer(tree, lm, mode)
    kind, uses_forecast = mode.kind, mode.uses_forecast
    is_word = tree._is_word
    out: dict[str, tuple] = {}
    for cand in sorted(beams, key=itemgetter(1)):
        _, text, pb, pnb, p_text, committed, node = cand
        if node and not is_word[node]:
            remainder, node, prob = scorer.complete(node)
            text += remainder
            if kind == "ngrams":
                p_text = p_text * scorer.word_probability(node)
            elif uses_forecast:
                p_text = committed * prob
            cand = (-(p_text * (pb + pnb)), text, pb, pnb, p_text, committed, node)
        cur = out.get(text)
        if cur is None:
            out[text] = cand
        else:
            pb, pnb, p_text = cur[2] + pb, cur[3] + pnb, cur[4]
            out[text] = (-(p_text * (pb + pnb)), text, pb, pnb, p_text, *cur[5:])
    return list(out.values())
