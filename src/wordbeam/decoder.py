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

``decode_batch`` runs the ``words``-mode search of many matrices at
once and returns, bit for bit, what ``decode`` returns for each: every
numpy step moves all live decodes one frame, over one array per field
of all their survivors, with the same float operations in the same
order (the arguments are in ``_run_batch``). Its per-step overhead makes
a batch of one about three times slower than ``decode``, so it pays only
for many decodes at once: the trend experiment and the command line's
``words`` mode use it for groups of matrices, and a lone matrix and the
language-model modes use ``decode``. A batch's memory stays bounded: it
reads the trie through a few arrays by node, and its table of texts
(arrays by text id, and a dense table of child ids by text and column)
keeps only those a survivor can still reach, rebuilt at a size that no
step between two compactions can outgrow. It completes its candidates
by a gather from the ``words``-mode scorer's smallest-word array.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from heapq import heapify, heapreplace
from operator import itemgetter

import numpy as np

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
    scorer, nonword = _prepare(alphabet, tree, lm, width, mode, m)
    return _run_frames(m, alphabet, width, scorer, tree, nonword)


def _prepare(
    alphabet: Alphabet,
    tree: PrefixTree,
    lm: NgramModel | None,
    width: int,
    mode: ScoringMode,
    m: PosteriorMatrix | None = None,
) -> tuple[TrieScorer, list[str]]:
    """Check a decode's arguments; return its scorer and sorted non-word characters.

    Without a matrix it checks all the rest, so that a caller can report
    an unusable configuration before it has read any matrix.
    """
    if width < 1:
        raise InputValidationError("beam width must be at least 1")
    if m is not None:
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
    return scorer, nonword


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


def decode_batch(
    matrices: Sequence[PosteriorMatrix],
    alphabet: Alphabet,
    tree: PrefixTree,
    width: int = 25,
) -> list[tuple[str, float]]:
    """``[decode(m, alphabet, tree, width=width) for m in matrices]``, bit for bit.

    A ``words``-mode search that moves every live decode one frame per
    numpy step; the arguments are checked as ``decode`` checks them, all
    before the first frame.
    """
    if not matrices:
        return []
    scorer, nonword = _prepare(alphabet, tree, None, width, WORDS, matrices[0])
    for m in matrices[1:]:
        _check_shape(m, alphabet)
    return _run_batch(matrices, alphabet, width, scorer, tree, nonword)


# Rows of the batched search's integer state: the decode, the trie node (the
# current word), the text's last column (the blank for the empty text), the
# text's id, its parent text's id (-1 for the empty text), the id of the text
# before the current word (the text itself outside a word), and the slot of
# the last character in the parent's extensions (see ``_node_arrays``).
# A new extension's id is -1 until it is kept, and so is its word-start id if
# it leaves the word.
_DEC, _NODE, _LAST, _TID, _PTID, _WST, _SLOT = range(7)


def _run_batch(
    matrices: Sequence[PosteriorMatrix],
    alphabet: Alphabet,
    width: int,
    scorer: TrieScorer,
    tree: PrefixTree,
    nonword: list[str],
) -> list[tuple[str, float]]:
    # The batch holds the survivors of every live decode, grouped by decode,
    # one array per field, and performs ``_run_frames``' float operations in
    # ``words`` mode, where ``p_text`` and ``committed`` are 1.0 and every
    # product with them is the identity:
    # - an extension's mass is ``(pb if c == last else tot) * row[c]``, and it
    #   scores its mass;
    # - a copy keeps ``p_blank = tot * blank`` and ``p_nonblank = pnb *
    #   row[last] + merged mass``; the merge is an array join, as survivor
    #   ``j`` takes the extension of the survivor whose text is ``j``'s parent
    #   text by ``j``'s last character;
    # - an extension strictly below the smallest copy lower bound of a decode
    #   with ``width`` survivors (not on its last frame) is dropped before any
    #   candidate row is built: the first bound of ``_run_frames``' heap, so
    #   it drops only what the cut drops;
    # - the cut ranks on (decode, -score); texts are built and compared only
    #   in a decode whose ``width``-th and next scores tie.
    # Texts are ids of a text trie per decode, canonical among the texts a
    # survivor can reach, so the join compares ids; every ``_COMPACT_AT`` new
    # texts the trie forgets the others. A decode's candidates on its last
    # frame go, uncut, to ``_complete_batch``. Arrays by decode span the whole
    # batch, finished decodes too.
    c, blank = alphabet.num_classes, alphabet.blank_index
    lengths = np.array([m.num_frames for m in matrices], np.int32)
    probs = np.concatenate([m.probs for m in matrices]).ravel()
    row0 = (np.cumsum(lengths, dtype=np.int32) - lengths) * c  # each decode's first row
    last_frame = lengths - 1
    first, spans, col = _node_arrays(tree, alphabet, nonword)
    size = len(first)
    n = len(matrices)
    texts = _Texts(alphabet.symbols, n, width)
    state = np.zeros((7, n), np.int32)
    state[_DEC] = state[_TID] = state[_WST] = np.arange(n)
    state[_LAST] = blank
    state[_PTID] = -1
    pb, pnb = np.ones(n), np.zeros(n)
    found: list[tuple[str, float] | None] = [None] * n
    endings = set(last_frame.tolist())
    for t in range(int(lengths.max())):
        dec, node, last, tid = state[_DEC], state[_NODE], state[_LAST], state[_TID]
        s = len(dec)
        row = row0[dec] + np.int32(t * c)
        tot = pb + pnb
        p_blank = tot * probs[row + blank]
        own = pnb * probs[row + last]  # 0.0 for the empty text, whose p_nonblank is 0.0
        # Survivor i's extensions are rows ``start[i]`` on of these arrays, in
        # two runs: its node's children, then the non-word characters it may
        # take. An extension's id ``ext`` is the child's node id, or ``size``
        # plus the non-word character's index, its column ``col[ext]``. A
        # run's ids are consecutive, so an id is its row plus the run's offset.
        runs = spans[node].view(np.int32)
        heads = np.cumsum(runs, dtype=np.int32) - runs  # each run's first row
        start = heads[0::2]
        offset = -heads
        offset[0::2] += first[node]
        offset[1::2] += size
        src = np.repeat(np.arange(s, dtype=np.int32), runs[0::2] + runs[1::2])
        ext = np.repeat(offset, runs)
        ext += np.arange(len(src), dtype=np.int32)
        e_col = col[ext]
        at = row[src]
        at += e_col
        mass = probs[at]
        base = tot[src]
        same = np.flatnonzero(e_col == last[src])  # the repeat rule
        base[same] = pb[src[same]]
        mass *= base
        # Merges: survivor ``j`` whose parent text is survivor ``i``'s takes
        # i's extension by j's last character, row ``start[i] + slot[j]``.
        # The entry past the last text id stays -1, for the parent id -1.
        survivor = np.full(texts.count + 1, -1, np.int32)
        survivor[tid] = np.arange(s)
        i = survivor[state[_PTID]]
        j = np.flatnonzero(i >= 0)
        merged = start[i[j]] + state[_SLOT, j]
        p_nonblank = own.copy()
        p_nonblank[j] += mass[merged]
        # The cut's bound, per decode with ``width`` survivors before its last
        # frame; -1.0 keeps every extension.
        bound = np.full(n, np.inf)
        np.minimum.at(bound, dec, p_blank + own)
        bound[(np.bincount(dec, minlength=n) < width) | (last_frame <= t)] = -1.0
        keep = mass >= bound[dec][src]
        keep[merged] = False
        x = np.flatnonzero(keep)
        xs = src[x]
        cand = np.concatenate((state, state[:, xs]), axis=1)
        new = cand[:, s:]
        new[_NODE], new[_LAST], new[_PTID], new[_TID] = ext[x], e_col[x], tid[xs], -1
        new[_SLOT] = x - start[xs]
        leaves = new[_NODE] >= size  # a non-word character leaves the word
        new[_NODE, leaves] = 0
        new[_WST, leaves] = -1
        cand_pb = np.concatenate((p_blank, np.zeros(len(x))))
        cand_pnb = np.concatenate((p_nonblank, mass[x]))
        if t in endings:
            ends = last_frame[cand[_DEC]] == t
            _complete_batch(cand[:, ends], cand_pb[ends], cand_pnb[ends], scorer, tree, texts,
                            found)
            go = ~ends
            cand, cand_pb, cand_pnb = cand[:, go], cand_pb[go], cand_pnb[go]
        sel = _cut(cand, cand_pb + cand_pnb, width, n, texts)
        state, pb, pnb = cand[:, sel], cand_pb[sel], cand_pnb[sel]
        texts.name(state)
        if texts.count - texts.kept > _COMPACT_AT:
            texts.compact(state)
    return found


def _cut(cand: np.ndarray, score: np.ndarray, width: int, n: int, texts: _Texts) -> np.ndarray:
    """Indices of each decode's ``width`` best candidates by (-score, text), grouped by decode."""
    # Best score first, then a stable sort by decode; fewer than 2**16
    # decodes sort on 16-bit keys, which numpy radix-sorts.
    order = np.argsort(score)[::-1]
    sdec = cand[_DEC, order]
    order = order[np.argsort(sdec.astype(np.uint16) if n <= 1 << 16 else sdec, kind="stable")]
    sdec = cand[_DEC, order]
    sizes = np.bincount(sdec, minlength=n)
    heads = np.cumsum(sizes) - sizes
    keep = np.arange(len(sdec)) - heads[sdec] < width
    over = heads[sizes > width]
    if over.size:
        ranked = score[order]
        for head in over[ranked[over + width - 1] == ranked[over + width]].tolist():
            # The cut splits a run of equal scores: keep its smallest texts.
            tied = ranked[head + width - 1]
            lo, hi = head + width - 1, head + width
            while lo > head and ranked[lo - 1] == tied:
                lo -= 1
            while hi < len(sdec) and sdec[hi] == sdec[head] and ranked[hi] == tied:
                hi += 1
            run = sorted(range(lo, hi), key=lambda p: texts.of(cand[:, order[p]]))
            keep[lo:hi] = False
            keep[run[:head + width - lo]] = True
    return order[keep]


def _complete_batch(
    cand: np.ndarray,
    pb: np.ndarray,
    pnb: np.ndarray,
    scorer: TrieScorer,
    tree: PrefixTree,
    texts: _Texts,
    found: list[tuple[str, float] | None],
) -> None:
    # ``complete_beams`` and ``decode``'s pick for the decodes that end on
    # this frame, over their uncut candidates, new ones without text ids. A
    # completed in-word text is its word-start text plus the prefix of its
    # completed node, so in-word candidates that complete to one text are
    # those with one (word-start id, completed node), as text ids belong to
    # one decode; their masses are summed in text order: two terms in either
    # order, more in Python. A text outside a word ends in a non-word
    # character or is empty, so it is no other candidate's completed text:
    # each such candidate is a group of its own.
    # A candidate's word is the completion of its node, the smallest word
    # below it (the node itself at a word end); outside a word it is 0.
    node = cand[_NODE]
    word = scorer.lexmin[node]
    word[node == 0] = 0
    key = np.where(word != 0, cand[_WST].astype(np.int64) * len(tree._kids) + word,
                   -1 - np.arange(len(word)))
    order = np.argsort(key)
    key = key[order]
    heads = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    sizes = np.diff(np.r_[heads, len(key)])
    group_pb = np.add.reduceat(pb[order], heads)
    group_pnb = np.add.reduceat(pnb[order], heads)
    for g in np.flatnonzero(sizes > 2).tolist():
        members = sorted(order[heads[g]:heads[g] + sizes[g]].tolist(),
                         key=lambda q: texts.of(cand[:, q]))
        a, b = float(pb[members[0]]), float(pnb[members[0]])
        for q in members[1:]:
            a, b = a + float(pb[q]), b + float(pnb[q])
        group_pb[g], group_pnb[g] = a, b
    score = group_pb + group_pnb
    # Each decode's best groups, then the smallest of their completed texts.
    first = order[heads]
    dec = cand[_DEC, first]
    best = np.full(len(found), -1.0)
    np.maximum.at(best, dec, score)
    top = np.flatnonzero(score == best[dec])
    for q, d, value in zip(first[top].tolist(), dec[top].tolist(), score[top].tolist()):
        if word[q]:
            text = texts.text(int(cand[_WST, q])) + tree._prefix(int(word[q]))
        else:
            text = texts.of(cand[:, q])
        if found[d] is None or text < found[d][0]:
            found[d] = (text, value)


def _node_arrays(tree: PrefixTree, alphabet: Alphabet, nonword: list[str]) -> tuple:
    """``(first, spans, col)``: per trie node ``n``, the extensions a
    hypothesis there may take.

    They are node ``n``'s children, ids ``first[n]`` on, then the non-word
    characters at the root or a word end; an extension's slot is its place
    in that order. ``spans[n]`` packs their two counts, as two int32 in one
    int64. ``col[n]`` is node ``n``'s character column (0 at the root); the
    non-word characters' columns follow, one past the last node.
    """
    first = np.frombuffer(tree._first, np.intc)
    size = len(first)
    spans = np.empty((size, 2), np.intc)
    # Node ``n``'s children end where node ``n + 1``'s begin.
    spans[:-1, 0] = first[1:] - first[:-1]
    spans[-1, 0] = size - first[-1]
    spans[:, 1] = np.frombuffer(tree._is_word, np.uint8)
    spans[0, 1] = 1
    spans[:, 1] *= len(nonword)
    spans = spans.view(np.int64).ravel()  # a gather by node takes both counts
    # Node ``n > 0``'s character is character ``n - 1`` of the child
    # strings, each spelled here as the code point of its column.
    column = {ord(ch): i for i, ch in enumerate(alphabet.symbols)}
    col = np.zeros(size + len(nonword), np.intc)
    col[1:size] = np.frombuffer("".join(tree._kids).translate(column).encode("utf-32-le"),
                                np.uint32)
    col[size:] = [column[ord(ch)] for ch in nonword]
    return first, spans, col


# Texts a batched search names between two compactions of its text table.
_COMPACT_AT = 1 << 14


class _Texts:
    """The texts of one batched search, as ids canonical among live texts.

    A text is live while it or a text it is a prefix of is a survivor's.
    Text ``parent + symbols[col]`` has the id first handed to ``(parent,
    col)`` since it was last live, so the equal live texts of one decode
    always share one id, even when a text is dropped and later built
    again. The decodes' empty texts start as ids ``0`` to ``n - 1``.
    Arrays by id hold each text's ``parent`` id (-1 for an empty text) and
    ``col``, and a dense table ``child[parent, col]`` the id handed to that
    pair (-1 for none), so a step names its new texts with one gather and
    one scatter. ``compact`` forgets the texts that are no longer live,
    which no candidate can name again, renumbers the rest and rebuilds the
    arrays for them, with room for every text named before the next
    compaction: at most ``_COMPACT_AT`` (0 if negative) plus one step's,
    and a step names at most one text per survivor, ``n * width``.
    """

    def __init__(self, symbols: str, n: int, width: int) -> None:
        self.symbols = symbols
        self.room = max(_COMPACT_AT, 0) + n * width
        self._hold(np.full(n, -1, np.int32), np.zeros(n, np.int32))

    def _hold(self, parent: np.ndarray, col: np.ndarray) -> None:
        """Make the texts ``parent``/``col`` ids 0 on, with ``room`` ids free after them."""
        self.count = self.kept = kept = len(parent)  # texts named; at the last compaction
        self.child = None  # free the old table before building the new one
        self.parent = np.empty(kept + self.room, np.int32)
        self.col = np.empty(kept + self.room, np.int32)
        self.parent[:kept], self.col[:kept] = parent, col
        self.child = np.full((kept + self.room, len(self.symbols)), -1, np.int32)
        named = np.flatnonzero(parent >= 0)
        self.child[parent[named], col[named]] = named

    def name(self, cand: np.ndarray) -> None:
        """Give ids to the candidates that have none (and word-start ids outside a word).

        The texts of one decode's candidates are distinct, so no two of them
        need the same new id.
        """
        new = np.flatnonzero(cand[_TID] < 0)
        parent, col = cand[_PTID, new], cand[_LAST, new]
        ids = self.child[parent, col]
        unseen = np.flatnonzero(ids < 0)
        count = self.count + len(unseen)
        fresh = np.arange(self.count, count, dtype=np.int32)
        ids[unseen] = fresh
        parent, col = parent[unseen], col[unseen]
        self.child[parent, col] = fresh
        self.parent[self.count:count], self.col[self.count:count] = parent, col
        self.count = count
        cand[_TID, new] = ids
        start = np.flatnonzero(cand[_WST] < 0)
        cand[_WST, start] = cand[_TID, start]

    def compact(self, state: np.ndarray) -> None:
        """Keep only the live texts of the survivors ``state``, renumbered
        in id order, and rewrite the ids in ``state``."""
        live = np.zeros(self.count, bool)
        ids = state[_TID]
        while ids.size:
            live[ids] = True
            ids = self.parent[ids]  # -1 past an empty text
            ids = ids[ids >= 0]
            ids = ids[~live[ids]]
        renumber = np.cumsum(live, dtype=np.int32) - 1
        keep = np.flatnonzero(live)
        parent = self.parent[keep]
        self._hold(np.where(parent >= 0, renumber[parent], -1), self.col[keep])
        state[_TID] = renumber[state[_TID]]
        state[_WST] = renumber[state[_WST]]
        parent = state[_PTID]
        state[_PTID] = np.where(parent >= 0, renumber[parent], -1)

    def text(self, i: int) -> str:
        chars = []
        while self.parent[i] >= 0:
            chars.append(self.symbols[self.col[i]])
            i = self.parent[i]
        return "".join(reversed(chars))

    def of(self, cand: np.ndarray) -> str:
        """The text of one candidate column, named or not."""
        if cand[_TID] >= 0:
            return self.text(int(cand[_TID]))
        return self.text(int(cand[_PTID])) + self.symbols[cand[_LAST]]
