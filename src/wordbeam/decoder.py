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
which the tree owns: it builds its arrays by node when a decode first
needs it, and they serve every later decode with that tree, model and
mode.

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

Each posterior row is read by character, and a node's children are a run
of ids whose characters, sorted, are one slice of the trie's character
string, so a decode builds no extension table of its own; a child's id
is computed only for an extension that is kept (or, in the forecast
modes, scored). Within a frame the search keeps a running lower bound on
the ``width``-th best score and never builds an extension strictly below
it, as the cut to ``width`` would drop it anyway; in ``words`` and
``ngrams`` mode it also skips a whole survivor whose best possible
extension, ``p_text`` times its total mass times the row's largest
non-blank value, is below that bound (the arguments are in
``_run_frames``). ``decode`` runs two stages: ``frame_beams`` yields
each frame's ``width`` survivors and, for the last frame, the merged,
uncut set, as lists of candidates; ``complete_beams`` completes that
last set and returns its best merged candidates, and ``decode`` takes
the one with the smallest text. The frame loop is the only stage written
twice: both engines complete their candidates by one rule over arrays
(``_completed``), which gives each its word and completed ``p_text``,
and merge them by (text before the word, word).

``decode_batch`` is the one call for any number of matrices in any
mode: it returns, bit for bit, what ``decode`` returns for each, and it
alone chooses the engine. Two or more matrices run as one batched
search, in which every numpy step moves all live decodes one frame, over
one array per field of all their survivors, with the same float
operations in the same order (the arguments are in ``_run_batch``). A
step ranks its candidates first, as two arrays of their decodes and
scores, and builds integer state only for the at most ``width`` per
decode that the cut keeps. In a language-model mode the survivors carry
``p_text`` and ``committed`` arrays too, and an extension's score is a
gather from the scorer's word probabilities or forecasts. Its per-step
overhead makes a batch of one 2.4-2.5 times slower than ``decode`` on
the benchmark's seed-1 short-words files (about 27 frames) and 1.9-2.1
times on its first 12 long lines by name (``words`` mode, width 25, CPU
time on one CPU of a 2-vCPU VM), so a lone matrix is decoded by
``decode``. A batch's memory stays bounded: it copies the posteriors out a few dozen frames at a time,
reads the trie through a few arrays by node, and its table of texts
(arrays by text id, and a dense table of child ids by text and column)
keeps only those a survivor can still reach, growing as texts are named
up to a size that no step between two compactions can outgrow.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
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
    if tree._first[-1] == 1 and not nonword:  # the root is the only node
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
    # p_text and committed come from the same ``forecast``/``word_probability``
    # reads, at the same trie node.
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
    # skipped survivor's ``word_probability`` is not read.
    symbols, blank = alphabet.symbols, alphabet.blank_index
    uses_lm = scorer.mode.uses_lm
    uses_forecast = scorer.mode.uses_forecast
    forecast, word_probability = scorer.forecast, scorer.word_probability
    # Node ``n``'s character at ``n`` (a placeholder at the root), so that
    # node ``n``'s children's are ``chars[first[n]:first[n + 1]]``.
    chars, first, is_word = "\0" + tree._chars, tree._first, tree._is_word
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
            # a complete word. Child ``k``'s id, ``lo + k``, is computed only
            # for an extension that is scored by its forecast or kept.
            last = text[-1:]
            sep_exts = nonword if not node or is_word[node] else ()
            lo = first[node]
            for k, c in enumerate(chars[lo:first[node + 1]]):
                mass = (pb if c == last else tot) * row[c]
                if into is not None and c in into:
                    copy_nb[into[c]] += mass
                    continue
                if uses_forecast:
                    p_ext = committed * forecast(lo + k)
                else:
                    p_ext = p_text
                score = p_ext * mass
                if score < thr:
                    continue
                append((-score, text + c, 0.0, mass, p_ext, committed, lo + k))
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
    """The best candidates once those ending in an incomplete prefix are
    extended to their best completion.

    Each candidate's word and completed ``p_text`` are ``_completed``'s, in
    one call over them all. Posterior mass is never consumed: a completed
    candidate keeps its ``p_blank``/``p_nonblank``. Candidates already
    ending in a complete word or in non-word state are unchanged. When a
    completion collides with another candidate's text, the masses are
    summed in text order and the first candidate's language-model score
    is kept. A completed in-word text is the text before its word plus the
    word, so candidates that complete to one text are those with one (text
    before the word, word), as in ``_complete_batch``; the texts of the
    merged candidates with the best score alone are spelled, and those are
    returned.
    """
    beams = sorted(beams, key=itemgetter(1))
    node = np.array([cand[6] for cand in beams], np.intc)
    p_text = np.array([cand[4] for cand in beams])
    word, p_text = _completed(_scorer(tree, lm, mode), node, p_text,
                              np.array([cand[5] for cand in beams]))
    depth = np.searchsorted(tree._levels, node, "right") - 1
    merged: dict[tuple[str, int], list] = {}
    for cand, w, p, d in zip(beams, word.tolist(), p_text.tolist(), depth.tolist()):
        text, pb, pnb = cand[1:4]
        key = text[:len(text) - d], w
        cur = merged.get(key)
        if cur is None:
            merged[key] = [pb, pnb, p, cand]
        else:
            cur[0] += pb
            cur[1] += pnb
    best = max((p * (pb + pnb) for pb, pnb, p, _ in merged.values()), default=0.0)
    out = []
    for (_, w), (pb, pnb, p, cand) in merged.items():
        if p * (pb + pnb) == best:
            text = cand[1] if w == cand[6] else cand[1] + tree._prefix(w, cand[6])
            out.append((-best, text, pb, pnb, p, cand[5], w))
    return out


def _completed(
    scorer: TrieScorer,
    node: np.ndarray,
    p_text: np.ndarray | None,
    committed: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The completion rule of both engines: each candidate's word and its
    ``p_text`` once completed, for candidates at trie nodes ``node`` with
    ``p_text`` and ``committed`` arrays, which ``words`` mode does not read
    (the batched search passes ``None`` there).

    A candidate's word is its node at a word end, 0 outside a word, and
    else its node's best completion: the smallest word below it (``lexmin``)
    in ``words`` mode, the most probable in the others
    (``completions_at``). A completed candidate's ``p_text`` is its
    ``p_text`` times the word's probability (``ngrams``) or its
    ``committed`` times the remainder's (the forecast modes); in ``words``
    mode it stays as it is.
    """
    if scorer.lexmin is not None:
        word = scorer.lexmin[node]
    else:
        inside = np.flatnonzero(np.frombuffer(scorer._is_word, np.uint8).take(node) == 0)
        inside = inside[node[inside] > 0]
        word = node.copy()
        if inside.size:  # ``via`` is built at the first completion
            word[inside], prob = scorer.completions_at(node[inside])
            p_text = p_text.copy()
            if scorer.mode.uses_forecast:
                p_text[inside] = committed[inside] * prob
            else:
                p_text[inside] *= np.asarray(scorer.word_prob).take(word[inside])
    word[node == 0] = 0
    return word, p_text


def decode_batch(
    matrices: Sequence[PosteriorMatrix],
    alphabet: Alphabet,
    tree: PrefixTree,
    lm: NgramModel | None = None,
    width: int = 25,
    mode: ScoringMode = WORDS,
) -> list[tuple[str, float]]:
    """``[decode(m, alphabet, tree, lm, width, mode) for m in matrices]``, bit for bit.

    The arguments are checked as ``decode`` checks them, all before the
    first frame. Two or more matrices run as one batched search; a lone
    matrix is decoded by ``decode``.
    """
    if not matrices:
        return []
    scorer, nonword = _prepare(alphabet, tree, lm, width, mode, matrices[0])
    for m in matrices[1:]:
        _check_shape(m, alphabet)
    if len(matrices) > 1:
        return _run_batch(matrices, alphabet, width, scorer, tree, nonword)
    return [decode(m, alphabet, tree, lm, width, mode) for m in matrices]


# Rows of the batched search's integer state: the decode, the trie node (the
# current word), the text's last column (the blank for the empty text), the
# text's id, its parent text's id (-1 for the empty text), the id of the text
# before the current word (the text itself outside a word), and the slot of
# the last character in the parent's extensions (see ``_node_arrays``).
# A new extension's id is -1 until it is named, and so is its word-start id if
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
    # one array per field, and performs ``_run_frames``' float operations.
    # In ``words`` mode ``p_text`` and ``committed`` are 1.0, every product
    # with them is the identity, and the batch carries neither:
    # - an extension's mass is ``(pb if c == last else tot) * row[c]``, and it
    #   scores ``p_ext * mass``: by a child, ``p_text`` (``ngrams``) or
    #   ``committed`` times the child's forecast; by a non-word character,
    #   ``committed`` times the word probability of the word it leaves, or
    #   ``p_text`` outside a word, which is then its ``p_text`` and
    #   ``committed`` both;
    # - a copy keeps ``p_blank = tot * blank`` and ``p_nonblank = pnb *
    #   row[last] + merged mass``, and scores ``p_text * (p_blank +
    #   p_nonblank)``; the merge is an array join, as survivor ``j`` takes the
    #   extension of the survivor whose text is ``j``'s parent text by ``j``'s
    #   last character;
    # - an extension strictly below the smallest copy lower bound ``p_text *
    #   (p_blank + own repeat)`` of a decode with ``width`` survivors (not on
    #   its last frame) is dropped before it is a candidate: the first bound
    #   of ``_run_frames``' heap, so it drops only what the cut drops;
    # - the cut ranks on (decode, -score), over two arrays of the candidates,
    #   their decodes and scores; texts are spelled out and compared only in
    #   a decode whose ``width``-th and next scores tie, an extension's as its
    #   survivor's text plus its character;
    # - only the winners get integer state: each takes its survivor's column,
    #   and an extension writes its own node, last column, parent id and slot.
    # Texts are ids of a text trie per decode, canonical among the texts a
    # survivor can reach, so the join compares ids; every ``_COMPACT_AT`` new
    # texts the trie forgets the others. A decode's candidates on its last
    # frame are built in full and go, uncut, to ``_complete_batch``. Arrays by
    # decode span the whole batch, finished decodes too; the posteriors are
    # copied out ``_FRAMES`` frames of every live matrix at a time.
    c, blank = alphabet.num_classes, alphabet.blank_index
    lengths = np.array([m.num_frames for m in matrices], np.int32)
    last_frame = lengths - 1
    arrays = tree._extensions.get(alphabet.symbols)
    if arrays is None:
        arrays = tree._extensions[alphabet.symbols] = _node_arrays(tree, alphabet, nonword)
    first, spans, col = arrays
    size = len(spans)  # the node count
    n = len(matrices)
    uses_lm, uses_forecast = scorer.mode.uses_lm, scorer.mode.uses_forecast
    word_prob = np.asarray(scorer.word_prob) if uses_lm else None
    texts = _Texts(alphabet.symbols, n, width)
    state = np.zeros((7, n), np.int32)
    state[_DEC] = state[_TID] = state[_WST] = np.arange(n)
    state[_LAST] = blank
    state[_PTID] = -1
    fields = [np.ones(n), np.zeros(n)]  # p_blank and p_nonblank
    if uses_lm:
        fields += [np.ones(n), np.ones(n)]  # p_text and committed
    found: list[tuple[str, float] | None] = [None] * n
    endings = set(last_frame.tolist())
    for t in range(int(lengths.max())):
        if t % _FRAMES == 0:
            probs, row0 = _frames(matrices, lengths, t)
        dec, node, last, tid = state[_DEC], state[_NODE], state[_LAST], state[_TID]
        pb, pnb = fields[:2]
        s = len(dec)
        row = row0[dec] + t % _FRAMES * c
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
        # A value by survivor is spread over its extensions by ``np.repeat``,
        # and other gathers are ``take``s: both beat indexing by an int32 array.
        count = runs[0::2] + runs[1::2]
        src = np.repeat(np.arange(s, dtype=np.int32), count)
        ext = np.repeat(offset, runs)
        ext += np.arange(len(src), dtype=np.int32)
        e_col = col.take(ext)
        at = np.repeat(row, count)
        at += e_col
        mass = probs.take(at)
        base = np.repeat(tot, count)
        same = np.flatnonzero(e_col == np.repeat(last, count))  # the repeat rule
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
        copy_score = p_blank + p_nonblank
        low = p_blank + own  # a lower bound of each copy's score
        ext_score = mass
        if uses_lm:
            p_text, committed = fields[2:]
            copy_score *= p_text
            low *= p_text
            # Leaving a word commits its word probability; outside a word
            # ``p_text`` is what is committed.
            leave = np.where(node > 0, committed * word_prob.take(node), p_text)
            per_run = np.empty(2 * s)
            per_run[0::2] = committed if uses_forecast else p_text
            per_run[1::2] = leave
            p_ext = np.repeat(per_run, runs)
            if uses_forecast:
                kid = np.flatnonzero(ext < size)
                p_ext[kid] *= scorer.forecasts(ext[kid])
            ext_score = p_ext * mass
        # The cut's bound, per decode with ``width`` survivors before its last
        # frame; -1.0 keeps every extension.
        bound = np.full(n, np.inf)
        np.minimum.at(bound, dec, low)
        bound[(np.bincount(dec, minlength=n) < width) | (last_frame <= t)] = -1.0
        keep = ext_score >= np.repeat(bound[dec], count)
        keep[merged] = False
        # The candidates are the survivors' copies, 0 to s - 1, then the kept
        # extensions, s on; only their decodes and scores exist until the cut.
        x = np.flatnonzero(keep)
        xs = src[x]
        cand_dec = np.concatenate((dec, dec.take(xs)))
        score = np.concatenate((copy_score, ext_score[x]))
        copies = [p_blank, p_nonblank] + fields[2:]

        def build(sel: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
            """State columns and float fields of candidates ``sel``."""
            k = sel - s
            e = np.flatnonzero(k >= 0)  # the extensions among them
            k = k[e]
            of = sel.copy()  # each one's survivor
            of[e] = xs[k]
            cols, floats = state[:, of], [f[of] for f in copies]
            k = x[k]
            node = ext[k]
            leaves = node >= size  # a non-word character leaves the word
            node[leaves] = 0
            cols[_NODE, e], cols[_LAST, e], cols[_PTID, e] = node, e_col[k], cols[_TID, e]
            cols[_TID, e] = -1
            cols[_SLOT, e] = k - start[of[e]]
            cols[_WST, e[leaves]] = -1
            floats[0][e], floats[1][e] = 0.0, mass[k]
            if uses_lm:
                floats[2][e] = p_ext[k]
                floats[3][e[leaves]] = leave[of[e[leaves]]]
            return cols, floats

        pick = None
        if t in endings:
            ends = last_frame[cand_dec] == t
            _complete_batch(*build(np.flatnonzero(ends)), scorer, tree, texts, found)
            pick = np.flatnonzero(~ends)
            cand_dec, score = cand_dec[pick], score[pick]

        def text_of(i: int) -> str:
            """Candidate ``i``'s text, spelled out for a tie at the cut."""
            i = int(pick[i]) if pick is not None else i
            if i < s:
                return texts.text(int(tid[i]))
            return texts.text(int(tid[xs[i - s]])) + texts.symbols[e_col[x[i - s]]]

        sel = _cut(cand_dec, score, width, n, text_of)
        state, fields = build(sel if pick is None else pick[sel])
        texts.name(state)
        if texts.count - texts.kept > _COMPACT_AT:
            texts.compact(state)
    return found


# Frames of every matrix that a batched search copies out at a time.
_FRAMES = 64


def _frames(matrices: Sequence[PosteriorMatrix], lengths: np.ndarray, t: int) -> tuple:
    """``(probs, row0)``: frames ``t`` to ``t + _FRAMES - 1`` of every matrix
    that has them, as one flat array, and where each one's frame ``t`` starts."""
    live = np.flatnonzero(lengths > t)
    sizes = np.minimum(lengths[live] - t, _FRAMES) * matrices[0].num_classes
    row0 = np.zeros(len(matrices), np.intp)
    row0[live] = np.cumsum(sizes) - sizes
    probs = np.concatenate([matrices[d].probs[t:t + _FRAMES] for d in live.tolist()])
    return probs.ravel(), row0


def _cut(
    dec: np.ndarray,
    score: np.ndarray,
    width: int,
    n: int,
    text_of: Callable[[int], str],
) -> np.ndarray:
    """Indices of each decode's ``width`` best candidates by (-score, text), grouped by decode.

    Candidate ``i`` belongs to decode ``dec[i]``; ``text_of(i)`` spells its
    text, which only a tie at the cut reads.
    """
    # Best score first, then a stable sort by decode; fewer than 2**16
    # decodes sort on 16-bit keys, which numpy radix-sorts.
    order = np.argsort(score)[::-1]
    sdec = dec[order]
    order = order[np.argsort(sdec.astype(np.uint16) if n <= 1 << 16 else sdec, kind="stable")]
    sdec = dec[order]
    sizes = np.bincount(sdec, minlength=n)
    heads = np.cumsum(sizes) - sizes
    keep = np.arange(len(sdec)) - heads.take(sdec) < width
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
            run = sorted(range(lo, hi), key=lambda p: text_of(int(order[p])))
            keep[lo:hi] = False
            keep[run[:head + width - lo]] = True
    return order[keep]


def _complete_batch(
    cand: np.ndarray,
    fields: list[np.ndarray],
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
    # order, more in Python. Their nodes lie on the path from the root to the
    # completed word, so their texts are nested prefixes and text order is
    # depth order, which is node order (ids are level order); a group keeps
    # the model score of its first member in that order. A text outside a
    # word ends in a non-word character or is empty, so it is no other
    # candidate's completed text: each such candidate is a group of its own.
    pb, pnb = fields[:2]
    node = cand[_NODE]
    word, p_text = _completed(scorer, node, *(fields[2:] or (None, None)))
    key = np.where(word != 0, cand[_WST].astype(np.int64) * tree._first[-1] + word,
                   -1 - np.arange(len(word)))
    order = np.argsort(key)
    key = key[order]
    heads = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    sizes = np.diff(np.r_[heads, len(key)])
    group_pb = np.add.reduceat(pb[order], heads)
    group_pnb = np.add.reduceat(pnb[order], heads)
    # Each group's members in node order: a pair swaps, a larger group sorts.
    pair = heads[sizes == 2]
    pair = pair[node[order[pair]] > node[order[pair + 1]]]
    order[pair], order[pair + 1] = order[pair + 1], order[pair]
    for g in np.flatnonzero(sizes > 2).tolist():
        members = sorted(order[heads[g]:heads[g] + sizes[g]].tolist(), key=lambda q: node[q])
        order[heads[g]:heads[g] + sizes[g]] = members
        a, b = float(pb[members[0]]), float(pnb[members[0]])
        for q in members[1:]:
            a, b = a + float(pb[q]), b + float(pnb[q])
        group_pb[g], group_pnb[g] = a, b
    score = group_pb + group_pnb
    first = order[heads]
    if p_text is not None:
        score *= p_text[first]
    # Each decode's best groups, then the smallest of their completed texts.
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

    They are node ``n``'s children, ids ``first[n]`` to ``first[n + 1] -
    1`` (``first`` is the tree's, which ends with the node count), then the
    non-word characters at the root or a word end; an extension's slot is
    its place in that order. ``spans[n]`` packs their two counts, as two int32 in one
    int64. ``col[n]`` is node ``n``'s character column (0 at the root); the
    non-word characters' columns follow, one past the last node. They depend
    only on the tree and the alphabet's column order, so ``_run_batch`` keeps
    them on the tree, read-only, by ``alphabet.symbols``.
    """
    first = np.frombuffer(tree._first, np.intc)
    size = len(first) - 1
    spans = np.empty((size, 2), np.intc)
    spans[:, 0] = np.diff(first)
    spans[:, 1] = np.frombuffer(tree._is_word, np.uint8)
    spans[0, 1] = 1
    spans[:, 1] *= len(nonword)
    spans = spans.view(np.int64).ravel()  # a gather by node takes both counts
    # Node ``n > 0``'s character is ``tree._chars[n - 1]``, spelled here as
    # the code point of its column.
    column = {ord(ch): i for i, ch in enumerate(alphabet.symbols)}
    col = np.zeros(size + len(nonword), np.intc)
    col[1:size] = np.frombuffer(tree._chars.translate(column).encode("utf-32-le"), np.uint32)
    col[size:] = [column[ord(ch)] for ch in nonword]
    for a in (first, spans, col):
        a.flags.writeable = False
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
    arrays for them. The arrays start with room for one step's new texts,
    at most one per survivor, ``n * width``, and double as texts are named,
    up to the most that can be named before the next compaction:
    ``_COMPACT_AT`` (0 if negative) plus one step's.
    """

    def __init__(self, symbols: str, n: int, width: int) -> None:
        self.symbols = symbols
        self.step = n * width
        self.room = max(_COMPACT_AT, 0) + self.step
        self._hold(np.full(n, -1, np.int32), np.zeros(n, np.int32))

    def _hold(self, parent: np.ndarray, col: np.ndarray) -> None:
        """Make the texts ``parent``/``col`` ids 0 on, with one step's ids free after them."""
        self.count = self.kept = kept = len(parent)  # texts named; at the last compaction
        self.child = None  # free the old table before building the new one
        self.parent = np.empty(kept + self.step, np.int32)
        self.col = np.empty(kept + self.step, np.int32)
        self.parent[:kept], self.col[:kept] = parent, col
        self.child = np.full((kept + self.step, len(self.symbols)), -1, np.int32)
        named = np.flatnonzero(parent >= 0)
        self.child[parent[named], col[named]] = named

    def _grow(self, count: int) -> None:
        """Room for ids below ``count``: the arrays double, up to the most
        that can be named before the next compaction. They grow in place
        (``realloc``), so the table is never held twice: no view of them
        outlives a method of this class, which ``refcheck`` cannot see
        under a profiler."""
        before = len(self.parent)
        size = min(max(count, 2 * before), self.kept + self.room)
        self.parent.resize(size, refcheck=False)
        self.col.resize(size, refcheck=False)
        self.child.resize((size, len(self.symbols)), refcheck=False)
        self.child[before:] = -1

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
        if count > len(self.parent):
            self._grow(count)
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
