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
by ``score = p_text * (p_blank + p_nonblank)``, with ``p_text`` the
language-model score (1 in words mode); ``committed`` is the score of a
hypothesis' finished words alone, which the forecast modes multiply by a
forecast or a completion's remainder probability. The current word is
the trie node id of the trailing run of word characters; outside a word
it is the root, 0, which is never a word, as the tree rejects empty
words. At the ``width``-th score of a frame, ties go to the smaller
text. After the last frame, hypotheses whose trailing prefix is not yet
a complete word are extended by their most probable completion without
consuming posterior mass. Language-model scores are read at each in-word
hypothesis' trie node from the ``TrieScorer`` of (tree, model, mode),
which the tree owns: it builds its arrays by node when a decode first
needs it, and they serve every later decode with that tree, model and
mode.

There is one search, run over any number of matrices at once: every
numpy step moves all live decodes one frame, over one array per field of
all their survivors. ``decode`` is a batch of one. ``decode_batch``
drives the two stages: ``frame_beams`` yields each frame's candidates,
the ``width`` survivors of each decode that goes on and the merged,
uncut set of each decode that ends on that frame, and ``complete_beams``
completes a set of last candidates, merges them and picks each decode's
result, the smallest text among its best merged candidates, with its
score. A step ranks its candidates first, as two arrays of their decodes
and scores, and builds integer state only for the at most ``width`` per
decode that the cut keeps; texts are ids in a table of texts
(``_Texts``), spelled out only where a tie straddles the cut and for the
picks, all of a completion's together. In a language-model mode the
survivors carry ``p_text`` and ``committed`` arrays too, and an
extension's score is a gather from the scorer's word probabilities or
forecasts. A batch's memory stays bounded: it copies the posteriors out
a few dozen frames at a time, reads the trie through a few arrays by
node, and its table of texts keeps only those a survivor can still
reach, growing as texts are named up to a size that no step between two
compactions can outgrow.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

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
    return decode_batch([m], alphabet, tree, lm, width, mode)[0]


def decode_batch(
    matrices: Sequence[PosteriorMatrix],
    alphabet: Alphabet,
    tree: PrefixTree,
    lm: NgramModel | None = None,
    width: int = 25,
    mode: ScoringMode = WORDS,
) -> list[tuple[str, float]]:
    """Search ``matrices`` as one batch; return each one's (labeling,
    score), as ``decode`` describes it.

    A matrix's result is the same, bit for bit, alone and in any batch, in
    any order. The arguments are checked before the first frame.
    """
    found: list[tuple[str, float] | None] = [None] * len(matrices)
    if not matrices:
        return found
    for frame in frame_beams(matrices, alphabet, tree, lm, width, mode):
        if frame.ending is not None:
            cols, floats = frame.ending
            complete_beams(cols[_DEC], cols[_WST], cols[_NODE], floats, frame.scorer, tree,
                           lambda q: frame.texts.of(cols.take(q, axis=1)), found)
    return found


def _prepare(
    alphabet: Alphabet,
    tree: PrefixTree,
    lm: NgramModel | None,
    width: int,
    mode: ScoringMode,
) -> tuple[TrieScorer, list[str]]:
    """Check all of a decode's arguments but its matrices; return its scorer and
    sorted non-word characters, so that a caller can report an unusable
    configuration before it has read any matrix."""
    if width < 1:
        raise InputValidationError("beam width must be at least 1")
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


# Rows of the search's integer state: the decode, the trie node (the current
# word), the text's last column (the blank for the empty text), the text's id,
# its parent text's id (-1 for the empty text), the id of the text before the
# current word (the text itself outside a word), and the slot of the last
# character in the parent's extensions (see ``_node_arrays``). A new
# extension's id is -1 until it is named; one that leaves the word keeps its
# survivor's word-start id until then, and takes its own id as it is named.
_DEC, _NODE, _LAST, _TID, _PTID, _WST, _SLOT = range(7)


class _Frame:
    """The candidates ``frame_beams`` yields after one frame.

    ``survivors`` and ``ending`` are ``(state, fields)`` pairs: integer
    state columns (rows ``_DEC`` to ``_SLOT``) and the float fields
    ``p_blank``, ``p_nonblank``, then, in a language-model mode,
    ``p_text`` and ``committed``. ``survivors`` are the at most ``width``
    best candidates by (score, text) of each decode that goes on, the ones
    the next frame extends; ``ending`` the merged, uncut candidates of the
    decodes whose last frame this is, or None. ``texts.of(columns)`` spells
    candidates' texts, right only until the next frame is asked for.
    """

    __slots__ = ("survivors", "ending", "scorer", "texts")

    def __init__(self, survivors: tuple, ending: tuple | None, scorer: TrieScorer,
                 texts: _Texts) -> None:
        self.survivors, self.ending, self.scorer, self.texts = survivors, ending, scorer, texts

    def __len__(self) -> int:
        ending = 0 if self.ending is None else self.ending[0].shape[1]
        return self.survivors[0].shape[1] + ending


# The benchmark's tracer wraps the two stages below by name and reads their width.
def frame_beams(
    matrices: Sequence[PosteriorMatrix],
    alphabet: Alphabet,
    tree: PrefixTree,
    lm: NgramModel | None = None,
    width: int = 25,
    mode: ScoringMode = WORDS,
) -> Iterator[_Frame]:
    """Yield the candidates of every decode of ``matrices`` after each
    frame, as a ``_Frame``, up to the last frame of the longest matrix.

    The arguments are checked before the first frame. Every word
    character of ``tree`` must be an alphabet symbol.
    """
    scorer, nonword = _prepare(alphabet, tree, lm, width, mode)
    for m in matrices:
        _check_shape(m, alphabet)
    # The batch holds the survivors of every live decode, grouped by decode,
    # one array per field. In ``words`` mode ``p_text`` and ``committed`` are
    # 1.0, every product with them is the identity, and the batch carries
    # neither:
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
    #   last character, found through the text table's array by id ``at``.
    #   Texts are distinct and every symbol is one character, so an
    #   extension merges into no other candidate, and a merged ``p_nonblank``
    #   is 0.0 plus two terms, whose sum does not depend on their order;
    # - an extension strictly below the smallest copy lower bound ``p_text *
    #   (p_blank + own repeat)`` of a decode with ``width`` survivors (not on
    #   its last frame) is dropped before it is a candidate; survivors come
    #   grouped by decode, so that bound is one ``reduceat``. Under
    #   round-to-nearest, adding non-negative terms and multiplying by
    #   non-negative factors never lowers a value, so the copies, each a
    #   distinct text, all score at least that bound, and the cut would drop
    #   the extension anyway;
    # - the cut ranks on (decode, -score), over two arrays of the candidates,
    #   their decodes and scores; texts are spelled out and compared only in
    #   a decode whose ``width``-th and next scores tie, an extension's as its
    #   survivor's text plus its character;
    # - only the winners get integer state: each takes its survivor's column,
    #   and an extension writes its own node, last column, parent id and slot.
    # Texts are ids of a text trie per decode, canonical among the texts a
    # survivor can reach, so the join compares ids; every ``_COMPACT_AT`` new
    # texts the trie forgets the others. A decode's candidates on its last
    # frame are built in full and go, uncut, to completion. Arrays by decode
    # span the whole batch, finished decodes too; the posteriors are copied
    # out ``_FRAMES`` frames of every live matrix at a time.
    c, blank = alphabet.num_classes, alphabet.blank_index
    lengths = np.array([m.num_frames for m in matrices], np.int32)
    last_frame = lengths - 1
    arrays = tree._extensions.get(alphabet.symbols)
    if arrays is None:
        arrays = tree._extensions[alphabet.symbols] = _node_arrays(tree, alphabet, nonword)
    spans, col = arrays
    first = np.frombuffer(tree._first, np.intc)
    size = len(first) - 1  # the node count
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
    endings = set(last_frame.tolist())
    for t in range(int(lengths.max(initial=0))):
        if t % _FRAMES == 0:
            probs, row0 = _frames(matrices, lengths, t)
        dec, node, last, tid = state[_DEC], state[_NODE], state[_LAST], state[_TID]
        pb, pnb = fields[:2]
        s = len(dec)
        row = row0.take(dec) + t % _FRAMES * c
        tot = pb + pnb
        p_blank = tot * probs.take(row + blank)
        p_nonblank = pnb * probs.take(row + last)  # the own repeat, 0.0 for the empty text
        # Survivor i's extensions are rows ``start[i]`` on of these arrays, in
        # two runs: its node's children, then the non-word characters it may
        # take. An extension's id ``ext`` is the child's node id, or ``size``
        # plus the non-word character's index, its column ``col[ext]``. A
        # run's ids are consecutive, so an id is its row plus the run's offset.
        runs = spans.take(node).view(col.dtype)
        heads = runs.cumsum(dtype=np.int32) - runs  # each run's first row
        start = heads[0::2]
        offset = -heads
        offset[0::2] += first.take(node)
        offset[1::2] += size
        # A value by survivor is spread over its extensions by ``repeat`` and
        # other gathers are ``take``s, both beating indexing by an int32 array;
        # array methods skip ``np.repeat``'s and ``np.flatnonzero``'s wrappers.
        count = runs[0::2] + runs[1::2]
        src = np.arange(s, dtype=np.int32).repeat(count)
        ext = offset.repeat(runs)
        ext += np.arange(len(src), dtype=np.int32)
        e_col = col.take(ext)
        at = row.repeat(count)
        at += e_col
        mass = probs.take(at)
        base = tot.repeat(count)
        same = (e_col == last.repeat(count)).nonzero()[0]  # the repeat rule
        base[same] = pb[src[same]]
        mass *= base
        low = p_blank + p_nonblank  # a lower bound of each copy's score
        # Merges: survivor ``j`` whose parent text is survivor ``i``'s takes
        # i's extension by j's last character, row ``start[i] + slot[j]``.
        texts.at[tid] = np.arange(s, dtype=np.int32)
        i = texts.at.take(state[_PTID])  # parent id -1 reads the slot past the last row
        texts.at[tid] = -1
        j = (i >= 0).nonzero()[0]
        merged = start[i[j]] + state[_SLOT, j]
        p_nonblank[j] += mass[merged]
        copy_score = p_blank + p_nonblank
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
            p_ext = per_run.repeat(runs)
            if uses_forecast:
                kid = (ext < size).nonzero()[0]
                p_ext[kid] *= scorer.forecasts(ext[kid])
            ext_score = p_ext * mass
        # The cut's bound, per decode with ``width`` survivors before its last
        # frame; -1.0 keeps every extension. Survivors come grouped by decode,
        # in decode order, so each live decode's are one run of ``low``.
        sizes = np.bincount(dec, minlength=n)
        live = sizes.nonzero()[0]
        sizes = sizes[live]
        bound = np.minimum.reduceat(low, sizes.cumsum() - sizes)
        bound[(sizes < width) | (last_frame[live] <= t)] = -1.0
        keep = ext_score >= bound.repeat(sizes).repeat(count)
        keep[merged] = False
        # The candidates are the survivors' copies, 0 to s - 1, then the kept
        # extensions, s on; only their decodes and scores exist until the cut.
        x = keep.nonzero()[0]
        xs = src[x]
        cand_dec = np.concatenate((dec, dec.take(xs)))
        score = np.concatenate((copy_score, ext_score[x]))
        copies = [p_blank, p_nonblank] + fields[2:]

        def build(sel: np.ndarray) -> tuple:
            """Candidates ``sel``' state and float fields; where its extensions and leavers are."""
            k = sel - s
            e = (k >= 0).nonzero()[0]  # the extensions among them
            k = k[e]
            of = sel.copy()  # each one's survivor
            of[e] = of_e = xs[k]
            cols, floats = state.take(of, axis=1), [f[of] for f in copies]
            k = x[k]
            node = ext[k]
            leaves = node >= size  # a non-word character leaves the word
            node[leaves] = 0
            cols[_NODE, e], cols[_LAST, e], cols[_PTID, e] = node, e_col[k], cols[_TID, e]
            cols[_TID, e] = -1
            cols[_SLOT, e] = k - start[of_e]
            floats[0][e], floats[1][e] = 0.0, mass[k]
            leaves = e[leaves]
            if uses_lm:
                floats[2][e] = p_ext[k]
                floats[3][leaves] = leave[of[leaves]]
            return (cols, floats), e, leaves

        ending = pick = None
        if t in endings:
            ends = last_frame[cand_dec] == t
            ending = build(ends.nonzero()[0])[0]
            pick = (~ends).nonzero()[0]
            cand_dec, score = cand_dec[pick], score[pick]

        def texts_of(i: np.ndarray) -> list[str]:
            """Candidates ``i``'s texts, spelled out for a tie at the cut: each
            survivor's once, and an extension's as its survivor's plus its
            character."""
            i = i if pick is None else pick[i]
            e = (i >= s).nonzero()[0]
            k = x[i[e] - s]
            of = i.copy()
            of[e] = src[k]
            col = np.full(len(i), -1)  # column -1 adds "", the last of ``chars``
            col[e] = e_col[k]
            of = tid[of].tolist()
            spelled = {t: texts.text(t) for t in set(of)}
            chars = [*texts.symbols, ""]
            return [spelled[t] + chars[c] for t, c in zip(of, col.tolist())]

        sel = _cut(cand_dec, score, width, n, texts_of)
        (state, fields), new, starts = build(sel if pick is None else pick[sel])
        yield _Frame((state, fields), ending, scorer, texts)
        texts.name(state, new, starts)
        if texts.count - texts.kept > _COMPACT_AT:
            texts.compact(state)


def complete_beams(
    dec: np.ndarray,
    wst: np.ndarray,
    node: np.ndarray,
    fields: list[np.ndarray],
    scorer: TrieScorer,
    tree: PrefixTree,
    texts: Callable[[np.ndarray], list[str]],
    found: list[tuple[str, float] | None],
) -> None:
    """Complete the last candidates of the decodes that end together,
    merge them, and write each decode's pick to ``found``.

    Candidate ``q`` of decode ``dec[q]`` is at trie node ``node[q]``, has
    the float fields ``fields`` (``p_blank``, ``p_nonblank``, then
    ``p_text`` and ``committed``, which ``words`` mode may leave out), the
    id ``wst[q]`` of its text before its word (unread outside a word), and
    the text ``texts(q)[0]``, for an index array ``q``; a decode's texts
    are distinct. Its word and
    completed ``p_text`` are ``_completed``'s. A decode's pick is the
    smallest completed text among its best merged candidates, with their
    score. Posterior mass is never consumed: a merged candidate's mass is
    its members'.
    """
    # A completed in-word text is its word-start text plus the prefix of its
    # word, so in-word candidates that complete to one text are those with one
    # (word-start id, word), as text ids belong to one decode; their masses
    # are summed in text order: two terms in either order, more in Python.
    # Their nodes lie on the path from the root to the word, so their texts
    # are nested prefixes and text order is depth order, which is node order
    # (ids are level order); a group keeps the model score of its first
    # member in that order. A text outside a word ends in a non-word
    # character or is empty, so it is no other candidate's completed text:
    # each such candidate is a group of its own.
    pb, pnb = fields[:2]
    word, p_text = _completed(scorer, node, *(fields[2:] or (None, None)))
    key = np.where(word != 0, wst.astype(np.int64) * tree._first[-1] + word,
                   -1 - np.arange(len(word)))
    order = np.argsort(key)
    key = key[order]
    heads = np.flatnonzero(np.diff(key, prepend=key[:1] - 1))
    sizes = np.diff(heads, append=len(key))
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
    # Each decode's best groups, then the smallest of their completed texts:
    # a member's text plus the rest of the path from its node to the word.
    dec = dec[first]
    best = np.full(len(found), -1.0)
    np.maximum.at(best, dec, score)
    top = np.flatnonzero(score == best[dec])
    picks = first[top]
    for text, w, n, d, value in zip(texts(picks), word[picks].tolist(), node[picks].tolist(),
                                    dec[top].tolist(), score[top].tolist()):
        completed = text + tree._prefix(w, n)
        if found[d] is None or completed < found[d][0]:
            found[d] = (completed, value)


def _completed(
    scorer: TrieScorer,
    node: np.ndarray,
    p_text: np.ndarray | None,
    committed: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The completion rule: each candidate's word and its ``p_text`` once
    completed, for candidates at trie nodes ``node`` with ``p_text`` and
    ``committed`` arrays, which ``words`` mode does not read (the search
    passes ``None`` there).

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


# Frames of every matrix that a search copies out at a time.
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
    texts_of: Callable[[np.ndarray], list[str]],
) -> np.ndarray:
    """Indices of each decode's ``width`` best candidates by (-score, text), grouped by decode.

    Candidate ``i`` belongs to decode ``dec[i]``; ``texts_of(i)`` spells
    the texts of candidates ``i``, which only a tie at the cut reads.
    """
    # Best score first, then a stable sort by decode; fewer than 2**16
    # decodes sort on 16-bit keys, which numpy radix-sorts.
    order = np.argsort(score)[::-1]
    sdec = dec[order]
    order = order[np.argsort(sdec.astype(np.uint16) if n <= 1 << 16 else sdec, kind="stable")]
    sizes = np.bincount(dec, minlength=n)
    heads = sizes.cumsum() - sizes
    keep = np.arange(len(order)) - heads.repeat(sizes) < width
    over = heads[sizes > width]
    if over.size:
        ranked = score[order]
        for head in over[ranked[over + width - 1] == ranked[over + width]].tolist():
            # The cut splits a run of equal scores, which is contiguous, as a
            # decode's scores are descending: keep its smallest texts.
            scores = ranked[head:head + sizes[dec[order[head]]]]
            tied = scores[width - 1]
            lo = head + int(np.count_nonzero(scores > tied))
            hi = lo + int(np.count_nonzero(scores == tied))
            run = sorted(range(hi - lo), key=texts_of(order[lo:hi]).__getitem__)
            keep[lo:hi] = False
            keep[lo + np.array(run[:head + width - lo], np.intp)] = True
    return order[keep]


def _node_arrays(tree: PrefixTree, alphabet: Alphabet, nonword: list[str]) -> tuple:
    """``(spans, col)``: per trie node ``n``, the extensions a hypothesis
    there may take.

    They are node ``n``'s children, ids ``tree._first[n]`` on, then the
    non-word characters at the root or a word end; an extension's slot is
    its place in that order. ``spans[n]`` packs their two counts, two
    values of ``col``'s dtype in one of twice its size, so that one gather
    by node reads both. ``col[n]`` is node ``n``'s character column (0 at
    the root); the non-word characters' columns follow, one past the last
    node. Both take the smallest unsigned dtype that holds the symbol
    count: a node's two counts add up to at most that. They depend only on
    the tree and the alphabet's column order, so ``frame_beams`` keeps them
    on the tree, read-only, by ``alphabet.symbols``.
    """
    narrow = np.min_scalar_type(len(alphabet.symbols))
    size = tree._first[-1]
    spans = np.empty((size, 2), narrow)
    spans[:, 0] = np.diff(np.frombuffer(tree._first, np.intc))
    spans[:, 1] = np.frombuffer(tree._is_word, np.uint8)
    spans[0, 1] = 1
    spans[:, 1] *= len(nonword)
    spans = spans.view(f"u{2 * narrow.itemsize}").ravel()
    # Node ``n > 0``'s character is ``tree._chars[n - 1]``, spelled here as
    # the code point of its column.
    column = {ord(ch): i for i, ch in enumerate(alphabet.symbols)}
    col = np.zeros(size + len(nonword), narrow)
    col[1:size] = np.frombuffer(tree._chars.translate(column).encode("utf-32-le"), np.uint32)
    col[size:] = [column[ord(ch)] for ch in nonword]
    for a in (spans, col):
        a.flags.writeable = False
    return spans, col


# Texts a search names between two compactions of its text table.
_COMPACT_AT = 1 << 14


class _Texts:
    """The texts of one search, as ids canonical among live texts.

    A text is live while it or a text it is a prefix of is a survivor's.
    Text ``parent + symbols[col]`` has the id first handed to ``(parent,
    col)`` since it was last live, so the equal live texts of one decode
    always share one id, even when a text is dropped and later built
    again. The decodes' empty texts start as ids ``0`` to ``n - 1``.
    Arrays by id hold each text's ``parent`` id and ``col`` (-1 and
    ``len(symbols)`` for an empty text and in the slot past the last id,
    which a gather at id -1 reads), and a dense table ``child[parent,
    col]`` the id handed to that pair (-1 for none), so a step names its
    new texts with one gather and one scatter; ``at``, -1 between steps,
    joins a step's survivors by id. ``compact`` forgets the texts that
    are no longer live, which no candidate can name again, renumbers the
    rest and rebuilds the arrays for them. The arrays start with room for
    one step's new texts, at most one per survivor, ``n * width``, and one
    per symbol and live text, and double as texts are named, up to the
    most that can be named before the next compaction: ``_COMPACT_AT`` (0
    if negative) plus one step's. ``text`` spells a text back to the
    nearest one it spelled in this step or the one before (``name`` ends a
    step, ``compact`` forgets both), so where every step ties at the cut,
    as once a decode's scores underflow, a text costs a character or two
    to spell, not its length; ``of`` spells many texts at once.
    """

    def __init__(self, symbols: str, n: int, width: int) -> None:
        self.symbols = symbols
        self.step = n * width
        self.room = max(_COMPACT_AT, 0) + self.step
        self._hold(np.full(n, -1, np.int32), np.full(n, len(symbols), np.int32))

    def _hold(self, parent: np.ndarray, col: np.ndarray) -> None:
        """Make the texts ``parent``/``col`` ids 0 on, with one step's ids free after them."""
        self.count = self.kept = kept = len(parent)  # texts named; at the last compaction
        self._spelled: dict[int, str] = {}  # texts spelled in this step, by id
        self._before: dict[int, str] = {}  # and in the step before
        self.child = None  # free the old table before building the new one
        size = kept + min(self.step, kept * len(self.symbols))
        self.parent = np.full(size + 1, -1, np.int32)
        self.col = np.full(size + 1, len(self.symbols), np.int32)
        self.parent[:kept], self.col[:kept] = parent, col
        self.at = np.full(size + 1, -1, np.int32)
        self.child = np.full((size, len(self.symbols)), -1, np.int32)
        named = (parent >= 0).nonzero()[0]
        self.child[parent[named], col[named]] = named

    def _grow(self, count: int) -> None:
        """Room for ids below ``count``: the arrays double, up to the most
        that can be named before the next compaction. They grow in place
        (``realloc``), so the table is never held twice: no view of them
        outlives a method of this class, which ``refcheck`` cannot see
        under a profiler."""
        before = len(self.child)
        size = min(max(count, 2 * before), self.kept + self.room)
        for a in (self.parent, self.col, self.at):
            a.resize(size + 1, refcheck=False)
        self.parent[size], self.col[size] = -1, len(self.symbols)
        self.at[before:] = -1
        self.child.resize((size, len(self.symbols)), refcheck=False)
        self.child[before:] = -1

    def name(self, cand: np.ndarray, new: np.ndarray, starts: np.ndarray) -> None:
        """Give ids to the survivors ``cand[:, new]``, which have none, and
        word-start ids to those ``starts`` that left a word, ending a step.
        No two need one new id, as a decode's candidates' texts are distinct."""
        parent, col = cand[_PTID, new], cand[_LAST, new]
        pair = parent * len(self.symbols) + col  # the flat index of (parent, col)
        ids = self.child.take(pair)
        unseen = (ids < 0).nonzero()[0]
        count = self.count + len(unseen)
        if count > len(self.child):
            self._grow(count)
        fresh = np.arange(self.count, count, dtype=np.int32)
        ids[unseen] = fresh
        self.child.put(pair[unseen], fresh)
        self.parent[self.count:count], self.col[self.count:count] = parent[unseen], col[unseen]
        self.count = count
        cand[_TID, new] = ids
        cand[_WST, starts] = cand[_TID, starts]
        self._before, self._spelled = self._spelled, {}

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
        """Text ``i``, spelled back to the nearest text spelled in this step
        or the one before, or to an empty text."""
        chars = []
        j = i
        while (head := self._spelled.get(j, self._before.get(j))) is None:
            if self.parent[j] < 0:
                head = ""
                break
            chars.append(self.symbols[self.col[j]])
            j = int(self.parent[j])
        text = self._spelled[i] = head + "".join(reversed(chars))
        return text

    def of(self, cand: np.ndarray) -> list[str]:
        """The texts of candidate columns ``cand``, named or not, spelled
        together from the last character back: each step of the walk gathers
        every text's column and parent at once (an unnamed text's last are
        its own), reading ``len(symbols)`` and -1 past an empty text. A
        text's columns thus end a run, padded in front, of one array, whose
        code points decode to one string; a text is cut from it by its count
        of symbol columns, so a final ``"\\x00"`` symbol is kept.
        """
        tid = cand[_TID]
        new = tid < 0
        cols = [np.where(new, cand[_LAST], self.col.take(tid))]
        ids = np.where(new, cand[_PTID], self.parent.take(tid))
        while ids.max(initial=-1) >= 0:
            cols.append(self.col.take(ids))
            ids = self.parent.take(ids)
        cols = np.stack(cols[::-1], axis=1)
        depth = cols.shape[1]
        lengths = (cols < len(self.symbols)).sum(axis=1).tolist()
        codes = np.frombuffer(self.symbols.encode("utf-32-le", "surrogatepass"), np.uint32)
        # The padding's column, ``len(symbols)``, clips to the last symbol's.
        chars = codes.take(cols, mode="clip").tobytes().decode("utf-32-le", "surrogatepass")
        return [chars[end - k:end] for end, k in zip(range(depth, len(chars) + 1, depth),
                                                      lengths)]
