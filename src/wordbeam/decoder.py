"""Dual-state word beam search over CTC posteriors.

Each hypothesis (beam) is either inside a word or outside one. The
trailing run of word characters of an in-word beam is always a live
prefix of the dictionary trie, so the only legal word-character
extensions are the trie's children; a non-word character may follow
only once that prefix is a complete word. Out-of-word beams may extend
with any non-word character or start a new dictionary word.

Per frame, each beam tracks the path mass ending in blank (``p_blank``)
and in a non-blank (``p_nonblank``) separately, which makes merging of
equal-text hypotheses and the repeated-character rule exact: extending
with the beam's own last character may only use the blank-ending mass,
everything else uses the total. Beams are ranked by the product of the
language-model score and the total mass. After the last frame, beams
whose trailing prefix is not yet a complete word are extended by their
most probable completion without consuming posterior mass.
Language-model scores are read at each in-word beam's trie node from a
``TrieScorer``, whose per-node tables fill on first use.

Within a frame, candidates are flat tuples ranked by (score, text) and a
``Beam`` is built only for the ``width`` survivors. ``frame_beams``
yields each frame's merged, uncut set as a read-only mapping whose Beams
are built when a caller reads them; ``decode`` completes the last set
uncut.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from .ctc import Alphabet, PosteriorMatrix
from .errors import ConfigurationError, InputValidationError
from .language_model import NgramModel, ScoringMode, TrieScorer, WORDS
from .prefix_tree import PrefixTree


class Beam:
    """One decoding hypothesis.

    ``word_prefix`` is the trailing run of word characters of ``text``;
    the beam is in word state exactly when it is non-empty. ``p_text``
    is the language-model score used for ranking (1 in words mode).
    """

    __slots__ = ("text", "word_prefix", "p_blank", "p_nonblank", "p_text",
                 "_node", "_committed", "_last_col")

    def __init__(
        self,
        text: str = "",
        word_prefix: str = "",
        p_blank: float = 0.0,
        p_nonblank: float = 0.0,
        p_text: float = 1.0,
    ) -> None:
        self.text = text
        self.word_prefix = word_prefix
        self.p_blank = p_blank
        self.p_nonblank = p_nonblank
        self.p_text = p_text
        self._node = None
        self._committed = p_text
        self._last_col = -1

    @property
    def p_total(self) -> float:
        return self.p_blank + self.p_nonblank

    @property
    def score(self) -> float:
        return self.p_text * (self.p_blank + self.p_nonblank)

    def __repr__(self) -> str:
        return (
            f"Beam({self.text!r}, prefix={self.word_prefix!r}, pb={self.p_blank:.3g}, "
            f"pnb={self.p_nonblank:.3g}, ptxt={self.p_text:.3g})"
        )


BeamSet = dict[str, Beam]


def _rank_key(b: Beam):
    # Highest score first; ties broken by lexicographic text for determinism.
    return (-(b.p_text * (b.p_blank + b.p_nonblank)), b.text)


def decode(
    m: PosteriorMatrix,
    alphabet: Alphabet,
    tree: PrefixTree,
    lm: NgramModel | None = None,
    width: int = 25,
    mode: ScoringMode = WORDS,
    scorer: TrieScorer | None = None,
) -> tuple[str, float]:
    """Run the dual-state word beam search and return (labeling, score).

    The reported score is the winning beam's ``p_text * p_total``, the
    quantity the search ranks by. Pass one ``scorer`` for (tree, lm, mode)
    to every decode of a batch; without it, each call builds its own.
    """
    scorer = _scorer_for(tree, lm, mode, scorer)
    beams: Mapping[str, Beam] = {}
    for beams in frame_beams(m, alphabet, tree, lm, width, mode, scorer):
        pass
    final = complete_beams(beams, tree, lm, mode, scorer)
    best = min(final.values(), key=_rank_key)
    return best.text, best.score


def frame_beams(
    m: PosteriorMatrix,
    alphabet: Alphabet,
    tree: PrefixTree,
    lm: NgramModel | None = None,
    width: int = 25,
    mode: ScoringMode = WORDS,
    scorer: TrieScorer | None = None,
) -> Iterator[Mapping[str, Beam]]:
    """Yield the merged, uncut beam set after each frame.

    Each set is a read-only mapping from text to Beam whose ``len`` is
    cheap and whose Beams are built when a caller reads them. Exposed for
    instrumentation (mass bookkeeping can be audited frame by frame);
    ``decode`` drives it to the end and completes the last set.
    """
    if width < 1:
        raise InputValidationError("beam width must be at least 1")
    if m.num_classes != alphabet.num_classes:
        raise InputValidationError(
            f"matrix has {m.num_classes} classes but the alphabet implies "
            f"{alphabet.num_classes}"
        )
    scorer = _scorer_for(tree, lm, mode, scorer)
    symbols = alphabet.symbols
    classified = tree.word_chars | tree.nonword_chars
    if set(symbols) != classified:
        raise ConfigurationError(
            "alphabet symbols and the tree's word/non-word partition disagree on "
            f"{sorted(set(symbols) ^ classified)!r}"
        )
    col = alphabet.column_map()
    root = tree._root
    word_starts = [(c, col[c], root.children[c]) for c in sorted(root.children)]
    nonword_exts = [(c, col[c]) for c in sorted(tree.nonword_chars)]
    if not word_starts and not nonword_exts:
        raise ConfigurationError(
            "no beam can ever extend: the dictionary is empty and there are "
            "no non-word characters"
        )
    return _run_frames(m, alphabet, width, scorer, col, word_starts, nonword_exts)


def _scorer_for(tree: PrefixTree, lm: NgramModel | None, mode: ScoringMode,
                scorer: TrieScorer | None) -> TrieScorer:
    if scorer is None:
        return TrieScorer(tree, lm, mode)
    if scorer.tree is not tree or scorer.lm is not lm or scorer.mode != mode:
        raise ConfigurationError("the scorer was built for another tree, model or mode")
    return scorer


def _run_frames(
    m: PosteriorMatrix,
    alphabet: Alphabet,
    width: int,
    scorer: TrieScorer,
    col: dict[str, int],
    word_starts: list,
    nonword_exts: list,
) -> Iterator[Mapping[str, Beam]]:
    # A candidate is a flat tuple ranked on (-score, text); a Beam is built
    # only for the ``width`` survivors and for the sets a caller reads. A
    # full ``sorted`` runs in C: up to about 300 candidates (the median
    # frame of a 50,000-word dictionary at width 25 has 266) it beats
    # ``heapq.nsmallest``, whose loop runs in Python.
    #
    # This stays bit-exact with a loop that builds and merges a Beam per
    # candidate. Survivor texts are distinct and every symbol is one
    # character, so extension texts are unique, and an extension can only
    # merge into the copy of the survivor with the same text. That copy's
    # p_nonblank is 0.0 plus at most two terms (its own repeat and the
    # extension), whose sum does not depend on their order. p_text and
    # committed come from the same memoised ``forecast``/``word_probability``
    # reads, and the word prefix is built only when the scorer needs it.
    blank = alphabet.blank_index
    rows = m.probs.tolist()
    uses_lm = scorer.mode.uses_lm
    uses_forecast = scorer.mode.uses_forecast
    forecast, word_probability = scorer.forecast, scorer.word_probability
    child_cache: dict[int, tuple] = {}

    def word_state_exts(node) -> tuple:
        # Children of the trie node, plus non-word characters once the
        # prefix is itself a complete word.
        exts = child_cache.get(id(node))
        if exts is None:
            children = [(c, col[c], node.children[c]) for c in sorted(node.children)]
            exts = child_cache[id(node)] = (children, nonword_exts if node.is_word else ())
        return exts

    nonword_state_exts = (word_starts, nonword_exts)
    survivors = [Beam("", "", 1.0)]
    cands = None
    for row in rows:
        if cands is not None:
            survivors = [_beam(c) for c in sorted(cands)[:width]]
        blank_p = row[blank]
        # Extensions of survivor ``text[:-1]`` by ``text[-1]`` merge into survivor ``text``.
        texts = {b.text for b in survivors}
        merges: dict[str, dict[str, int]] = {}
        for i, b in enumerate(survivors):
            if b.text and b.text[:-1] in texts:
                merges.setdefault(b.text[:-1], {})[b.text[-1]] = i
        copy_nb = [b.p_nonblank * row[b._last_col] if b.text else 0.0 for b in survivors]
        cands = []
        append = cands.append
        for b in survivors:
            text, prefix, pb, last = b.text, b.word_prefix, b.p_blank, b._last_col
            tot = pb + b.p_nonblank
            into = merges.get(text)
            word_exts, sep_exts = word_state_exts(b._node) if prefix else nonword_state_exts
            committed, p_text = b._committed, b.p_text
            for c, cidx, child in word_exts:
                mass = (pb if cidx == last else tot) * row[cidx]
                if into is not None and c in into:
                    copy_nb[into[c]] += mass
                    continue
                if uses_forecast:
                    p_text = committed * forecast(child, prefix + c)
                append((-(p_text * mass), text + c, b, c, cidx, child, p_text, committed, mass))
            if not sep_exts:
                continue
            if prefix and uses_lm:
                committed = p_text = committed * word_probability(b._node, prefix)
            else:
                p_text = b.p_text
            for c, cidx in sep_exts:
                mass = (pb if cidx == last else tot) * row[cidx]
                if into is not None and c in into:
                    copy_nb[into[c]] += mass
                    continue
                append((-(p_text * mass), text + c, b, c, cidx, None, p_text, committed, mass))
        for b, p_nonblank in zip(survivors, copy_nb):
            p_blank = (b.p_blank + b.p_nonblank) * blank_p
            append((-(b.p_text * (p_blank + p_nonblank)), b.text, b, None, p_blank, p_nonblank))
        yield _FrameSet(cands)


def _beam(cand: tuple) -> Beam:
    """The Beam of a candidate: a survivor's copy ``(-score, text, beam, None,
    p_blank, p_nonblank)`` or an extension ``(-score, text, parent, char,
    column, child, p_text, committed, mass)``."""
    if cand[3] is None:
        _, text, b, _, p_blank, p_nonblank = cand
        nb = Beam(text, b.word_prefix, p_blank, p_nonblank, b.p_text)
        nb._node, nb._committed, nb._last_col = b._node, b._committed, b._last_col
    else:
        _, text, parent, char, column, child, p_text, committed, mass = cand
        prefix = parent.word_prefix + char if child is not None else ""
        nb = Beam(text, prefix, 0.0, mass, p_text)
        nb._node, nb._committed, nb._last_col = child, committed, column
    return nb


class _FrameSet(Mapping):
    """Read-only text -> Beam view of one frame's candidates; its Beams are
    built on first access, and ``len`` needs none."""

    __slots__ = ("_cands", "_beams")

    def __init__(self, cands: list) -> None:
        self._cands = cands
        self._beams: BeamSet | None = None

    def _built(self) -> BeamSet:
        if self._beams is None:
            self._beams = {c[1]: _beam(c) for c in self._cands}
        return self._beams

    def __len__(self) -> int:
        return len(self._cands)

    def __getitem__(self, text: str) -> Beam:
        return self._built()[text]

    def __iter__(self) -> Iterator[str]:
        return iter(self._built())

    def values(self):
        return self._built().values()


def complete_beams(
    beams: Mapping[str, Beam] | Iterable[Beam],
    tree: PrefixTree,
    lm: NgramModel | None = None,
    mode: ScoringMode = WORDS,
    scorer: TrieScorer | None = None,
) -> BeamSet:
    """Extend beams ending in an incomplete prefix to their best completion.

    Posterior mass is never consumed: a completed beam keeps its
    ``p_blank``/``p_nonblank``. Beams already ending in a complete word
    or in non-word state are unchanged. When a completion collides with
    an existing beam text, the masses are summed and the first beam's
    language-model score (in text order) is kept. In the forecast modes a
    completion scores the beam's committed score (its finished words'; a
    hand-built beam's ``p_text``) times the remainder probability.
    """
    scorer = _scorer_for(tree, lm, mode, scorer)
    items = beams.values() if isinstance(beams, Mapping) else beams
    out: BeamSet = {}
    for b in sorted(items, key=lambda x: x.text):
        text, word_prefix, p_text = b.text, b.word_prefix, b.p_text
        node = b._node or tree._find(word_prefix)  # a hand-built beam carries no node
        if word_prefix and node is None:
            raise InputValidationError(f"beam prefix {word_prefix!r} is dead in the dictionary")
        if word_prefix and not node.is_word:
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
