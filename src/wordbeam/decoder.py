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
"""

from __future__ import annotations

from typing import Iterable, Iterator

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
    beams: BeamSet = {}
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
) -> Iterator[BeamSet]:
    """Yield the merged beam set after each frame.

    Exposed for instrumentation (mass bookkeeping can be audited frame
    by frame); ``decode`` drives it to the end and then completes the
    surviving beams.
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
) -> Iterator[BeamSet]:
    blank = alphabet.blank_index
    rows = m.probs.tolist()
    kind = scorer.mode.kind
    uses_forecast = scorer.mode.uses_forecast
    child_cache: dict[int, list] = {}

    def word_state_exts(node) -> list:
        # Children of the trie node, plus non-word characters once the
        # prefix is itself a complete word.
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
    beams: BeamSet = {"": init}
    for row in rows:
        ranked = sorted(beams.values(), key=_rank_key)[:width]
        nxt: BeamSet = {}
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


def complete_beams(
    beams: BeamSet | Iterable[Beam],
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
    items = beams.values() if isinstance(beams, dict) else beams
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
