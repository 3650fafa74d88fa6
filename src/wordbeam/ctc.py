"""Alphabets, posterior matrices and baseline CTC decoding.

Probabilities are kept in the linear domain in double precision, which
keeps the bookkeeping transparent but underflows on long inputs: the
benchmark's 24-word ``long-lines`` line (about 1,000 frames) scores
exactly 0.0 in ``ngrams`` mode at most seeds. Rescaled or log-domain
scores are an open item.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import InputValidationError

ROW_SUM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Alphabet:
    """Ordered character inventory plus the implicit trailing blank.

    Columns are laid out as the base characters in order, then the
    optional separator, then the blank in the last column.
    """

    characters: str
    separator: str | None = None

    def __post_init__(self) -> None:
        if len(set(self.characters)) != len(self.characters):
            raise InputValidationError("alphabet characters must be pairwise distinct")
        if self.separator is not None:
            if len(self.separator) != 1:
                raise InputValidationError("separator must be a single character")
            if self.separator in self.characters:
                raise InputValidationError(
                    f"separator {self.separator!r} collides with the alphabet"
                )

    # The derived values below are computed on first read and kept in the
    # instance dict, which equality, hashing and repr do not read;
    # ``__getstate__`` leaves them out of a pickle too.

    @cached_property
    def symbols(self) -> str:
        """All non-blank symbols in column order."""
        return self.characters + (self.separator or "")

    @cached_property
    def num_classes(self) -> int:
        return len(self.symbols) + 1

    @cached_property
    def blank_index(self) -> int:
        return self.num_classes - 1

    @cached_property
    def _columns(self) -> Mapping[str, int]:
        return MappingProxyType({c: i for i, c in enumerate(self.symbols)})

    def column_map(self) -> Mapping[str, int]:
        """Each symbol's column, read-only; one mapping per alphabet."""
        return self._columns

    def __getstate__(self) -> dict:
        return {"characters": self.characters, "separator": self.separator}


class PosteriorMatrix:
    """T x C row-stochastic matrix of per-frame class probabilities.

    Rows that do not sum to 1 within ``ROW_SUM_TOLERANCE`` are rejected
    rather than renormalized, so producer bugs surface immediately. A
    non-finite or negative value, or a bad row sum, raises an error whose
    ``row`` is the first faulty row (0-based); the checks run in that order.
    """

    __slots__ = ("probs",)

    def __init__(self, probs) -> None:
        arr = np.array(probs, dtype=np.float64)
        if arr.ndim != 2:
            raise InputValidationError("posterior matrix must be two-dimensional")
        t, c = arr.shape
        if t < 1 or c < 2:
            raise InputValidationError(f"posterior matrix needs T >= 1 and C >= 2, got {t}x{c}")
        finite = np.isfinite(arr)
        if not finite.all():
            raise _row_fault(finite.all(axis=1).argmin(),
                             "posterior matrix contains non-finite entries")
        negative = arr < 0.0
        if negative.any():
            raise _row_fault(negative.any(axis=1).argmax(),
                             "posterior matrix contains negative entries")
        sums = arr.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOLERANCE)
        if bad.size:
            raise _row_fault(bad[0], f"row {bad[0]} sums to {float(sums[bad[0]])!r}; "
                                     "matrices are rejected, not renormalized")
        arr.setflags(write=False)
        self.probs = arr

    @property
    def num_frames(self) -> int:
        return self.probs.shape[0]

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]

    def __repr__(self) -> str:
        return f"PosteriorMatrix({self.num_frames}x{self.num_classes})"


def posterior_matrices(stack: np.ndarray, frames: Sequence[int]) -> list[PosteriorMatrix]:
    """``PosteriorMatrix`` of each block of rows of ``stack``, a float64
    array: the first ``frames[0]`` rows, then the next ``frames[1]``, and
    so on, ``sum(frames)`` rows in all.

    The stack is checked once: its least value is not negative and every
    row sums to 1 within ``ROW_SUM_TOLERANCE``, which no row with a
    non-finite value does. The matrices are then read-only views of it,
    not checked again. When that check fails, the blocks are made one by
    one, so the first faulty block raises the error ``PosteriorMatrix``
    raises for it.
    """
    if (stack.ndim == 2 and stack.shape[1] >= 2 and min(frames, default=0) >= 1
            and stack.min() >= 0.0 and _sums_to_one(stack)):
        stack.setflags(write=False)
        make = _view
    else:
        make = PosteriorMatrix
    ends = np.cumsum(frames).tolist()
    return [make(stack[end - t:end]) for end, t in zip(ends, frames)]


def _sums_to_one(stack: np.ndarray) -> bool:
    """Whether every row sums to 1 within ``ROW_SUM_TOLERANCE``; a sum that
    overflows fails quietly, as the block it lies in reports it."""
    with np.errstate(over="ignore"):
        sums = stack.sum(axis=1)
    return bool((np.abs(sums - 1.0) <= ROW_SUM_TOLERANCE).all())


def _view(probs: np.ndarray) -> PosteriorMatrix:
    """A matrix over ``probs`` as it is, which the caller has checked."""
    m = object.__new__(PosteriorMatrix)
    m.probs = probs
    return m


def _row_fault(row, message: str) -> InputValidationError:
    """The error of a faulty value row; ``row`` (0-based) lets a matrix file name its line."""
    exc = InputValidationError(message)
    exc.row = int(row)
    return exc


def best_path_decode(m: PosteriorMatrix, alphabet: Alphabet) -> tuple[str, float]:
    """Greedy CTC decoding of one matrix: ``best_path_batch([m], alphabet)[0]``."""
    return best_path_batch([m], alphabet)[0]


def best_path_batch(matrices: Sequence[PosteriorMatrix],
                    alphabet: Alphabet) -> list[tuple[str, float]]:
    """Greedy CTC decoding of each matrix: its per-frame argmax path, with
    adjacent repeats merged and then blanks removed, and that path's
    likelihood, from one ``argmax`` and one ``max`` over the matrices'
    stacked rows.

    Each frame takes its first maximal column. A frame adds its column's
    symbol to its matrix's labeling when that is not the blank and the
    frame is its matrix's first or differs from the frame before it. Each
    likelihood is the product of its rows' maxima, multiplied in frame
    order starting from 1.0, so it is bit-identical to a running product
    over the rows.
    """
    if not matrices:
        return []
    for m in matrices:
        _check_shape(m, alphabet)
    probs = np.concatenate([m.probs for m in matrices]) if len(matrices) > 1 else matrices[0].probs
    ends = np.cumsum([m.num_frames for m in matrices])
    path = probs.argmax(axis=1)
    emits = np.empty(len(path), bool)
    emits[0] = True
    np.not_equal(path[1:], path[:-1], out=emits[1:])
    emits[ends[:-1]] = True  # each matrix's first frame
    emits &= path != alphabet.blank_index
    codes = np.frombuffer(alphabet.symbols.encode("utf-32-le", "surrogatepass"), np.uint32)
    text = codes[path[emits]].tobytes().decode("utf-32-le", "surrogatepass")
    cuts = [0, *np.cumsum(emits)[ends - 1].tolist()]  # where the labelings end in ``text``
    rows = [0, *ends.tolist()]
    peaks = probs.max(axis=1).tolist()
    return [(text[cuts[i]:cuts[i + 1]], math.prod(peaks[rows[i]:rows[i + 1]]))
            for i in range(len(matrices))]


def _check_shape(m: PosteriorMatrix, alphabet: Alphabet) -> None:
    if m.num_classes != alphabet.num_classes:
        raise InputValidationError(
            f"matrix has {m.num_classes} classes but the alphabet implies "
            f"{alphabet.num_classes}"
        )
