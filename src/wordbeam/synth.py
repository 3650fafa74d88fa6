"""Seeded synthetic recognizers that turn words into noisy posteriors.

A simulated recognizer emits, for each label character, a run of frames
peaked on that character's column, with single blank transition frames
between characters (so repeated letters survive the CTC collapse). The
peak keeps ``1 - noise_level`` of the mass in expectation; the leak is
split between one concentrated confusion column and a jittered spread
over the rest, all drawn from a generator seeded by (seed, label) so a
matrix is a pure function of those two values.
"""

from __future__ import annotations

import math
import numbers
import random
import sys
from array import array
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coding import encode_label
from .ctc import Alphabet, PosteriorMatrix, posterior_matrices
from .errors import InputValidationError


# Scales the noise on separator-peaked frames: the separator models the
# end-of-word region (pen lift, trailing whitespace), which a recognizer
# detects far more reliably than any glyph.
SEPARATOR_NOISE_FACTOR = 0.35

# The most jobs ``emit_many`` emits at a time: emission holds about 18 KiB
# of temporaries a job, more than the word beam search holds a decode.
EMIT_JOBS = 50


@dataclass(frozen=True)
class RecognizerSim:
    """Seeded stand-in for a trained recognizer."""

    alphabet: Alphabet
    frames_per_char: int = 4
    noise_level: float = 0.0
    confusion_spread: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.frames_per_char, numbers.Integral):
            raise InputValidationError("frames_per_char must be an integer")
        if self.frames_per_char < 1:
            raise InputValidationError("frames_per_char must be at least 1")
        if not 0.0 <= self.noise_level <= 1.0:
            raise InputValidationError("noise_level must lie in [0, 1]")
        if not (math.isfinite(self.confusion_spread) and self.confusion_spread >= 0.0):
            raise InputValidationError("confusion_spread must be non-negative and finite")

    def emit(self, word: str) -> PosteriorMatrix:
        """Noisy posterior matrix for ``word``, coded by this recognizer's alphabet."""
        return emit_many([(self, word)])[0]


def emit_many(pairs: Sequence[tuple[RecognizerSim, str]]) -> list[PosteriorMatrix]:
    """``[sim.emit(word) for sim, word in pairs]``, emitted in batches of at
    most ``EMIT_JOBS`` jobs.

    Each job draws from its own generator, seeded by (seed, label), and
    every draw is a 32-bit Mersenne Twister word, so a job's stream is
    read as one array of words. A noisy row takes two words for its
    exponential dip, one per ``randrange`` try for the confusion column
    (the top ``c.bit_length()`` bits, until a column that is not excluded
    comes up) and two per column for the weights; a noiseless row takes
    none. A short scan per job finds where each row's tries end; the row
    arithmetic then runs over all noisy rows of the batch at once, with
    the float operations of a row built one value at a time: sums left to
    right (as ``sum`` adds up to Python 3.11) and ``math.log``.
    """
    plans = [(sim, *_plan(sim, word)) for sim, word in pairs]
    matrices: list[PosteriorMatrix] = [None] * len(plans)  # type: ignore[list-item]
    by_width: dict[int, list[int]] = {}
    for i, (sim, *_) in enumerate(plans):
        by_width.setdefault(sim.alphabet.num_classes, []).append(i)
    for c_max, group in by_width.items():
        for at in range(0, len(group), EMIT_JOBS):
            part = group[at:at + EMIT_JOBS]
            for i, matrix in zip(part, _emit_width([plans[i] for i in part], c_max)):
                matrices[i] = matrix
    return matrices


def _plan(sim: RecognizerSim, word: str) -> tuple[str, list[tuple[int, float, int]], int]:
    """The job's label, its rows as runs of (target column, noise, rows) and
    its alphabet's separator column (-1 for none)."""
    alphabet = sim.alphabet
    label = encode_label(word, alphabet)
    if not label:
        raise InputValidationError("cannot emit a matrix for an empty label")
    col = alphabet.column_map()
    sep_col = col.get(alphabet.separator, -1)
    runs: list[tuple[int, float, int]] = []
    for ch in label:
        if ch not in col:
            raise InputValidationError(
                f"label character {ch!r} is not in the recognizer alphabet"
            )
        target = col[ch]
        if runs:  # one blank transition frame between characters
            runs.append((alphabet.blank_index, sim.noise_level, 1))
        noise = sim.noise_level
        if target == sep_col:
            noise = noise * SEPARATOR_NOISE_FACTOR
        runs.append((target, noise, sim.frames_per_char))
    return label, runs, sep_col


def _draw(rng: random.Random, n: int) -> bytes:
    """The generator's next ``n`` 32-bit words, little-endian, first word first."""
    return rng.getrandbits(32 * n).to_bytes(4 * n, "little")


@lru_cache(maxsize=None)
def _rejects(c_max: int, sep_col: int) -> tuple[tuple[bool, ...], ...]:
    """Per target column, whether each value of a confusion-column try is
    rejected: out of range, the target, or the separator (-1 for none)."""
    values = range(1 << c_max.bit_length())
    # The noise models glyph confusability; the separator stands in for
    # the reliably detected end-of-word region, so frames for other
    # classes leak no mass onto it.
    return tuple(tuple(v >= c_max or v == t or v == sep_col for v in values)
                 for t in range(c_max))


def _scan(words: array, runs: list[tuple[int, float, int]], rejects: tuple[tuple[bool, ...], ...],
          c_max: int, base: int, accepted: list[int]) -> int:
    """Append the word offset (plus ``base``) of each noisy row's accepted
    confusion-column try; return the number of words the job reads."""
    shift = 32 - c_max.bit_length()
    step = 2 * c_max + 1  # past the accepted try and the row's weights
    p = 0
    for target, noise, count in runs:
        if noise == 0.0:
            continue
        reject = rejects[target]
        for _ in range(count):
            p += 2  # the exponential dip
            while reject[words[p] >> shift]:
                p += 1
            accepted.append(base + p)
            p += step
    return p


def _stream(sim: RecognizerSim, label: str, runs: list[tuple[int, float, int]], c_max: int,
            sep_col: int, base: int, accepted: list[int]) -> bytes:
    """The job's words, as many as its rows read or more; appends the offset
    (plus ``base``) of each noisy row's accepted confusion-column try."""
    noisy = sum(count for _, noise, count in runs if noise != 0.0)
    if not noisy:
        return b""
    rng = random.Random(f"emit|{sim.seed}|{label}")
    n = noisy * (2 * c_max + 6)
    buf = _draw(rng, n)
    mark = len(accepted)
    while True:
        words = array("I", buf)
        if sys.byteorder == "big":
            words.byteswap()
        try:
            if _scan(words, runs, _rejects(c_max, sep_col), c_max, base, accepted) <= len(words):
                return buf
        except IndexError:
            pass
        # The tries ran past the words drawn: draw more and scan again.
        del accepted[mark:]
        buf += _draw(rng, n)


def _emit_width(plans: list, c_max: int) -> list[PosteriorMatrix]:
    """The matrices of jobs whose alphabets all have ``c_max`` columns."""
    bufs: list[bytes] = []
    accepted: list[int] = []
    first_row: list[int] = []  # per job with noisy rows: its first one's index in accepted
    first_word: list[int] = []  # ... and the offset of its first word
    all_runs: list[tuple[int, float, int]] = []
    job_rows: list[int] = []
    shares: list[float] = []
    seps: list[int] = []
    base = 0
    for sim, label, runs, sep_col in plans:
        mark = len(accepted)
        bufs.append(_stream(sim, label, runs, c_max, sep_col, base, accepted))
        if len(accepted) > mark:
            first_row.append(mark)
            first_word.append(base)
        base += len(bufs[-1]) // 4
        all_runs += runs
        job_rows.append(sum(count for _, _, count in runs))
        shares.append(sim.confusion_spread / (sim.confusion_spread + 1.0))
        seps.append(sep_col)

    run_target, run_noise, run_count = zip(*all_runs)
    target = np.repeat(run_target, run_count)
    noise = np.repeat(run_noise, run_count)
    out = np.zeros((len(target), c_max))
    quiet = np.flatnonzero(noise == 0.0)
    out[quiet, target[quiet]] = 1.0
    if accepted:
        rows = np.flatnonzero(noise != 0.0)
        words = np.frombuffer(b"".join(bufs), "<u4")
        at = np.array(accepted)
        dip = np.empty_like(at)  # a row's dip words follow the weights of the row before
        dip[1:] = at[:-1] + 2 * c_max + 1
        dip[first_row] = first_word
        logs = map(math.log, (1.0 - _uniform(words[dip], words[dip + 1])).tolist())
        drawn = sliding_window_view(words, 2 * c_max)[at + 1]
        out[rows] = _noisy_rows(
            -np.fromiter(logs, float, len(at)), words[at] >> (32 - c_max.bit_length()),
            _uniform(drawn[:, 0::2], drawn[:, 1::2]), target[rows],
            np.repeat(seps, job_rows)[rows], noise[rows], np.repeat(shares, job_rows)[rows],
        )
    return posterior_matrices(out, job_rows)


def _uniform(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``random()`` of the word pairs (``a``, ``b``), as CPython computes it."""
    return ((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0)


def _noisy_rows(
    expo: np.ndarray, confusion: np.ndarray, weights: np.ndarray, target: np.ndarray,
    sep_col: np.ndarray, noise: np.ndarray, share: np.ndarray,
) -> np.ndarray:
    """Noisy rows from their draws: each row's exponential variate, confusion
    column and raw weights (overwritten), its target, its alphabet's
    separator column (-1 for none), its noise and its confusion share."""
    # Exponential tail on the dip lets the peak occasionally lose the
    # argmax, which is where recognition errors come from.
    peak = 1.0 - noise * expo
    peak[peak < 0.02] = 0.02
    leak = 1.0 - peak
    _exclude(weights, target, sep_col)
    wsum = _row_sums(weights)
    zero = wsum == 0.0
    if zero.any():  # every allowed weight drew 0.0: spread the leak evenly
        weights[zero] = 1.0
        _exclude(weights, target, sep_col)
        wsum = _row_sums(weights)
    row = (leak * (1.0 - share))[:, None] * weights / wsum[:, None]
    r = np.arange(len(target))
    row[r, confusion] += leak * share
    row[r, target] += peak
    return row / _row_sums(row)[:, None]


def _exclude(weights: np.ndarray, target: np.ndarray, sep_col: np.ndarray) -> None:
    """Zero each row's target and separator column (-1 for none)."""
    r = np.arange(len(target))
    weights[r, target] = 0.0
    has_sep = sep_col >= 0
    weights[r[has_sep], sep_col[has_sep]] = 0.0


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Each row's sum, added left to right as ``sum`` adds a list up to Python 3.11."""
    total = x[:, 0].copy()
    for column in x.T[1:]:
        total += column
    return total


def make_ensemble(base: RecognizerSim, n: int, jitter: float = 0.05) -> list[RecognizerSim]:
    """Derive ``n`` recognizers with distinct seeds and jittered noise levels."""
    if n < 1:
        raise InputValidationError("ensemble size must be at least 1")
    if not (math.isfinite(jitter) and jitter >= 0.0):
        raise InputValidationError("jitter must be non-negative and finite")
    rng = random.Random(f"ensemble|{base.seed}")
    sims: list[RecognizerSim] = []
    seen: set[int] = set()
    for _ in range(n):
        seed = rng.getrandbits(48)
        while seed in seen:
            seed = rng.getrandbits(48)
        seen.add(seed)
        noise = base.noise_level + rng.uniform(-jitter, jitter)
        noise = min(1.0, max(0.0, noise))
        sims.append(replace(base, seed=seed, noise_level=noise))
    return sims
