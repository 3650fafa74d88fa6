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
import random
from dataclasses import dataclass, replace

from .coding import encode_label
from .ctc import Alphabet, PosteriorMatrix
from .errors import InputValidationError


@dataclass(frozen=True)
class RecognizerSim:
    """Seeded stand-in for a trained recognizer.

    ``separator_noise_factor`` scales the noise on separator-peaked
    frames: the separator models the end-of-word region (pen lift,
    trailing whitespace), which a recognizer detects far more reliably
    than any glyph.
    """

    alphabet: Alphabet
    frames_per_char: int = 4
    noise_level: float = 0.0
    confusion_spread: float = 1.0
    seed: int = 0
    separator_noise_factor: float = 0.35

    def __post_init__(self) -> None:
        if self.frames_per_char < 1:
            raise InputValidationError("frames_per_char must be at least 1")
        if not 0.0 <= self.noise_level <= 1.0:
            raise InputValidationError("noise_level must lie in [0, 1]")
        if not (math.isfinite(self.confusion_spread) and self.confusion_spread >= 0.0):
            raise InputValidationError("confusion_spread must be non-negative and finite")
        if not 0.0 <= self.separator_noise_factor <= 1.0:
            raise InputValidationError("separator_noise_factor must lie in [0, 1]")

    def emit(self, word: str) -> PosteriorMatrix:
        """Noisy posterior matrix for ``word``, coded by this recognizer's alphabet."""
        label = encode_label(word, self.alphabet)
        if not label:
            raise InputValidationError("cannot emit a matrix for an empty label")
        col = self.alphabet.column_map()
        targets: list[int] = []
        for ch in label:
            if ch not in col:
                raise InputValidationError(
                    f"label character {ch!r} is not in the recognizer alphabet"
                )
            targets.append(col[ch])
        rng = random.Random(f"emit|{self.seed}|{label}")
        blank = self.alphabet.blank_index
        c_max = self.alphabet.num_classes
        sep_col = None
        if self.alphabet.separator is not None:
            sep_col = col[self.alphabet.separator]
        rows: list[list[float]] = []
        for i, target in enumerate(targets):
            if i:
                rows.append(self._row(rng, c_max, blank, self.noise_level, sep_col))
            noise = self.noise_level
            if target == sep_col:
                noise = noise * self.separator_noise_factor
            for _ in range(self.frames_per_char):
                rows.append(self._row(rng, c_max, target, noise, sep_col))
        return PosteriorMatrix(rows)

    def _row(
        self,
        rng: random.Random,
        c_max: int,
        target: int,
        noise: float,
        sep_col: int | None,
    ) -> list[float]:
        if noise == 0.0:
            row = [0.0] * c_max
            row[target] = 1.0
            return row
        # Exponential tail on the dip lets the peak occasionally lose the
        # argmax, which is where recognition errors come from.
        peak = 1.0 - noise * rng.expovariate(1.0)
        if peak < 0.02:
            peak = 0.02
        leak = 1.0 - peak
        share = self.confusion_spread / (self.confusion_spread + 1.0)
        # The noise models glyph confusability; the separator stands in for
        # the reliably detected end-of-word region, so frames for other
        # classes leak no mass onto it.
        excluded = {target}
        if sep_col is not None and target != sep_col:
            excluded.add(sep_col)
        j = target
        while j in excluded:
            j = rng.randrange(c_max)
        weights = [rng.random() for _ in range(c_max)]
        for idx in excluded:
            weights[idx] = 0.0
        wsum = sum(weights)
        if wsum == 0.0:
            weights = [float(i not in excluded) for i in range(c_max)]
            wsum = float(sum(weights))
        diffuse = leak * (1.0 - share)
        row = [diffuse * w / wsum for w in weights]
        row[j] += leak * share
        row[target] += peak
        total = sum(row)
        return [v / total for v in row]


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
