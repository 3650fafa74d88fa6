"""Desk-scale decoder and ensemble trend experiment on synthetic data.

For a handful of fixed seeds this builds a random dictionary, samples a
ground-truth word list, derives an ensemble of simulated recognizers
and measures word accuracy for best-path versus dictionary-constrained
decoding, plain versus extra-separator coding, and growing ensemble
sizes under plurality voting. Everything is seeded, so reports are
byte-identical across runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from .coding import PLAIN, decode_label, extra_separator, augment_alphabet
from .ctc import Alphabet, best_path_decode
from .decoder import decode
from .ensemble import Hypothesis, vote
from .errors import InputValidationError
from .evaluation import word_accuracy
from .prefix_tree import PrefixTree
from .synth import RecognizerSim, make_ensemble


@dataclass(frozen=True)
class TrendConfig:
    seed: int = 7
    n_seeds: int = 5
    n_words: int = 1000
    members: int = 10
    member_counts: tuple[int, ...] = (1, 3, 5, 10)
    dictionary_size: int = 240
    min_word_length: int = 3
    max_word_length: int = 6
    alphabet_characters: str = "abcdefghij"
    separator: str = "|"
    noise_level: float = 0.37
    confusion_spread: float = 1.5
    jitter: float = 0.05
    frames_per_char: int = 3
    width: int = 8

    def __post_init__(self) -> None:
        if self.n_seeds < 1 or self.n_words < 1 or self.members < 1:
            raise InputValidationError("n_seeds, n_words and members must be positive")
        if max(self.member_counts) > self.members:
            raise InputValidationError("member_counts may not exceed members")
        if not 1 <= self.min_word_length <= self.max_word_length:
            raise InputValidationError("bad word length range")


@dataclass
class SeedOutcome:
    seed: int
    ensemble_accuracy: dict[int, float]  # member count -> voted accuracy (extra separator)
    wbs_plain: float
    wbs_extrasep: float
    bestpath_plain: float
    bestpath_extrasep: float


@dataclass
class TrendReport:
    config: TrendConfig
    outcomes: list[SeedOutcome] = field(default_factory=list)

    def mean_ensemble(self, count: int) -> float:
        return sum(o.ensemble_accuracy[count] for o in self.outcomes) / len(self.outcomes)

    def mean(self, attr: str) -> float:
        return sum(getattr(o, attr) for o in self.outcomes) / len(self.outcomes)

    def gain(self, small: int, large: int) -> float:
        return self.mean_ensemble(large) - self.mean_ensemble(small)

    def format(self) -> str:
        cfg = self.config
        counts = cfg.member_counts
        lines = [
            "synthetic decoder and ensemble trend report",
            (
                f"config: seed={cfg.seed} seeds={cfg.n_seeds} words={cfg.n_words} "
                f"members={cfg.members} dict={cfg.dictionary_size} "
                f"alphabet={cfg.alphabet_characters} sep={cfg.separator} "
                f"noise={cfg.noise_level:.2f} spread={cfg.confusion_spread:.2f} "
                f"jitter={cfg.jitter:.2f} fpc={cfg.frames_per_char} width={cfg.width}"
            ),
            "",
            "word accuracy (%) by ensemble size (extra separator, dictionary decoding):",
            "seed      " + "".join(f"n={c:<7}" for c in counts),
        ]
        for o in self.outcomes:
            row = f"{o.seed:<9} " + "".join(f"{o.ensemble_accuracy[c]:<9.2f}" for c in counts)
            lines.append(row.rstrip())
        lines.append(
            ("mean      " + "".join(f"{self.mean_ensemble(c):<9.2f}" for c in counts)).rstrip()
        )
        lines += [
            "",
            "single-recognizer word accuracy (%), mean over seeds:",
            "scheme      best-path   word-beam",
            f"plain       {self.mean('bestpath_plain'):<12.2f}{self.mean('wbs_plain'):.2f}",
            f"extra-sep   {self.mean('bestpath_extrasep'):<12.2f}{self.mean('wbs_extrasep'):.2f}",
            "",
        ]
        if 1 in counts and 5 in counts and 10 in counts:
            lines.append(
                f"ensemble gains: 1->5 = {self.gain(1, 5):+.2f} pp, "
                f"5->10 = {self.gain(5, 10):+.2f} pp"
            )
        return "\n".join(lines) + "\n"


def _make_dictionary(rng: random.Random, cfg: TrendConfig) -> list[str]:
    words: set[str] = set()
    chars = cfg.alphabet_characters
    target = cfg.dictionary_size
    while len(words) < target:
        length = rng.randint(cfg.min_word_length, cfg.max_word_length)
        words.add("".join(rng.choice(chars) for _ in range(length)))
    return sorted(words)


def run_trend_experiment(config: TrendConfig = TrendConfig()) -> TrendReport:
    cfg = config
    base_alphabet = Alphabet(cfg.alphabet_characters)
    scheme_x = extra_separator(cfg.separator)
    aug_alphabet = augment_alphabet(base_alphabet, scheme_x)
    report = TrendReport(config=cfg)
    for k in range(cfg.n_seeds):
        seed = cfg.seed + 1000 * k
        rng = random.Random(f"trend|{seed}")
        dictionary = _make_dictionary(rng, cfg)
        gt = [rng.choice(dictionary) for _ in range(cfg.n_words)]
        word_chars = set(cfg.alphabet_characters)
        tree_plain = PrefixTree(dictionary, word_chars)
        tree_x = PrefixTree(dictionary, word_chars, {cfg.separator})
        base = RecognizerSim(
            alphabet=base_alphabet,
            frames_per_char=cfg.frames_per_char,
            noise_level=cfg.noise_level,
            confusion_spread=cfg.confusion_spread,
            seed=seed,
        )
        members = make_ensemble(base, cfg.members, jitter=cfg.jitter)

        # Extra-separator lane: every member decodes the full word list.
        hyps: list[list[Hypothesis]] = []
        bp_x_preds: list[str] = []
        for idx, sim in enumerate(members):
            sim_x = replace(sim, alphabet=aug_alphabet)
            member_hyps: list[Hypothesis] = []
            for word in gt:
                matrix = sim_x.emit(word, scheme_x)
                text, likelihood = decode(matrix, aug_alphabet, tree_x, width=cfg.width)
                member_hyps.append(Hypothesis(decode_label(text, scheme_x).text, likelihood))
                if idx == 0:
                    bp_text, _ = best_path_decode(matrix, aug_alphabet)
                    bp_x_preds.append(decode_label(bp_text, scheme_x).text)
            hyps.append(member_hyps)

        ensemble_accuracy: dict[int, float] = {}
        for count in cfg.member_counts:
            voted = [
                vote([hyps[j][i] for j in range(count)]).text for i in range(cfg.n_words)
            ]
            ensemble_accuracy[count] = word_accuracy(voted, gt)

        # Plain lane: member 0 only, for the scheme and decoder grid.
        wbs_plain_preds: list[str] = []
        bp_plain_preds: list[str] = []
        sim_p = members[0]
        for word in gt:
            matrix = sim_p.emit(word, PLAIN)
            text, _ = decode(matrix, base_alphabet, tree_plain, width=cfg.width)
            wbs_plain_preds.append(text)
            bp_text, _ = best_path_decode(matrix, base_alphabet)
            bp_plain_preds.append(bp_text)

        report.outcomes.append(
            SeedOutcome(
                seed=seed,
                ensemble_accuracy=ensemble_accuracy,
                wbs_plain=word_accuracy(wbs_plain_preds, gt),
                wbs_extrasep=word_accuracy([h.text for h in hyps[0]], gt),
                bestpath_plain=word_accuracy(bp_plain_preds, gt),
                bestpath_extrasep=word_accuracy(bp_x_preds, gt),
            )
        )
    return report
