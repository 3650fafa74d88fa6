"""Desk-scale decoder and ensemble trend experiment on synthetic data.

For a handful of fixed seeds this builds a random dictionary, samples a
ground-truth word list, derives an ensemble of simulated recognizers
and measures word accuracy for best-path versus dictionary-constrained
decoding, plain versus extra-separator coding, and growing ensemble
sizes under plurality voting. The two coding lanes differ only in the
recognizer's alphabet; they share one tree per seed. Each distinct
(member, word) of a lane is emitted and decoded once, shortest word
first, in batches of at most ``BATCH_DECODES`` jobs: one batched emission
(``synth.emit_many``) and one word beam search call
(``decoder.decode_batch``) each. Everything is seeded, so reports are
byte-identical across runs. The experiment's design is module constants,
printed in the report's config line; a run's settings are ``TrendConfig``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import islice

from . import fanout
from .coding import decode_label
from .ctc import Alphabet, best_path_batch
from .decoder import decode_batch
from .ensemble import Hypothesis, vote
from .errors import InputValidationError
from .evaluation import word_accuracy
from .prefix_tree import PrefixTree
from .synth import RecognizerSim, emit_many, make_ensemble


# The experiment's design: each seed's dictionary and its recognizers.
DICTIONARY_SIZE = 240
MIN_WORD_LENGTH = 3
MAX_WORD_LENGTH = 6
ALPHABET_CHARACTERS = "abcdefghij"
SEPARATOR = "|"
CONFUSION_SPREAD = 1.5
JITTER = 0.05
FRAMES_PER_CHAR = 3


@dataclass(frozen=True)
class TrendConfig:
    seed: int = 7
    n_seeds: int = 5
    n_words: int = 1000
    members: int = 10
    noise_level: float = 0.37
    width: int = 8

    def __post_init__(self) -> None:
        if self.n_seeds < 1 or self.n_words < 1 or self.members < 1:
            raise InputValidationError("n_seeds, n_words and members must be positive")

    @property
    def member_counts(self) -> tuple[int, ...]:
        """The ensemble sizes the report compares: 1, 3, 5 and 10 below
        ``members``, then ``members``."""
        return tuple(c for c in (1, 3, 5, 10) if c < self.members) + (self.members,)


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
                f"members={cfg.members} dict={DICTIONARY_SIZE} "
                f"alphabet={ALPHABET_CHARACTERS} sep={SEPARATOR} "
                f"noise={cfg.noise_level:.2f} spread={CONFUSION_SPREAD:.2f} "
                f"jitter={JITTER:.2f} fpc={FRAMES_PER_CHAR} width={cfg.width}"
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


# The benchmark's set-up clock stops at the first call of ``best_path_decode``
# as this module looks it up, the best path of a lane's lone first matrix.
best_path_decode = best_path_batch


def _make_dictionary(rng: random.Random) -> list[str]:
    words: set[str] = set()
    while len(words) < DICTIONARY_SIZE:
        length = rng.randint(MIN_WORD_LENGTH, MAX_WORD_LENGTH)
        words.add("".join(rng.choice(ALPHABET_CHARACTERS) for _ in range(length)))
    return sorted(words)


# The most decodes one batched search holds: a batch's matrices, arrays and
# texts grow with it, and the gain levels off. The search holds about
# 13 KiB per decode; emission bounds its own temporaries
# (``synth.EMIT_JOBS``). On a 2-vCPU VM one default seed (2,360
# extra-separator decodes) peaks at 35.7 MiB with batches of 150, 34.7 MiB
# with 100, 39.0 MiB with 300 and 65.4 MiB as one batch, which took 0.46 s
# of CPU time against 0.50 s with batches of 150 (medians of eight runs).
BATCH_DECODES = 150


def _decode_lane(
    members: list[RecognizerSim], alphabet: Alphabet, tree: PrefixTree, words: list[str],
    width: int,
) -> tuple[list[list[Hypothesis]], list[str]]:
    """Word-beam hypotheses of each of ``members``, coding with ``alphabet``,
    for ``words``, in list order, and the first member's best-path texts.

    The calls are pure and the list repeats words, so each distinct (member,
    word) is emitted and decoded once. A word's frame count follows from its
    length alone, so the jobs go shortest word first, each word by every
    member: a batch spans one or two lengths, its search runs to its own
    longest matrix, and its decodes end on few distinct frames. A batch of
    at most ``BATCH_DECODES`` jobs is emitted when it is next, by one
    ``emit_many`` call, and decoded by one ``decode_batch`` call, after one
    ``best_path_batch`` call for the first member's matrices; each
    hypothesis is filed under its (member, word). The lane's first matrix
    is emitted alone, by ``RecognizerSim.emit``, and its best path taken
    before any other job or recognizer copy is made, so the first matrix
    comes before any other work of the lane.
    """
    jobs = ((k, word) for word in sorted(dict.fromkeys(words), key=len)
            for k in range(len(members)))
    best_path: dict[str, str] = {}
    found: dict[tuple[int, str], Hypothesis] = {}

    def take_best_paths(part: list[tuple[int, str]], matrices: list) -> None:
        firsts = [(word, matrix) for (k, word), matrix in zip(part, matrices) if not k]
        if firsts:
            paths = best_path_decode([matrix for _, matrix in firsts], alphabet)
            for (word, _), (text, _) in zip(firsts, paths):
                best_path[word] = decode_label(text, alphabet)

    batch = list(islice(jobs, 1))
    matrices = [replace(members[k], alphabet=alphabet).emit(word) for k, word in batch]
    take_best_paths(batch, matrices)
    taken = len(batch)  # jobs of the batch whose best paths are taken
    sims = [replace(member, alphabet=alphabet) for member in members]
    while True:
        if part := list(islice(jobs, BATCH_DECODES - len(batch))):
            batch += part
            matrices += emit_many([(sims[k], word) for k, word in part])
        if not batch:
            break
        take_best_paths(batch[taken:], matrices[taken:])
        for job, (text, likelihood) in zip(batch, decode_batch(matrices, alphabet, tree,
                                                               width=width)):
            found[job] = Hypothesis(decode_label(text, alphabet), likelihood)
        batch, matrices, taken = [], [], 0
    hyps = [[found[k, word] for word in words] for k in range(len(members))]
    return hyps, [best_path[word] for word in words]


def run_trend_experiment(config: TrendConfig = TrendConfig()) -> TrendReport:
    """The trend report of ``config``: its seeds are independent, so they
    are split into shares over the CPUs (``fanout.run``), each share's
    outcomes computed in a process of its own, and joined in seed order."""
    seeds = [config.seed + 1000 * k for k in range(config.n_seeds)]
    return TrendReport(config=config,
                       outcomes=fanout.run(seeds, lambda share: _seed_outcomes(config, share)))


def _seed_outcomes(cfg: TrendConfig, seeds: list[int]) -> list[SeedOutcome]:
    plain_alphabet = Alphabet(ALPHABET_CHARACTERS)
    sep_alphabet = Alphabet(ALPHABET_CHARACTERS, SEPARATOR)
    outcomes = []
    for seed in seeds:
        rng = random.Random(f"trend|{seed}")
        dictionary = _make_dictionary(rng)
        gt = [rng.choice(dictionary) for _ in range(cfg.n_words)]
        # One tree for both lanes: the separator is non-word as the tree lacks it.
        tree = PrefixTree(dictionary, ALPHABET_CHARACTERS)
        base = RecognizerSim(alphabet=plain_alphabet, frames_per_char=FRAMES_PER_CHAR,
                             noise_level=cfg.noise_level, confusion_spread=CONFUSION_SPREAD,
                             seed=seed)
        members = make_ensemble(base, cfg.members, jitter=JITTER)

        # Extra-separator lane: every member decodes the full word list.
        hyps, bp_x_preds = _decode_lane(members, sep_alphabet, tree, gt, cfg.width)

        columns = list(zip(*hyps))  # each word's hypotheses, member by member
        ensemble_accuracy = {count: word_accuracy([vote(c[:count]).text for c in columns], gt)
                             for count in cfg.member_counts}

        # Plain lane: member 0 only, for the coding and decoder grid.
        (plain_hyps,), bp_plain_preds = _decode_lane(members[:1], plain_alphabet, tree, gt,
                                                     cfg.width)

        outcomes.append(
            SeedOutcome(
                seed=seed,
                ensemble_accuracy=ensemble_accuracy,
                wbs_plain=word_accuracy([h.text for h in plain_hyps], gt),
                wbs_extrasep=word_accuracy([h.text for h in hyps[0]], gt),
                bestpath_plain=word_accuracy(bp_plain_preds, gt),
                bestpath_extrasep=word_accuracy(bp_x_preds, gt),
            )
        )
    return outcomes
