"""Desk-scale decoder and ensemble trend experiment on synthetic data.

For a handful of fixed seeds this builds a random dictionary, samples a
ground-truth word list, derives an ensemble of simulated recognizers
and measures word accuracy for best-path versus dictionary-constrained
decoding, plain versus extra-separator coding, and growing ensemble
sizes under plurality voting. The two coding lanes differ only in the
recognizer's alphabet; they share one tree per seed. Each distinct
(member, word) of a lane is emitted and decoded once, shortest word
first, in batches of at most ``BATCH_DECODES`` jobs: batched emissions
(``synth.emit_many``) of at most a third of a batch each, and one word
beam search call (``decoder.decode_batch``). Everything is seeded, so
reports are byte-identical across runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import islice

from .coding import decode_label
from .ctc import Alphabet, best_path_batch
from .decoder import decode_batch
from .ensemble import Hypothesis, vote
from .errors import InputValidationError
from .evaluation import word_accuracy
from .prefix_tree import PrefixTree
from .synth import RecognizerSim, emit_many, make_ensemble


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


# The benchmark's set-up clock stops at the first call of ``best_path_decode``
# as this module looks it up, the best path of a lane's lone first matrix.
best_path_decode = best_path_batch


def _make_dictionary(rng: random.Random, cfg: TrendConfig) -> list[str]:
    words: set[str] = set()
    chars = cfg.alphabet_characters
    target = cfg.dictionary_size
    while len(words) < target:
        length = rng.randint(cfg.min_word_length, cfg.max_word_length)
        words.add("".join(rng.choice(chars) for _ in range(length)))
    return sorted(words)


# The most decodes one batched search holds: a batch's matrices, arrays and
# texts grow with it, and the gain levels off. Emission holds about 18 KiB
# of temporaries per job and the search about 13 KiB per decode, so a batch
# is emitted at most a third at a time. On a 2-vCPU VM one default seed
# (2,360 extra-separator decodes) peaks at 35.7 MiB with batches of 150,
# 34.7 MiB with 100, 39.0 MiB with 300 and 65.4 MiB as one batch, which
# took 0.46 s of CPU time against 0.50 s with batches of 150 (medians of
# eight runs).
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
    at most ``BATCH_DECODES`` jobs is emitted when it is next, by
    ``emit_many`` at most ``BATCH_DECODES // 3`` (at least one) at a time,
    and decoded by one ``decode_batch`` call; each hypothesis is filed under
    its (member, word). The first member's best paths are taken by one
    ``best_path_batch`` call per emitted part. The lane's first matrix is
    emitted alone, by ``RecognizerSim.emit``, and its best path taken before
    any other job or recognizer copy is made, so the first matrix comes
    before any other work of the lane.
    """
    jobs = ((k, word) for word in sorted(dict.fromkeys(words), key=len)
            for k in range(len(members)))
    chunk = max(1, BATCH_DECODES // 3)
    best_path: dict[str, str] = {}
    found: dict[tuple[int, str], Hypothesis] = {}

    def emitted(part: list[tuple[int, str]], matrices: list) -> list:
        firsts = [(word, matrix) for (k, word), matrix in zip(part, matrices) if not k]
        paths = best_path_decode([matrix for _, matrix in firsts], alphabet)
        for (word, _), (text, _) in zip(firsts, paths):
            best_path[word] = decode_label(text, alphabet)
        return matrices

    batch = list(islice(jobs, 1))
    matrices = emitted(batch, [replace(members[k], alphabet=alphabet).emit(word)
                               for k, word in batch])
    sims = [replace(member, alphabet=alphabet) for member in members]
    while True:
        while part := list(islice(jobs, min(chunk, BATCH_DECODES - len(batch)))):
            batch += part
            matrices += emitted(part, emit_many([(sims[k], word) for k, word in part]))
        if not batch:
            break
        for job, (text, likelihood) in zip(batch, decode_batch(matrices, alphabet, tree,
                                                               width=width)):
            found[job] = Hypothesis(decode_label(text, alphabet), likelihood)
        batch, matrices = [], []
    hyps = [[found[k, word] for word in words] for k in range(len(members))]
    return hyps, [best_path[word] for word in words]


def run_trend_experiment(config: TrendConfig = TrendConfig()) -> TrendReport:
    cfg = config
    plain_alphabet = Alphabet(cfg.alphabet_characters)
    sep_alphabet = Alphabet(cfg.alphabet_characters, cfg.separator)
    report = TrendReport(config=cfg)
    for k in range(cfg.n_seeds):
        seed = cfg.seed + 1000 * k
        rng = random.Random(f"trend|{seed}")
        dictionary = _make_dictionary(rng, cfg)
        gt = [rng.choice(dictionary) for _ in range(cfg.n_words)]
        # One tree for both lanes: the separator is non-word as the tree lacks it.
        tree = PrefixTree(dictionary, cfg.alphabet_characters)
        base = RecognizerSim(
            alphabet=plain_alphabet,
            frames_per_char=cfg.frames_per_char,
            noise_level=cfg.noise_level,
            confusion_spread=cfg.confusion_spread,
            seed=seed,
        )
        members = make_ensemble(base, cfg.members, jitter=cfg.jitter)

        # Extra-separator lane: every member decodes the full word list.
        hyps, bp_x_preds = _decode_lane(members, sep_alphabet, tree, gt, cfg.width)

        ensemble_accuracy: dict[int, float] = {}
        for count in cfg.member_counts:
            voted = [
                vote([hyps[j][i] for j in range(count)]).text for i in range(cfg.n_words)
            ]
            ensemble_accuracy[count] = word_accuracy(voted, gt)

        # Plain lane: member 0 only, for the coding and decoder grid.
        (plain_hyps,), bp_plain_preds = _decode_lane(members[:1], plain_alphabet, tree, gt,
                                                     cfg.width)

        report.outcomes.append(
            SeedOutcome(
                seed=seed,
                ensemble_accuracy=ensemble_accuracy,
                wbs_plain=word_accuracy([h.text for h in plain_hyps], gt),
                wbs_extrasep=word_accuracy([h.text for h in hyps[0]], gt),
                bestpath_plain=word_accuracy(bp_plain_preds, gt),
                bestpath_extrasep=word_accuracy(bp_x_preds, gt),
            )
        )
    return report
