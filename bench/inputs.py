"""Seeded benchmark inputs, written by the benchmark's own code.

Matrices are produced here and written in the text format the README
documents (``T C`` header, escaped alphabet line, T rows of C floats),
without calling ``wordbeam.synth`` or ``wordbeam.files``: a later change
to those modules cannot alter the inputs of the file-based workloads.
Every value is a pure function of the seed.

The noise model follows the usual picture of a CTC recognizer's output:
each label character is a run of frames peaked on its column, single
blank-peaked frames sit between characters (so doubled letters survive
the collapse), and each peak leaks part of its mass to one confusable
column and a little to every other column.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

SHORT_ALPHABET = "abcdefghij"
SHORT_SEPARATOR = "|"
LONG_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
LONG_SPACE = " "


@dataclass
class Inputs:
    """Files of one workload plus everything the output check needs."""

    dict_path: Path
    member_dirs: list[Path]
    names: list[str]  # matrix file names, identical in every member directory
    truth: dict[str, str]  # file name -> ground-truth text
    words: list[str]  # dictionary, in file order
    frames: dict[str, int] = field(default_factory=dict)  # file name -> T (member 0)

    def paths(self, member: int, names: list[str] | None = None) -> list[str]:
        return [str(self.member_dirs[member] / n) for n in (names or self.names)]


def random_words(rng: random.Random, n: int, chars: str, min_len: int, max_len: int) -> list[str]:
    """``n`` distinct random words, in draw order."""
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < n:
        w = "".join(rng.choice(chars) for _ in range(rng.randint(min_len, max_len)))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def noisy_rows(
    rng: random.Random,
    targets: list[int],
    n_classes: int,
    frames_per_char: int,
    noise: float,
    quiet_col: int | None = None,
) -> list[list[float]]:
    """Posterior rows for a label given as column indices (blank is last).

    ``quiet_col`` (the extra separator) is detected reliably: its frames
    get a third of the noise and no other frame leaks mass onto it.
    """
    blank = n_classes - 1
    rows: list[list[float]] = []
    for i, target in enumerate(targets):
        if i:
            rows.append(_row(rng, n_classes, blank, noise, quiet_col))
        level = noise / 3 if target == quiet_col else noise
        for _ in range(frames_per_char):
            rows.append(_row(rng, n_classes, target, level, quiet_col))
    return rows


def _row(rng: random.Random, n: int, target: int, noise: float, quiet_col: int | None) -> list[float]:
    peak = max(0.02, 1.0 - noise * rng.expovariate(1.0))
    leak = 1.0 - peak
    excluded = {target} if quiet_col is None or target == quiet_col else {target, quiet_col}
    confusion = target
    while confusion in excluded:
        confusion = rng.randrange(n)
    weights = [0.0 if j in excluded else rng.random() + 1e-3 for j in range(n)]
    scale = 0.4 * leak / sum(weights)
    row = [w * scale for w in weights]
    row[confusion] += 0.6 * leak
    row[target] += peak
    total = sum(row)
    return [v / total for v in row]


def escape_alphabet(symbols: str) -> str:
    table = {"\\": "\\\\", " ": "\\ ", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
    return "".join(table.get(ch, ch) for ch in symbols)


def format_matrix(rows: list[list[float]], symbols: str) -> str:
    lines = [f"{len(rows)} {len(symbols) + 1}", escape_alphabet(symbols)]
    lines += [" ".join(repr(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _write_members(
    out: Path,
    seed: int,
    tag: str,
    labels: list[str],
    symbols: str,
    members: int,
    noise: float,
    frames_per_char: int,
    quiet: str | None,
) -> tuple[list[Path], list[str], dict[str, int]]:
    col = {c: i for i, c in enumerate(symbols)}
    n_classes = len(symbols) + 1
    quiet_col = col[quiet] if quiet is not None else None
    names = [f"{tag}_{i:04d}.mat" for i in range(len(labels))]
    dirs: list[Path] = []
    frames: dict[str, int] = {}
    jitter = random.Random(f"bench-members|{tag}|{seed}")
    for k in range(members):
        # Member 0, the one decoded alone, has exactly the base noise, so
        # that its difficulty does not vary from seed to seed.
        level = noise + jitter.uniform(-0.05, 0.05) if k else noise
        d = out / f"member_{k:02d}"
        d.mkdir(parents=True, exist_ok=True)
        for name, label in zip(names, labels):
            rng = random.Random(f"bench-emit|{tag}|{seed}|{k}|{name}")
            rows = noisy_rows(rng, [col[c] for c in label], n_classes, frames_per_char,
                              level, quiet_col)
            (d / name).write_text(format_matrix(rows, symbols), encoding="utf-8")
            if k == 0:
                frames[name] = len(rows)
        dirs.append(d)
    return dirs, names, frames


def short_words(out: Path, seed: int, n_samples: int, members: int) -> Inputs:
    """Isolated words, extra-separator coding over a-j, 2,000-word dictionary.

    Words have 5-7 letters; with the separator and three frames per
    character that gives 23-31 frames per matrix.
    """
    rng = random.Random(f"bench-short|{seed}")
    words = random_words(rng, 2000, SHORT_ALPHABET, 5, 7)
    truth = [rng.choice(words) for _ in range(n_samples)]
    dict_path = out / "dictionary.txt"
    out.mkdir(parents=True, exist_ok=True)
    dict_path.write_text("\n".join(words) + "\n", encoding="utf-8")
    labels = [w + SHORT_SEPARATOR for w in truth]
    dirs, names, frames = _write_members(
        out, seed, "word", labels, SHORT_ALPHABET + SHORT_SEPARATOR, members,
        noise=0.3, frames_per_char=3, quiet=SHORT_SEPARATOR,
    )
    return Inputs(dict_path, dirs, names, dict(zip(names, truth)), words, frames)


def long_lines(out: Path, seed: int, targets: tuple[int, ...]) -> Inputs:
    """Text lines over a-z with a space between words, 50,000-word dictionary.

    Words have 3-10 letters. A line takes words until it is at least as
    long as its target (in characters), keeping 2-24 words; with four
    frames per character and a blank frame between characters a line
    runs about five frames per character.
    """
    rng = random.Random(f"bench-long|{seed}")
    words = random_words(rng, 50_000, LONG_ALPHABET, 3, 10)
    truth = []
    for target in targets:
        line = [rng.choice(words), rng.choice(words)]
        while len(line) < 24 and len(LONG_SPACE.join(line)) < target:
            line.append(rng.choice(words))
        truth.append(LONG_SPACE.join(line))
    dict_path = out / "dictionary.txt"
    out.mkdir(parents=True, exist_ok=True)
    dict_path.write_text("\n".join(words) + "\n", encoding="utf-8")
    dirs, names, frames = _write_members(
        out, seed, "line", truth, LONG_ALPHABET + LONG_SPACE, 1,
        noise=0.2, frames_per_char=4, quiet=None,
    )
    return Inputs(dict_path, dirs, names, dict(zip(names, truth)), words, frames)


def trie_nodes(words: list[str]) -> int:
    """Nodes of a character trie over ``words``, root included."""
    return len({w[:i] for w in set(words) for i in range(len(w) + 1)})
