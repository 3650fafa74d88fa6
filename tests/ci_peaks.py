"""CI's peak-memory checks, one scenario per process:

    python tests/ci_peaks.py <scenario>

A scenario writes its inputs in the working directory and runs its command
in this process, which it measures by ``ru_maxrss``: the growth of the peak
over the call, the absolute peak, the peaks of the caller and of each
worker it forks, or a second decode's peak against the first's. It prints
the reading and exits 1 when the command fails or the reading passes the
scenario's limit. ``words-fanout`` and ``bestpath`` decode the files that
``words-one-cpu`` and ``bestpath-lines`` wrote in a process before them,
so that building the inputs sets no peak. The dictionary is the 50,000
words of ``_support.words_50k``, the size of a lexicon the decoder must hold.
"""

from __future__ import annotations

import os
import resource
import string
import sys
from collections.abc import Callable
from functools import partial
from typing import NamedTuple

# Before the package and numpy, whose imports then reuse the memory that
# compiling ``_support`` takes. Imported after them, that memory stays free
# for the commands, and a second decode read 1.0-1.1 MiB above the first
# in ``ngrams-second``, against 0.7 this way (2-vCPU VM).
from _support import words_50k
from wordbeam import Alphabet, PrefixTree, RecognizerSim, fanout, trends
from wordbeam.cli import DECODE_BATCH, READ_FILES, _read_groups, main
from wordbeam.files import write_matrix_file

LETTERS = string.ascii_lowercase
DICTIONARY = "words50k.txt"
# The words-mode lines: the first, decoded before any fork, and three
# groups' worth of files for each process.
WORDS_MODE_LINES = 1 + 3 * READ_FILES * fanout.available_cpus()


def _paths(count: int) -> list[str]:
    return [f"line{i:03d}.mat" for i in range(count)]


def _write_lines(count: int, words_per_line: int, chars: int | None = None,
                 frames: int | None = None) -> tuple[list[str], list[str]]:
    """The paths of ``count`` lines of ``words_per_line`` random words, cut
    to ``chars`` characters, written as matrices (noise 0.3, seeds 1 on) of
    ``frames`` frames when given, and the words, written to ``DICTIONARY``."""
    words, rng = words_50k()
    with open(DICTIONARY, "w", encoding="utf-8") as f:
        f.write("\n".join(words) + "\n")
    alphabet = Alphabet(LETTERS + " ")
    for i, path in enumerate(_paths(count)):
        line = " ".join(rng.sample(words, words_per_line))[:chars]
        matrix = RecognizerSim(alphabet, noise_level=0.3, seed=1 + i).emit(line)
        assert frames in (None, matrix.num_frames)
        write_matrix_file(path, matrix, alphabet.symbols)
    return _paths(count), words


def _decode(paths: list[str], mode: str, *options: str) -> list[str]:
    return ["decode", *paths, "--dict", DICTIONARY, "--nonword-chars", " ", "--mode", mode,
            *options]


def _one_cpu(argv: list[str]) -> list[str]:
    """``argv``, with this process held on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return argv


def _long_word_list() -> list[str]:
    words, rng = words_50k()
    words.append("".join(rng.choices(LETTERS, k=5_000)))
    return words


def _build_trie(words: list[str]) -> int:
    PrefixTree(words, LETTERS)
    return 0


def _words_one_cpu() -> tuple[list[str], list[str]]:
    """The arguments of the decode and the words, which this process holds
    through it, as it did when the limit was set."""
    assert DECODE_BATCH == 50, "measure the words-mode limit again for the new batch bound"
    paths, words = _write_lines(WORDS_MODE_LINES, 12)
    return _one_cpu(_decode(paths[:1 + DECODE_BATCH], "words")), words


def _words_fanout() -> list[str]:
    paths = _paths(WORDS_MODE_LINES)
    # The units the CLI splits, ((i of its first file, its files), bytes)
    # each: the rest of the first read group, then the other groups.
    units = list(_read_groups(paths))
    (_, first), size = units[0]
    units[0] = (1, first[1:]), size - os.stat(paths[0]).st_size
    shares = fanout.plan([weight for _, weight in units], fanout.available_cpus())
    assert all(sum(len(units[k][0][1]) for k in share) >= DECODE_BATCH for share in shares)
    return _decode(paths, "words")


def _ngrams(lines: int, *options: str) -> list[str]:
    """The arguments of a decode of ``lines`` lines of two words. The words
    go before it, so that the growth counts the decode's memory alone."""
    return _decode(_write_lines(lines, 2)[0], *options)


def _trend_seed() -> list[str]:
    assert trends.BATCH_DECODES == 150, "measure the trend seed's limit again"
    return ["reproduce-trends", "--seeds", "1"]


def _maxrss() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def rss(run: Callable[[], int], limit: float, grown: bool,
        forks: bool = False) -> tuple[int, str, bool]:
    """The peaks of this process and of each worker it forks, or, when
    ``grown``, their growth: this process's from before the call, a
    worker's from its resident set at the fork. A command that ``forks``
    must fork a worker for each CPU but this process's."""
    before = _maxrss()
    code = run()
    spans = [(before, _maxrss())] + [(start / 1024, end / 1024)
                                     for start, end in fanout.worker_peaks]
    readings = [end - start if grown else end for start, end in spans]
    report = (f"peak RSS {', '.join(f'{end:.1f}' for _, end in spans)} MiB, grew "
              f"{', '.join(f'{end - start:.1f}' for start, end in spans)} MiB (this process "
              f"and {len(spans) - 1} worker(s); limit {limit} on each "
              f"{'growth' if grown else 'peak'})")
    workers_ok = not forks or len(spans) == fanout.available_cpus()
    return code, report, workers_ok and max(readings) <= limit


growth = partial(rss, grown=True)
peak = partial(rss, grown=False)


def second_decode(run: Callable[[], int], share: float) -> tuple[int, str, bool]:
    """A second run's peak, at most the first's plus ``share`` of the
    first's growth."""
    before = _maxrss()
    codes, peaks = [], []
    for _ in range(2):
        codes.append(run())
        peaks.append(_maxrss())
    limit = peaks[0] + share * (peaks[0] - before)
    return codes[0] or codes[1], (
        f"exits {codes}, peak RSS {before:.1f} MiB before, {peaks[0]:.1f} after the first "
        f"decode, {peaks[1]:.1f} after the second (limit {limit:.1f})"), peaks[1] <= limit


class Scenario(NamedTuple):
    setup: Callable[[], object]  # writes the inputs; returns the command's argument
    measure: Callable[[Callable[[], int], float], tuple[int, str, bool]] | None = None
    limit: float = 0.0  # MiB, but for ``second_decode``
    command: Callable[[object], int] = main  # returns an exit code


SCENARIOS = {
    # The trie's memory must grow with the characters, not with the number
    # of words times the longest word's length. The limit: five runs at
    # 10.7-10.8 MiB (2-vCPU VM) plus 11%.
    "trie": Scenario(_long_word_list, growth, 12, _build_trie),
    # The limit: five runs at 60.1-60.2 MiB (2-vCPU VM) plus 11%, for
    # batches of 50; five runs read 55.7-55.9 MiB with the first file
    # decoded alone. It holds this process on one CPU, decoding the first
    # file alone and then one full batch of the files after it.
    "words-one-cpu": Scenario(_words_one_cpu, peak, 67, lambda held: main(held[0])),
    # The same limit holds this process and each forked worker, and each
    # decodes at least one full batch (five runs: 53.4-53.7 and 47.4-47.6
    # MiB). A worker's peak counts only the inherited pages it touches.
    "words-fanout": Scenario(_words_fanout, partial(peak, forks=True), 67),
    # 40 lines of 221 characters, about 675 KB a file.
    "bestpath-lines": Scenario(lambda: _write_lines(40, 40, 221, frames=1104)),
    # Best path holds the files of one read group at a time.
    "bestpath": Scenario(lambda: ["decode", *_paths(40), "--mode", "bestpath"], growth, 8),
    # Set-up (word list, trie, bigram model) is most of this call's memory.
    # The limit: nine runs at 10.6-10.9 MiB (2-vCPU VM) plus 10%.
    "ngrams": Scenario(partial(_ngrams, 1, "ngrams"), growth, 12),
    # A finished command's trie and tables go when it returns, so a second
    # decode, collector on, peaks where the first did. The limit: the
    # first's peak plus 11% of the first decode's growth. Five runs on one
    # CPU (2-vCPU VM): the first grew 10.7-10.9 MiB, and the second peaked
    # 0.1-0.3 MiB above the first (7.7 MiB above while scorers held their
    # trees).
    "ngrams-second": Scenario(lambda: _one_cpu(_ngrams(1, "ngrams")), second_decode, 0.11),
    # The batched search reads the trie through arrays by node, and the
    # completions through the scorer's array built at the first one. The
    # limit: five runs at 15.5 MiB (2-vCPU VM) plus 10%.
    "ngrams-two-lines": Scenario(partial(_ngrams, 2, "ngrams"), growth, 17),
    # Order-5 training (182,000 contexts) and its tables, counted as arrays.
    "ngrams-order5": Scenario(partial(_ngrams, 1, "ngrams", "--order", "5"), growth, 45),
    # Set-up includes the word-probability and forecast tables of every trie node.
    "ngrams-forecast": Scenario(partial(_ngrams, 1, "ngrams-forecast"), growth, 24),
    # Lanes in batches of 150 peaked at 35.7-35.8 MiB (2-vCPU VM; 34.1
    # with batches of 100).
    "trend-seed": Scenario(_trend_seed, peak, 40),
}


def run(name: str) -> int:
    """Run scenario ``name``; its exit code."""
    scenario = SCENARIOS[name]
    argument = scenario.setup()
    if scenario.measure is None:
        return 0
    code, report, within = scenario.measure(lambda: scenario.command(argument), scenario.limit)
    print(f"{name}: exit {code}, {report}")
    return 1 if code or not within else 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in SCENARIOS:
        sys.exit(f"usage: python tests/ci_peaks.py {{{','.join(SCENARIOS)}}}")
    sys.exit(run(sys.argv[1]))
