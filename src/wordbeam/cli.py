"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data-format error,
3 configuration error. All randomness is controlled by seed flags; no
code path reads the clock or OS entropy.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

from . import decoder, fanout
from .coding import choose_separator, decode_label
from .ctc import Alphabet, PosteriorMatrix, best_path_batch
from .ensemble import Hypothesis, vote, winning_group_size
from .errors import (
    ConfigurationError,
    DataFormatError,
    InputValidationError,
    UnreadableFileError,
    UnwritablePathError,
    WordbeamError,
)
from .evaluation import build_report, format_report_kv, format_report_table
from .files import load_word_list, read_matrix_file, read_text, write_matrix_file
from .language_model import NGRAMS, NGRAMS_FORECAST, NgramModel, ScoringMode, WORDS, forecast_sample
from .prefix_tree import PrefixTree
from .synth import RecognizerSim, emit_many, make_ensemble
from .trends import TrendConfig, run_trend_experiment

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CONFIG = 3

# Matrices ``synth`` emits as one batch (``emit_many``) before writing them.
SYNTH_BATCH = 100
# Matrices of one alphabet that ``decode`` and ``ensemble`` pass to one
# ``decoder.decode_batch`` call; it bounds the matrices held. A batch may
# span several read groups. Larger batches cost fewer numpy steps per
# matrix and hold more matrices at once (the ``words``-mode curve is in
# CHANGES.md).
DECODE_BATCH = 50
# Matrix files, and bytes of them, read as one group; a larger file is a
# group alone.
READ_FILES = 20
READ_BYTES = 1 << 20

_MODES = ("bestpath", "words", "ngrams", "ngrams-forecast", "ngrams-forecast-sample")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _at_least_one(text: str) -> int:
    """An argparse type: an integer of at least 1, rejected before any work."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _positive_finite(text: str) -> float:
    """An argparse type: a finite float above 0, rejected before any work."""
    x = _float(text)
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {x}")
    return x


def _non_negative_finite(text: str) -> float:
    """An argparse type: a finite float of at least 0, rejected before any work."""
    x = _float(text)
    if not (math.isfinite(x) and x >= 0):
        raise argparse.ArgumentTypeError(f"must be non-negative and finite, got {x}")
    return x


def _unit_interval(text: str) -> float:
    """An argparse type: a float in [0, 1] (so not NaN), rejected before any work."""
    x = _float(text)
    if not 0.0 <= x <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {x}")
    return x


def _separator(text: str) -> str:
    """An argparse type: one character, or "" for the command's default."""
    if len(text) > 1:
        raise argparse.ArgumentTypeError(f"must be a single character, got {text!r}")
    return text


def _add_decode_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dict", dest="dict_path", help="dictionary file, one word per line")
    p.add_argument("--mode", choices=_MODES, default="words")
    p.add_argument("--width", type=_at_least_one, default=25)
    p.add_argument("--scheme", choices=("plain", "extrasep"), default="plain")
    p.add_argument("--sep", type=_separator, default="|",
                   help="separator character for --scheme extrasep")
    p.add_argument("--order", type=_at_least_one, default=2, help="n-gram order")
    p.add_argument("--smoothing-k", type=_positive_finite, default=1.0)
    p.add_argument("--sample-size", type=_at_least_one, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--nonword-chars",
        default="",
        help="alphabet characters legal outside words (besides the separator)",
    )
    p.add_argument("--lm-corpus", help="train the n-gram model on this word list "
                                       "instead of the dictionary")


def _decode_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("matrices", nargs="+", help="matrix file paths")
    _add_decode_options(p)
    p.set_defaults(func=cmd_decode)


def _ensemble_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "inputs",
        nargs="+",
        help="either N decode-output TSV files or N directories of matrix files",
    )
    _add_decode_options(p)
    p.set_defaults(func=cmd_ensemble)


def _eval_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("preds", help="predictions (plain list or decode TSV)")
    p.add_argument("gt", help="ground truth (plain list or manifest TSV)")
    p.add_argument("--train-vocab", help="training vocabulary for the OOV/INV split")
    p.add_argument("--case-insensitive", action="store_true")
    p.add_argument("--out-dir", help="write report.txt and report.kv here instead of stdout")
    p.set_defaults(func=cmd_eval)


def _synth_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dict", dest="dict_path", required=True)
    p.add_argument("--n-words", type=_at_least_one, default=50)
    p.add_argument("--noise", type=_unit_interval, default=0.25)
    p.add_argument("--confusion-spread", type=_non_negative_finite, default=1.5)
    p.add_argument("--members", type=_at_least_one, default=1)
    p.add_argument("--jitter", type=_non_negative_finite, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames-per-char", type=_at_least_one, default=4)
    p.add_argument("--scheme", choices=("plain", "extrasep"), default="plain")
    p.add_argument("--sep", type=_separator, default="",
                   help="separator character (default: auto-pick)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)


def _reproduce_trends_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seeds", type=_at_least_one, default=5, help="number of experiment seeds")
    p.add_argument("--n-words", type=_at_least_one, default=1000)
    p.add_argument("--members", type=_at_least_one, default=10)
    p.add_argument("--width", type=_at_least_one, default=8)
    p.add_argument("--noise", type=_unit_interval, default=TrendConfig().noise_level)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_reproduce_trends)


# Each subcommand's help line and the function that adds its arguments.
_COMMANDS = {
    "decode": ("decode posterior matrix files", _decode_arguments),
    "ensemble": ("vote over recognizer outputs", _ensemble_arguments),
    "eval": ("score predictions against ground truth", _eval_arguments),
    "synth": ("generate synthetic recognizer outputs", _synth_arguments),
    "reproduce-trends": ("run the synthetic trend experiment", _reproduce_trends_arguments),
}


def build_parser(commands: Iterable[str] = _COMMANDS) -> _Parser:
    """The command-line parser. Every subcommand is listed with its help;
    only those of ``commands`` get their arguments."""
    parser = _Parser(prog="wordbeam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if name in commands:
            add_arguments(p)
    return parser


def _mode_from_args(args) -> ScoringMode:
    name = args.mode
    if name == "words":
        return WORDS
    if name == "ngrams":
        return NGRAMS
    if name == "ngrams-forecast":
        return NGRAMS_FORECAST
    return forecast_sample(args.sample_size, args.seed)


def _alphabet_for(symbols: str, sep: str | None, path: str) -> Alphabet:
    """The alphabet of a matrix file's alphabet line; its faults name the file and line."""
    try:
        if sep is not None and not symbols.endswith(sep):
            raise InputValidationError(f"expected separator {sep!r} as the last alphabet symbol")
        return Alphabet(symbols) if sep is None else Alphabet(symbols[:-1], sep)
    except InputValidationError as exc:
        raise DataFormatError(str(exc), path=path, line=2) from None


# The benchmark's set-up clock stops at the first call of ``decode`` or
# ``best_path_decode`` as this module looks them up, and leaves out the
# time spent before it in ``read_matrix_file``, looked up the same way
# (bench/README.md): matrix files are read only through that name. Both
# decode a list of matrices of one alphabet.
decode = decoder.decode_batch
best_path_decode = best_path_batch


def _read_groups(paths: list) -> Iterator[tuple[tuple[int, list], int]]:
    """The groups in which ``paths`` are read, each as ``((index of its
    first file, its files), bytes)``, in file order, each file's size taken
    when its group is next.

    A group is a run of consecutive files: at most ``READ_FILES`` of them
    and ``READ_BYTES`` in all, a larger file alone.
    """
    group: list = []
    size = 0
    for i, path in enumerate(paths):
        try:
            n = os.stat(path).st_size
        except OSError:
            n = 0  # reading it reports the fault
        if group and (len(group) == READ_FILES or size + n > READ_BYTES):
            yield (i - len(group), group), size
            group, size = [], 0
        group.append(path)
        size += n
    if group:
        yield (len(paths) - len(group), group), size


def _read_group(group: list) -> Iterable[list[tuple[str, PosteriorMatrix]]]:
    """``(symbols, matrix)`` of each file of one group (``read_matrix_file``),
    in file order: one list, or, when the group raises, one list per file,
    each read when the caller has set up the one before, so the first fault
    in file order, of a read or of a set-up, is the one raised."""
    try:
        return [read_matrix_file(group)]
    except WordbeamError:
        return (read_matrix_file([path]) for path in group)


class _DecodePipeline:
    """Per-alphabet trees, rebuilt only when symbols change, and one shared model."""

    def __init__(self, args):
        self.args = args
        self.sep = (args.sep or "|") if args.scheme == "extrasep" else None
        self.mode = None if args.mode == "bestpath" else _mode_from_args(args)
        self.words = load_word_list(args.dict_path) if args.dict_path else None
        self.lm_corpus = load_word_list(args.lm_corpus) if args.lm_corpus else None
        self.lm: NgramModel | None = None
        self._cache: dict[str, tuple] = {}

    def decode_files(self, paths: list, row: Callable[[int, str, float], object]) -> list:
        """Read and decode each matrix file; return ``row(i, label,
        likelihood)`` of each file ``paths[i]``, in file order.

        Files are read in groups (``_read_groups``). Where this process may
        fork workers (``fanout.processes``), the first group is decoded
        here, which sets up its alphabets; the other groups are then split
        into shares of about equal bytes, one per CPU (``fanout.run``), the
        first decoded here and each other by a forked worker, which
        inherits the set-up. Otherwise every group is decoded here, as one
        share. Each share raises its own first fault, so the first fault in
        file order is the one raised.
        """
        groups = _read_groups(paths)
        if fanout.processes() == 1:
            return self._decode_share((group for group, _ in groups), row)
        first = next(groups, None)
        rows = self._decode_share([first[0]], row) if first else []
        rest = list(groups)
        return rows + fanout.run([group for group, _ in rest],
                                 lambda share: self._decode_share(share, row),
                                 [size for _, size in rest])

    def _decode_share(self, groups: Iterable[tuple[int, list]],
                      row: Callable[[int, str, float], object]) -> list:
        """``row(i, label, likelihood)`` of each file of ``groups``, each
        group ``(i of its first file, its files)``, in file order.

        Each file's alphabet is set up in file order, so the first fault in
        that order is the one raised. Each alphabet's matrices are collected
        and decoded up to ``DECODE_BATCH`` at a time; best path decodes them
        at the end of each group read.
        """
        rows: list = []
        base = 0  # i of the first file
        pending: dict[str, list[tuple[int, PosteriorMatrix]]] = {}

        def decode_pending(symbols: str) -> None:
            batch = pending.pop(symbols)
            for (i, _), (label, likelihood) in zip(batch, self._decode(symbols, batch)):
                rows[i - base] = row(i, label, likelihood)

        for start, group in groups:
            if not rows:
                base = start
            rows += [None] * len(group)
            i = start
            for read in _read_group(group):
                for symbols, matrix in read:
                    self._setup(symbols, str(group[i - start]))
                    batch = pending.setdefault(symbols, [])
                    batch.append((i, matrix))
                    i += 1
                    if len(batch) == DECODE_BATCH:
                        decode_pending(symbols)
                if self.mode is None:
                    for symbols in list(pending):
                        decode_pending(symbols)
        for symbols in list(pending):
            decode_pending(symbols)
        return rows

    def _decode(self, symbols: str,
                batch: list[tuple[int, PosteriorMatrix]]) -> list[tuple[str, float]]:
        """The labels and likelihoods of matrices of one alphabet."""
        alphabet, tree, lm = self._cache[symbols]
        matrices = [m for _, m in batch]
        if self.mode is None:
            found = best_path_decode(matrices, alphabet)
        else:
            found = decode(matrices, alphabet, tree, lm, self.args.width, self.mode)
        return [(decode_label(label, alphabet), likelihood) for label, likelihood in found]

    def _setup(self, symbols: str, path: str):
        cached = self._cache.get(symbols)
        if cached is not None:
            return cached
        alphabet = _alphabet_for(symbols, self.sep, path)
        tree = None
        if self.mode is not None:
            nonword = set(self.args.nonword_chars)
            word_chars = set(alphabet.characters) - nonword
            try:
                tree = PrefixTree(self.words, word_chars)
            except InputValidationError:
                self._raise_unspellable(word_chars, symbols)
                raise
            unknown = sorted(nonword.difference(symbols))
            if unknown:
                raise ConfigurationError(f"--nonword-chars {unknown!r} are not symbols of the "
                                         f"matrix alphabet {symbols!r}")
            if self.mode.uses_lm and self.lm is None:
                corpus = self.lm_corpus if self.lm_corpus is not None else self.words
                self.lm = NgramModel.train(corpus, self.args.order, self.args.smoothing_k)
            # A batch is decoded after later files are read, so its faults
            # must show here, at its first file.
            decoder._prepare(alphabet, tree, self.lm, self.args.width, self.mode)
        self._cache[symbols] = (alphabet, tree, self.lm)
        return self._cache[symbols]

    def _raise_unspellable(self, word_chars: set[str], symbols: str) -> None:
        """Name the dictionary line of the first word the matrix alphabet
        cannot spell, if there is one."""
        word = next((w for w in self.words if not word_chars.issuperset(w)), None)
        if word is None:
            return
        bad = next(ch for ch in word if ch not in word_chars)
        path = self.args.dict_path
        line = next((i for i, raw in enumerate(read_text(path).split("\n"), start=1)
                     if raw.strip() == word), None)
        raise DataFormatError(
            f"word {word!r} has character {bad!r}, which is not a word character of "
            f"the matrix alphabet {symbols!r}", path=path, line=line
        )


def _dict_missing(args) -> bool:
    """Report a dictionary mode run without ``--dict``; True when it was."""
    if args.mode == "bestpath" or args.dict_path:
        return False
    print(f"wordbeam {args.command}: error: --dict is required unless --mode bestpath",
          file=sys.stderr)
    return True


def cmd_decode(args) -> int:
    if _dict_missing(args):
        return EXIT_USAGE
    paths = args.matrices
    lines = _DecodePipeline(args).decode_files(
        paths, lambda i, text, likelihood: f"{paths[i]}\t{text}\t{likelihood!r}")
    print("\n".join(lines))
    return EXIT_OK


def _cannot_write(path: str, exc: OSError) -> UnwritablePathError:
    return UnwritablePathError(f"cannot write {path}: {exc.strerror or exc}")


def _out_dir(path: str) -> Path:
    """Create the output directory once the inputs are read and before any
    output is computed, or fail naming it."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _cannot_write(path, exc) from exc
    return Path(path)


def _read_hypothesis_tsv(path: str) -> list[tuple[str, Hypothesis]]:
    rows: list[tuple[str, Hypothesis]] = []
    for i, raw in enumerate(read_text(path).split("\n"), start=1):
        if not raw.strip():
            continue
        fields = raw.split("\t")
        if len(fields) != 3:
            raise DataFormatError(
                f"expected 'id<TAB>label<TAB>likelihood', got {raw!r}", path=path, line=i
            )
        try:
            hypothesis = Hypothesis(fields[1], float(fields[2]))
        except InputValidationError as exc:  # negative or not finite
            raise DataFormatError(f"{exc}, got {fields[2]!r}", path=path, line=i) from None
        except ValueError:
            raise DataFormatError(
                f"malformed likelihood {fields[2]!r}", path=path, line=i
            ) from None
        rows.append((fields[0], hypothesis))
    return rows


def cmd_ensemble(args) -> int:
    paths = [Path(p) for p in args.inputs]
    dirs = [p.is_dir() for p in paths]
    if all(dirs):
        if _dict_missing(args):
            return EXIT_USAGE
        per_member = _ensemble_from_dirs(args, paths)
    elif any(dirs):
        print("wordbeam ensemble: error: inputs must be all decode TSV files or all "
              "matrix directories", file=sys.stderr)
        return EXIT_USAGE
    else:
        per_member = [_read_hypothesis_tsv(str(p)) for p in paths]
    ids = [row[0] for row in per_member[0]]
    for p, rows in zip(paths[1:], per_member[1:]):
        other = [row[0] for row in rows]
        if other != ids:
            bad = next((a for a, b in zip(ids, other) if a != b), None)
            if bad is None:  # one list is a prefix of the other
                longer = ids if len(ids) > len(other) else other
                bad = longer[min(len(ids), len(other))]
            raise DataFormatError(
                f"recognizer outputs are misaligned, first mismatch at {bad!r}",
                path=str(p),
            )
    for i, sample_id in enumerate(ids):
        hyps = [rows[i][1] for rows in per_member]
        winner = vote(hyps)
        print(f"{sample_id}\t{winner.text}\t{winning_group_size(hyps, winner)}")
    return EXIT_OK


def _ensemble_from_dirs(args, dirs: list[Path]) -> list[list[tuple[str, Hypothesis]]]:
    names = sorted(p.name for p in dirs[0].iterdir() if p.is_file())
    for d in dirs[1:]:
        other = sorted(p.name for p in d.iterdir() if p.is_file())
        if other != names:
            bad = min(set(names) ^ set(other))
            raise DataFormatError(
                f"matrix directories are misaligned, first mismatch at {bad!r}",
                path=str(d),
            )
    n = len(names)
    rows = _DecodePipeline(args).decode_files(
        [d / name for d in dirs for name in names],
        lambda i, text, likelihood: (names[i % n], Hypothesis(text, likelihood)))
    return [rows[k * n:(k + 1) * n] for k in range(len(dirs))]


def _read_labels(path: str) -> list[str]:
    """Labels from a plain list or the second column of a TSV."""
    labels: list[str] = []
    for raw in read_text(path).split("\n"):
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        if "\t" in line:
            labels.append(line.split("\t")[1])
        elif line.startswith("#"):
            continue
        else:
            labels.append(line)
    return labels


def cmd_eval(args) -> int:
    preds = _read_labels(args.preds)
    gts = _read_labels(args.gt)
    vocab = load_word_list(args.train_vocab) if args.train_vocab else None
    out = _out_dir(args.out_dir) if args.out_dir else None
    report = build_report(preds, gts, vocab, args.case_insensitive)
    table = format_report_table(report)
    kv = format_report_kv(report)
    if out is not None:
        (out / "report.txt").write_text(table, encoding="utf-8")
        (out / "report.kv").write_text(kv, encoding="utf-8")
        print(f"wrote {out / 'report.txt'} and {out / 'report.kv'}")
    else:
        print(table)
        print(kv, end="")
    return EXIT_OK


def cmd_synth(args) -> int:
    import random

    words = load_word_list(args.dict_path)
    if not words:
        raise ConfigurationError("the dictionary file holds no words")
    characters = "".join(sorted({ch for w in words for ch in w}))
    sep = (args.sep or choose_separator(characters)) if args.scheme == "extrasep" else None
    alphabet = Alphabet(characters, sep)
    base = RecognizerSim(
        alphabet=alphabet,
        frames_per_char=args.frames_per_char,
        noise_level=args.noise,
        confusion_spread=args.confusion_spread,
        seed=args.seed,
    )
    sims = make_ensemble(base, args.members, jitter=args.jitter)
    out = _out_dir(args.out_dir)
    rng = random.Random(f"synth|{args.seed}")
    sample = [rng.choice(words) for _ in range(args.n_words)]
    pad = max(4, len(str(args.n_words - 1)))
    manifest = []
    for i, word in enumerate(sample):
        manifest.append(f"sample_{i:0{pad}d}.mat\t{word}")
    for k, sim in enumerate(sims):
        member_dir = out / f"member_{k:02d}"
        member_dir.mkdir(exist_ok=True)
        for at in range(0, len(sample), SYNTH_BATCH):
            chunk = sample[at:at + SYNTH_BATCH]
            for i, matrix in enumerate(emit_many([(sim, word) for word in chunk]), at):
                write_matrix_file(
                    member_dir / f"sample_{i:0{pad}d}.mat", matrix, alphabet.symbols
                )
    (out / "ground_truth.tsv").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    print(f"wrote {args.members} member(s) x {args.n_words} matrices under {out}")
    return EXIT_OK


def cmd_reproduce_trends(args) -> int:
    defaults = TrendConfig()
    counts = tuple(c for c in defaults.member_counts if c <= args.members)
    if args.members not in counts:
        counts = counts + (args.members,)
    config = TrendConfig(
        seed=args.seed,
        n_seeds=args.seeds,
        n_words=args.n_words,
        members=args.members,
        member_counts=counts,
        width=args.width,
        noise_level=args.noise,
    )
    if not args.out:
        print(run_trend_experiment(config).format(), end="")
        return EXIT_OK
    try:
        out = open(args.out, "w", encoding="utf-8")  # fail before the run, not after it
    except OSError as exc:
        raise _cannot_write(args.out, exc) from exc
    with out:
        out.write(run_trend_experiment(config).format())
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The top-level parser has no option that takes a value, so argparse
    # hands the arguments to the subcommand named first, or fails at the
    # top level before it hands them on; only that subcommand is built.
    args = build_parser([arg for arg in argv if arg in _COMMANDS][:1]).parse_args(argv)
    try:
        return args.func(args)
    except (UnreadableFileError, UnwritablePathError) as exc:
        print(f"wordbeam: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataFormatError as exc:
        print(f"wordbeam: data format error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InputValidationError as exc:
        print(f"wordbeam: invalid input: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConfigurationError as exc:
        print(f"wordbeam: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
