"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data-format error,
3 configuration error. All randomness is controlled by seed flags; no
code path reads the clock or OS entropy.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .coding import CodingScheme, PLAIN, decode_label, extra_separator, choose_separator
from .ctc import Alphabet, PosteriorMatrix, best_path_decode
from .decoder import decode
from .ensemble import Hypothesis, vote, winning_group_size
from .errors import (
    CapacityError,
    ConfigurationError,
    DataFormatError,
    InputValidationError,
    UnreadableFileError,
)
from .evaluation import build_report, format_report_kv, format_report_table
from .files import load_word_list, read_matrix_file, read_text, write_matrix_file
from .language_model import NGRAMS, NGRAMS_FORECAST, NgramModel, ScoringMode, WORDS, forecast_sample
from .prefix_tree import PrefixTree
from .synth import RecognizerSim, make_ensemble
from .trends import TrendConfig, run_trend_experiment

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CONFIG = 3

_MODES = ("bestpath", "words", "ngrams", "ngrams-forecast", "ngrams-forecast-sample")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_decode_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dict", dest="dict_path", help="dictionary file, one word per line")
    p.add_argument("--mode", choices=_MODES, default="words")
    p.add_argument("--width", type=int, default=25)
    p.add_argument("--scheme", choices=("plain", "extrasep"), default="plain")
    p.add_argument("--sep", default="|", help="separator character for --scheme extrasep")
    p.add_argument("--order", type=int, default=2, help="n-gram order")
    p.add_argument("--smoothing-k", type=float, default=1.0)
    p.add_argument("--sample-size", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--nonword-chars",
        default="",
        help="alphabet characters legal outside words (besides the separator)",
    )
    p.add_argument("--lm-corpus", help="train the n-gram model on this word list "
                                       "instead of the dictionary")


def build_parser() -> _Parser:
    parser = _Parser(prog="wordbeam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="decode posterior matrix files")
    p.add_argument("matrices", nargs="+", help="matrix file paths")
    _add_decode_options(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("ensemble", help="vote over recognizer outputs")
    p.add_argument(
        "inputs",
        nargs="+",
        help="either N decode-output TSV files or N directories of matrix files",
    )
    _add_decode_options(p)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("preds", help="predictions (plain list or decode TSV)")
    p.add_argument("gt", help="ground truth (plain list or manifest TSV)")
    p.add_argument("--train-vocab", help="training vocabulary for the OOV/INV split")
    p.add_argument("--case-insensitive", action="store_true")
    p.add_argument("--out-dir", help="write report.txt and report.kv here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate synthetic recognizer outputs")
    p.add_argument("--dict", dest="dict_path", required=True)
    p.add_argument("--n-words", type=int, default=50)
    p.add_argument("--noise", type=float, default=0.25)
    p.add_argument("--confusion-spread", type=float, default=1.5)
    p.add_argument("--members", type=int, default=1)
    p.add_argument("--jitter", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames-per-char", type=int, default=4)
    p.add_argument("--scheme", choices=("plain", "extrasep"), default="plain")
    p.add_argument("--sep", default="", help="separator character (default: auto-pick)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("reproduce-trends", help="run the synthetic trend experiment")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seeds", type=int, default=5, help="number of experiment seeds")
    p.add_argument("--n-words", type=int, default=1000)
    p.add_argument("--members", type=int, default=10)
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--noise", type=float, default=TrendConfig().noise_level)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_reproduce_trends)

    return parser


def _scheme_from_args(args) -> CodingScheme:
    if args.scheme == "extrasep":
        return extra_separator(args.sep or "|")
    return PLAIN


def _mode_from_args(args) -> ScoringMode:
    name = args.mode
    if name == "words":
        return WORDS
    if name == "ngrams":
        return NGRAMS
    if name == "ngrams-forecast":
        return NGRAMS_FORECAST
    return forecast_sample(args.sample_size, args.seed)


def _alphabet_for(symbols: str, scheme: CodingScheme, path: str) -> Alphabet:
    if scheme.separator is None:
        return Alphabet(symbols)
    if not symbols.endswith(scheme.separator):
        raise DataFormatError(
            f"expected separator {scheme.separator!r} as the last alphabet symbol",
            path=path,
        )
    return Alphabet(symbols[:-1], scheme.separator)


class _DecodePipeline:
    """Shared per-alphabet tree and model, rebuilt only when symbols change."""

    def __init__(self, args):
        self.args = args
        self.scheme = _scheme_from_args(args)
        self.mode = None if args.mode == "bestpath" else _mode_from_args(args)
        self.words = load_word_list(args.dict_path) if args.dict_path else None
        self.lm_corpus = load_word_list(args.lm_corpus) if args.lm_corpus else None
        self._cache: dict[str, tuple] = {}

    def decode_one(self, path: str, symbols: str, matrix: PosteriorMatrix) -> tuple[str, float]:
        alphabet, tree, lm = self._setup(symbols, path)
        if self.mode is None:
            label, likelihood = best_path_decode(matrix, alphabet)
        else:
            label, likelihood = decode(
                matrix, alphabet, tree, lm, width=self.args.width, mode=self.mode
            )
        return decode_label(label, self.scheme).text, likelihood

    def _setup(self, symbols: str, path: str):
        cached = self._cache.get(symbols)
        if cached is not None:
            return cached
        alphabet = _alphabet_for(symbols, self.scheme, path)
        tree = lm = None
        if self.mode is not None:
            nonword = set(self.args.nonword_chars)
            if alphabet.separator is not None:
                nonword.add(alphabet.separator)
            word_chars = set(alphabet.characters) - nonword
            tree = PrefixTree(self.words, word_chars, nonword)
            if self.mode.uses_lm:
                corpus = self.lm_corpus if self.lm_corpus is not None else self.words
                lm = NgramModel.train(corpus, self.args.order, self.args.smoothing_k)
        self._cache[symbols] = (alphabet, tree, lm)
        return self._cache[symbols]


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
    pipeline = _DecodePipeline(args)
    lines = []
    for path in args.matrices:
        symbols, matrix = read_matrix_file(path)
        text, likelihood = pipeline.decode_one(path, symbols, matrix)
        lines.append(f"{path}\t{text}\t{likelihood!r}")
    print("\n".join(lines))
    return EXIT_OK


def _read_hypothesis_tsv(path: str) -> list[tuple[str, str, float]]:
    rows: list[tuple[str, str, float]] = []
    for i, raw in enumerate(read_text(path).split("\n"), start=1):
        if not raw.strip():
            continue
        fields = raw.split("\t")
        if len(fields) != 3:
            raise DataFormatError(
                f"expected 'id<TAB>label<TAB>likelihood', got {raw!r}", path=path, line=i
            )
        try:
            likelihood = float(fields[2])
        except ValueError:
            raise DataFormatError(
                f"malformed likelihood {fields[2]!r}", path=path, line=i
            ) from None
        rows.append((fields[0], fields[1], likelihood))
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
    lines = []
    for i, sample_id in enumerate(ids):
        hyps = [Hypothesis(rows[i][1], rows[i][2]) for rows in per_member]
        winner = vote(hyps)
        lines.append(f"{sample_id}\t{winner.text}\t{winning_group_size(hyps, winner)}")
    print("\n".join(lines))
    return EXIT_OK


def _ensemble_from_dirs(args, dirs: list[Path]) -> list[list[tuple[str, str, float]]]:
    names = sorted(p.name for p in dirs[0].iterdir() if p.is_file())
    for d in dirs[1:]:
        other = sorted(p.name for p in d.iterdir() if p.is_file())
        if other != names:
            bad = min(set(names) ^ set(other))
            raise DataFormatError(
                f"matrix directories are misaligned, first mismatch at {bad!r}",
                path=str(d),
            )
    pipeline = _DecodePipeline(args)
    per_member = []
    for d in dirs:
        rows = []
        for name in names:
            path = d / name
            symbols, matrix = read_matrix_file(path)
            text, likelihood = pipeline.decode_one(str(path), symbols, matrix)
            rows.append((name, text, likelihood))
        per_member.append(rows)
    return per_member


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
    report = build_report(preds, gts, vocab, args.case_insensitive)
    table = format_report_table(report)
    kv = format_report_kv(report)
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
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
    if args.scheme == "extrasep":
        sep = args.sep or choose_separator(characters)
        scheme = extra_separator(sep)
        alphabet = Alphabet(characters, sep)
    else:
        scheme = PLAIN
        alphabet = Alphabet(characters)
    base = RecognizerSim(
        alphabet=alphabet,
        frames_per_char=args.frames_per_char,
        noise_level=args.noise,
        confusion_spread=args.confusion_spread,
        seed=args.seed,
    )
    sims = make_ensemble(base, args.members, jitter=args.jitter)
    rng = random.Random(f"synth|{args.seed}")
    sample = [rng.choice(words) for _ in range(args.n_words)]
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pad = max(4, len(str(args.n_words - 1)))
    manifest = []
    for i, word in enumerate(sample):
        manifest.append(f"sample_{i:0{pad}d}.mat\t{word}")
    for k, sim in enumerate(sims):
        member_dir = out / f"member_{k:02d}"
        member_dir.mkdir(exist_ok=True)
        for i, word in enumerate(sample):
            matrix = sim.emit(word, scheme)
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
    report = run_trend_experiment(config)
    text = report.format()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnreadableFileError as exc:
        print(f"wordbeam: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataFormatError as exc:
        print(f"wordbeam: data format error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InputValidationError as exc:
        print(f"wordbeam: invalid input: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigurationError, CapacityError) as exc:
        print(f"wordbeam: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
