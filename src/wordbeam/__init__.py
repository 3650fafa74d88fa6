"""Lexicon-constrained CTC decoding, ensemble voting and evaluation.

The package turns per-frame character posteriors into words: a
dual-state beam search constrained by a dictionary prefix tree, with
optional character n-gram scoring; plain or extra-separator label
coding, set by the alphabet; plurality voting over recognizer
ensembles; word-accuracy evaluation; and seeded synthetic recognizers
for desk-scale benchmarks.
"""

from .coding import choose_separator, decode_label, encode_label
from .ctc import Alphabet, PosteriorMatrix, best_path_decode
from .decoder import decode
from .ensemble import Hypothesis, vote, winning_group_size
from .errors import (
    ConfigurationError,
    DataFormatError,
    InputValidationError,
    UnreadableFileError,
    UnwritablePathError,
    WordbeamError,
)
from .evaluation import (
    EvalReport,
    build_report,
    format_report_kv,
    format_report_table,
    length_breakdown,
    levenshtein,
    oov_split,
    word_accuracy,
)
from .language_model import (
    NGRAMS,
    NGRAMS_FORECAST,
    NgramModel,
    ScoringMode,
    TrieScorer,
    WORD_BOUNDARY,
    WORDS,
    forecast_sample,
)
from .prefix_tree import PrefixTree
from .synth import RecognizerSim, make_ensemble
from .trends import TrendConfig, TrendReport, run_trend_experiment

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "ConfigurationError",
    "DataFormatError",
    "EvalReport",
    "Hypothesis",
    "InputValidationError",
    "NGRAMS",
    "NGRAMS_FORECAST",
    "NgramModel",
    "PosteriorMatrix",
    "PrefixTree",
    "RecognizerSim",
    "ScoringMode",
    "TrendConfig",
    "TrieScorer",
    "TrendReport",
    "UnreadableFileError",
    "UnwritablePathError",
    "WORD_BOUNDARY",
    "WORDS",
    "WordbeamError",
    "best_path_decode",
    "build_report",
    "choose_separator",
    "decode",
    "decode_label",
    "encode_label",
    "forecast_sample",
    "format_report_kv",
    "format_report_table",
    "length_breakdown",
    "levenshtein",
    "make_ensemble",
    "oov_split",
    "run_trend_experiment",
    "vote",
    "winning_group_size",
    "word_accuracy",
]
