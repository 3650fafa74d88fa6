"""Lexicon-constrained CTC decoding, ensemble voting and evaluation.

The package turns per-frame character posteriors into words: a
dual-state beam search constrained by a dictionary prefix tree, with
optional character n-gram scoring; plain or extra-separator label
coding; plurality voting over recognizer ensembles; word-accuracy
evaluation; and seeded synthetic recognizers for desk-scale benchmarks.
"""

from .coding import (
    CodingScheme,
    DecodedLabel,
    PLAIN,
    augment_alphabet,
    choose_separator,
    decode_label,
    encode_label,
    extra_separator,
)
from .ctc import (
    Alphabet,
    ENUMERATION_CAP,
    PosteriorMatrix,
    best_path_decode,
    collapse,
    labeling_distribution,
    labeling_probability,
)
from .decoder import Beam, BeamSet, complete_beams, decode, frame_beams
from .ensemble import Hypothesis, vote, winning_group_size
from .errors import (
    CapacityError,
    ConfigurationError,
    DataFormatError,
    InputValidationError,
    UnreadableFileError,
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
    "Beam",
    "BeamSet",
    "CapacityError",
    "CodingScheme",
    "ConfigurationError",
    "DataFormatError",
    "DecodedLabel",
    "ENUMERATION_CAP",
    "EvalReport",
    "Hypothesis",
    "InputValidationError",
    "NGRAMS",
    "NGRAMS_FORECAST",
    "NgramModel",
    "PLAIN",
    "PosteriorMatrix",
    "PrefixTree",
    "RecognizerSim",
    "ScoringMode",
    "TrendConfig",
    "TrieScorer",
    "TrendReport",
    "UnreadableFileError",
    "WORD_BOUNDARY",
    "WORDS",
    "WordbeamError",
    "augment_alphabet",
    "best_path_decode",
    "build_report",
    "choose_separator",
    "collapse",
    "complete_beams",
    "decode",
    "decode_label",
    "encode_label",
    "extra_separator",
    "forecast_sample",
    "format_report_kv",
    "format_report_table",
    "frame_beams",
    "labeling_distribution",
    "labeling_probability",
    "length_breakdown",
    "levenshtein",
    "make_ensemble",
    "oov_split",
    "run_trend_experiment",
    "vote",
    "winning_group_size",
    "word_accuracy",
]
