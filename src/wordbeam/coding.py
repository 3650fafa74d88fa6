"""Label coding: plain labels or labels closed by an end-of-word separator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .ctc import Alphabet
from .errors import InputValidationError

SEPARATOR_CANDIDATES = ("|", "#", "~", "¤")


@dataclass(frozen=True)
class CodingScheme:
    """Plain coding (``separator`` None) or extra-separator coding.

    The separator, when present, must not occur in the dataset alphabet;
    it closes every encoded label and gives the recognizer an explicit
    end-of-word cue.
    """

    separator: str | None = None

    def __post_init__(self) -> None:
        if self.separator is not None and len(self.separator) != 1:
            raise InputValidationError("separator must be a single character")


PLAIN = CodingScheme()


def extra_separator(sep: str = "|") -> CodingScheme:
    return CodingScheme(sep)


class DecodedLabel(NamedTuple):
    text: str
    separator_present: bool


def encode_label(word: str, scheme: CodingScheme) -> str:
    if scheme.separator is None:
        return word
    if scheme.separator in word:
        raise InputValidationError(
            f"word {word!r} contains the separator {scheme.separator!r}"
        )
    return word + scheme.separator


def decode_label(label: str, scheme: CodingScheme) -> DecodedLabel:
    """Strip one trailing separator if present.

    A missing separator is tolerated (decoder output may omit it) and
    reported through ``separator_present``.
    """
    if scheme.separator is not None and label.endswith(scheme.separator):
        return DecodedLabel(label[: -1], True)
    return DecodedLabel(label, False)


def augment_alphabet(alphabet: Alphabet, scheme: CodingScheme) -> Alphabet:
    """Attach the scheme's separator column; plain coding is a no-op.

    The base character order is preserved, the separator sits right
    before the blank.
    """
    if scheme.separator is None:
        return alphabet
    if alphabet.separator is not None:
        raise InputValidationError("alphabet already carries a separator")
    return Alphabet(alphabet.characters, scheme.separator)


def choose_separator(dataset_characters: Iterable[str]) -> str:
    """First candidate separator absent from the dataset's characters."""
    present = set(dataset_characters)
    for cand in SEPARATOR_CANDIDATES:
        if cand not in present:
            return cand
    raise InputValidationError(
        f"all candidate separators {SEPARATOR_CANDIDATES!r} occur in the dataset"
    )
