"""Label coding, set by the alphabet: a word is its own label (plain
coding), or the alphabet's separator, an extra output class cueing the
end of the word, closes it (extra-separator coding)."""

from __future__ import annotations

from typing import Iterable

from .ctc import Alphabet
from .errors import InputValidationError

SEPARATOR_CANDIDATES = ("|", "#", "~", "¤")


def encode_label(word: str, alphabet: Alphabet) -> str:
    sep = alphabet.separator
    if sep is None:
        return word
    if sep in word:
        raise InputValidationError(f"word {word!r} contains the separator {sep!r}")
    return word + sep


def decode_label(label: str, alphabet: Alphabet) -> str:
    """Strip one trailing separator if present.

    A missing separator is tolerated: decoder output may omit it.
    """
    sep = alphabet.separator
    if sep is not None and label.endswith(sep):
        return label[:-1]
    return label


def choose_separator(dataset_characters: Iterable[str]) -> str:
    """First candidate separator absent from the dataset's characters."""
    present = set(dataset_characters)
    for cand in SEPARATOR_CANDIDATES:
        if cand not in present:
            return cand
    raise InputValidationError(
        f"all candidate separators {SEPARATOR_CANDIDATES!r} occur in the dataset"
    )
