"""Text file formats: posterior matrices and word lists.

A matrix file is line oriented: a ``T C`` header, the non-blank alphabet
as one backslash-escaped string (blank is implicit, last column), then T
lines of C values separated by single spaces, each in Python ``float``
syntax. Matrix files are read a group at a time (``read_matrix_file``),
converted and checked as one stack unless a file needs the file-by-file
parse (``parse_matrix``). Word lists hold one word per line; ``#``
starts a comment line and blank lines are skipped.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .ctc import PosteriorMatrix, posterior_matrices
from .errors import DataFormatError, InputValidationError, UnreadableFileError, WordbeamError

_ESCAPES = {"\\": "\\\\", " ": "\\ ", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_UNESCAPES = {"\\": "\\", " ": " ", "t": "\t", "n": "\n", "r": "\r"}


def escape_alphabet(symbols: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in symbols)


def unescape_alphabet(s: str, *, path: str | None = None, line: int | None = None) -> str:
    out: list[str] = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch == "\\":
            if i + 1 >= len(s) or s[i + 1] not in _UNESCAPES:
                raise DataFormatError("dangling or unknown escape in alphabet line",
                                      path=path, line=line)
            out.append(_UNESCAPES[s[i + 1]])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def serialize_matrix(m: PosteriorMatrix, symbols: str) -> str:
    if len(symbols) + 1 != m.num_classes:
        raise InputValidationError(
            f"alphabet of {len(symbols)} symbols does not match {m.num_classes} columns"
        )
    lines = [f"{m.num_frames} {m.num_classes}", escape_alphabet(symbols)]
    for row in m.probs:
        lines.append(" ".join(format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str, path: str = "<string>") -> tuple[str, PosteriorMatrix]:
    """Parse a matrix file body into (alphabet symbols, matrix)."""
    symbols, _, c, body = _layout(text, path, {})
    probs = _parse_rows(body, c, path)  # raises the first faulty row's error
    try:
        matrix = PosteriorMatrix(probs)
    except InputValidationError as exc:
        row = getattr(exc, "row", None)  # a faulty value row is named by its line
        raise DataFormatError(str(exc), path=path, line=None if row is None else row + 3) from exc
    return symbols, matrix


def parse_matrices(texts: Sequence[str],
                   paths: Sequence[str]) -> tuple[list, WordbeamError | None]:
    """``(found, fault)``: ``parse_matrix(text, path)`` of each of
    ``texts`` and ``paths``, in order, up to the first file that raises,
    and that file's error, or None; converted and checked as one group.

    The value rows of each run of files with the same C go through one
    ``np.loadtxt`` and the stack through one ``posterior_matrices`` check;
    each distinct alphabet line is unescaped once. ``loadtxt`` takes a
    subset of ``float()`` syntax with the same values, and the group is
    parsed this way only if every file has its header, alphabet and row
    count right, T >= 1, C >= 2, every run converts to its T x C rows and
    the stack passes its check. Otherwise the files are parsed one by one
    with ``parse_matrix``, so a field that only ``float()`` reads (``1_0``,
    ``٠.5``) still parses, up to the first faulty file, whose own error is
    the fault.
    """
    found = _parse_group(texts)
    if found is not None:
        return found, None
    found = []
    for text, path in zip(texts, paths):
        try:
            found.append(parse_matrix(text, path))
        except WordbeamError as exc:
            return found, exc
    return found, None


def _parse_group(texts: Sequence[str]) -> list[tuple[str, PosteriorMatrix]] | None:
    """The ``parse_matrices`` of ``texts`` by the grouped conversion, or
    None where any file needs ``parse_matrix``."""
    alphabets: dict[str, str] = {}
    symbols_of: list[str] = []  # per file
    runs: list[tuple[int, list[str], list[int]]] = []  # (C, rows, Ts) per run of equal C
    try:
        for text in texts:
            symbols, t, c, body = _layout(text, "", alphabets)
            if t < 1 or c < 2:
                return None
            symbols_of.append(symbols)
            if not runs or runs[-1][0] != c:
                runs.append((c, [], []))
            runs[-1][1].extend(body)
            runs[-1][2].append(t)
    except DataFormatError:
        return None
    matrices: list[PosteriorMatrix] = []
    try:
        for c, rows, frames in runs:
            # loadtxt skips rows it sees as blank (and warns if all are) and
            # reads no empty field, which no valid row has.
            if "" in rows or "\r" in rows:
                return None
            stack = np.loadtxt(rows, delimiter=" ", comments=None, dtype=np.float64, ndmin=2)
            if stack.shape != (len(rows), c):
                return None
            matrices += posterior_matrices(stack, frames)
    except ValueError:  # InputValidationError included
        return None
    return list(zip(symbols_of, matrices))


def _layout(text: str, path: str, alphabets: dict[str, str]) -> tuple[str, int, int, list[str]]:
    """A matrix text's alphabet symbols, T, C and value rows, with its header,
    alphabet and row count checked; ``alphabets`` keeps the symbols of each
    alphabet line unescaped so far."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 2:
        raise DataFormatError("expected a 'T C' header and an alphabet line", path=path, line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise DataFormatError(f"malformed header {lines[0]!r}", path=path, line=1)
    try:
        t, c = int(header[0]), int(header[1])
    except ValueError:
        raise DataFormatError(f"non-integer header {lines[0]!r}", path=path, line=1) from None
    symbols = alphabets.get(lines[1])
    if symbols is None:
        symbols = alphabets[lines[1]] = unescape_alphabet(lines[1], path=path, line=2)
    if len(symbols) + 1 != c:
        raise DataFormatError(
            f"alphabet has {len(symbols)} symbols but header says C={c}", path=path, line=2
        )
    if len(lines) != 2 + t:
        raise DataFormatError(
            f"expected {t} value rows, found {len(lines) - 2}", path=path, line=len(lines)
        )
    del lines[:2]
    return symbols, t, c, lines


def _parse_rows(body: list[str], c: int, path: str) -> list[list[float]]:
    """Parse value rows one at a time, raising the first faulty row's error
    with its line number."""
    rows: list[list[float]] = []
    for i, line in enumerate(body, start=3):
        fields = line.split(" ")
        if len(fields) != c:
            raise DataFormatError(
                f"expected {c} values, found {len(fields)}", path=path, line=i
            )
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise DataFormatError(f"malformed float in row {line!r}", path=path, line=i) from None
    return rows


def read_text(path: str | Path) -> str:
    """The UTF-8 text of a file; an unreadable path or bytes that are not
    UTF-8 raise a package error that names the path."""
    try:
        with open(path, encoding="utf-8") as f:  # as Path.read_text, without a Path
            return f.read()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"not UTF-8 text: {exc.reason} at byte {exc.start}",
                              path=str(path)) from None
    except OSError as exc:
        raise UnreadableFileError(f"cannot read {path}: {exc.strerror or exc}") from exc


def write_matrix_file(path: str | Path, m: PosteriorMatrix, symbols: str) -> None:
    Path(path).write_text(serialize_matrix(m, symbols), encoding="utf-8")


def read_matrix_file(paths: Sequence[str | Path]) -> tuple[list, WordbeamError | None]:
    """``(found, fault)``: ``(symbols, matrix)`` of each matrix file of
    ``paths``, in order, up to the first fault in file order, of a read or
    of a parse, and that fault, or None. The files before the first one
    that cannot be read are parsed as one group (``parse_matrices``)."""
    texts: list[str] = []
    fault = None
    for path in paths:
        try:
            texts.append(read_text(path))
        except WordbeamError as exc:
            fault = exc
            break
    found, parse_fault = parse_matrices(texts, [str(path) for path in paths[:len(texts)]])
    return found, parse_fault if parse_fault is not None else fault


def load_word_list(path: str | Path) -> list[str]:
    """Words from a UTF-8 file, one per line; comments and blanks skipped.

    The stripped lines are tested for embedded whitespace in one pass: a
    stripped line has none at its ends, so the words' concatenation has
    whitespace only if a word does. Only then are the lines walked again,
    one by one, to name the first faulty one.
    """
    lines = read_text(path).split("\n")
    words = [line for line in map(str.strip, lines) if line and line[0] != "#"]
    if len("".join(words).split(maxsplit=1)) > 1:
        for i, line in enumerate(map(str.strip, lines), start=1):
            if line and line[0] != "#" and len(line.split()) != 1:
                raise DataFormatError(
                    f"word {line!r} contains embedded whitespace", path=str(path), line=i
                )
    return words
