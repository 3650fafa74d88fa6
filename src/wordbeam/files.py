"""Text file formats: posterior matrices and word lists.

A matrix file is line oriented: a ``T C`` header, the non-blank alphabet
as one backslash-escaped string (blank is implicit, last column), then T
lines of C space-separated decimal floats. Word lists hold one word per
line; ``#`` starts a comment line and blank lines are skipped.
"""

from __future__ import annotations

from pathlib import Path

from .ctc import PosteriorMatrix
from .errors import DataFormatError, InputValidationError, UnreadableFileError

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
    symbols = unescape_alphabet(lines[1], path=path, line=2)
    if len(symbols) + 1 != c:
        raise DataFormatError(
            f"alphabet has {len(symbols)} symbols but header says C={c}", path=path, line=2
        )
    if len(lines) != 2 + t:
        raise DataFormatError(
            f"expected {t} value rows, found {len(lines) - 2}", path=path, line=len(lines)
        )
    rows: list[list[float]] = []
    for i, line in enumerate(lines[2:], start=3):
        fields = line.split(" ")
        if len(fields) != c:
            raise DataFormatError(
                f"expected {c} values, found {len(fields)}", path=path, line=i
            )
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise DataFormatError(f"malformed float in row {line!r}", path=path, line=i) from None
    try:
        matrix = PosteriorMatrix(rows)
    except InputValidationError as exc:
        raise DataFormatError(str(exc), path=path) from exc
    return symbols, matrix


def read_text(path: str | Path) -> str:
    """The UTF-8 text of a file; an unreadable path or bytes that are not
    UTF-8 raise a package error that names the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"not UTF-8 text: {exc.reason} at byte {exc.start}",
                              path=str(path)) from None
    except OSError as exc:
        raise UnreadableFileError(f"cannot read {path}: {exc.strerror or exc}") from exc


def write_matrix_file(path: str | Path, m: PosteriorMatrix, symbols: str) -> None:
    Path(path).write_text(serialize_matrix(m, symbols), encoding="utf-8")


def read_matrix_file(path: str | Path) -> tuple[str, PosteriorMatrix]:
    return parse_matrix(read_text(path), path=str(path))


def load_word_list(path: str | Path) -> list[str]:
    """Words from a UTF-8 file, one per line; comments and blanks skipped."""
    words: list[str] = []
    for i, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if any(ch.isspace() for ch in line):
            raise DataFormatError(
                f"word {line!r} contains embedded whitespace", path=str(path), line=i
            )
        words.append(line)
    return words
