"""Exception types shared across the package."""

from __future__ import annotations


class WordbeamError(Exception):
    """Base class for every error raised by this package."""


class InputValidationError(WordbeamError, ValueError):
    """An argument violates a documented precondition."""


class ConfigurationError(WordbeamError, RuntimeError):
    """A decoder or CLI configuration can never produce output."""


class UnreadableFileError(WordbeamError, OSError):
    """A path names nothing that can be read as a file."""


class UnwritablePathError(WordbeamError, OSError):
    """An output path cannot be created or written."""


class DataFormatError(WordbeamError, ValueError):
    """A file does not conform to its expected line format."""

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:" if line is None else f"{path}:{line}:"
        super().__init__(f"{prefix} {message}" if prefix else message)
