"""Exception classes shared across the package, and the text-file reader
that reports invalid UTF-8 as one of them.

The CLI maps DataFormatError (and a missing path, or a path of the wrong
kind) to exit code 2, everything else to exit code 1.
"""

import io
from pathlib import Path


class DataFormatError(ValueError):
    """Malformed or inconsistent input data (CSV, TSV, binary embeddings, manifest)."""


class DimensionError(ValueError):
    """Tensor shape contract violated."""


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required."""


def decode_utf8(raw: bytes, path: Path, newline: str | None = None) -> str:
    """path's bytes as text, newlines handled as open() does; invalid UTF-8 is a DataFormatError."""
    try:
        return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline=newline).read()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not valid UTF-8 ({exc.reason})") from exc


def read_utf8(path: Path, newline: str | None = None) -> str:
    """The file's text, newlines handled as open() does; invalid UTF-8 is a DataFormatError."""
    return decode_utf8(Path(path).read_bytes(), path, newline)
