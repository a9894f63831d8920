"""Exception classes shared across the package, and the one text-file reader.

`read_utf8` reads a file once and returns its text together with the
sha256 of its bytes; invalid UTF-8 is a DataFormatError. A missing path
raises the OS's FileNotFoundError, with no check of its own beforehand.

The CLI maps DataFormatError (and a missing path, or a path of the wrong
kind) to exit code 2, everything else to exit code 1.
"""

import hashlib
import io
from pathlib import Path


class DataFormatError(ValueError):
    """Malformed or inconsistent input data (CSV, TSV, binary embeddings, manifest)."""


class DimensionError(ValueError):
    """Tensor shape contract violated."""


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required."""


def read_utf8(path: Path, newline: str | None = None) -> tuple[str, str]:
    """The file's text, newlines handled as open() does, and the sha256 of its bytes, from one read."""
    raw = Path(path).read_bytes()
    try:
        text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline=newline).read()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not valid UTF-8 ({exc.reason})") from exc
    return text, hashlib.sha256(raw).hexdigest()
