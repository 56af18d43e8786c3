"""Whole-file writes that leave either the old file or the new one."""

import contextlib
import os
from pathlib import Path

from .errors import CorpusError

__all__ = ["write_atomic", "check_csv_field", "write_csv"]


def write_atomic(path, data):
    """Writes ``data`` (bytes) to ``path`` in one step.

    The bytes go to a fresh temp file in the same directory, which
    ``os.replace`` then moves over ``path``.  If anything fails on the
    way, ``path`` keeps its previous bytes and the temp file is removed.
    The temp file is created with the mode a plain ``open`` would give.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def check_csv_field(text):
    """Raises :class:`CorpusError` if ``text`` holds a comma, a double
    quote, CR or LF, which an unquoted CSV field cannot hold, or is not
    valid UTF-8 (a file name that the OS gave as undecodable bytes)."""
    if any(c in text for c in ',"\r\n'):
        raise CorpusError(f"{text!r} cannot be a CSV field: it holds a comma, quote, CR or LF")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise CorpusError(f"{text!r} cannot be a CSV field: it is not valid UTF-8") from None


def write_csv(path, rows):
    """Writes ``rows``, each a sequence of strings, with :func:`write_atomic`
    as unquoted UTF-8 CSV with LF line ends.  Every field is checked with
    :func:`check_csv_field` before anything is written."""
    for row in rows:
        for field in row:
            check_csv_field(field)
    write_atomic(path, "".join(",".join(row) + "\n" for row in rows).encode("utf-8"))
