"""Whole-file writes that leave either the old file or the new one."""

import contextlib
import os
from pathlib import Path

__all__ = ["write_atomic"]


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
