"""Atomic text output: write to a temporary file beside the target, then
rename it over the target, so a failed write never leaves a partial file.
The file gets the mode a plain ``open`` would give it (0666 less the umask),
not the owner-only mode of the temporary file."""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager

__all__ = ["atomic_open"]


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


@contextmanager
def atomic_open(path):
    """Text handle (UTF-8, no newline translation) that replaces ``path`` when
    the block exits normally and is discarded when it raises."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-designmine-")
    try:
        os.fchmod(fd, 0o666 & ~_umask())
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
