"""Atomic file writes for stage outputs.

Resume treats an existing stage file as done, so a file must appear only
once it is complete: it is written to a temporary file in the same directory
and moved into place with `os.replace`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from pathlib import Path


@contextmanager
def atomic_write(path):
    """Open a temporary sibling of `path` for text writing; on a clean exit
    it replaces `path`, on an exception it is removed and `path` is left
    untouched.  Newlines are not translated (`newline=""`), as the csv
    module requires."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
