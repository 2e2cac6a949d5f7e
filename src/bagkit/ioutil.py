"""Small file-writing helpers shared by report writers and the CLI."""

from __future__ import annotations

import os
import tempfile
from collections.abc import Callable
from pathlib import Path
from typing import BinaryIO

from .errors import DataError


def atomic_write(path: str | Path, write: Callable[[BinaryIO], object]) -> None:
    """Call write on a same-directory binary temp file, then rename it to path.

    Readers see the old file or the whole new one, never a partial write.
    OSError becomes DataError naming the path.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                write(fh)
            os.replace(tmp_name, path)
        except BaseException:
            os.unlink(tmp_name)
            raise
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write UTF-8 text to path atomically, newlines untranslated."""
    atomic_write(path, lambda fh: fh.write(text.encode("utf-8")))
