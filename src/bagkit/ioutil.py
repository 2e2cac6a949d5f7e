"""The file boundary: every file bagkit reads or writes goes through here.

Reading: ``open_text`` opens a file; ``parse_json`` and ``check_object`` check
a JSON document against a schema of field names and JSON kinds (for a
dataclass, ``field_kinds``). Bad input raises a DataError or ConfigError that
names the path and the field. Writing: ``atomic_write``, whole file or none.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import IO, BinaryIO

from .errors import ConfigError, DataError

# JSON kind, named as the Python annotation -> accepted Python types and how
# to name them. Python's bool is an int subclass, so true/false is checked
# apart: it is neither an int nor a number here, and nothing else is a bool.
_KINDS = {
    "bool": ((bool,), "true or false"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "list": ((list,), "a list"),
    "dict": ((dict,), "an object"),
    "dict | None": ((dict, type(None)), "an object or null"),
}


@contextmanager
def open_text(path: str | Path, what: str, mode: str = "r") -> Iterator[IO]:
    """Open path as UTF-8 text (or bytes, mode "rb"); atomic_write's twin.

    A missing file is DataError("{what} not found: {path}"). An OSError or a
    non-UTF-8 byte, also on a read in the with block, is a DataError too.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{what} not found: {path}")
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def parse_json(text: str, where: str, error: type[Exception] = ConfigError):
    """json.loads(text); text that is not JSON raises error naming where."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise error(f"{where}: not valid JSON: {exc}") from exc


def require(value, kind: str, where: str, error: type[Exception] = ConfigError):
    """Return value if it is a JSON value of kind, else raise error naming where."""
    types, desc = _KINDS[kind]
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, types):
        raise error(f"{where} must be {desc}, got {value!r}")
    return value


def check_object(
    doc, fields: dict[str, str], where: str, error=ConfigError, optional=(), sep="."
) -> dict:
    """Return doc if it is a JSON object of these fields, else raise error.

    fields maps each field name to its kind (see require). Names not in
    fields are errors, and so are absent names unless listed in optional.
    Field messages locate a field as where + sep + name.
    """
    if not isinstance(doc, dict):
        raise error(f"{where} must be an object")
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise error(f"{where}: unknown fields {unknown}")
    missing = sorted(set(fields) - set(doc) - set(optional))
    if missing:
        raise error(f"{where}: missing fields {missing}")
    for key, value in doc.items():
        require(value, fields[key], f"{where}{sep}{key}", error)
    return doc


def field_kinds(cls) -> dict[str, str]:
    """check_object schema of a dataclass: field name -> annotation string."""
    return {field.name: field.type for field in dataclasses.fields(cls)}


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
