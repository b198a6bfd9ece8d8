"""Artifact files are replaced whole: a reader sees the old file or the new
one.  Every versioned JSON document is read by :func:`read_document`, and
only it and the corpus reader, once per line, call :func:`decode_json`."""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import Any

__all__ = ["SCHEMA_VERSION", "decode_json", "read_document", "write_atomic"]

SCHEMA_VERSION = 1  # of every JSON document written and read back


def decode_json(text: str, error: type[Exception], where: str) -> Any:
    """``json.loads(text)``; text that is not a JSON document raises
    ``error`` naming ``where``.  That is invalid syntax (``JSONDecodeError``),
    an integer past the interpreter's digit limit (a plain ``ValueError``) or
    nesting past its recursion limit (``RecursionError``)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: invalid JSON ({exc})") from exc


def read_document(path: str | Path, error: type[Exception], what: str) -> dict:
    """The JSON object in the UTF-8 file ``path``, whose ``schema_version`` is
    :data:`SCHEMA_VERSION`; any other file raises ``error`` naming ``what``."""
    where = f"{what} {path}"
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{where} is not UTF-8 text: {exc.reason}") from exc
    except (OSError, ValueError) as exc:  # missing, a directory, a NUL in the path
        raise error(f"{where} is not readable: {getattr(exc, 'strerror', None) or exc}") from exc
    doc = decode_json(text, error, where)
    if not isinstance(doc, dict):
        raise error(f"{where} must be a JSON object")
    version = doc.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:  # True == 1
        raise error(f"{where}: schema_version must be {SCHEMA_VERSION}, got {version!r}")
    return doc


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` (UTF-8) to a temp file beside ``path``, sync it, then
    ``os.replace`` it over ``path``; on any failure ``path`` keeps its previous
    bytes and the temp file is removed.  Permissions are those of ``open``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb") as fh:
            fh.write(text.encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
