"""Artifact files are replaced whole: a reader sees the old file or the new
one.  Every JSON document read back is decoded by :func:`decode_json`."""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import Any

__all__ = ["decode_json", "write_atomic"]


def decode_json(text: str, error: type[Exception], where: str) -> Any:
    """``json.loads(text)``; text that is not a JSON document raises
    ``error`` naming ``where``.  That is invalid syntax (``JSONDecodeError``),
    an integer past the interpreter's digit limit (a plain ``ValueError``) or
    nesting past its recursion limit (``RecursionError``)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: invalid JSON ({exc})") from exc


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
