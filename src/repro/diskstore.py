"""The one write path for everything the program persists.

:func:`atomic_write` replaces a file through a unique temporary file
beside it and ``os.replace``: readers see the old file or the new one,
never a torn half-write, and concurrent writers of one path never share
a temporary file.  No other module creates temporary files or renames
files.

:class:`KeyedStore` is the layout of the content-addressed caches: one
file per key whose first line is the sha256 of the payload after it.
A digest mismatch, or a payload the caller cannot decode, is a corrupt
miss: logged, counted as ``<name>.corrupt`` and deleted, so the
caller's next ``put`` rewrites it.  A failed ``put`` is logged, counted
as ``<name>.write_error`` and reported as ``False``; callers that must
not lose a write call :func:`atomic_write`, which raises ``OSError``.
"""

from __future__ import annotations

import hashlib
import logging
import os
import tempfile
from collections.abc import Callable
from pathlib import Path
from typing import TypeVar

from repro import telemetry

_LOG = logging.getLogger(__name__)

T = TypeVar("T")

#: Length of the framing line: a hex sha256 digest and a newline.
_HEADER = 65


def atomic_write(path: "str | Path", data: bytes) -> None:
    """Replace ``path``'s contents with ``data`` atomically.

    Raises ``OSError`` when the write fails; the temporary file is
    removed on every path, including a failed ``os.replace``.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass  # the success path already renamed it away


class KeyedStore:
    """Digest-framed files under ``root``, one per key.

    ``name`` prefixes the store's telemetry counters
    (``<name>.corrupt``, ``<name>.write_error``).
    """

    def __init__(self, root: "str | Path", suffix: str, name: str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.suffix = suffix
        self.name = name

    def path(self, key: str) -> Path:
        return self.root / f"{key}{self.suffix}"

    def get(self, key: str) -> bytes | None:
        """The payload stored under ``key``; ``None`` when absent or
        when its digest does not match (a corrupt miss)."""
        try:
            raw = self.path(key).read_bytes()
        except OSError:
            return None
        payload = raw[_HEADER:]
        if raw[:_HEADER] != hashlib.sha256(payload).hexdigest().encode() + b"\n":
            self._corrupt(key, "digest mismatch")
            return None
        return payload

    def load(self, key: str, decode: Callable[[bytes], T]) -> T | None:
        """``decode(get(key))``; a payload ``decode`` rejects with any
        exception is a corrupt miss, like a digest mismatch."""
        payload = self.get(key)
        if payload is None:
            return None
        try:
            return decode(payload)
        except Exception as exc:  # whatever the decoder raises, it is a miss
            self._corrupt(key, f"{type(exc).__name__}: {exc}")
            return None

    def put(self, key: str, data: bytes) -> bool:
        """Store ``data`` under ``key``; ``False`` when the write failed."""
        digest = hashlib.sha256(data).hexdigest().encode()
        try:
            atomic_write(self.path(key), digest + b"\n" + data)
        except OSError as exc:
            _LOG.warning("%s write to %s failed: %s", self.name, self.path(key), exc)
            telemetry.count(f"{self.name}.write_error")
            return False
        return True

    def _corrupt(self, key: str, why: str) -> None:
        _LOG.warning("corrupt %s entry %s (%s); dropping it",
                     self.name, self.path(key).name, why)
        telemetry.count(f"{self.name}.corrupt")
        try:
            self.path(key).unlink()
        except OSError:
            pass  # already gone; the next put rewrites it anyway
