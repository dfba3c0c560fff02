"""A bounded memo keyed by object identity.

Model objects (kernels, benchmarks, machines, compiled nests) are
costly to hash by content but are reused as the same instances across a
campaign, so the process-local memos in front of fingerprinting,
compilation, feature extraction and lint key on ``id()`` instead.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from typing import Generic, TypeVar

V = TypeVar("V")


class IdentityMemo(Generic[V]):
    """An LRU of values keyed by an object's identity plus an optional
    hashable ``extra`` (machine key, variant, ...), holding at most
    ``maxsize`` entries.

    Each entry pins its key object, so the ``id`` cannot be reused by a
    new object while the entry lives; lookups check identity as well,
    which guards the evict-then-reuse corner.  A hit returns the stored
    value object itself.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple[int, Hashable], tuple[object, V]] = OrderedDict()

    def get(self, obj: object, extra: Hashable = None) -> V | None:
        """The value stored for ``obj`` (and ``extra``), else ``None``."""
        key = (id(obj), extra)
        entry = self._entries.get(key)
        if entry is None or entry[0] is not obj:
            return None
        self._entries.move_to_end(key)
        return entry[1]

    def put(self, obj: object, value: V, extra: Hashable = None) -> V:
        """Store ``value`` for ``obj`` (and ``extra``), evicting the least
        recently used entries past ``maxsize``; returns ``value``."""
        key = (id(obj), extra)
        self._entries[key] = (obj, value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
