"""Bounded process-local memos: by object identity and by content.

Compiled objects (kernels, benchmarks, machines, compiled nests) are
reused as the same instances across a campaign, so the memos in front
of fingerprinting, compilation, feature extraction and lint key on
``id()`` (:class:`IdentityMemo`).  A hit costs about 0.6 us there,
against 12 us to hash a suite ``Kernel`` and 18 us to hash a
``Benchmark`` by content; a ``CompiledKernel`` and its
``CodegenNestInfo`` entries are mutable and cannot be hashed at all.

The analyses *beneath* a compiled nest that do not depend on the
compiler variant (its dependence set, its traffic table) get equal
nests from the five variants of a campaign as distinct objects.  Those
memos key on content (:class:`ContentMemo`): hashing a frozen
:class:`~repro.ir.loop.LoopNest` of the default campaign costs about
10-15 us and comparing two equal ones about 11 us, against about
110 us for its dependence analysis and 370 us for its traffic table.
(Times: CPython 3.11 on a 2-vCPU x86-64 host.)
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from typing import Generic, TypeVar

V = TypeVar("V")


class ContentMemo(Generic[V]):
    """An LRU of values keyed by a hashable content key, holding at most
    ``maxsize`` entries.

    A key must name every input the stored value was computed from:
    equal keys share one value object.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, V] = OrderedDict()

    def get(self, key: Hashable) -> V | None:
        """The value stored for ``key``, else ``None``."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: V) -> V:
        """Store ``value`` for ``key``, evicting the least recently used
        entries past ``maxsize``; returns ``value``."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


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
        self._lru: ContentMemo[tuple[object, V]] = ContentMemo(maxsize)

    @property
    def maxsize(self) -> int:
        return self._lru.maxsize

    @maxsize.setter
    def maxsize(self, value: int) -> None:
        self._lru.maxsize = value

    def get(self, obj: object, extra: Hashable = None) -> V | None:
        """The value stored for ``obj`` (and ``extra``), else ``None``."""
        entry = self._lru.get((id(obj), extra))
        if entry is None or entry[0] is not obj:
            return None
        return entry[1]

    def put(self, obj: object, value: V, extra: Hashable = None) -> V:
        """Store ``value`` for ``obj`` (and ``extra``), evicting the least
        recently used entries past ``maxsize``; returns ``value``."""
        self._lru.put((id(obj), extra), (obj, value))
        return value

    def clear(self) -> None:
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)
