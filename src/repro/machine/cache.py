"""Cache hierarchy descriptors and a trace-based reference simulator.

Two layers:

* :class:`CacheLevel` — the datasheet description the analytic traffic
  model (:mod:`repro.perf.traffic`) consumes;
* :class:`SetAssociativeCache` / :class:`CacheHierarchy` — a concrete
  LRU set-associative simulator.  The test suite uses it to
  cross-validate the analytic model's hit/miss placement on small
  kernels, and it is part of the public API for users studying
  individual loops.  :meth:`SetAssociativeCache.access` touches one
  address; :meth:`SetAssociativeCache.access_lines` replays a numpy
  batch of lines and ends in exactly the state the one-by-one loop
  would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MachineConfigError


@dataclass(frozen=True)
class CacheLevel:
    """One level of the data-cache hierarchy."""

    name: str
    capacity_bytes: int
    line_bytes: int
    associativity: int
    #: Load-to-use latency in core cycles.
    latency_cycles: float
    #: Sustained bandwidth between this level and the core(s) it feeds,
    #: in bytes per cycle *per core*.
    bytes_per_cycle_per_core: float
    #: Number of cores sharing one instance of this level (1 = private).
    shared_by_cores: int = 1

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise MachineConfigError(f"{self.name}: capacity must be positive")
        if self.line_bytes <= 0 or self.capacity_bytes % self.line_bytes:
            raise MachineConfigError(f"{self.name}: capacity must be a multiple of line size")
        if self.associativity <= 0:
            raise MachineConfigError(f"{self.name}: associativity must be positive")
        lines = self.capacity_bytes // self.line_bytes
        if lines % self.associativity:
            raise MachineConfigError(f"{self.name}: lines not divisible by associativity")
        if self.shared_by_cores <= 0:
            raise MachineConfigError(f"{self.name}: shared_by_cores must be positive")

    @property
    def num_lines(self) -> int:
        return self.capacity_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity

    def effective_capacity(self, active_cores: int) -> int:
        """Capacity available to one core when ``active_cores`` cores
        share this level (private levels are unaffected)."""
        if self.shared_by_cores <= 1:
            return self.capacity_bytes
        sharers = min(max(active_cores, 1), self.shared_by_cores)
        return self.capacity_bytes // sharers

    def __str__(self) -> str:
        from repro.units import pretty_bytes

        return (
            f"{self.name}: {pretty_bytes(self.capacity_bytes)}, "
            f"{self.associativity}-way, {self.line_bytes}B lines"
        )


@dataclass
class CacheStats:
    """Hit/miss counters for the reference simulator."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """A classic LRU set-associative cache simulator (byte-addressed).

    Used as ground truth for the analytic traffic model in tests.  LRU
    recency is tracked with a monotone counter per line; sets are dicts
    keyed by tag for O(1) lookup, kept in recency order (a hit moves
    its tag to the end), so the first key is always the LRU way.
    """

    def __init__(self, level: CacheLevel) -> None:
        self.level = level
        self.stats = CacheStats()
        self._sets: list[dict[int, int]] = [dict() for _ in range(level.num_sets)]
        self._clock = 0

    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self.level.line_bytes
        return line % self.level.num_sets, line // self.level.num_sets

    def access(self, address: int) -> bool:
        """Touch one byte address; returns True on hit.

        Misses install the line, evicting the LRU way when the set is
        full (the victim is reported to ``stats.evictions``).
        """
        if address < 0:
            raise ValueError("addresses must be non-negative")
        set_idx, tag = self._locate(address)
        ways = self._sets[set_idx]
        self._clock += 1
        self.stats.accesses += 1
        if tag in ways:
            del ways[tag]
            ways[tag] = self._clock
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(ways) >= self.level.associativity:
            victim = min(ways, key=ways.__getitem__)
            del ways[victim]
            self.stats.evictions += 1
        ways[tag] = self._clock
        return False

    def access_lines(self, lines: "np.ndarray | list[int]") -> np.ndarray:
        """Touch a batch of line numbers (``address // line_bytes``) in
        order; returns the miss mask.

        Equivalent to :meth:`access` on each ``line * line_bytes`` in
        turn: ``stats``, every set's tags with their clock values, and
        the clock end up identical.  Sets are independent, so the batch
        is grouped by set (stable, so each set keeps its own order).
        An access whose previous access to the same set had the same
        tag is a guaranteed hit that leaves the LRU order unchanged;
        only the first access of each such run walks the set's dict.
        """
        lines = np.asarray(lines, dtype=np.int64)
        n = lines.size
        if not n:
            return np.zeros(0, dtype=bool)
        if lines.min() < 0:
            raise ValueError("addresses must be non-negative")
        num_sets = self.level.num_sets
        set_of = lines % num_sets
        order = np.argsort(set_of, kind="stable")
        sets = set_of[order]
        tags = lines[order] // num_sets
        head = np.ones(n, dtype=bool)
        head[1:] = (sets[1:] != sets[:-1]) | (tags[1:] != tags[:-1])
        heads = np.flatnonzero(head)
        # Each run ends one before the next run starts; its tag's clock
        # is the stream position of the run's last access.
        ends = np.append(heads[1:], n) - 1
        clocks = order[ends] + (self._clock + 1)

        head_miss = []
        miss = head_miss.append
        evictions = 0
        ways_max = self.level.associativity
        all_sets = self._sets
        for s, tag, clock in zip(sets[heads].tolist(), tags[heads].tolist(),
                                 clocks.tolist()):
            ways = all_sets[s]
            if tag in ways:
                del ways[tag]
                miss(False)
            else:
                if len(ways) >= ways_max:
                    del ways[next(iter(ways))]
                    evictions += 1
                miss(True)
            ways[tag] = clock

        mask = np.zeros(n, dtype=bool)
        mask[order[heads]] = head_miss
        misses = int(np.count_nonzero(mask))
        self._clock += n
        self.stats.accesses += n
        self.stats.hits += n - misses
        self.stats.misses += misses
        self.stats.evictions += evictions
        return mask

    def access_range(self, address: int, nbytes: int) -> int:
        """Touch ``nbytes`` starting at ``address``; returns miss count."""
        misses = 0
        line = self.level.line_bytes
        first = address // line
        last = (address + max(nbytes, 1) - 1) // line
        for ln in range(first, last + 1):
            if not self.access(ln * line):
                misses += 1
        return misses

    def contains(self, address: int) -> bool:
        """Non-mutating lookup (no LRU update, no stats)."""
        set_idx, tag = self._locate(address)
        return tag in self._sets[set_idx]

    def flush(self) -> None:
        for s in self._sets:
            s.clear()


class CacheHierarchy:
    """A non-inclusive multi-level hierarchy of reference simulators.

    An access probes L1 first; on miss it recurses to the next level, so
    each level sees exactly the miss stream of the level inside it.  An
    L1 hit does not touch L2, and an L2 eviction leaves L1 alone (no
    back-invalidation).  Returns the level index that served the access
    (``len(levels)`` means memory).
    """

    def __init__(self, levels: "list[CacheLevel] | tuple[CacheLevel, ...]") -> None:
        if not levels:
            raise MachineConfigError("hierarchy needs at least one level")
        for inner, outer in zip(levels, levels[1:]):
            if outer.capacity_bytes < inner.capacity_bytes:
                raise MachineConfigError(
                    f"{outer.name} smaller than inner level {inner.name}"
                )
            if outer.line_bytes != inner.line_bytes:
                raise MachineConfigError("mixed line sizes are not modelled")
        self.caches = [SetAssociativeCache(lvl) for lvl in levels]

    def access(self, address: int) -> int:
        """Returns the index of the level that hit (len = memory)."""
        for idx, cache in enumerate(self.caches):
            if cache.access(address):
                return idx
        return len(self.caches)

    def access_lines(self, lines: "np.ndarray | list[int]") -> np.ndarray:
        """Batch counterpart of :meth:`access` over line numbers: the
        index of the level that served each line, with every level's
        state identical to the one-by-one loop.  Level by level, each
        level replays the previous level's misses."""
        lines = np.asarray(lines, dtype=np.int64)
        served = np.full(lines.size, len(self.caches), dtype=np.int64)
        pending = np.arange(lines.size)
        for idx, cache in enumerate(self.caches):
            if not pending.size:
                break
            miss = cache.access_lines(lines[pending])
            served[pending[~miss]] = idx
            pending = pending[miss]
        return served

    def flush(self) -> None:
        for c in self.caches:
            c.flush()

    @property
    def stats(self) -> list[CacheStats]:
        return [c.stats for c in self.caches]
