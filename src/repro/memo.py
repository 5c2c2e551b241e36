"""A byte-budgeted least-recently-used memo for per-process caches.

The rendered-workload cache of the executor and the analytic engine's
profile cache hold numpy arrays whose size grows with every distinct
workload, scale and seed a process sees.  A one-shot command sees a
single grid; a resident ``repro serve`` process sees a new grid per
cold seed, so an unbounded dict grows for as long as it runs.
:class:`ByteLRU` applies the discipline the paper applies to DRAM: a
fixed budget, with the least recently used entry evicted first.

Values report their own size through an ``nbytes`` attribute (as numpy
arrays do).  Entries are pure functions of their key, so an evicted
entry is rebuilt bit-identically on its next use: eviction costs time,
never correctness.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Generic, Hashable, Protocol, TypeVar


class HasNbytes(Protocol):
    @property
    def nbytes(self) -> int: ...


V = TypeVar("V", bound=HasNbytes)


class ByteLRU(Generic[V]):
    """Memo bounded by the summed ``nbytes`` of the values it holds.

    A lookup refreshes the entry's recency.  Storing an entry evicts
    least-recently-used entries until the total fits the budget; a
    value larger than the whole budget is not kept at all.
    """

    def __init__(self, budget: int) -> None:
        if budget < 0:
            raise ValueError("budget must be >= 0")
        self.budget = budget
        self.bytes = 0
        self.evictions = 0
        self._entries: OrderedDict[Hashable, tuple[V, int]] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> V | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def __setitem__(self, key: Hashable, value: V) -> None:
        size = int(value.nbytes)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.bytes -= old[1]
            if size > self.budget:
                self.evictions += 1
                return
            while self.bytes + size > self.budget:
                _, (_, evicted) = self._entries.popitem(last=False)
                self.bytes -= evicted
                self.evictions += 1
            self._entries[key] = (value, size)
            self.bytes += size

    def __len__(self) -> int:
        return len(self._entries)

    def values(self) -> list[V]:
        """Held values, least recently used first."""
        with self._lock:
            return [value for value, _ in self._entries.values()]

    def clear(self) -> None:
        """Drop every entry (the eviction counter keeps its total)."""
        with self._lock:
            self._entries.clear()
            self.bytes = 0

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.bytes,
                "budget": self.budget,
                "evictions": self.evictions,
            }
