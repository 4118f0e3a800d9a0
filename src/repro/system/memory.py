"""Memory-budgeted eviction over the system's recomputable state.

LOCATER's caches — trained per-device coarse models, batch memo dicts,
and the cold tail of the event log itself — are all *pure functions* of
the table (plus configuration).  That is the invariant this module
trades on: any of them can be dropped at any time and the system's
answers stay bitwise identical, because the recompute-on-miss path runs
the exact code that produced the cached value in the first place.  What
a budget buys is therefore purely a space/time trade, never a
correctness trade (the shape of the §5 caching cost model, applied to
memory instead of latency).

:class:`MemoryManager` is a single LRU over heterogeneous *entries*:

* **log columns** — a cold :class:`~repro.events.columns.HeapColumnHandle`
  spills its bytes to disk and reloads them bitwise on next access
  (``np.savez``/``np.load`` round-trip float64/int32 exactly).
* **coarse models** — evicting pops the trained classifiers; the next
  query for that device retrains from the unchanged log (training is
  deterministic, so the model — and every answer — is reproduced).
* **batch memos** — evicting resets a live
  :class:`~repro.system.locater.BatchState` (fresh, empty memos, no
  neighbor snapshots); memoized values are recomputed on demand.

Entries self-report their size through a ``size_fn`` — sizes change as
memos grow or columns spill, so nothing is cached; ``enforce()`` walks
entries in LRU order evicting until the resident total fits the budget.
*Persistent* entries (logs, memos: the owning object outlives any one
eviction) stay registered after evicting — their ``size_fn`` simply
reports less — while one-shot entries (models: the entry dies with the
cached object) are dropped from the index.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

import numpy as np

from repro.errors import ConfigurationError

#: Nominal accounting size of one memo-dict entry.  Memo values are
#: mostly small numpy rows and floats; a flat per-entry constant keeps
#: the size_fn O(1) (len() of the dicts) while still scaling the
#: accounted bytes with actual usage.
MEMO_ENTRY_NBYTES = 256

#: Baseline object overhead charged per python object in
#: :func:`approx_nbytes` (header + refcount + alignment, rounded up).
_OBJECT_OVERHEAD = 56


class _Entry:
    """One evictable unit inside the manager's LRU."""

    __slots__ = ("category", "key", "size_fn", "evictor", "persistent",
                 "alive", "evictions")

    def __init__(self, category: str, key: object,
                 size_fn: Callable[[], int],
                 evictor: Callable[[], "int | None"],
                 persistent: bool) -> None:
        self.category = category
        self.key = key
        self.size_fn = size_fn
        self.evictor = evictor
        self.persistent = persistent
        self.alive = True
        self.evictions = 0


def approx_nbytes(obj: object, _seen: "set[int] | None" = None) -> int:
    """Rough recursive byte estimate of a python object graph.

    Exact for numpy arrays (``.nbytes`` plus header), structural for
    containers and slotted/dataclass objects, flat for everything else.
    Used to account trained models; precision only has to be good enough
    for *relative* LRU pressure, not allocator truth.
    """
    if _seen is None:
        _seen = set()
    if id(obj) in _seen:
        return 0
    _seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 96
    if isinstance(obj, (str, bytes)):
        return _OBJECT_OVERHEAD + len(obj)
    if isinstance(obj, (int, float, bool, type(None), np.generic)):
        return 32
    if isinstance(obj, dict):
        return _OBJECT_OVERHEAD + sum(
            approx_nbytes(k, _seen) + approx_nbytes(v, _seen)
            for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return _OBJECT_OVERHEAD + sum(approx_nbytes(x, _seen) for x in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _OBJECT_OVERHEAD + sum(
            approx_nbytes(getattr(obj, f.name, None), _seen)
            for f in dataclasses.fields(obj))
    slots = getattr(type(obj), "__slots__", None)
    if slots:
        return _OBJECT_OVERHEAD + sum(
            approx_nbytes(getattr(obj, name, None), _seen)
            for name in slots if isinstance(name, str))
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        return _OBJECT_OVERHEAD + approx_nbytes(attrs, _seen)
    return _OBJECT_OVERHEAD


class MemoryManager:
    """LRU eviction of recomputable state under a byte budget.

    Args:
        budget_bytes: Resident-byte target ``enforce()`` drives the
            accounted total down to.  ``0`` is legal (evict everything
            evictable on every enforce — the torture configuration the
            equivalence tests run); the budget bounds *accounted* state,
            which recomputes on demand, so no value of it can make an
            answer wrong, only slower.

    Thread-unsafe by design, like the rest of the serving stack: one
    manager belongs to one :class:`~repro.system.locater.Locater` (or
    one shard).
    """

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes < 0:
            raise ConfigurationError(
                f"memory budget must be >= 0 bytes, got {budget_bytes}")
        self.budget_bytes = int(budget_bytes)
        # Insertion-ordered dict as the LRU list: oldest first, touch
        # re-inserts at the MRU end.  Keyed by the entry object itself
        # (categories may reuse keys across generations of an object).
        self._lru: "dict[_Entry, None]" = {}
        self._evictions = 0
        self._bytes_evicted = 0

    # ------------------------------------------------------------------
    def charge(self, category: str, key: object, *,
               size_fn: Callable[[], int],
               evictor: Callable[[], "int | None"],
               persistent: bool = False) -> _Entry:
        """Register one evictable unit; returns its LRU entry.

        ``size_fn`` re-reports the entry's resident bytes on every
        enforce (sizes drift as memos grow or columns spill).
        ``evictor`` drops the bytes; it may return the count freed (used
        for accounting when the post-eviction ``size_fn`` still includes
        them, e.g. one-shot entries about to be deregistered).
        """
        entry = _Entry(category, key, size_fn, evictor, persistent)
        self._lru[entry] = None
        return entry

    def touch(self, entry: _Entry) -> None:
        """Move an entry to the MRU end (it was just used)."""
        if entry.alive and entry in self._lru:
            del self._lru[entry]
            self._lru[entry] = None

    def release(self, entry: _Entry) -> None:
        """Deregister an entry (its object was invalidated/replaced)."""
        entry.alive = False
        self._lru.pop(entry, None)

    # ------------------------------------------------------------------
    def resident_bytes(self) -> int:
        """Accounted resident bytes across all live entries (recomputed)."""
        return sum(entry.size_fn() for entry in self._lru)

    def enforce(self) -> int:
        """Evict in LRU order until the accounted total fits the budget.

        Returns the bytes freed.  Each entry is visited at most once per
        call (an evictor that frees nothing cannot loop the walk), and
        entries whose current size is zero are skipped — evicting them
        would churn state without freeing memory.
        """
        total = self.resident_bytes()
        if total <= self.budget_bytes:
            return 0
        freed_total = 0
        for entry in list(self._lru):
            if total <= self.budget_bytes:
                break
            if not entry.alive:
                continue
            size_before = entry.size_fn()
            if size_before <= 0:
                continue
            returned = entry.evictor()
            entry.evictions += 1
            self._evictions += 1
            if entry.persistent:
                freed = size_before - entry.size_fn()
                # Evicted-but-registered entries re-enter at the MRU end
                # so repeat enforces walk genuinely cold entries first.
                self.touch(entry)
            else:
                freed = returned if returned is not None else size_before
                self.release(entry)
            freed_total += freed
            self._bytes_evicted += freed
            total -= freed
        return freed_total

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Accounting snapshot (budget, residency, eviction counters)."""
        by_category: dict[str, int] = {}
        for entry in self._lru:
            by_category[entry.category] = \
                by_category.get(entry.category, 0) + entry.size_fn()
        return {
            "budget_bytes": self.budget_bytes,
            "entries": len(self._lru),
            "resident_bytes": sum(by_category.values()),
            "by_category": by_category,
            "evictions": self._evictions,
            "bytes_evicted": self._bytes_evicted,
        }
