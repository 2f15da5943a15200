"""Size-bounded memoization caches for the logic layer.

The paper's Section 5.2.3 lists "caching in the theorem prover" as the
key performance enhancement; the hash-consed formula representation
(:mod:`repro.logic.terms`, :mod:`repro.logic.formula`) makes node
hashing O(1), which in turn makes memoizing the pure structural
transformations (``to_nnf``, ``to_dnf``, ``simplify``,
``canonicalize``) nearly free.  Phase-5 wlp keeps two more
(:mod:`repro.analysis.wlp`): edge-condition formulas, and the
quantifier-free result of each havoc's eager elimination.  The havoc
memo is keyed on its inputs (formula, variable, guard) rather than on
``∀$hN. Q[var ↦ $hN]``: every havoc binds a fresh name, so that formula
is new each time and no formula memo ever sees it twice.  Every cache
in this module is

* **explicitly size-bounded** — when a cache reaches its limit the
  oldest half of its entries is evicted (dicts preserve insertion
  order), so long-running multi-program services cannot grow without
  bound; and
* **centrally registered** — :func:`clear_all_caches` resets every
  cache, which the benchmark harness uses to measure cold-start
  behavior and tests use for isolation.

Memoization is always on: it never changes a result, and switching it
off cost about a third of perfbench's checks/s on ``fig9`` (2.88 to
1.94) and ``fuzz-corpus`` (6.07 to 3.86).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List

#: Default entry limit per cache.  Entries are small (a key node and a
#: result node, both shared through interning), so this is a few MB at
#: the worst.
DEFAULT_LIMIT = 1 << 16

_REGISTRY: List["BoundedCache"] = []


def clear_all_caches() -> None:
    """Empty every registered cache (interning tables are separate)."""
    for cache in _REGISTRY:
        cache.clear()


class BoundedCache:
    """A dict-backed memo cache that evicts its oldest half when full.

    ``get`` returns None both for "absent" and for a stored None, which
    is fine for our value domains (formulas, tuples, bools are the only
    stored values — never None).
    """

    __slots__ = ("_data", "_limit", "hits", "misses")

    def __init__(self, limit: int = DEFAULT_LIMIT,
                 registered: bool = True):
        self._data: Dict[Hashable, Any] = {}
        self._limit = limit
        self.hits = 0
        self.misses = 0
        #: Per-instance caches (one per Prover) opt out of the global
        #: registry so short-lived provers don't accumulate there.
        if registered:
            _REGISTRY.append(self)

    def get(self, key: Hashable) -> Any:
        value = self._data.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        data = self._data
        if len(data) >= self._limit:
            # Evict the oldest half; insertion order is preserved by
            # dict, so this keeps the warm tail.  pop() tolerates a
            # concurrent eviction by another checker thread.
            for stale in list(data.keys())[:self._limit // 2]:
                data.pop(stale, None)
        data[key] = value

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


class NullCache(BoundedCache):
    """A cache that stores nothing: every lookup misses.  The prover's
    cache ablation (``Prover(enable_cache=False)``) hands these out in
    place of its result caches."""

    __slots__ = ()

    def put(self, key: Hashable, value: Any) -> None:
        pass
