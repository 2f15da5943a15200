"""Abstract stores: total maps absLoc → typestate (paper Section 4.2).

A store is the dataflow fact attached before/after each CFG node during
typestate propagation.  Unmentioned locations are ⊤ (no information),
which makes the initial map ``λl.⊤`` free to represent.  Stores are
immutable; updates return new stores sharing the underlying dict.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.typesys.typestate import TOP_TYPESTATE, Typestate


class AbstractStore:
    """An immutable total map from abstract-location names to typestates.

    Equality and ``meet`` treat missing entries as ⊤.
    """

    __slots__ = ("_map",)

    def __init__(self, entries: Optional[Dict[str, Typestate]] = None):
        self._map: Dict[str, Typestate] = {}
        if entries:
            for name, ts in entries.items():
                if not ts.is_top:
                    self._map[name] = ts

    # -- access ------------------------------------------------------------

    def get(self, name: str) -> Typestate:
        return self._map.get(name, TOP_TYPESTATE)

    def __getitem__(self, name: str) -> Typestate:
        return self.get(name)

    def items(self) -> Iterator[Tuple[str, Typestate]]:
        return iter(self._map.items())

    def known_names(self) -> Iterable[str]:
        return self._map.keys()

    # -- functional updates ---------------------------------------------------

    def set(self, name: str, ts: Typestate) -> "AbstractStore":
        new = dict(self._map)
        if ts.is_top:
            new.pop(name, None)
        else:
            new[name] = ts
        return AbstractStore._wrap(new)

    def set_many(self, updates: Dict[str, Typestate]) -> "AbstractStore":
        new = dict(self._map)
        for name, ts in updates.items():
            if ts.is_top:
                new.pop(name, None)
            else:
                new[name] = ts
        return AbstractStore._wrap(new)

    @staticmethod
    def _wrap(mapping: Dict[str, Typestate]) -> "AbstractStore":
        store = AbstractStore.__new__(AbstractStore)
        store._map = mapping
        return store

    # -- lattice operations ------------------------------------------------------

    def meet(self, other: "AbstractStore") -> "AbstractStore":
        new: Dict[str, Typestate] = {}
        for name in set(self._map) | set(other._map):
            met = self.get(name).meet(other.get(name))
            if not met.is_top:
                new[name] = met
        return AbstractStore._wrap(new)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbstractStore):
            return NotImplemented
        return self._map == other._map

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self) -> int:  # pragma: no cover - stores aren't dict keys
        return hash(frozenset(self._map.items()))

    # -- rendering ------------------------------------------------------------------

    def render(self, names: Optional[Iterable[str]] = None,
               memo: Optional[Dict[int, str]] = None) -> str:
        """Pretty-print, one ``name: <type, state, access>`` per line.

        ``memo`` maps ``id(typestate)`` to its rendering, so a caller
        rendering many stores that share typestate objects formats each
        one once; the caller must keep those stores alive while it
        holds the memo (ids are only unique among live objects)."""
        chosen = list(names) if names is not None else sorted(self._map)
        if memo is None:
            memo = {}
        lines = []
        entries = self._map
        for name in chosen:
            typestate = entries.get(name, TOP_TYPESTATE)
            text = memo.get(id(typestate))
            if text is None:
                text = memo[id(typestate)] = str(typestate)
            lines.append(name + ": " + text)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "AbstractStore(%d entries)" % len(self._map)


#: The store λl.⊤ used at all program points before propagation.
TOP_STORE = AbstractStore()
