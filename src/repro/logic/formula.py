"""Presburger formulas: affine constraints under ∧, ∨, ¬, ∃, ∀.

This is the formula language of the paper's verification phase: "linear
equalities and inequalities that are combined with ∧, ∨, ¬, and the
quantifiers ∀ and ∃" (Section 1), i.e. Presburger arithmetic, extended
with congruence atoms (used for address-alignment conditions, which the
Omega library also supports via stride constraints).

Atoms are normalized to four shapes over a :class:`Linear` term *e*:

* ``Geq(e)``  — e ≥ 0
* ``Eq(e)``   — e = 0
* ``Cong(e, m)`` — e ≡ 0 (mod m), m ≥ 2
* ``NotCong(e, m)`` — e ≢ 0 (mod m): the negation of a congruence
  is one atom, never a disjunction of residues

Smart constructors (:func:`conj`, :func:`disj`, :func:`neg` …) flatten
and constant-fold so that formula trees stay small.

Formula nodes are **hash-consed** (paper Section 5.2.3: "represent
formulas in a canonical form and use previous results whenever
possible"): construction consults an intern table keyed on the node
shape, so structurally equal formulas are usually the *same object*.
Every node stores a hash precomputed at construction (O(1) to combine
because child hashes are already in hand), an eagerly computed atom
count and quantifier flag (:func:`formula_size`,
:func:`has_quantifier`), and a lazily memoized free-variable set.
The intern table is size-bounded; eviction is safe because ``__eq__``
falls back to a structural comparison (with a hash short-circuit), so
pointer identity is only ever a fast path.
"""

from __future__ import annotations

import threading
from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple,
    Union,
)

from repro.logic.terms import Linear, linear

# ---------------------------------------------------------------------------
# interning machinery
# ---------------------------------------------------------------------------

_INTERNING: List[bool] = [True]
_INTERN_LIMIT = 1 << 17
_INTERN_TABLE: Dict[tuple, "Formula"] = {}

_EMPTY: FrozenSet[str] = frozenset()


def set_formula_interning(enabled: bool) -> None:
    """Switch hash-consing of formula nodes on or off (benchmarks)."""
    _INTERNING[0] = bool(enabled)
    if not enabled:
        _INTERN_TABLE.clear()


def formula_interning_enabled() -> bool:
    return _INTERNING[0]


def formula_intern_table_size() -> int:
    return len(_INTERN_TABLE)


def _intern_store(key: tuple, node: "Formula") -> None:
    table = _INTERN_TABLE
    if len(table) >= _INTERN_LIMIT:
        # pop() tolerates a concurrent eviction by another checker
        # thread; a lost interning race only duplicates a node, and
        # structural __eq__ keeps duplicates semantically identical.
        for stale in list(table.keys())[:_INTERN_LIMIT // 2]:
            table.pop(stale, None)
    table[key] = node


class Formula:
    """Base class; immutable, hashable, interned."""

    __slots__ = ()

    #: Atom count (overridden per node by an instance slot or a class
    #: attribute); see :func:`formula_size`.
    _size = 1
    #: Whether any quantifier occurs; see :func:`has_quantifier`.
    _hasq = False

    def free_variables(self) -> FrozenSet[str]:
        raise NotImplementedError

    def substitute(self, var: str, replacement: Linear) -> "Formula":
        raise NotImplementedError

    def rename(self, mapping: Mapping[str, str]) -> "Formula":
        raise NotImplementedError

    # Pickling rebuilds nodes through ``__new__`` (see the per-class
    # ``__reduce__`` methods), so a formula loaded from a stored unit
    # payload is rehydrated into the loading process's intern tables
    # with its precomputed hash/size/quantifier metadata recomputed.

    # Conveniences so formulas compose with operators.
    def __and__(self, other: "Formula") -> "Formula":
        return conj(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return disj(self, other)

    def __invert__(self) -> "Formula":
        return neg(self)


def formula_size(f: Formula) -> int:
    """Number of atoms in a formula tree (O(1): precomputed)."""
    return f._size


def has_quantifier(f: Formula) -> bool:
    """Whether ∃/∀ occurs anywhere in *f* (O(1): precomputed)."""
    return f._hasq


class TrueFormula(Formula):
    __slots__ = ()
    _instance: Optional["TrueFormula"] = None

    def __new__(cls) -> "TrueFormula":
        inst = cls._instance
        if inst is None:
            inst = object.__new__(cls)
            cls._instance = inst
        return inst

    def free_variables(self) -> FrozenSet[str]:
        return _EMPTY

    def substitute(self, var: str, replacement: Linear) -> Formula:
        return self

    def rename(self, mapping: Mapping[str, str]) -> Formula:
        return self

    def __reduce__(self):
        return (TrueFormula, ())

    def __eq__(self, other: object) -> bool:
        return self is other or isinstance(other, TrueFormula)

    def __hash__(self) -> int:
        return hash((TrueFormula,))

    def __str__(self) -> str:
        return "true"

    def __repr__(self) -> str:
        return "TrueFormula()"


class FalseFormula(Formula):
    __slots__ = ()
    _instance: Optional["FalseFormula"] = None

    def __new__(cls) -> "FalseFormula":
        inst = cls._instance
        if inst is None:
            inst = object.__new__(cls)
            cls._instance = inst
        return inst

    def free_variables(self) -> FrozenSet[str]:
        return _EMPTY

    def substitute(self, var: str, replacement: Linear) -> Formula:
        return self

    def rename(self, mapping: Mapping[str, str]) -> Formula:
        return self

    def __reduce__(self):
        return (FalseFormula, ())

    def __eq__(self, other: object) -> bool:
        return self is other or isinstance(other, FalseFormula)

    def __hash__(self) -> int:
        return hash((FalseFormula,))

    def __str__(self) -> str:
        return "false"

    def __repr__(self) -> str:
        return "FalseFormula()"


TRUE = TrueFormula()
FALSE = FalseFormula()


class _Atom(Formula):
    """Shared machinery of the single-term atoms (Geq / Eq)."""

    __slots__ = ("term", "_hash", "_free")

    def __reduce__(self):
        return (self.__class__, (self.term,))

    def free_variables(self) -> FrozenSet[str]:
        free = self._free
        if free is None:
            free = frozenset(self.term.variables())
            self._free = free
        return free

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._hash != other._hash:
            return False
        return self.term == other.term

    def __hash__(self) -> int:
        return self._hash


class Geq(_Atom):
    """``term ≥ 0``."""

    __slots__ = ()

    def __new__(cls, term: Linear) -> "Geq":
        key = (Geq, term)
        if _INTERNING[0]:
            cached = _INTERN_TABLE.get(key)
            if cached is not None:
                return cached  # type: ignore[return-value]
        self = object.__new__(cls)
        self.term = term
        self._hash = hash(key)
        self._free = None
        if _INTERNING[0]:
            _intern_store(key, self)
        return self

    def substitute(self, var: str, replacement: Linear) -> Formula:
        return _fold_geq(self.term.substitute(var, replacement))

    def rename(self, mapping: Mapping[str, str]) -> Formula:
        return _fold_geq(self.term.rename(mapping))

    def __str__(self) -> str:
        return "%s >= 0" % (self.term,)

    def __repr__(self) -> str:
        return "Geq(term=%r)" % (self.term,)


class Eq(_Atom):
    """``term = 0``."""

    __slots__ = ()

    def __new__(cls, term: Linear) -> "Eq":
        key = (Eq, term)
        if _INTERNING[0]:
            cached = _INTERN_TABLE.get(key)
            if cached is not None:
                return cached  # type: ignore[return-value]
        self = object.__new__(cls)
        self.term = term
        self._hash = hash(key)
        self._free = None
        if _INTERNING[0]:
            _intern_store(key, self)
        return self

    def substitute(self, var: str, replacement: Linear) -> Formula:
        return _fold_eq(self.term.substitute(var, replacement))

    def rename(self, mapping: Mapping[str, str]) -> Formula:
        return _fold_eq(self.term.rename(mapping))

    def __str__(self) -> str:
        return "%s = 0" % (self.term,)

    def __repr__(self) -> str:
        return "Eq(term=%r)" % (self.term,)


class _Congruence(Formula):
    """Shared machinery of the congruence atoms (Cong / NotCong)."""

    __slots__ = ("term", "modulus", "_hash", "_free")

    def __new__(cls, term: Linear, modulus: int) -> "_Congruence":
        if modulus < 2:
            raise ValueError("congruence modulus must be >= 2")
        key = (cls, term, modulus)
        if _INTERNING[0]:
            cached = _INTERN_TABLE.get(key)
            if cached is not None:
                return cached  # type: ignore[return-value]
        self = object.__new__(cls)
        self.term = term
        self.modulus = modulus
        self._hash = hash(key)
        self._free = None
        if _INTERNING[0]:
            _intern_store(key, self)
        return self

    def free_variables(self) -> FrozenSet[str]:
        free = self._free
        if free is None:
            free = frozenset(self.term.variables())
            self._free = free
        return free

    def __reduce__(self):
        return (self.__class__, (self.term, self.modulus))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._hash != other._hash:
            return False
        return self.modulus == other.modulus and self.term == other.term

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "%s(term=%r, modulus=%d)" % (self.__class__.__name__,
                                            self.term, self.modulus)


class Cong(_Congruence):
    """``term ≡ 0 (mod modulus)``; used for alignment conditions."""

    __slots__ = ()

    def substitute(self, var: str, replacement: Linear) -> Formula:
        return _fold_cong(self.term.substitute(var, replacement),
                          self.modulus)

    def rename(self, mapping: Mapping[str, str]) -> Formula:
        return _fold_cong(self.term.rename(mapping), self.modulus)

    def __str__(self) -> str:
        return "%s ≡ 0 (mod %d)" % (self.term, self.modulus)


class NotCong(_Congruence):
    """``term ≢ 0 (mod modulus)``: a negated congruence, kept as one
    atom (the Omega kernel lowers it to the bounded remainder
    ∃q. 1 ≤ term − modulus·q ≤ modulus − 1).  :func:`neg` builds it for
    a modulus of at least 3; mod 2 it is the congruence term − 1 ≡ 0."""

    __slots__ = ()

    def substitute(self, var: str, replacement: Linear) -> Formula:
        return _fold_not_cong(self.term.substitute(var, replacement),
                              self.modulus)

    def rename(self, mapping: Mapping[str, str]) -> Formula:
        return _fold_not_cong(self.term.rename(mapping), self.modulus)

    def __str__(self) -> str:
        return "%s ≢ 0 (mod %d)" % (self.term, self.modulus)


class _Junction(Formula):
    """Shared machinery of the n-ary connectives (And / Or)."""

    __slots__ = ("parts", "_hash", "_free", "_size", "_hasq")

    def __reduce__(self):
        return (self.__class__, (self.parts,))

    def free_variables(self) -> FrozenSet[str]:
        free = self._free
        if free is None:
            out = set()
            for p in self.parts:
                out |= p.free_variables()
            free = frozenset(out)
            self._free = free
        return free

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._hash != other._hash:
            return False
        return self.parts == other.parts

    def __hash__(self) -> int:
        return self._hash


def _new_junction(cls, parts: Iterable[Formula]) -> "_Junction":
    parts = tuple(parts)
    key = (cls, parts)
    if _INTERNING[0]:
        cached = _INTERN_TABLE.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
    self = object.__new__(cls)
    self.parts = parts
    self._hash = hash(key)
    self._free = None
    size = 0
    hasq = False
    for p in parts:
        size += p._size
        hasq = hasq or p._hasq
    self._size = size
    self._hasq = hasq
    if _INTERNING[0]:
        _intern_store(key, self)
    return self


class And(_Junction):
    __slots__ = ()

    def __new__(cls, parts: Tuple[Formula, ...]) -> "And":
        return _new_junction(cls, parts)  # type: ignore[return-value]

    def substitute(self, var: str, replacement: Linear) -> Formula:
        return conj(*(p.substitute(var, replacement) for p in self.parts))

    def rename(self, mapping: Mapping[str, str]) -> Formula:
        return conj(*(p.rename(mapping) for p in self.parts))

    def __str__(self) -> str:
        return "(%s)" % " ∧ ".join(str(p) for p in self.parts)

    def __repr__(self) -> str:
        return "And(parts=%r)" % (self.parts,)


class Or(_Junction):
    __slots__ = ()

    def __new__(cls, parts: Tuple[Formula, ...]) -> "Or":
        return _new_junction(cls, parts)  # type: ignore[return-value]

    def substitute(self, var: str, replacement: Linear) -> Formula:
        return disj(*(p.substitute(var, replacement) for p in self.parts))

    def rename(self, mapping: Mapping[str, str]) -> Formula:
        return disj(*(p.rename(mapping) for p in self.parts))

    def __str__(self) -> str:
        return "(%s)" % " ∨ ".join(str(p) for p in self.parts)

    def __repr__(self) -> str:
        return "Or(parts=%r)" % (self.parts,)


class Not(Formula):
    __slots__ = ("part", "_hash", "_size", "_hasq")

    def __new__(cls, part: Formula) -> "Not":
        key = (Not, part)
        if _INTERNING[0]:
            cached = _INTERN_TABLE.get(key)
            if cached is not None:
                return cached  # type: ignore[return-value]
        self = object.__new__(cls)
        self.part = part
        self._hash = hash(key)
        self._size = part._size
        self._hasq = part._hasq
        if _INTERNING[0]:
            _intern_store(key, self)
        return self

    def free_variables(self) -> FrozenSet[str]:
        return self.part.free_variables()

    def substitute(self, var: str, replacement: Linear) -> Formula:
        return neg(self.part.substitute(var, replacement))

    def rename(self, mapping: Mapping[str, str]) -> Formula:
        return neg(self.part.rename(mapping))

    def __reduce__(self):
        return (Not, (self.part,))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Not:
            return NotImplemented
        if self._hash != other._hash:
            return False
        return self.part == other.part

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "¬%s" % (self.part,)

    def __repr__(self) -> str:
        return "Not(part=%r)" % (self.part,)


class _Quantified(Formula):
    """Shared machinery of Exists / Forall."""

    __slots__ = ("variables", "body", "_hash", "_free", "_size")

    _hasq = True

    def __reduce__(self):
        return (self.__class__, (self.variables, self.body))

    def free_variables(self) -> FrozenSet[str]:
        free = self._free
        if free is None:
            free = self.body.free_variables() - frozenset(self.variables)
            self._free = free
        return free

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._hash != other._hash:
            return False
        return (self.variables == other.variables
                and self.body == other.body)

    def __hash__(self) -> int:
        return self._hash


def _new_quantified(cls, variables: Sequence[str],
                    body: Formula) -> "_Quantified":
    variables = tuple(variables)
    key = (cls, variables, body)
    if _INTERNING[0]:
        cached = _INTERN_TABLE.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
    self = object.__new__(cls)
    self.variables = variables
    self.body = body
    self._hash = hash(key)
    self._free = None
    self._size = body._size
    if _INTERNING[0]:
        _intern_store(key, self)
    return self


class Exists(_Quantified):
    __slots__ = ()

    def __new__(cls, variables: Tuple[str, ...],
                body: Formula) -> "Exists":
        return _new_quantified(cls, variables, body)  # type: ignore

    def substitute(self, var: str, replacement: Linear) -> Formula:
        if var in self.variables:
            return self
        clash = frozenset(replacement.variables()) & frozenset(
            self.variables)
        inner = self
        if clash:
            inner = _refresh_bound(self, clash)
        assert isinstance(inner, Exists)
        return Exists(inner.variables,
                      inner.body.substitute(var, replacement))

    def rename(self, mapping: Mapping[str, str]) -> Formula:
        safe = {k: v for k, v in mapping.items()
                if k not in self.variables}
        return Exists(self.variables, self.body.rename(safe))

    def __str__(self) -> str:
        return "∃%s.%s" % (",".join(self.variables), self.body)

    def __repr__(self) -> str:
        return "Exists(variables=%r, body=%r)" % (self.variables,
                                                  self.body)


class Forall(_Quantified):
    __slots__ = ()

    def __new__(cls, variables: Tuple[str, ...],
                body: Formula) -> "Forall":
        return _new_quantified(cls, variables, body)  # type: ignore

    def substitute(self, var: str, replacement: Linear) -> Formula:
        if var in self.variables:
            return self
        clash = frozenset(replacement.variables()) & frozenset(
            self.variables)
        inner = self
        if clash:
            inner = _refresh_bound(self, clash)
        assert isinstance(inner, Forall)
        return Forall(inner.variables,
                      inner.body.substitute(var, replacement))

    def rename(self, mapping: Mapping[str, str]) -> Formula:
        safe = {k: v for k, v in mapping.items()
                if k not in self.variables}
        return Forall(self.variables, self.body.rename(safe))

    def __str__(self) -> str:
        return "∀%s.%s" % (",".join(self.variables), self.body)

    def __repr__(self) -> str:
        return "Forall(variables=%r, body=%r)" % (self.variables,
                                                  self.body)


# ---------------------------------------------------------------------------
# smart constructors
# ---------------------------------------------------------------------------


def _fold_geq(term: Linear) -> Formula:
    if term.is_constant:
        return TRUE if term.constant >= 0 else FALSE
    return Geq(term)


def _fold_eq(term: Linear) -> Formula:
    if term.is_constant:
        return TRUE if term.constant == 0 else FALSE
    return Eq(term)


def _fold_cong(term: Linear, modulus: int) -> Formula:
    if term.is_constant:
        return TRUE if term.constant % modulus == 0 else FALSE
    return Cong(term, modulus)


def _fold_not_cong(term: Linear, modulus: int) -> Formula:
    if term.is_constant:
        return FALSE if term.constant % modulus == 0 else TRUE
    if modulus == 2:
        return Cong(term - 1, 2)
    return NotCong(term, modulus)


def conj(*parts: Formula) -> Formula:
    flat = []
    seen = set()
    for part in parts:
        if isinstance(part, TrueFormula):
            continue
        if isinstance(part, FalseFormula):
            return FALSE
        items = part.parts if isinstance(part, And) else (part,)
        for item in items:
            if item not in seen:
                seen.add(item)
                flat.append(item)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(*parts: Formula) -> Formula:
    flat = []
    seen = set()
    for part in parts:
        if isinstance(part, FalseFormula):
            continue
        if isinstance(part, TrueFormula):
            return TRUE
        items = part.parts if isinstance(part, Or) else (part,)
        for item in items:
            if item not in seen:
                seen.add(item)
                flat.append(item)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def neg(part: Formula) -> Formula:
    if isinstance(part, TrueFormula):
        return FALSE
    if isinstance(part, FalseFormula):
        return TRUE
    if isinstance(part, Not):
        return part.part
    # Negated atoms dissolve immediately over the integers (keeping
    # formulas Not-free at the leaves, which the simplifier's
    # complementary-guard merging relies on).
    if isinstance(part, Geq):
        return Geq(part.term.scale(-1) - 1)
    if isinstance(part, Eq):
        return disj(Geq(part.term - 1), Geq(part.term.scale(-1) - 1))
    if isinstance(part, Cong):
        return _fold_not_cong(part.term, part.modulus)
    if isinstance(part, NotCong):
        return Cong(part.term, part.modulus)
    return Not(part)


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    return disj(neg(antecedent), consequent)


# -- comparison helpers (integers: strict becomes ±1 slack) ------------------

TermLike = Union[Linear, int, str]


def ge(a: TermLike, b: TermLike) -> Formula:
    """a ≥ b."""
    return _fold_geq(linear(a) - linear(b))


def le(a: TermLike, b: TermLike) -> Formula:
    """a ≤ b."""
    return _fold_geq(linear(b) - linear(a))


def gt(a: TermLike, b: TermLike) -> Formula:
    """a > b  (integers: a − b − 1 ≥ 0)."""
    return _fold_geq(linear(a) - linear(b) - 1)


def lt(a: TermLike, b: TermLike) -> Formula:
    """a < b."""
    return _fold_geq(linear(b) - linear(a) - 1)


def eq(a: TermLike, b: TermLike) -> Formula:
    """a = b."""
    return _fold_eq(linear(a) - linear(b))


def ne(a: TermLike, b: TermLike) -> Formula:
    """a ≠ b, expressed as (a < b) ∨ (a > b)."""
    return disj(lt(a, b), gt(a, b))


def congruent(a: TermLike, modulus: int, residue: int = 0) -> Formula:
    """a ≡ residue (mod modulus)."""
    return _fold_cong(linear(a) - residue, modulus)


def exists(variables: Sequence[str], body: Formula) -> Formula:
    vs = tuple(v for v in variables if v in body.free_variables())
    if not vs:
        return body
    if isinstance(body, Exists):
        return Exists(vs + body.variables, body.body)
    return Exists(vs, body)


def forall(variables: Sequence[str], body: Formula) -> Formula:
    vs = tuple(v for v in variables if v in body.free_variables())
    if not vs:
        return body
    if isinstance(body, Forall):
        return Forall(vs + body.variables, body.body)
    return Forall(vs, body)


# ---------------------------------------------------------------------------
# bound-variable refresh (capture avoidance)
# ---------------------------------------------------------------------------

# The lock keeps concurrent checker threads (the service worker pool)
# from minting the same name twice.
_fresh_lock = threading.Lock()
_fresh_drawn = 0


def fresh_variable(stem: str = "$v") -> str:
    """A globally fresh variable name (thread-safe)."""
    global _fresh_drawn
    with _fresh_lock:
        _fresh_drawn += 1
        number = _fresh_drawn
    return "%s%d" % (stem, number)


def fresh_drawn() -> int:
    """How many fresh names have been drawn so far."""
    return _fresh_drawn


def skip_fresh(count: int) -> None:
    """Advance the fresh-name counter as if *count* names had been
    drawn: a memo hit replays the draws of the work it skips, so every
    later name is the one a recomputation would have left."""
    global _fresh_drawn
    with _fresh_lock:
        _fresh_drawn += count


def _refresh_bound(quantified: Union[Exists, Forall],
                   clash: Iterable[str]) -> Formula:
    mapping = {v: fresh_variable("$r") for v in clash}
    new_vars = tuple(mapping.get(v, v) for v in quantified.variables)
    body = quantified.body
    for old, new in mapping.items():
        body = _rename_everywhere(body, old, new)
    cls = type(quantified)
    return cls(new_vars, body)


def _rename_everywhere(f: Formula, old: str, new: str) -> Formula:
    """Rename *old* to *new* even under binders that bind *old*."""
    if isinstance(f, (TrueFormula, FalseFormula)):
        return f
    if isinstance(f, Geq):
        return Geq(f.term.rename({old: new}))
    if isinstance(f, Eq):
        return Eq(f.term.rename({old: new}))
    if isinstance(f, _Congruence):
        return f.__class__(f.term.rename({old: new}), f.modulus)
    if isinstance(f, And):
        return And(tuple(_rename_everywhere(p, old, new) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(_rename_everywhere(p, old, new) for p in f.parts))
    if isinstance(f, Not):
        return Not(_rename_everywhere(f.part, old, new))
    if isinstance(f, (Exists, Forall)):
        vs = tuple(new if v == old else v for v in f.variables)
        cls = type(f)
        return cls(vs, _rename_everywhere(f.body, old, new))
    raise TypeError(f)
