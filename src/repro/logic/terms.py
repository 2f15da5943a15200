"""Integer linear terms over named variables.

A :class:`Linear` is ``Σ coeff_i · var_i + const`` with integer
coefficients.  Variables are plain strings: machine registers
(``"%g3"``), specification symbols (``"n"``), and fresh variables
introduced by the prover (``"$k7"``).

Terms are immutable and hashable; arithmetic returns new terms.  This is
the carrier for the Presburger formulas in :mod:`repro.logic.formula`,
mirroring the affine constraints of the Omega library the paper builds
its theorem prover on.

Terms are **hash-consed**: construction goes through an intern table
keyed on the canonical ``(sorted coefficient items, constant)`` tuple,
so structurally equal terms are usually the *same object* — equality
short-circuits on identity and hashing returns a value precomputed at
construction.  This is the paper's "represent formulas in a canonical
form" enhancement (Section 5.2.3) pushed down to the leaves.  The
intern table is size-bounded; eviction is safe because ``__eq__`` falls
back to a structural comparison, so identity is only ever a fast path.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

#: Canonical identity of a term: sorted coefficient items + constant.
TermKey = Tuple[Tuple[Tuple[str, int], ...], int]

_INTERNING: List[bool] = [True]
_INTERN_LIMIT = 1 << 17
_INTERN_TABLE: Dict[TermKey, "Linear"] = {}


def set_term_interning(enabled: bool) -> None:
    """Switch hash-consing of terms on or off (benchmark baselines)."""
    _INTERNING[0] = bool(enabled)
    if not enabled:
        _INTERN_TABLE.clear()


def term_interning_enabled() -> bool:
    return _INTERNING[0]


def term_intern_table_size() -> int:
    return len(_INTERN_TABLE)


class Linear:
    """An affine integer term: coefficients plus a constant."""

    __slots__ = ("_coeffs", "_const", "_key", "_hash")

    def __new__(cls, coeffs: Union[Mapping[str, int], None] = None,
                const: int = 0) -> "Linear":
        items: Dict[str, int] = {}
        if coeffs:
            for var, coeff in coeffs.items():
                if coeff:
                    items[var] = int(coeff)
        const = int(const)
        if _INTERNING[0]:
            key: Optional[TermKey] = (tuple(sorted(items.items())), const)
            table = _INTERN_TABLE
            cached = table.get(key)
            if cached is not None:
                return cached
        else:
            key = None
        self = object.__new__(cls)
        self._coeffs = items
        self._const = const
        self._key = key
        # Hash is precomputed when interned (the key tuple is already in
        # hand); lazily derived otherwise.  -1 marks "not yet computed".
        if key is not None:
            value = hash(key)
            self._hash = value if value != -1 else -2
            if len(table) >= _INTERN_LIMIT:
                # pop(): tolerate concurrent eviction by another
                # checker thread (structural __eq__ keeps any
                # duplicated node semantically identical).
                for stale in list(table.keys())[:_INTERN_LIMIT // 2]:
                    table.pop(stale, None)
            table[key] = self
        else:
            self._hash = -1
        return self

    # -- constructors ------------------------------------------------------

    @staticmethod
    def var(name: str, coeff: int = 1) -> "Linear":
        return Linear({name: coeff})

    @staticmethod
    def const(value: int) -> "Linear":
        return Linear({}, value)

    # -- inspection ---------------------------------------------------------

    @property
    def constant(self) -> int:
        return self._const

    @property
    def coefficients(self) -> Mapping[str, int]:
        return dict(self._coeffs)

    def coefficient(self, var: str) -> int:
        return self._coeffs.get(var, 0)

    def variables(self) -> Iterable[str]:
        return self._coeffs.keys()

    @property
    def is_constant(self) -> bool:
        return not self._coeffs

    def key(self) -> TermKey:
        """The canonical ``(sorted items, constant)`` identity tuple."""
        key = self._key
        if key is None:
            key = (tuple(sorted(self._coeffs.items())), self._const)
            self._key = key
        return key

    def sorted_items(self) -> Tuple[Tuple[str, int], ...]:
        """Coefficient items in canonical (sorted-variable) order."""
        return self.key()[0]

    def content(self) -> int:
        """gcd of the variable coefficients (0 for constant terms)."""
        g = 0
        for coeff in self._coeffs.values():
            g = gcd(g, abs(coeff))
        return g

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: Union["Linear", int]) -> "Linear":
        if isinstance(other, int):
            return Linear(self._coeffs, self._const + other)
        coeffs = dict(self._coeffs)
        for var, coeff in other._coeffs.items():
            coeffs[var] = coeffs.get(var, 0) + coeff
        return Linear(coeffs, self._const + other._const)

    def __radd__(self, other: int) -> "Linear":
        return self.__add__(other)

    def __sub__(self, other: Union["Linear", int]) -> "Linear":
        if isinstance(other, int):
            return Linear(self._coeffs, self._const - other)
        return self + other.scale(-1)

    def __rsub__(self, other: int) -> "Linear":
        return self.scale(-1) + other

    def __neg__(self) -> "Linear":
        return self.scale(-1)

    def scale(self, factor: int) -> "Linear":
        if factor == 0:
            return Linear({}, 0)
        if factor == 1:
            return self
        return Linear({v: c * factor for v, c in self._coeffs.items()},
                      self._const * factor)

    def divide_exact(self, divisor: int) -> "Linear":
        """Divide all coefficients and the constant; they must divide
        evenly."""
        assert divisor != 0
        coeffs = {}
        for var, coeff in self._coeffs.items():
            if coeff % divisor:
                raise ValueError("coefficient %d of %s not divisible by %d"
                                 % (coeff, var, divisor))
            coeffs[var] = coeff // divisor
        if self._const % divisor:
            raise ValueError("constant %d not divisible by %d"
                             % (self._const, divisor))
        return Linear(coeffs, self._const // divisor)

    # -- substitution ---------------------------------------------------------------

    def substitute(self, var: str, replacement: "Linear") -> "Linear":
        """Replace *var* by *replacement*."""
        coeff = self._coeffs.get(var, 0)
        if not coeff:
            return self
        rest = Linear({v: c for v, c in self._coeffs.items() if v != var},
                      self._const)
        return rest + replacement.scale(coeff)

    def substitute_all(self, mapping: Mapping[str, "Linear"]) -> "Linear":
        """Simultaneous substitution of several variables."""
        rest = Linear({v: c for v, c in self._coeffs.items()
                       if v not in mapping}, self._const)
        for var, coeff in self._coeffs.items():
            if var in mapping:
                rest = rest + mapping[var].scale(coeff)
        return rest

    def rename(self, mapping: Mapping[str, str]) -> "Linear":
        coeffs: Dict[str, int] = {}
        for var, coeff in self._coeffs.items():
            new = mapping.get(var, var)
            coeffs[new] = coeffs.get(new, 0) + coeff
        return Linear(coeffs, self._const)

    def evaluate(self, valuation: Mapping[str, int]) -> int:
        total = self._const
        for var, coeff in self._coeffs.items():
            total += coeff * valuation[var]
        return total

    # -- pickling ---------------------------------------------------------------------

    def __reduce__(self):
        # Reconstruct through __new__ so unpickling re-interns the term
        # in the loading process's table.
        return (Linear, (self._coeffs, self._const))

    # -- equality / rendering ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Linear):
            return NotImplemented
        return (self._const == other._const
                and self._coeffs == other._coeffs)

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self) -> int:
        if self._hash == -1:
            value = hash(self.key())
            self._hash = value if value != -1 else -2
        return self._hash

    def __str__(self) -> str:
        parts = []
        for var in sorted(self._coeffs):
            coeff = self._coeffs[var]
            if coeff == 1:
                parts.append("+%s" % var)
            elif coeff == -1:
                parts.append("-%s" % var)
            else:
                parts.append("%+d%s" % (coeff, var))
        if self._const or not parts:
            parts.append("%+d" % self._const)
        text = "".join(parts)
        return text[1:] if text.startswith("+") else text

    def __repr__(self) -> str:
        return "Linear(%s)" % (self,)


ZERO = Linear()
ONE = Linear.const(1)


def linear(value: Union["Linear", int, str]) -> Linear:
    """Coerce ints and variable names to :class:`Linear`."""
    if isinstance(value, Linear):
        return value
    if isinstance(value, int):
        return Linear.const(value)
    return Linear.var(value)
