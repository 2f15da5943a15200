"""The Omega test: exact integer reasoning over conjunctions of affine
constraints (Pugh, Supercomputing '91).

This is the engine behind the paper's theorem prover ("our theorem
prover is based on the Omega Library", Section 5.2).  It provides:

* :func:`satisfiable` — exact satisfiability of a conjunction over ℤ
  with every variable existentially quantified;
* :func:`project` — exact elimination (integer projection) of a set of
  variables, returning a disjunction of conjunctions over the remaining
  variables;
* :func:`project_real` — rational Fourier–Motzkin projection, the
  over-approximation used by the *generalization* heuristic of the
  induction-iteration method (paper Section 5.2.1).

The ingredients, exactly as in Pugh's paper:

* **normalization** — divide every constraint by the gcd of its
  coefficients, tightening inequalities (⌊·⌋) and refuting equalities
  whose constant is not divisible;
* **equality elimination** — the gcd rule, unit substitution, or scale
  elimination (see :func:`eliminate_equalities`);
* **inequality elimination** — the *real shadow* (plain FM, an upper
  bound on satisfiability), the *dark shadow* (a lower bound), and
  *splinters* (finitely many equality cases) when the two disagree;
  when every lower or every upper coefficient is 1 the shadows
  coincide and elimination is exact in one step.

Congruence atoms ``e ≡ 0 (mod m)`` are lowered to equalities
``e − m·q = 0`` with fresh existential ``q``.  A negated congruence
``e ≢ 0 (mod m)`` stays one row through substitution and
normalization, and is lowered only when it still mentions a variable
being eliminated: to the bounded remainder ``1 ≤ e − m·q ≤ m − 1``
(Pugh's treatment of strides), unless that variable occurs nowhere
else, when the row is simply true for some value of it.

**Representation.**  :class:`Constraints` (lists of hash-consed
:class:`~repro.logic.terms.Linear` terms) is the interface: formula
construction, caches, pickling and digests all see ``Linear``.  Inside
one :func:`satisfiable`/:func:`project`/:func:`project_real` call the
kernel works on a :class:`System` instead: one shared, sorted column
index, every constraint a plain ``list`` of ints (coefficients in
column order, constant last).  Row combination is a zip of integer
multiplies with no hashing, no dict churn and no intern-table traffic
(md5 alone would otherwise build ~950k ``Linear`` nodes during
projection).  Columns stay sorted, so column order is variable-name
order and every pivot tie-break below is by name.

The kernel's oracle is enumeration: the tests brute-force
satisfiability and exact projection over small boxes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import gcd
from typing import (
    Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro import budget
from repro.errors import ProverError
from repro.logic.formula import (
    Cong, Eq, Formula, Geq, NotCong, conj, disj, fresh_variable,
)
from repro.logic.terms import Linear

#: Safety valves; exceeded only by pathological inputs.
MAX_ELIMINATION_STEPS = 4_000
MAX_CONSTRAINTS = 4_000


@dataclass
class Constraints:
    """One conjunction: ``geqs`` (e ≥ 0), ``eqs`` (e = 0), ``congs``
    ((e, m): e ≡ 0 mod m), ``ncongs`` ((e, m): e ≢ 0 mod m).  ``None``
    results elsewhere mean *unsat*."""

    geqs: List[Linear] = field(default_factory=list)
    eqs: List[Linear] = field(default_factory=list)
    congs: List[Tuple[Linear, int]] = field(default_factory=list)
    ncongs: List[Tuple[Linear, int]] = field(default_factory=list)

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_atoms(atoms: Iterable[Formula]) -> "Constraints":
        c = Constraints()
        for atom in atoms:
            if isinstance(atom, Geq):
                c.geqs.append(atom.term)
            elif isinstance(atom, Eq):
                c.eqs.append(atom.term)
            elif isinstance(atom, Cong):
                c.congs.append((atom.term, atom.modulus))
            elif isinstance(atom, NotCong):
                c.ncongs.append((atom.term, atom.modulus))
            else:
                raise ProverError("not an atom: %r" % (atom,))
        return c

    def to_formula(self) -> Formula:
        atoms: List[Formula] = [Geq(t) for t in self.geqs]
        atoms += [Eq(t) for t in self.eqs]
        atoms += [Cong(t, m) for t, m in self.congs]
        atoms += [NotCong(t, m) for t, m in self.ncongs]
        return conj(*atoms)

    # -- inspection -------------------------------------------------------------

    def variables(self) -> Set[str]:
        out: Set[str] = set()
        for term in self.geqs:
            out |= set(term.variables())
        for term in self.eqs:
            out |= set(term.variables())
        for term, __ in self.congs + self.ncongs:
            out |= set(term.variables())
        return out

    @property
    def is_trivially_true(self) -> bool:
        return not (self.geqs or self.eqs or self.congs or self.ncongs)

    # -- substitution ---------------------------------------------------------------

    def substitute(self, var: str, replacement: Linear) -> "Constraints":
        return Constraints(
            [t.substitute(var, replacement) for t in self.geqs],
            [t.substitute(var, replacement) for t in self.eqs],
            [(t.substitute(var, replacement), m) for t, m in self.congs],
            [(t.substitute(var, replacement), m) for t, m in self.ncongs],
        )


#: One constraint: ``row[j]`` is the coefficient of ``cols[j]`` and
#: ``row[-1]`` is the constant.  Rows are treated as immutable once
#: attached to a :class:`System` — every rewrite builds new lists — so
#: sharing a row between systems is safe.
Row = List[int]


class System:
    """A conjunction over a shared sorted column index: ``geqs``
    (row ≥ 0), ``eqs`` (row = 0), ``congs`` ((row, m): row ≡ 0 mod m),
    ``ncongs`` ((row, m): row ≢ 0 mod m)."""

    __slots__ = ("cols", "geqs", "eqs", "congs", "ncongs")

    def __init__(self, cols: List[str], geqs: List[Row],
                 eqs: List[Row], congs: List[Tuple[Row, int]],
                 ncongs: List[Tuple[Row, int]]):
        self.cols = cols
        self.geqs = geqs
        self.eqs = eqs
        self.congs = congs
        self.ncongs = ncongs

    def copy(self) -> "System":
        return self.with_geqs(list(self.geqs))

    def with_geqs(self, geqs: List[Row]) -> "System":
        """The same system with *geqs* as its inequalities."""
        return System(self.cols, geqs, list(self.eqs), list(self.congs),
                      list(self.ncongs))

    def size(self) -> int:
        return (len(self.geqs) + len(self.eqs) + len(self.congs)
                + len(self.ncongs))


# ---------------------------------------------------------------------------
# lossless converters
# ---------------------------------------------------------------------------


def from_constraints(c: Constraints) -> System:
    """Build a :class:`System` over the sorted variables of *c*,
    preserving constraint-list order."""
    cols = sorted(c.variables())
    index = {v: j for j, v in enumerate(cols)}
    width = len(cols) + 1

    def row_of(term: Linear) -> Row:
        row = [0] * width
        for v, k in term.coefficients.items():
            row[index[v]] = k
        row[-1] = term.constant
        return row

    return System(cols,
                  [row_of(t) for t in c.geqs],
                  [row_of(t) for t in c.eqs],
                  [(row_of(t), m) for t, m in c.congs],
                  [(row_of(t), m) for t, m in c.ncongs])


def to_constraints(s: System) -> Constraints:
    """Rebuild hash-consed ``Linear`` constraints, preserving order."""
    cols = s.cols
    n = len(cols)

    def linear_of(row: Row) -> Linear:
        return Linear({cols[j]: row[j] for j in range(n) if row[j]},
                      row[n])

    return Constraints([linear_of(r) for r in s.geqs],
                       [linear_of(r) for r in s.eqs],
                       [(linear_of(r), m) for r, m in s.congs],
                       [(linear_of(r), m) for r, m in s.ncongs])


# ---------------------------------------------------------------------------
# row helpers
# ---------------------------------------------------------------------------


def _content(row: Row, n: int) -> int:
    """gcd of the coefficients (not the constant); 0 for ground rows."""
    g = 0
    for j in range(n):
        k = row[j]
        if k:
            g = gcd(g, k)
            if g == 1:
                return 1
    return g


def _occurs(s: System, j: int) -> bool:
    for row in s.geqs:
        if row[j]:
            return True
    for row in s.eqs:
        if row[j]:
            return True
    for row, __ in s.congs:
        if row[j]:
            return True
    for row, __ in s.ncongs:
        if row[j]:
            return True
    return False


def normalize(s: System) -> Optional[System]:
    """gcd-normalize, constant-fold and deduplicate; ``None`` means
    unsat."""
    n = len(s.cols)
    geqs: List[Row] = []
    seen_geq: Set[tuple] = set()
    for row in s.geqs:
        g = _content(row, n)
        if g == 0:
            if row[n] < 0:
                return None
            continue
        if g > 1:
            # Coefficients divide exactly; // floors the constant,
            # tightening the inequality.
            row = [k // g for k in row]
        key = tuple(row)
        if key not in seen_geq:
            seen_geq.add(key)
            geqs.append(row)
    eqs: List[Row] = []
    seen_eq: Set[tuple] = set()
    for row in s.eqs:
        g = _content(row, n)
        if g == 0:
            if row[n] != 0:
                return None
            continue
        if row[n] % g:
            return None
        if g > 1:
            row = [k // g for k in row]
        # Canonical sign: first nonzero column (the smallest variable
        # name) positive.
        for j in range(n):
            if row[j]:
                if row[j] < 0:
                    row = [-k for k in row]
                break
        key = tuple(row)
        if key not in seen_eq:
            seen_eq.add(key)
            eqs.append(row)
    congs: List[Tuple[Row, int]] = []
    seen_cong: Set[tuple] = set()
    for row, m in s.congs:
        row = [k % m for k in row]
        ground = True
        for j in range(n):
            if row[j]:
                ground = False
                break
        if ground:
            if row[n] % m:
                return None
            continue
        key = (tuple(row), m)
        if key not in seen_cong:
            seen_cong.add(key)
            congs.append((row, m))
    ncongs: List[Tuple[Row, int]] = []
    seen_ncong: Set[tuple] = set()
    for row, m in s.ncongs:
        row = [k % m for k in row]
        # row ≢ 0 (mod m) with g = gcd(coefficients, m): true when g
        # does not divide the constant, else row/g ≢ 0 (mod m/g).
        g = gcd(_content(row, n), m)
        if row[n] % g:
            continue
        if g > 1:
            row = [k // g for k in row]
            m //= g
        if m == 1:
            return None
        if m == 2:
            # Odd: the congruence row − 1 ≡ 0 (mod 2), one equality
            # once lowered.
            row[n] = (row[n] - 1) % 2
            key = (tuple(row), 2)
            if key not in seen_cong:
                seen_cong.add(key)
                congs.append((row, 2))
            continue
        key = (tuple(row), m)
        if key not in seen_ncong:
            seen_ncong.add(key)
            ncongs.append((row, m))
    out = System(s.cols, geqs, eqs, congs, ncongs)
    if out.size() > MAX_CONSTRAINTS:
        raise ProverError("constraint explosion (%d atoms)" % out.size())
    return out


# ---------------------------------------------------------------------------
# equality elimination
# ---------------------------------------------------------------------------


def _pick_equality(s: System, mask: List[bool], n: int
                   ) -> Optional[Tuple[int, Row, List[int]]]:
    """The next equality to eliminate and its eliminable columns:
    prefer one with a unit-coefficient eliminable column."""
    fallback: Optional[Tuple[int, Row, List[int]]] = None
    for i, row in enumerate(s.eqs):
        evs = [j for j in range(n) if row[j] and mask[j]]
        if not evs:
            continue
        if any(row[j] == 1 or row[j] == -1 for j in evs):
            return i, row, evs
        if fallback is None:
            fallback = (i, row, evs)
    return fallback


def _occurrences(s: System, j: int) -> int:
    count = 0
    for row in s.geqs:
        if row[j]:
            count += 1
    for row in s.eqs:
        if row[j]:
            count += 1
    for row, __ in s.congs:
        if row[j]:
            count += 1
    for row, __ in s.ncongs:
        if row[j]:
            count += 1
    return count


def _substitute(s: System, j: int, repl: Row) -> System:
    """Replace column *j* by the replacement row (``repl[j]`` is 0):
    each row r becomes ``r - r[j]·e_j + r[j]·repl``."""

    def sub(row: Row) -> Row:
        b = row[j]
        if not b:
            return row
        new = [rk + b * pk for rk, pk in zip(row, repl)]
        new[j] = 0
        return new

    return System(s.cols,
                  [sub(r) for r in s.geqs],
                  [sub(r) for r in s.eqs],
                  [(sub(r), m) for r, m in s.congs],
                  [(sub(r), m) for r, m in s.ncongs])


def _scale_out(s: System, j: int, a: int, rest: Row) -> System:
    """Eliminate column *j* from every row using ``a·x = −rest``.

    A row with x-coefficient b is multiplied by |a| (order-preserving),
    after which ``b·|a|·x = b·sign(a)·(a·x)`` is replaced by
    ``−b·sign(a)·rest``; a congruence's modulus (negated or not) scales
    with it.
    """
    mag = abs(a)
    sign = 1 if a > 0 else -1

    def rewrite(row: Row) -> Row:
        b = row[j]
        if not b:
            return row
        f = -b * sign
        new = [rk * mag + tk * f for rk, tk in zip(row, rest)]
        new[j] = 0
        return new

    return System(
        s.cols,
        [rewrite(r) for r in s.geqs],
        [rewrite(r) for r in s.eqs],
        [(rewrite(r), m * (mag if r[j] else 1)) for r, m in s.congs],
        [(rewrite(r), m * (mag if r[j] else 1)) for r, m in s.ncongs],
    )


def eliminate_equalities(s: System, eliminable: Set[str]
                         ) -> Optional[System]:
    """Remove equalities by solving for eliminable variables.

    Three exact rules, each of which removes at least one variable from
    the whole system (hence termination):

    1. **gcd rule** — if every eliminable variable of an equality occurs
       *only* in that equality, ``∃x⃗. Σaᵢxᵢ + r = 0`` is equivalent to
       ``r ≡ 0 (mod gcd(aᵢ))`` over the remaining variables;
    2. **unit substitution** — an eliminable variable with coefficient
       ±1 is solved for and substituted everywhere;
    3. **scale elimination** — for ``a·x + r = 0`` with |a| > 1,
       multiply every other constraint containing x by |a|, replace
       ``a·x`` by ``−r`` in it, and record the integrality side
       condition ``r ≡ 0 (mod |a|)``.

    Equalities with no eliminable variable are kept.  Returns ``None``
    on unsatisfiability.
    """
    for __ in range(MAX_ELIMINATION_STEPS):
        normalized = normalize(s)
        if normalized is None:
            return None
        s = normalized
        n = len(s.cols)
        mask = [v in eliminable for v in s.cols]
        target = _pick_equality(s, mask, n)
        if target is None:
            return s
        index, row, evs = target
        if all(_occurrences(s, j) == 1 for j in evs):
            # gcd rule.
            s.eqs.pop(index)
            g = 0
            rest = list(row)
            for j in evs:
                g = gcd(g, row[j])
                rest[j] = 0
            if g > 1:
                s.congs.append((rest, g))
            continue
        unit = next((j for j in evs
                     if row[j] == 1 or row[j] == -1), None)
        if unit is not None:
            s.eqs.pop(index)
            # coeff·x + rest = 0  =>  x = −rest / coeff.
            if row[unit] == 1:
                repl = [-k for k in row]
            else:
                repl = list(row)
            repl[unit] = 0
            s = _substitute(s, unit, repl)
            continue
        # Scale elimination on the column with the smallest |coeff|;
        # ties break to the lower column = smaller variable name.
        var_j = evs[0]
        best = abs(row[var_j])
        for j in evs[1:]:
            mag = abs(row[j])
            if mag < best:
                best, var_j = mag, j
        s.eqs.pop(index)
        a = row[var_j]
        rest = list(row)
        rest[var_j] = 0
        s = _scale_out(s, var_j, a, rest)
        s.congs.append((rest, abs(a)))
    raise ProverError("equality elimination did not terminate")


# ---------------------------------------------------------------------------
# congruence lowering / resolution
# ---------------------------------------------------------------------------


def _add_column(s: System, name: str) -> Tuple[System, int]:
    """Insert a fresh column keeping ``cols`` sorted (sortedness is
    what makes column order equal name order everywhere else)."""
    pos = bisect_left(s.cols, name)
    cols = list(s.cols)
    cols.insert(pos, name)

    def widen(row: Row) -> Row:
        new = list(row)
        new.insert(pos, 0)
        return new

    return System(cols,
                  [widen(r) for r in s.geqs],
                  [widen(r) for r in s.eqs],
                  [(widen(r), m) for r, m in s.congs],
                  [(widen(r), m) for r, m in s.ncongs]), pos


def _lower_congruences(s: System, remove: Set[str]
                       ) -> Tuple[System, Set[str]]:
    """Lower only the congruences that mention a variable being
    eliminated (others stay as congruence atoms in the output)."""
    rcols = [j for j, v in enumerate(s.cols) if v in remove]
    touched = [i for i, (row, __) in enumerate(s.congs)
               if any(row[j] for j in rcols)]
    if not touched:
        return s, set()
    s = s.copy()
    fresh: Set[str] = set()
    for i in sorted(touched, reverse=True):
        row, m = s.congs.pop(i)
        q = fresh_variable("$q")
        fresh.add(q)
        s, pos = _add_column(s, q)
        new = list(row)
        new.insert(pos, -m)  # term − m·q = 0
        s.eqs.append(new)
    return s, fresh


def _lower_negated(s: System, remove: Set[str]
                   ) -> Tuple[System, Set[str]]:
    """Lower the negated congruences that mention a variable being
    eliminated.  ``∃x. row ≢ 0 (mod m)`` is true when x (its
    coefficient is nonzero mod m) occurs in no other row — x and x + 1
    cannot both make row ≡ 0 — so such a row is dropped.  Any other
    becomes the bounded remainder ``row − m·q − 1 ≥ 0`` and
    ``m·q + m − 1 − row ≥ 0`` with a fresh quotient ``q``, over the
    symmetric residues of its coefficients (a coefficient m − 1 is the
    unit −1, which the inequality elimination takes exactly)."""
    rcols = [j for j, v in enumerate(s.cols) if v in remove]
    touched = [i for i, (row, __) in enumerate(s.ncongs)
               if any(row[j] for j in rcols)]
    if not touched:
        return s, set()
    s = s.copy()
    fresh: Set[str] = set()
    for i in sorted(touched, reverse=True):
        row, m = s.ncongs.pop(i)
        if any(row[j] and not _occurs(s, j) for j in rcols):
            continue
        row = [k - m if 2 * k > m else k for k in row]
        q = fresh_variable("$q")
        fresh.add(q)
        s, pos = _add_column(s, q)
        rcols = [j + (j >= pos) for j in rcols]
        low = list(row)
        low.insert(pos, -m)
        low[-1] -= 1
        high = [-k for k in row]
        high.insert(pos, m)
        high[-1] += m - 1
        s.geqs.extend((low, high))
    return s, fresh


def _resolve(s: System, eliminable: Set[str]
             ) -> Optional[Tuple[System, Set[str]]]:
    """Iterate congruence lowering and equality elimination to a
    fixpoint, then lower the negated congruences.

    Congruences mentioning an eliminable variable become equalities with
    fresh quotient variables (themselves eliminable); equality
    elimination may mint new congruences.  On exit no equality,
    congruence or negated congruence mentions an eliminable variable.
    Returns the resolved system and the full eliminable set, or
    ``None`` if unsat.
    """
    eliminable = set(eliminable)
    for __ in range(MAX_ELIMINATION_STEPS):
        s, fresh = _lower_congruences(s, eliminable)
        eliminable |= fresh
        solved = eliminate_equalities(s, eliminable)
        if solved is None:
            return None
        s = solved
        emask = [j for j, v in enumerate(s.cols) if v in eliminable]
        if not any(any(row[j] for j in emask) for row, __ in s.congs):
            s, fresh = _lower_negated(s, eliminable)
            return s, eliminable | fresh
    raise ProverError("equality/congruence resolution did not terminate")


# ---------------------------------------------------------------------------
# inequality elimination
# ---------------------------------------------------------------------------


def _split_bounds(s: System, j: int
                  ) -> Tuple[List[Row], List[Row], List[Row]]:
    """Split geqs into (lower bounds, upper bounds, rest) of column
    *j*: a lower bound has a positive coefficient, an upper bound a
    negative one."""
    lowers, uppers, rest = [], [], []
    for row in s.geqs:
        k = row[j]
        if k > 0:
            lowers.append(row)
        elif k < 0:
            uppers.append(row)
        else:
            rest.append(row)
    return lowers, uppers, rest


def _shadow(lowers: Sequence[Row], uppers: Sequence[Row],
            j: int, dark: bool) -> List[Row]:
    """Pairwise FM combinations: real shadow, or dark shadow when
    *dark*."""
    out = []
    for low in lowers:
        a = low[j]
        for up in uppers:
            b = -up[j]
            combined = [lk * b + uk * a for lk, uk in zip(low, up)]
            if dark:
                combined[-1] -= (a - 1) * (b - 1)
            out.append(combined)
    return out


def _exact_single_step(s: System, j: int) -> Optional[System]:
    """Exact elimination of column *j* from a geq-only occurrence, when
    one side has all-unit coefficients; None when not applicable."""
    lowers, uppers, rest = _split_bounds(s, j)
    if not lowers or not uppers:
        return s.with_geqs(rest)
    if all(r[j] == 1 for r in lowers) \
            or all(r[j] == -1 for r in uppers):
        return s.with_geqs(rest + _shadow(lowers, uppers, j, False))
    return None


def _pick_variable(s: System, live: List[int]) -> int:
    """The column with the cheapest elimination: unit coefficients
    first, then fewest shadow pairs; ties go to the first column of
    *live* (ascending column order, i.e. sorted-name order)."""
    best_j, best_key = None, None
    for j in live:
        lowers, uppers, __ = _split_bounds(s, j)
        unit = all(r[j] == 1 for r in lowers) \
            or all(r[j] == -1 for r in uppers)
        key = (0 if unit else 1, len(lowers) * len(uppers))
        if best_key is None or key < best_key:
            best_j, best_key = j, key
    assert best_j is not None
    return best_j


def _splinter_limits(lowers: Sequence[Row], uppers: Sequence[Row],
                     j: int) -> List[Tuple[Row, int]]:
    """Each lower bound with the largest ``i`` of its splinters."""
    b_max = max(-r[j] for r in uppers)
    return [(low, (low[j] * b_max - low[j] - b_max) // b_max)
            for low in lowers]


def _splinters(s: System, j: int, lowers: Sequence[Row],
               uppers: Sequence[Row]) -> Iterator[System]:
    """The equality cases ``low = i`` that, with the dark shadow, cover
    every integer solution the real shadow admits for column *j*;
    generated lazily, so a search that stops early never builds the
    rest."""
    for low, limit in _splinter_limits(lowers, uppers, j):
        for i in range(limit + 1):
            budget.check()
            eq = list(low)
            eq[-1] -= i
            yield System(s.cols, list(s.geqs), s.eqs + [eq],
                         list(s.congs), list(s.ncongs))


def _dark_is_real(lowers: Sequence[Row], uppers: Sequence[Row],
                  j: int) -> bool:
    """Whether each dark-shadow row states what its real-shadow row
    does: the (a−1)(b−1) slack is absorbed by gcd tightening, or the
    row is ground and keeps its truth value.  Then the dark shadow is
    the exact projection and no splinter is needed (a stride pair
    ``m·x ≤ e ≤ m·x + m − 1`` is the common case)."""
    for low in lowers:
        a = low[j]
        for up in uppers:
            b = -up[j]
            slack = (a - 1) * (b - 1)
            if not slack:
                continue
            combined = [lk * b + uk * a for lk, uk in zip(low, up)]
            c = combined[-1]
            g = _content(combined, len(combined) - 1)
            if g == 0:
                if (c >= 0) != (c >= slack):
                    return False
            elif c // g != (c - slack) // g:
                return False
    return True


def _hard_split(s: System, j: int) -> List[System]:
    """Dark shadow plus splinters: the exact projection when neither
    bound side has all-unit coefficients."""
    lowers, uppers, rest = _split_bounds(s, j)
    dark = s.with_geqs(rest + _shadow(lowers, uppers, j, True))
    if _dark_is_real(lowers, uppers, j):
        return [dark]
    # Each piece costs a projection step: a split with more splinters
    # than the step cap cannot finish, so fail before building them.
    limits = _splinter_limits(lowers, uppers, j)
    if sum(limit + 1 for __, limit in limits) > MAX_ELIMINATION_STEPS:
        raise ProverError("projection did not terminate")
    return [dark] + list(_splinters(s, j, lowers, uppers))


# ---------------------------------------------------------------------------
# public entry points (Constraints in, Constraints out)
# ---------------------------------------------------------------------------


def project(c: Constraints, variables: Iterable[str]
            ) -> List[Constraints]:
    """Exact integer projection: eliminate *variables*, returning a
    disjunction (list) of constraint sets over the remaining variables.

    An empty list means unsat; a constraint set with no atoms means
    true.
    """
    pending: List[Tuple[System, Set[str]]] = \
        [(from_constraints(c), set(variables))]
    result: List[Constraints] = []
    steps = 0
    while pending:
        budget.check()
        steps += 1
        if steps > MAX_ELIMINATION_STEPS:
            raise ProverError("projection did not terminate")
        s, remove = pending.pop()
        resolved = _resolve(s, remove)
        if resolved is None:
            continue
        s, remove = resolved
        normalized = normalize(s)
        if normalized is None:
            continue
        s = normalized
        n = len(s.cols)
        live = [j for j in range(n)
                if s.cols[j] in remove and _occurs(s, j)]
        if not live:
            result.append(to_constraints(s))
            continue
        j = _pick_variable(s, live)
        easy = _exact_single_step(s, j)
        if easy is not None:
            pending.append((easy, remove))
            continue
        pending.extend((piece, set(remove))
                       for piece in _hard_split(s, j))
    return result


def satisfiable(c: Constraints) -> bool:
    """Exact satisfiability over ℤ with all variables existential."""
    return _sat(from_constraints(c))


def _sat(s: System) -> bool:
    # All columns are existential; columns with no remaining occurrence
    # are harmless in the eliminable set (they match nothing).
    resolved = _resolve(s, set(s.cols))
    if resolved is None:
        return False
    s, __ = resolved
    normalized = normalize(s)
    if normalized is None:
        return False
    s = normalized
    assert not s.eqs and not s.congs and not s.ncongs
    return _sat_geqs(s, 0)


def _sat_geqs(s: System, depth: int) -> bool:
    budget.check()
    if depth > 60:
        raise ProverError("satisfiability recursion too deep")
    normalized = normalize(s)
    if normalized is None:
        return False
    s = normalized
    n = len(s.cols)
    live = [j for j in range(n) if _occurs(s, j)]
    if not live:
        return True  # normalization removed all satisfied ground rows
    j = _pick_variable(s, live)
    lowers, uppers, rest = _split_bounds(s, j)
    if not lowers or not uppers:
        return _sat_geqs(s.with_geqs(rest), depth + 1)
    exact = _exact_single_step(s, j)
    if exact is not None:
        return _sat_geqs(exact, depth + 1)
    dark = s.with_geqs(rest + _shadow(lowers, uppers, j, True))
    if _sat_geqs(dark, depth + 1):
        return True
    if _dark_is_real(lowers, uppers, j):
        return False
    real = s.with_geqs(rest + _shadow(lowers, uppers, j, False))
    if not _sat_geqs(real, depth + 1):
        return False
    # Disagreement: decide by splinters.
    return any(_sat(splinter)
               for splinter in _splinters(s, j, lowers, uppers))


# ---------------------------------------------------------------------------
# rational projection (for the generalization heuristic)
# ---------------------------------------------------------------------------


def project_real(c: Constraints, variables: Iterable[str]) -> Constraints:
    """Rational Fourier–Motzkin projection (real shadow only).

    This is what the induction-iteration *generalization* step uses:
    ``generalize(f) = ¬ eliminate(¬f)``, where eliminate removes
    variables with plain FM.  Congruences and equalities mentioning an
    eliminated variable are dropped after being used for substitution
    where possible (a sound over-approximation of ∃), as are negated
    congruences mentioning one.
    """
    s = from_constraints(c)
    for var in variables:
        solved = eliminate_equalities(s, {var})
        if solved is None:
            return Constraints(geqs=[Linear.const(-1)])  # unsat marker
        s = solved
        pos = bisect_left(s.cols, var)
        if pos == len(s.cols) or s.cols[pos] != var \
                or not _occurs(s, pos):
            continue
        lowers, uppers, rest = _split_bounds(s, pos)
        combined = _shadow(lowers, uppers, pos, False) \
            if lowers and uppers else []
        s = System(s.cols, rest + combined,
                   [r for r in s.eqs if not r[pos]],
                   [(r, m) for r, m in s.congs if not r[pos]],
                   [(r, m) for r, m in s.ncongs if not r[pos]])
    normalized = normalize(s)
    if normalized is None:
        return Constraints(geqs=[Linear.const(-1)])
    return to_constraints(normalized)


def constraints_to_formula(sets: List[Constraints]) -> Formula:
    return disj(*(c.to_formula() for c in sets))
