"""Cheap syntactic formula simplification.

During VC generation the paper performs back-substitution "in backwards
topological order … and the formula at each junction point is
simplified.  This strategy effectively controls the size of the
formulas considered, and ultimately the time that is spent in the
theorem prover" (Section 5.2.1, fifth enhancement).

The simplifier here is deliberately linear-time-ish and purely
syntactic (the prover itself is the semantic arbiter): it constant-
folds, deduplicates, drops subsumed inequalities (same linear part,
weaker constant), and detects directly contradictory or tautological
sibling atoms.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro import budget
from repro.logic.formula import (
    And, Cong, Eq, Exists, FALSE, FalseFormula, Forall, Formula, Geq, Not,
    Or, TRUE, TrueFormula, conj, disj,
)
from repro.logic.memo import BoundedCache
from repro.logic.terms import Linear

#: Memo cache keyed on interned nodes; bounded.
_SIMPLIFY_CACHE = BoundedCache()

#: Atom-normalization memo.  The per-conjunct prover cache calls
#: :func:`normalize_atom` on every atom of every DNF conjunct of every
#: query, but the distinct-atom population is tiny — with hash-consed
#: atoms the lookup is a pointer-identity dict probe.
_ATOM_CACHE = BoundedCache()


def simplify(f: Formula) -> Formula:
    """Bottom-up syntactic simplification; equivalence-preserving.

    Results for composite nodes are memoized keyed on the interned node
    — the verification engine re-simplifies the same junction formulas
    constantly (every sweep, every induction run)."""
    if isinstance(f, (TrueFormula, FalseFormula, Geq, Eq, Cong)):
        return normalize_atom(f)
    cached = _SIMPLIFY_CACHE.get(f)
    if cached is None:
        cached = _simplify_uncached(f)
        _SIMPLIFY_CACHE.put(f, cached)
    return cached


def _simplify_uncached(f: Formula) -> Formula:
    if isinstance(f, Not):
        return ~simplify(f.part)
    if isinstance(f, And):
        return _simplify_and([simplify(p) for p in f.parts])
    if isinstance(f, Or):
        return _simplify_or([simplify(p) for p in f.parts])
    if isinstance(f, Exists):
        body = simplify(f.body)
        from repro.logic.formula import exists
        return exists(f.variables, body)
    if isinstance(f, Forall):
        body = simplify(f.body)
        from repro.logic.formula import forall
        return forall(f.variables, body)
    raise TypeError("unexpected formula %r" % (f,))


def normalize_atom(f: Formula) -> Formula:
    """gcd-normalize a single atom, folding to true/false when ground."""
    if isinstance(f, (Geq, Eq, Cong)):
        cached = _ATOM_CACHE.get(f)
        if cached is None:
            cached = _normalize_atom_uncached(f)
            _ATOM_CACHE.put(f, cached)
        return cached
    return f


def _normalize_atom_uncached(f: Formula) -> Formula:
    if isinstance(f, Geq):
        term = f.term
        if term.is_constant:
            return TRUE if term.constant >= 0 else FALSE
        g = term.content()
        if g > 1:
            coeffs = {v: c // g for v, c in term.coefficients.items()}
            return Geq(Linear(coeffs, term.constant // g))
        return f
    if isinstance(f, Eq):
        term = f.term
        if term.is_constant:
            return TRUE if term.constant == 0 else FALSE
        g = term.content()
        if g > 1:
            if term.constant % g:
                return FALSE
            term = term.divide_exact(g)
        lead = min(term.variables())
        if term.coefficient(lead) < 0:
            term = term.scale(-1)
        return Eq(term)
    if isinstance(f, Cong):
        term = f.term
        if term.is_constant:
            return TRUE if term.constant % f.modulus == 0 else FALSE
        coeffs = {v: c % f.modulus for v, c in term.coefficients.items()}
        folded = Linear(coeffs, term.constant % f.modulus)
        if folded.is_constant:
            return TRUE if folded.constant % f.modulus == 0 else FALSE
        return Cong(folded, f.modulus)
    return f


def _linear_key(term: Linear) -> Tuple[Tuple[str, int], ...]:
    return term.sorted_items()


def _simplify_and(parts: List[Formula]) -> Formula:
    flat: List[Formula] = []
    for p in parts:
        if isinstance(p, FalseFormula):
            return FALSE
        if isinstance(p, TrueFormula):
            continue
        flat.extend(p.parts if isinstance(p, And) else (p,))
    # Keep only the strongest inequality per linear part: e + c1 ≥ 0 and
    # e + c2 ≥ 0 collapse to the one with the smaller constant.
    strongest: Dict[Tuple[Tuple[str, int], ...], int] = {}
    others: List[Formula] = []
    for p in flat:
        if isinstance(p, Geq):
            key = _linear_key(p.term)
            best = strongest.get(key)
            if best is None or p.term.constant < best:
                strongest[key] = p.term.constant
        else:
            others.append(p)
    atoms: List[Formula] = [
        Geq(Linear(dict(key), constant))
        for key, constant in strongest.items()
    ]
    # Direct contradictions: e + c ≥ 0 together with −e + c' ≥ 0 where
    # c + c' < 0 has no solution.
    for key, constant in strongest.items():
        negkey = tuple(sorted((v, -c) for v, c in key))
        other = strongest.get(negkey)
        if other is not None and constant + other < 0:
            return FALSE
    # Congruence contradiction: t + c ≡ 0 and t + c' ≡ 0 (mod m) with
    # c ≢ c' pin the same linear part to two different residues.
    residues: Dict[Tuple[int, Tuple[Tuple[str, int], ...]], int] = {}
    for p in others:
        if isinstance(p, Cong):
            key2 = (p.modulus, _linear_key(p.term))
            r = p.term.constant % p.modulus
            if residues.setdefault(key2, r) != r:
                return FALSE
    others = _merge_complementary_guards(others)
    result = conj(*(atoms + others))
    return result


def _merge_complementary_guards(parts: List[Formula]) -> List[Formula]:
    """Rewrite ``(¬c ∨ X) ∧ (c ∨ X)`` to ``X``.

    Backward VC generation produces this shape whenever both arms of a
    branch reach the same obligation; merging it is what keeps formulas
    from doubling at every conditional."""
    work = list(parts)
    changed = True
    rounds = 0
    while changed and rounds < 20:
        changed = False
        rounds += 1
        for i in range(len(work)):
            if not isinstance(work[i], Or):
                continue
            budget.check()
            for j in range(i + 1, len(work)):
                if not isinstance(work[j], Or):
                    continue
                merged = _try_merge(work[i], work[j])
                if merged is not None:
                    work[i] = merged
                    del work[j]
                    changed = True
                    break
            if changed:
                break
    return work


def _try_merge(a: Or, b: Or) -> Formula:
    """If a and b differ in exactly one Geq atom each and those atoms
    are complementary over ℤ (t and −t−1), return the shared rest."""
    sa, sb = set(a.parts), set(b.parts)
    only_a, only_b = sa - sb, sb - sa
    if len(only_a) != 1 or len(only_b) != 1:
        return None
    atom_a, atom_b = next(iter(only_a)), next(iter(only_b))
    if not (isinstance(atom_a, Geq) and isinstance(atom_b, Geq)):
        return None
    total = atom_a.term + atom_b.term
    if not (total.is_constant and total.constant == -1):
        return None
    # In a's part order, not set order: the merged disjunction's part
    # order must not depend on the process's hash seed.
    shared = [p for p in a.parts if p in sb]
    if not shared:
        return None
    return disj(*shared)


def _simplify_or(parts: List[Formula]) -> Formula:
    flat: List[Formula] = []
    for p in parts:
        if isinstance(p, TrueFormula):
            return TRUE
        if isinstance(p, FalseFormula):
            continue
        flat.extend(p.parts if isinstance(p, Or) else (p,))
    # Keep only the weakest inequality per linear part.
    weakest: Dict[Tuple[Tuple[str, int], ...], int] = {}
    others: List[Formula] = []
    for p in flat:
        if isinstance(p, Geq):
            key = _linear_key(p.term)
            best = weakest.get(key)
            if best is None or p.term.constant > best:
                weakest[key] = p.term.constant
        else:
            others.append(p)
    # Tautology: e + c ≥ 0 or −e + c' ≥ 0 with c + c' ≥ −1 covers ℤ.
    for key, constant in weakest.items():
        negkey = tuple(sorted((v, -c) for v, c in key))
        other = weakest.get(negkey)
        if other is not None and constant + other >= -1:
            return TRUE
    # Complete residue system: t + r ≡ 0 (mod m) for every r in [0, m)
    # covers ℤ.  Negating an alignment congruence fans it into the m−1
    # other residues, so a second negation (or a join of branch arms)
    # routinely rebuilds the full fan; without this rule those
    # tautological fans survive into loop wlps and grind the prover.
    fans: Dict[Tuple[int, Tuple[Tuple[str, int], ...]], set] = {}
    for p in others:
        if isinstance(p, Cong):
            seen = fans.setdefault((p.modulus, _linear_key(p.term)), set())
            seen.add(p.term.constant % p.modulus)
            if len(seen) == p.modulus:
                return TRUE
    atoms: List[Formula] = [
        Geq(Linear(dict(key), constant))
        for key, constant in weakest.items()
    ]
    return disj(*(atoms + others))
