"""Process-stable serialization and digests of formulas.

The replay store (:mod:`repro.logic.persist`) is shared across runs
and across the check service's shard processes, so its keys — built
from these digests — cannot use anything that depends on Python's
per-process hash randomization.
:func:`canonicalize` already folds away alpha-variants, commutative
reorderings, and gcd/sign variants — but it orders ∧/∨ children by
``hash()``, which differs between processes.  The digest therefore
re-renders the canonical formula as an s-expression whose junction
children are sorted *lexicographically by their rendered text*, and
hashes that text with SHA-256.  Two formulas receive the same digest
iff their canonical forms coincide up to commutative reordering —
exactly the equivalence the in-memory canonical cache uses, made
stable across process boundaries.
"""

from __future__ import annotations

import hashlib

from repro.logic.canonical import canonicalize
from repro.logic.formula import (
    And, Cong, Eq, Exists, FalseFormula, Forall, Formula, Geq, Not,
    NotCong, Or, TrueFormula,
)
from repro.logic.memo import BoundedCache

_DIGEST_CACHE = BoundedCache()


def formula_text(f: Formula) -> str:
    """A deterministic s-expression rendering of *f*.

    Stable across processes and runs: terms render with variables in
    sorted order (:meth:`Linear.__str__`), and ∧/∨ children are sorted
    by their own rendered text rather than by node hash."""
    if isinstance(f, TrueFormula):
        return "T"
    if isinstance(f, FalseFormula):
        return "F"
    if isinstance(f, Geq):
        return "(>=0 %s)" % (f.term,)
    if isinstance(f, Eq):
        return "(=0 %s)" % (f.term,)
    if isinstance(f, Cong):
        return "(cong%d %s)" % (f.modulus, f.term)
    if isinstance(f, NotCong):
        return "(ncong%d %s)" % (f.modulus, f.term)
    if isinstance(f, (And, Or)):
        tag = "and" if isinstance(f, And) else "or"
        return "(%s %s)" % (tag, " ".join(sorted(formula_text(p)
                                                 for p in f.parts)))
    if isinstance(f, Not):
        return "(not %s)" % formula_text(f.part)
    if isinstance(f, (Exists, Forall)):
        tag = "exists" if isinstance(f, Exists) else "forall"
        return "(%s (%s) %s)" % (tag, " ".join(f.variables),
                                 formula_text(f.body))
    raise TypeError("unexpected formula %r" % (f,))


def canonical_digest(canonical: Formula) -> str:
    """SHA-256 hex digest of an *already canonicalized* formula."""
    cached = _DIGEST_CACHE.get(canonical)
    if cached is None:
        cached = hashlib.sha256(
            formula_text(canonical).encode("utf-8")).hexdigest()
        _DIGEST_CACHE.put(canonical, cached)
    return cached


def formula_digest(f: Formula) -> str:
    """Process-stable content digest of *f*'s canonical form — part of
    the replay store's keys and of obligation records."""
    return canonical_digest(canonicalize(f))


def text_digest(*parts) -> str:
    """Process-stable SHA-256 digest of a sequence of str/bytes parts.

    Parts are length-prefixed before hashing so the digest is
    unambiguous under concatenation (``("ab", "c")`` ≠ ``("a", "bc")``).
    Used by the check service to key request deduplication on
    (program, spec, options) with the same process-stability guarantees
    as :func:`formula_digest`."""
    h = hashlib.sha256()
    for part in parts:
        blob = part if isinstance(part, bytes) else \
            str(part).encode("utf-8")
        h.update(("%d:" % len(blob)).encode("ascii"))
        h.update(blob)
    return h.hexdigest()
