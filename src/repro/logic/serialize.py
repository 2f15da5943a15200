"""Process-stable serialization and digests of formulas.

The persistent prover cache (:mod:`repro.logic.persist`) is shared
across runs and across worker processes, so its keys cannot use
anything that depends on Python's per-process hash randomization.
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
    And, Cong, Eq, Exists, FalseFormula, Forall, Formula, Geq, Not, Or,
    TrueFormula,
)
from repro.logic.memo import BoundedCache

_TEXT_CACHE = BoundedCache()
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
    if isinstance(f, (And, Or)):
        cached = _TEXT_CACHE.get(f)
        if cached is not None:
            return cached
        tag = "and" if isinstance(f, And) else "or"
        text = "(%s %s)" % (tag,
                            " ".join(sorted(formula_text(p)
                                            for p in f.parts)))
        _TEXT_CACHE.put(f, text)
        return text
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
    """Process-stable content digest of *f*'s canonical form — the key
    of the persistent prover cache and of obligation records."""
    return canonical_digest(canonicalize(f))


def formula_to_obj(f: Formula):
    """A JSON-serializable nested-list encoding of *f*.

    The portable form behind ``repro check --trace-formulas`` and
    ``repro bench --prover-replay``: a trace records the exact query
    formulas, and the replay bench rebuilds them in a fresh process.
    Round-trips exactly through :func:`formula_from_obj` (hash-consing
    makes the rebuilt formula ``==``/``is`` the original within one
    process)."""
    if isinstance(f, TrueFormula):
        return ["true"]
    if isinstance(f, FalseFormula):
        return ["false"]
    if isinstance(f, (Geq, Eq)):
        tag = "geq" if isinstance(f, Geq) else "eq"
        return [tag, sorted(f.term.coefficients.items()),
                f.term.constant]
    if isinstance(f, Cong):
        return ["cong", f.modulus, sorted(f.term.coefficients.items()),
                f.term.constant]
    if isinstance(f, (And, Or)):
        tag = "and" if isinstance(f, And) else "or"
        return [tag] + [formula_to_obj(p) for p in f.parts]
    if isinstance(f, Not):
        return ["not", formula_to_obj(f.part)]
    if isinstance(f, (Exists, Forall)):
        tag = "exists" if isinstance(f, Exists) else "forall"
        return [tag, list(f.variables), formula_to_obj(f.body)]
    raise TypeError("unexpected formula %r" % (f,))


def formula_from_obj(obj) -> Formula:
    """Rebuild a formula from :func:`formula_to_obj` output (or its
    JSON round-trip, where tuples became lists)."""
    from repro.logic.formula import FALSE, TRUE
    from repro.logic.terms import Linear
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ValueError("not a serialized formula: %r" % (obj,))
    tag = obj[0]
    if tag == "true":
        return TRUE
    if tag == "false":
        return FALSE
    if tag in ("geq", "eq"):
        term = Linear({v: int(k) for v, k in obj[1]}, int(obj[2]))
        return Geq(term) if tag == "geq" else Eq(term)
    if tag == "cong":
        term = Linear({v: int(k) for v, k in obj[2]}, int(obj[3]))
        return Cong(term, int(obj[1]))
    if tag in ("and", "or"):
        cls = And if tag == "and" else Or
        return cls(tuple(formula_from_obj(p) for p in obj[1:]))
    if tag == "not":
        return Not(formula_from_obj(obj[1]))
    if tag in ("exists", "forall"):
        cls = Exists if tag == "exists" else Forall
        return cls(tuple(obj[1]), formula_from_obj(obj[2]))
    raise ValueError("unknown formula tag %r" % (tag,))


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
