"""Pickling of hash-consed terms and formulas.

The function-unit store (``repro.analysis.units``) pickles proof
payloads into the persistent store and a later run loads them;
unpickling must route through the interning constructors so the nodes
land in the *loading* process's intern tables with their structural
metadata (size, quantifier flag) intact, and the canonical digest used
by the persistent prover cache must be stable across processes with
different hash seeds.
"""

import os
import pickle
import subprocess
import sys

from repro.logic.formula import (
    And, Cong, Eq, Exists, FALSE, Forall, Geq, Not, Or, TRUE,
    conj, disj, eq, ge, formula_size, has_quantifier,
)
from repro.logic.serialize import formula_digest, formula_text
from repro.logic.terms import Linear


def v(name):
    return Linear.var(name)


def roundtrip(f):
    return pickle.loads(pickle.dumps(f))


class TestLinearPickle:
    def test_roundtrip_is_interned_identity(self):
        term = Linear({"x": 2, "y": -3}, 7)
        assert roundtrip(term) is term

    def test_constant_roundtrip(self):
        assert roundtrip(Linear({}, 42)) is Linear({}, 42)


class TestFormulaPickleEveryNodeKind:
    """One case per Formula node class: the loaded object must be the
    *identical* interned node, with size and quantifier flag intact."""

    def cases(self):
        x, y = v("x"), v("y")
        return [
            TRUE,                                   # TrueFormula
            FALSE,                                  # FalseFormula
            Geq(x),                                 # Geq
            Eq(y),                                  # Eq
            Cong(x, 4),                             # Cong
            And((Geq(x), Geq(y))),                  # And
            Or((Eq(x), Cong(y, 8))),                # Or
            Not(Geq(x)),                            # Not
            Exists(("x",), ge(v("x"), 0)),          # Exists
            Forall(("y",), eq(v("y"), v("x"))),     # Forall
        ]

    def test_roundtrip_every_kind(self):
        for f in self.cases():
            loaded = roundtrip(f)
            assert loaded is f, type(f).__name__
            assert formula_size(loaded) == formula_size(f)
            assert has_quantifier(loaded) == has_quantifier(f)

    def test_nested_formula_roundtrip(self):
        f = Exists(("k",),
                   conj(ge(v("k"), 0),
                        disj(eq(v("x"), v("k")),
                             Not(Cong(v("x"), 2)))))
        loaded = roundtrip(f)
        assert loaded is f
        assert formula_text(loaded) == formula_text(f)
        assert formula_digest(loaded) == formula_digest(f)

    def test_subformulas_reintern_too(self):
        inner = ge(v("q"), 5)
        outer = conj(inner, eq(v("r"), v("q")))
        loaded = roundtrip(outer)
        assert loaded.parts[0] is inner


_DIGEST_SNIPPET = """
import sys
sys.path.insert(0, %r)
from repro.logic.formula import conj, disj, eq, ge, exists, neg
from repro.logic.serialize import formula_digest
from repro.logic.terms import Linear
x, y, z = (Linear.var(n) for n in "xyz")
f = exists(["k"], conj(ge(Linear.var("k"), 0),
                       disj(eq(x, y), ge(z, 3), neg(ge(y, 7)))))
print(formula_digest(f))
"""


class TestDigestProcessStability:
    def test_digest_identical_across_hash_seeds(self):
        """The persistent-cache key must not depend on Python's
        per-process hash randomization (canonicalize orders junction
        children by hash; the digest re-sorts by rendered text)."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        digests = []
        for seed in ("1", "7"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            out = subprocess.run(
                [sys.executable, "-c", _DIGEST_SNIPPET % src],
                capture_output=True, text=True, env=env, check=True)
            digests.append(out.stdout.strip())
        assert digests[0] == digests[1]
        assert len(digests[0]) == 64

    def test_digest_invariant_under_commutative_reordering(self):
        a = conj(ge(v("x"), 0), eq(v("y"), v("x")), Cong(v("z"), 4))
        b = conj(Cong(v("z"), 4), eq(v("y"), v("x")), ge(v("x"), 0))
        assert formula_digest(a) == formula_digest(b)

    def test_digest_distinguishes_formulas(self):
        assert formula_digest(ge(v("x"), 0)) \
            != formula_digest(ge(v("x"), 1))
