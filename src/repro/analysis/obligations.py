"""The obligation graph: explicit proof obligations and their serial
discharge.

Phase 5 used to generate and prove verification conditions in one
interleaved loop.  This module splits it:

* **generation** (:func:`generate_obligations`) walks the annotations
  and emits one :class:`Obligation` record per global safety
  precondition — canonical-form digest, formula, program point, kind —
  in a deterministic order (sorted node uid, then annotation order);
* **discharge** (:func:`prove_serial`) proves them one at a time with
  the verification engine, reporting proof records, violations and
  each proof's touched-function set (the function-unit cache's
  dependency input, see :mod:`repro.analysis.units`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.analysis.annotate import GlobalPredicate, NodeAnnotation
from repro.analysis.verify import (
    ProofRecord, VerificationEngine, Violation,
)
from repro.logic.formula import Formula
from repro.logic.serialize import formula_digest


@dataclass(frozen=True)
class Obligation:
    """One global safety precondition, decoupled from its discharge.

    The digest is the process-stable canonical-form key of the formula
    (also part of the replay store's unit payloads)."""

    oid: int        #: position in the deterministic generation order
    uid: int        #: CFG node the condition must hold before
    index: int      #: instruction index (for violation reports)
    kind: str       #: obligation kind ("global" for phase-5 VCs)
    predicate: GlobalPredicate
    digest: str

    @property
    def formula(self) -> Formula:
        return self.predicate.formula

    @property
    def category(self) -> str:
        return self.predicate.category

    @property
    def description(self) -> str:
        return self.predicate.description


def generate_obligations(annotations: Dict[int, NodeAnnotation]
                         ) -> List[Obligation]:
    """Emit the global proof obligations in the engine's historical
    order (sorted node uid, then annotation order)."""
    out: List[Obligation] = []
    for uid in sorted(annotations):
        ann = annotations[uid]
        for predicate in ann.global_:
            out.append(Obligation(
                oid=len(out), uid=uid, index=ann.index, kind="global",
                predicate=predicate,
                digest=formula_digest(predicate.formula)))
    return out


def obligation_provenance(engine: VerificationEngine,
                          ob: Obligation) -> Dict[str, object]:
    """Attribution of one obligation back to the machine program: the
    1-based instruction index, its byte address (both frontends lower
    one fixed-width 4-byte instruction per IR op), the containing
    function, and the containing-loop header (None for straight-line
    code) — what a trace consumer needs to pinpoint the instruction a
    slow or failed proof protects."""
    node = engine.cfg.node(ob.uid)
    loop = engine.loops[node.function].containing(ob.uid)
    return {
        "oid": ob.oid,
        "digest": ob.digest,
        "kind": ob.kind,
        "category": ob.category,
        "description": ob.description,
        "instruction": ob.index,
        "address": (ob.index - 1) * 4,
        "function": node.function,
        "loop_header": loop.header if loop is not None else None,
    }


def _prove_obligation(engine: VerificationEngine, ob: Obligation) -> bool:
    """Prove one obligation, wrapped in an "obligation" trace span
    carrying its provenance.  With tracing disabled this is exactly the
    historical ``engine.prove_at`` call plus the per-obligation
    touched-function reset (a set assignment)."""
    engine.reset_touched()
    if ob.category in engine.options.unsound_assume_categories:
        # Test-only fault injection (see CheckerOptions): assume the
        # obligation instead of proving it.  Deliberately unsound.
        return True
    tracer = engine.tracer
    if not tracer.enabled:
        return engine.prove_at(ob.uid, ob.formula, {}, 0)
    attrs = obligation_provenance(engine, ob)
    attrs["proved"] = None
    with tracer.span("obligation", **attrs) as span:
        proved = engine.prove_at(ob.uid, ob.formula, {}, 0)
        span.set(proved=proved)
    return proved


def prove_serial(engine: VerificationEngine,
                 obligations: List[Obligation]
                 ) -> Tuple[List[ProofRecord], List[Violation],
                            Dict[int, FrozenSet[str]]]:
    """Prove *obligations* in order, also reporting per-obligation
    touched-function snapshots (consumed by the function-unit cache)."""
    records: List[ProofRecord] = []
    violations: List[Violation] = []
    touched: Dict[int, FrozenSet[str]] = {}
    for ob in obligations:
        proved = _prove_obligation(engine, ob)
        touched[ob.oid] = engine.touched_snapshot()
        _record(ob, proved, records, violations)
    return records, violations, touched


def _record(ob: Obligation, proved: bool, records: List[ProofRecord],
            violations: List[Violation]) -> None:
    records.append(ProofRecord(uid=ob.uid, index=ob.index,
                               predicate=ob.predicate, proved=proved))
    if not proved:
        violations.append(Violation(
            index=ob.index, category=ob.category,
            description="cannot establish: %s" % ob.description,
            phase="global"))
