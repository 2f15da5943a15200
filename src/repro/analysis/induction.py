"""The induction-iteration method (paper Section 5.2.1, Figure 7), with
the paper's enhancements.

Basic algorithm (Suzuki & Ishihata): to prove P at a loop header, set
W(0) = P and W(i+1) = wlp(loop-body, W(i)); L(j) = ⋀_{i≤j} W(i) is a
loop invariant implying P as soon as (Inv.0) every W(i) is true on
entry to the loop and (Inv.1) L(j) ⊨ W(j+1).

Enhancements implemented (paper Sections 5.2.1 and 6):

1. nested loops — the trial invariant of the outer loop is recorded and
   tried first when the inner loop needs an entry condition;
2. procedure calls — handled by the engine (callee walk-through, entry
   conditions re-proven at every call site, recursion rejected);
3. disjunct candidates — the DNF disjuncts of wlp(loop-body, W(i)) are
   tried as W(i+1) in turn (conditionals can pollute the naive wlp);
4. generalization — ``¬(eliminate(¬f))`` with Fourier–Motzkin
   elimination of the loop-modified variables, applied per negated
   conjunct (this reproduces the paper's Section 5.2.2 derivation of
   ``%o1 ≤ n`` from ``%g3+1 < %o1 ∧ %g3+1 < n``); every candidate is
   admitted only if it implies the true wlp, keeping the chain sound;
5. junction-point simplification — in the engine's sweeps;
6. grouping — per-loop result cache: a formula implied by an already
   proven invariant is discharged without a new synthesis run.

Candidates are ranked by a simple heuristic and explored breadth-first
(paper: "test the potential candidates for W(i) using a breadth-first
strategy").  They are produced lazily, in that order: the wlp's DNF
disjuncts are expanded, simplified and ranked only once the search
asks for a candidate past the wlp itself, so a chain that the one-step
lookahead closes on an early candidate never pays for the expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro import budget
from repro.cfg.loops import Loop
from repro.errors import ProverError
from repro.logic.formula import (
    And, Cong, Eq, FalseFormula, Formula, Geq, TRUE, TrueFormula,
    conj, disj, formula_size, neg,
)
from repro.logic.normalize import to_dnf, to_nnf
from repro.logic.omega import Constraints, project_real
from repro.logic.serialize import formula_text
from repro.logic.simplify import simplify, simplify_conjunction
from repro.trace import NULL_TRACER
from repro.trace.tracer import clip


@dataclass
class InductionOutcome:
    """Result of one induction-iteration run."""

    success: bool
    invariant: Optional[Formula] = None
    iterations: int = 0
    candidates_tried: int = 0


@dataclass
class _Candidate:
    """One BFS state: the chain W(0..i)."""

    chain: List[Formula]

    @property
    def level(self) -> int:
        return len(self.chain) - 1


class InductionIteration:
    """One run of the method for a given loop and target formula.

    The *engine* provides ``prover``, ``options``, ``loop_body_wlp``,
    ``true_on_entry``, and ``modified_variables`` — the pieces that need
    the CFG; this class owns the candidate search."""

    def __init__(self, engine, loop: Loop, trials: Dict[int, Formula],
                 depth: int):
        self.engine = engine
        self.loop = loop
        self.trials = trials
        self.depth = depth
        self.prover = engine.prover
        self.options = engine.options
        self.tracer = getattr(engine, "tracer", NULL_TRACER)
        #: Forward-propagated ambient facts at the header (Section 6
        #: extension); sound to assume in every header-state check.
        self.facts = engine.header_facts(loop)
        #: Incremental prover session with the header facts as its
        #: persistent prefix — every Inv.0/Inv.1/lookahead query
        #: conjoins the same facts, so only the chain delta is
        #: eliminated and expanded per query.
        self._facts_session = engine.facts_session(loop)
        #: Deferred Inv.0 results, keyed by formula (trials are fixed
        #: for the lifetime of one run).
        self._entry_cache: Dict[Formula, bool] = {}

    # -- main algorithm ----------------------------------------------------------

    def run(self, target: Formula) -> InductionOutcome:
        with self.tracer.span("induction:run",
                              loop_header=self.loop.header,
                              depth=self.depth,
                              target_size=formula_size(target)) as span:
            outcome = self._run(target)
            span.set(success=outcome.success,
                     iterations=outcome.iterations,
                     candidates_tried=outcome.candidates_tried)
        return outcome

    def _run(self, target: Formula) -> InductionOutcome:
        target = simplify(target)
        if isinstance(target, TrueFormula) \
                or self._facts_session.implies(target):
            return InductionOutcome(success=True, invariant=TRUE)
        outcome = InductionOutcome(success=False)
        queue: List[_Candidate] = [_Candidate(chain=[target])]
        seen: Set[Formula] = {target}
        while queue:
            # The BFS can spend long stretches in candidate generation
            # and Fourier–Motzkin elimination between prover queries;
            # without this check a tiny budget would overrun unbounded.
            budget.check()
            if outcome.candidates_tried \
                    >= self.options.max_invariant_candidates:
                break
            candidate = queue.pop(0)
            outcome.candidates_tried += 1
            outcome.iterations = max(outcome.iterations, candidate.level)
            if self.tracer.enabled:
                self.tracer.event(
                    "induction:candidate",
                    level=candidate.level,
                    formula_size=formula_size(candidate.chain[-1]),
                    formula=clip(formula_text(candidate.chain[-1])))
            result = self._step(candidate, queue, seen)
            if result is not None:
                outcome.success = True
                outcome.invariant = result
                return outcome
        return outcome

    def _step(self, candidate: _Candidate, queue: List[_Candidate],
              seen: Set[Formula]) -> Optional[Formula]:
        """Process one BFS state; returns the invariant on success.

        The entry conditions (Inv.0) are *deferred*: a chain only pays
        the (recursive, possibly interprocedural) true-on-entry checks
        once Inv.1 closes it.  This preserves Figure 7's semantics —
        success still requires every W(k) of the invariant to hold on
        entry — while junk candidates that never become inductive never
        trigger entry-condition cascades."""
        chain = candidate.chain
        i = candidate.level
        w_i = chain[-1]
        # Inv.1(i-1): L(i-1) ⊨ W(i) — the chain closed; L(i-1) is the
        # invariant (it contains W(0) = target).
        if i > 0 and self._facts_session.implies(
                w_i, extra=conj(*chain[:-1])):
            if all(self._true_on_entry_cached(w) for w in chain[:-1]):
                return conj(*chain[:-1])
            return None  # inductive but not establishable on entry
        if i + 1 >= self.options.max_induction_iterations:
            return None
        trials = dict(self.trials)
        trials[self.loop.header] = conj(*chain)
        body_wlp = self.engine.quantifier_free(self.engine.loop_body_wlp(
            self.loop, w_i, trials, self.depth))
        for next_w in self._candidates_for(body_wlp):
            if next_w in seen:
                continue
            seen.add(next_w)
            # One-step lookahead: if the extension already closes the
            # chain (L(i) ⊨ W(i+1)), settle it now instead of letting
            # breadth-first siblings exhaust the budget first.
            if self._facts_session.implies(next_w, extra=conj(*chain)):
                if all(self._true_on_entry_cached(w) for w in chain):
                    return conj(*chain)
                continue
            queue.append(_Candidate(chain=chain + [next_w]))
        return None

    def _true_on_entry_cached(self, w: Formula) -> bool:
        cached = self._entry_cache.get(w)
        if cached is None:
            cached = self.engine.true_on_entry(self.loop, w, self.trials,
                                               self.depth)
            self._entry_cache[w] = cached
        return cached

    # -- candidate generation -------------------------------------------------------

    def _candidates_for(self, body_wlp: Formula) -> Iterator[Formula]:
        """W(i+1) candidates, in exploration order: invariant atoms and
        generalizations of the wlp first (they carry the facts the plain
        chain can never learn), then the wlp itself, then its DNF
        disjuncts.  Every candidate implies the wlp, keeping the chain
        argument sound.

        The stream is lazy: the atoms and generalizations (with their
        admission queries) are computed up front, but the wlp's DNF is
        expanded only when the consumer asks for a candidate past the
        wlp.  ``_step`` stops at the first candidate that closes the
        chain, and a loop-body wlp can expand to tens of thousands of
        disjuncts of which only a few hundred survive the filters."""
        budget.check()
        if isinstance(body_wlp, (TrueFormula, FalseFormula)):
            yield body_wlp
            return
        # Every admission check below has the shape "candidate →
        # body_wlp", i.e. "¬body_wlp ∧ candidate is unsatisfiable":
        # one session keyed on ¬body_wlp pre-eliminates and pre-expands
        # the fixed side once for all candidates.
        admission = self.prover.prefix_session(neg(body_wlp))
        # Invariant-atom candidates: an atom of the wlp whose variables
        # the loop never modifies is the sharpest possible W(i+1) when
        # it implies the whole wlp (e.g. the alignment congruence
        # %o0 ≡ 0 (mod 4) buried in every clause).
        atoms: List[Formula] = []
        modified = self.engine.modified_variables(self.loop)
        for atom in _collect_atoms(body_wlp):
            if atom.free_variables() & modified:
                continue
            if atom not in atoms and admission.refutes(atom):
                atoms.append(atom)
        generalized: List[Formula] = []
        if self.options.enable_generalization:
            for gen in self.generalizations(body_wlp):
                # Admit a bare generalization only when it is a
                # strengthening of the true wlp; the conjunction with
                # the wlp is a strengthening by construction.
                if admission.refutes(gen):
                    generalized.append(gen)
                else:
                    generalized.append(conj(gen, body_wlp))
        generalized.sort(key=self._rank)
        emitted: Set[Formula] = set()

        def fresh(formulas: Iterable[Formula]) -> Iterator[Formula]:
            for f in formulas:
                f = simplify(f)
                if isinstance(f, FalseFormula):
                    continue
                if self._rank(f)[0] > 120:
                    continue  # oversized candidates only grind the prover
                if f not in emitted:
                    emitted.add(f)
                    yield f

        yield from fresh(atoms + generalized + [body_wlp])
        if not self.options.enable_disjunct_candidates:
            return
        try:
            conjuncts = to_dnf(to_nnf(body_wlp))
        except ProverError:
            return  # DNF blow-up: no disjunct candidates
        if len(conjuncts) <= 1:
            return
        # Ranked as atom tuples, each distinct one simplified when the
        # search reaches it: the unsimplified conjunctions of up to
        # 50,000 disjuncts are never built.
        yield from fresh(simplify_conjunction(parts) for parts in
                         sorted(dict.fromkeys(
                             tuple(dict.fromkeys(parts))
                             for parts in conjuncts), key=_conjunct_rank))

    def generalizations(self, f: Formula) -> List[Formula]:
        """The paper's generalization: ``¬(elimination(¬f))`` where
        elimination is Fourier–Motzkin removal of the loop-modified
        variables.

        The negation is applied per conjunct, keeping the remaining
        conjuncts as context — exactly the Section 5.2.2 derivation:
        from ``g3+1 < o1 ∧ g3+1 < n``, negating the second conjunct
        gives ``g3+1 < o1 ∧ g3+1 ≥ n``; eliminating the loop-modified
        ``g3`` gives ``o1 > n``; negating again gives ``o1 ≤ n``.
        """
        modified = self.engine.modified_variables(self.loop)
        try:
            negated = self.engine.quantifier_free(to_nnf(neg(f)))
            disjuncts = to_dnf(to_nnf(negated))
        except ProverError:
            return []
        pieces: List[Formula] = []
        for atoms in disjuncts:
            # Elimination over many disjuncts runs long with no prover
            # query in sight; keep the budget enforced here too.
            budget.check()
            constraints = Constraints.from_atoms(atoms)
            eliminate = sorted(set(constraints.variables()) & modified)
            if not eliminate:
                continue
            eliminated = project_real(constraints, eliminate)
            pieces.append(eliminated.to_formula())
        if pieces:
            self.tracer.event("induction:generalize",
                              pieces=len(pieces))
        results: List[Formula] = []
        if len(pieces) > 1:
            # The literal ¬(elimination(¬f)) over the whole DNF — the
            # strongest candidate; explored first.
            full = simplify(to_nnf(neg(disj(*pieces))))
            if not isinstance(full, (TrueFormula, FalseFormula)):
                results.append(full)
        for piece in pieces:
            generalized = simplify(to_nnf(neg(piece)))
            if not isinstance(generalized, (TrueFormula, FalseFormula)) \
                    and generalized not in results:
                results.append(generalized)
        return results

    @staticmethod
    def _rank(f: Formula) -> Tuple[int, int]:
        """Simple ranking heuristic: fewer atoms and fewer variables
        first."""
        return (formula_size(f), len(f.free_variables()))


def _conjunct_rank(parts: Tuple[Formula, ...]) -> Tuple[int, int]:
    """``_rank(conj(*parts))`` of a DNF conjunct (a tuple of atoms),
    without building the conjunction."""
    return (len(set(parts)) or 1,
            len(frozenset().union(*(a.free_variables() for a in parts))))


def _collect_atoms(f: Formula) -> List[Formula]:
    from repro.logic.formula import And, Exists, Forall, Not, NotCong, Or
    if isinstance(f, (And, Or)):
        out: List[Formula] = []
        for p in f.parts:
            out.extend(_collect_atoms(p))
        return out
    if isinstance(f, Not):
        return _collect_atoms(f.part)
    if isinstance(f, (Exists, Forall)):
        return []
    if isinstance(f, (Geq, Eq, Cong, NotCong)):
        return [f]
    return []


