"""Phases 4 and 5 — local and global verification (paper Sections 3 and
5.2).

Local verification simply evaluates the typestate-checkable predicates
produced by Phase 3.  Global verification is the program-verification
machinery: verification conditions are generated by backward
substitution over code regions in backwards topological order, with
formulas simplified at junction points; loops are crossed by
synthesizing invariants with the induction-iteration method; procedure
calls are crossed by walking through the callee as if inlined, and a
condition that reaches a callee's entry is re-proven at every call
site.  Conditions are checked one at a time, demand-driven, against the
Omega-based prover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple,
)

from repro import budget
from repro.cfg.graph import CFG, Edge, EdgeKind
from repro.cfg.loops import Loop, LoopForest, find_loops
from repro.errors import ProverError
from repro.logic.formula import (
    FALSE, FalseFormula, Formula, TRUE, TrueFormula, conj, disj, forall,
    formula_size, fresh_variable, has_quantifier, implies, neg,
)
from repro.logic.prover import Prover
from repro.logic.simplify import simplify
from repro.logic.terms import Linear
from repro.policy.model import HostSpec, TrustedFunction
from repro.trace import NULL_TRACER
from repro.analysis.annotate import (
    GlobalPredicate, NodeAnnotation,
)
from repro.analysis.induction import InductionIteration
from repro.analysis.options import CheckerOptions
from repro.analysis.prepare import Preparation
from repro.analysis.propagate import PropagationResult, _is_trusted_call_site
from repro.analysis.wlp import WlpTransfer, condition_formula


@dataclass
class Violation:
    """One safety-condition violation (local or global)."""

    index: int
    category: str
    description: str
    phase: str  # "local" or "global"

    def __str__(self) -> str:
        return "instruction %d: %s (%s, %s verification)" % (
            self.index, self.description, self.category, self.phase)


@dataclass
class ProofRecord:
    """Outcome of one global safety precondition."""

    uid: int
    index: int
    predicate: GlobalPredicate
    proved: bool
    invariant: Optional[Formula] = None
    used_induction: bool = False


# ---------------------------------------------------------------------------
# Phase 4
# ---------------------------------------------------------------------------


def verify_local(annotations: Dict[int, NodeAnnotation]
                 ) -> List[Violation]:
    """Evaluate the local safety preconditions (paper Phase 4).

    Every annotation polls the check's budget, so the loop respects it
    on huge programs."""
    out: List[Violation] = []
    for uid in sorted(annotations):
        budget.check()
        ann = annotations[uid]
        for predicate in ann.local:
            if not predicate.holds:
                out.append(Violation(
                    index=ann.index, category=predicate.category,
                    description=predicate.description, phase="local"))
    return out


# ---------------------------------------------------------------------------
# Phase 5
# ---------------------------------------------------------------------------


class _Succ(NamedTuple):
    """One intraprocedural edge out of a level item, resolved when the
    level is built: its condition formula (None for TRUE) and where the
    sweep reads the formula it carries (``kind``, ``target``)."""

    edge: Edge
    cond: Optional[Formula]
    kind: int
    #: The uid whose formula the edge carries: the node for
    #: :data:`_NODE`, the sub-loop header for :data:`_SUB`.
    target: int
    summary: bool


#: Edge target kinds (:attr:`_Succ.kind`).
_NODE, _BACK, _SUB, _LEAVE = range(4)


@dataclass(frozen=True)
class _Level:
    """The fixed shape of one sweep level.  Its *items* are the level's
    real nodes plus one item per collapsed sub-loop (the sub-loop's
    header uid)."""

    #: The loop whose body this is (None: the function body).
    loop: Optional[Loop]
    subloops: Dict[int, Loop]
    #: Items in reverse-topological sweep order.
    order: List[int]
    #: Uid -> its item: itself, or the header of the collapsed
    #: sub-loop containing it (uids outside the level are absent).
    item_of: Dict[int, int]
    #: Item -> the items with a level-DAG edge into it.
    predecessors: Dict[int, List[int]]
    #: Items with an edge to the level's own loop header (back edges,
    #: including exits of collapsed sub-loops); empty at function level.
    back_sources: FrozenSet[int]
    #: Nodes with an untrusted call edge: crossing one sweeps the
    #: callee even when the formula after the call is TRUE.
    call_sites: FrozenSet[int]
    #: Item -> its compiled edges: a real node's intraprocedural
    #: successors, a collapsed sub-loop's exits.
    succs: Dict[int, Tuple[_Succ, ...]]
    #: Real node -> the variables its wlp can rewrite
    #: (:meth:`WlpTransfer.writes`).
    writes: Dict[int, FrozenSet[str]]
    #: Sub-loop header -> the variables its body may modify.
    modified: Dict[int, FrozenSet[str]]


class VerificationEngine:
    """Backward VC generation + induction iteration over one program."""

    def __init__(self, cfg: CFG, propagation: PropagationResult,
                 preparation: Preparation, spec: HostSpec,
                 options: Optional[CheckerOptions] = None,
                 prover: Optional[Prover] = None,
                 forward=None):
        self.cfg = cfg
        self.propagation = propagation
        self.preparation = preparation
        self.spec = spec
        self.options = options or CheckerOptions()
        self.prover = prover or Prover(
            enable_cache=self.options.enable_prover_cache)
        self.transfer = WlpTransfer(propagation.inputs,
                                    preparation.locations)
        self.loops: Dict[str, LoopForest] = {
            label: find_loops(cfg, label) for label in cfg.functions
        }
        #: Enhancement 6 — proven invariants per loop header, reused to
        #: discharge comparable (implied) formulas without a new run.
        #: Entries are (invariant, touched-function deps) pairs so that
        #: cross-obligation reuse stays visible to the function-unit
        #: dependency tracking below.
        self._proven_invariants: Dict[
            int, List[Tuple[Formula, FrozenSet[str]]]] = {}
        #: Targets that induction already failed on (per header) — the
        #: demand-driven prover would otherwise redo the whole search
        #: for every predicate occurrence.  Values are the touched
        #: deps recorded when the failure was first established.
        self._failed_targets: Dict[
            int, Dict[Formula, FrozenSet[str]]] = {}
        # Memoization across predicates (the demand-driven prover
        # re-derives the same sub-results constantly otherwise).  Every
        # entry carries the touched-function deps recorded when it was
        # computed, so a later hit re-charges those functions to the
        # obligation that benefits from the memo.
        #: wlp(loop-body, P) for loops without nested sub-loops (their
        #: sweeps cannot depend on the ambient trial invariants).
        self._body_wlp_cache: Dict[Tuple[int, Formula],
                                   Tuple[Formula, FrozenSet[str]]] = {}
        #: true-on-entry results, valid only for empty trial contexts.
        self._toe_cache: Dict[Tuple[int, Formula],
                              Tuple[bool, FrozenSet[str]]] = {}
        #: conditions proven (or refuted) at a function's entry.
        self._fn_entry_cache: Dict[Tuple[str, Formula],
                                   Tuple[bool, FrozenSet[str]]] = {}
        #: Incremental prover sessions
        #: (:class:`repro.logic.incremental.PrefixSession`): one per
        #: loop header keyed on its forward-propagated facts, and one
        #: for MAIN's entry constraints.  Each pre-eliminates and
        #: pre-expands its fixed prefix once; the hot query paths then
        #: only process their deltas.
        self._facts_sessions: Dict[int, object] = {}
        self._entry_session = None
        self._induction_runs = 0
        #: Functions whose bodies the *current obligation's* proof has
        #: walked (directly by a sweep, or transitively via a memoized
        #: result computed from them).  The obligation layer resets this
        #: per obligation and snapshots it afterwards; the function-unit
        #: cache keys replayability on these sets.
        self._touched: Set[str] = set()
        #: Tracing sink (:mod:`repro.trace`); the checker replaces it
        #: with the run's live tracer.  Never affects verdicts.
        self.tracer = NULL_TRACER
        #: Level structure per (function, collapsed loop header): the
        #: CFG and loop forest are fixed for the checker's lifetime, so
        #: the member sets, the reverse-topological order and the
        #: level-DAG predecessors of every sweep level can be computed
        #: once instead of per sweep.
        self._level_cache: Dict[Tuple[str, Optional[int]], _Level] = {}
        #: Live items (in sweep order) per (function, header, seeds,
        #: back-formula-present): the backward slice a sweep visits.
        self._live_cache: Dict[Tuple[str, Optional[int], FrozenSet[int],
                                     bool], Tuple[int, ...]] = {}
        #: Section 6 extension: forward-propagated facts, used as
        #: ambient invariants at loop headers.  The checker's phase 2–4
        #: replay path injects a pre-built provider (``forward``, a
        #: :class:`~repro.analysis.forward.ReplayedForward`) instead of
        #: re-running the pass.
        self._forward = forward
        if self._forward is None and self.options.enable_forward_bounds:
            from repro.analysis.forward import ForwardBounds
            self._forward = ForwardBounds(
                cfg, preparation.initial_constraints)

    def header_facts(self, loop: Loop) -> Formula:
        """Forward-propagated facts known to hold at the loop header on
        every arrival (TRUE when the pass is disabled)."""
        if self._forward is None:
            return TRUE
        return self._forward.facts_at(loop.header)

    def facts_session(self, loop: Loop):
        """The shared incremental prover session whose prefix is the
        loop header's forward-propagated facts — every Inv.0/Inv.1/
        lookahead query of the induction BFS conjoins those same facts,
        so only the per-query delta is eliminated and expanded."""
        session = self._facts_sessions.get(loop.header)
        if session is None:
            session = self.prover.prefix_session(self.header_facts(loop))
            self._facts_sessions[loop.header] = session
        return session

    def entry_session(self):
        """The incremental session for MAIN's entry constraints (the
        prefix of every function-entry obligation discharge)."""
        if self._entry_session is None:
            self._entry_session = self.prover.prefix_session(
                self.preparation.initial_constraints)
        return self._entry_session

    @property
    def induction_runs(self) -> int:
        return self._induction_runs

    # -- touched-function tracking (function-unit dependencies) -------------------

    def reset_touched(self) -> None:
        """Start a fresh touched-function record (called once per
        obligation by the obligation layer)."""
        self._touched = set()

    def touched_snapshot(self) -> FrozenSet[str]:
        """The functions whose bodies contributed to the proof work done
        since the last :meth:`reset_touched`."""
        return frozenset(self._touched)

    # -- the recursive prover ---------------------------------------------------------

    def prove_at(self, uid: int, q: Formula, trials: Dict[int, Formula],
                 depth: int) -> bool:
        """Prove that *q* holds every time control is about to execute
        the node *uid*."""
        q = simplify(q)
        if isinstance(q, TrueFormula):
            return True
        if depth > self.options.max_call_depth:
            return False
        node = self.cfg.node(uid)
        loop = self.loops[node.function].containing(uid)
        at_header = self._sweep(node.function, loop,
                                requirements={uid: q}, back_formula=None,
                                entry_obligations={}, trials=trials,
                                depth=depth)
        if at_header is None:
            return False
        if loop is None:
            return self._prove_at_function_entry(node.function, at_header,
                                                 trials, depth)
        return self._induction(loop, at_header, trials, depth)

    def _prove_at_function_entry(self, function: str, q: Formula,
                                 trials: Dict[int, Formula],
                                 depth: int) -> bool:
        q = simplify(q)
        if isinstance(q, TrueFormula):
            return True
        key = (function, q)
        cached = self._fn_entry_cache.get(key)
        if cached is not None:
            result, deps = cached
            self._touched |= deps
            return result
        result = self._prove_at_function_entry_uncached(function, q,
                                                        trials, depth)
        self._fn_entry_cache[key] = (result, self.touched_snapshot())
        return result

    def _prove_at_function_entry_uncached(self, function: str,
                                          q: Formula,
                                          trials: Dict[int, Formula],
                                          depth: int) -> bool:
        if function == CFG.MAIN:
            return self.entry_session().implies(q)
        # Condition reached a callee's entry: it must hold at every call
        # site (paper Section 5.2.1, second enhancement).
        entry_uid = self.cfg.functions[function].entry
        call_edges = [e for e in self.cfg.predecessors(entry_uid)
                      if e.kind is EdgeKind.CALL]
        if not call_edges:
            return False
        for edge in call_edges:
            slot = self.cfg.node(edge.src)
            before_slot = self.transfer.node_transfer(slot, q)
            if not self.prove_at(edge.src, before_slot, {},
                                 depth + 1):
                return False
        return True

    # -- induction iteration -------------------------------------------------------------

    def _induction(self, loop: Loop, target: Formula,
                   trials: Dict[int, Formula], depth: int) -> bool:
        target = simplify(target)
        if isinstance(target, TrueFormula):
            return True
        facts = self.header_facts(loop)
        if facts is not TRUE \
                and self.facts_session(loop).implies(target):
            # Discharged by the forward-propagated facts alone — the
            # Section 6 speedup ("it eliminates the need to use
            # generalization to synthesize a loop invariant").
            return True
        if self.options.enable_formula_grouping:
            failed = self._failed_targets.get(loop.header, {})
            failed_deps = failed.get(target)
            if failed_deps is not None:
                self._touched |= failed_deps
                return False
            for invariant, deps in self._proven_invariants.get(
                    loop.header, []):
                if self.prover.is_valid(implies(invariant, target)):
                    self._touched |= deps
                    return True
        self._induction_runs += 1
        outcome = InductionIteration(self, loop, trials, depth).run(target)
        if outcome.success and outcome.invariant is not None:
            self._proven_invariants.setdefault(loop.header, []).append(
                (conj(outcome.invariant, target),
                 self.touched_snapshot()))
        elif not outcome.success:
            self._failed_targets.setdefault(loop.header, {})[target] = \
                self.touched_snapshot()
        return outcome.success

    # -- callbacks used by InductionIteration ----------------------------------------------

    def loop_body_wlp(self, loop: Loop, p: Formula,
                      trials: Dict[int, Formula], depth: int) -> Formula:
        """wlp(loop-body, P): the condition at the header under which P
        holds again at the header after one iteration (paths leaving the
        loop are unconstrained — the precondition is liberal)."""
        node = self.cfg.node(loop.header)
        # Loops without nested sub-loops sweep identically regardless of
        # the ambient trial invariants: memoize across II runs.
        leaf = not any(l.parent is loop
                       for l in self.loops[node.function].loops)
        key = (loop.header, p)
        if leaf:
            cached = self._body_wlp_cache.get(key)
            if cached is not None:
                result, deps = cached
                self._touched |= deps
                return result
        result = self._sweep(node.function, loop, requirements={},
                             back_formula=p, entry_obligations={},
                             trials=trials, depth=depth)
        result = result if result is not None else FALSE
        if leaf:
            self._body_wlp_cache[key] = (result,
                                         self.touched_snapshot())
        return result

    def true_on_entry(self, loop: Loop, x: Formula,
                      trials: Dict[int, Formula], depth: int) -> bool:
        """Inv.0: X holds the first time control reaches the loop
        header (paths from outside the loop)."""
        x = simplify(x)
        if isinstance(x, TrueFormula):
            return True
        cache_key = (loop.header, x) if not trials else None
        if cache_key is not None:
            cached = self._toe_cache.get(cache_key)
            if cached is not None:
                result, deps = cached
                self._touched |= deps
                return result
        result = self._true_on_entry_uncached(loop, x, trials, depth)
        if cache_key is not None:
            self._toe_cache[cache_key] = (result,
                                          self.touched_snapshot())
        return result

    def _true_on_entry_uncached(self, loop: Loop, x: Formula,
                                trials: Dict[int, Formula],
                                depth: int) -> bool:
        node = self.cfg.node(loop.header)
        parent = loop.parent
        swept = self._sweep(node.function, parent, requirements={},
                            back_formula=None,
                            entry_obligations={loop.header: x},
                            trials=trials, depth=depth)
        if swept is None:
            return False
        if parent is None:
            return self._prove_at_function_entry(node.function, swept,
                                                 trials, depth)
        # Nested loop (enhancement 1): try the recorded trial invariant
        # of the outer loop first; when the trial is too weak (it has
        # not yet learned the fact the inner loop needs, e.g. g6 ≤ len),
        # fall back to synthesizing an outer invariant that establishes
        # the entry condition — an independent, depth-bounded question.
        trial = trials.get(parent.header)
        if trial is not None:
            if self.prover.is_valid(implies(trial, swept)):
                return True
            if depth >= self.options.max_call_depth:
                return False
            outer_trials = {h: t for h, t in trials.items()
                            if h != parent.header}
            return self._induction(parent, swept, outer_trials,
                                    depth + 1)
        return self._induction(parent, swept, trials, depth)

    #: Formulas above this atom count skip quantifier elimination and
    #: are handed to the candidate machinery as-is (generalization will
    #: bail on them; the plain wlp chain still runs).
    QE_SIZE_LIMIT = 400

    #: Sweep formulas above this atom count collapse to FALSE (sound:
    #: the affected condition is reported unproven instead of grinding
    #: the prover for hours).
    SWEEP_SIZE_LIMIT = 2500

    def quantifier_free(self, f: Formula) -> Formula:
        """Eliminate quantifiers (exactly) when present and simplify —
        used to keep induction-iteration formulas amenable to DNF-based
        candidate generation."""
        if has_quantifier(f) and formula_size(f) <= self.QE_SIZE_LIMIT:
            try:
                f = self.prover.eliminate_quantifiers(f)
            except ProverError:
                return simplify(f)
        return simplify(f)

    def modified_variables(self, loop: Loop) -> Set[str]:
        """Registers (and memory value variables) the loop body may
        modify — the elimination set for the generalization heuristic."""
        out: Set[str] = set()
        for uid in loop.body:
            out |= self.transfer.writes(self.cfg.node(uid))
        return out

    # -- the backward sweep ------------------------------------------------------------------

    def _sweep(self, function: str, loop: Optional[Loop],
               requirements: Dict[int, Formula],
               back_formula: Optional[Formula],
               entry_obligations: Dict[int, Formula],
               trials: Dict[int, Formula], depth: int
               ) -> Optional[Formula]:
        """Backward VC generation over one level (a loop body with its
        inner loops collapsed, or the function body with its outermost
        loops collapsed).

        * ``requirements[uid]`` must hold immediately before ``uid``;
        * ``back_formula`` (loop levels) is required along back edges —
          this computes wlp(loop-body, back_formula);
        * ``entry_obligations[header]`` is required on edges entering
          the collapsed sub-loop with that header;
        * obligations on paths *through* a collapsed sub-loop are
          discharged on the spot by recursive invariant synthesis;
          an undischargeable obligation makes the corresponding edge
          contribute FALSE.

        Only the obligation's backward slice is visited: the items with
        a level-DAG path to a seed (see :meth:`_live_order`).  Every
        other item would carry exactly TRUE, which is what
        :meth:`_target` reads for an item missing from ``w``.

        Returns the formula required at the level's entry (loop header
        or function entry), or None when a side proof failed hard.
        """
        self._touched.add(function)
        level = self._level_structure(function, loop)
        subloops = level.subloops
        item_of = level.item_of
        seeds = {item_of[uid] for uid in requirements if uid in item_of}
        seeds.update(item_of[uid] for uid in entry_obligations
                     if uid in item_of)
        seeds.update(item_of[src] for src, _ in self._exit_overrides
                     if src in item_of)
        back = back_formula is not None \
            and not isinstance(back_formula, TrueFormula)
        w: Dict[int, Formula] = {}

        for uid in self._live_order(function, loop, frozenset(seeds),
                                    back):
            if uid in subloops:
                # Collapsed sub-loop: discharge the obligations of every
                # exit edge by invariant synthesis inside the sub-loop.
                self._discharge_subloop(function, level, subloops[uid], w,
                                        requirements, back_formula,
                                        entry_obligations, trials, depth)
                continue
            before = self._visit(level, uid, w, back_formula,
                                 entry_obligations, trials, depth)
            required = requirements.get(uid)
            formula = before if required is None else conj(required, before)
            if self.options.enable_junction_simplification:
                formula = simplify(formula)
            if formula_size(formula) > self.SWEEP_SIZE_LIMIT:
                # Safety valve: give up on this path rather than grind
                # the prover on an exponential formula.  FALSE is a
                # sound strengthening — the condition is merely reported
                # unproven.
                formula = FALSE
            w[uid] = formula

        entry_uid = loop.header if loop is not None \
            else self.cfg.functions[function].entry
        result = w.get(entry_uid, TRUE)
        # When the level entry itself lies inside a collapsed sub-loop
        # (a loop that starts at the function entry), no edge carries
        # the entry obligation — attach it here.
        obligation = entry_obligations.get(entry_uid, TRUE)
        if not isinstance(obligation, TrueFormula):
            result = conj(obligation, result)
        return result

    # -- sweep helpers ----------------------------------------------------------

    def _level_structure(self, function: str, loop: Optional[Loop]
                         ) -> _Level:
        """The structure of one sweep level, cached for the checker's
        lifetime (the CFG and loop forest never change underneath it)."""
        key = (function, loop.header if loop is not None else None)
        level = self._level_cache.get(key)
        if level is None:
            level = self._build_level(function, loop)
            self._level_cache[key] = level
        return level

    def _level_members(self, function: str, loop: Optional[Loop]
                       ) -> Tuple[Set[int], Dict[int, Loop]]:
        """Real nodes at this level plus {header: subloop} for the
        immediately nested loops."""
        forest = self.loops[function]
        if loop is None:
            candidates = set(self.cfg.functions[function].node_uids)
            subloops = {l.header: l for l in forest.loops
                        if l.parent is None}
        else:
            candidates = set(loop.body)
            subloops = {l.header: l for l in forest.loops
                        if l.parent is loop}
        covered: Set[int] = set()
        for sub in subloops.values():
            covered |= sub.body
        level_nodes = candidates - covered
        return level_nodes, subloops

    def _build_level(self, function: str, loop: Optional[Loop]) -> _Level:
        """Members, level-DAG edges and the reverse-topological order
        of one level, where each collapsed sub-loop is represented by
        its header uid, plus every item's compiled edges and every
        node's write set.  Back edges of *loop* are not DAG edges."""
        level_nodes, subloops = self._level_members(function, loop)
        header = loop.header if loop is not None else None
        item_of: Dict[int, int] = {uid: uid for uid in level_nodes}
        for sub_header, sub in subloops.items():
            for uid in sub.body:
                item_of[uid] = sub_header
        successors: Dict[int, List[int]] = {}
        predecessors: Dict[int, List[int]] = {}
        back_sources: Set[int] = set()
        call_sites: Set[int] = set()
        succs: Dict[int, Tuple[_Succ, ...]] = {}
        writes: Dict[int, FrozenSet[str]] = {}
        #: One copy of each distinct write set (most nodes share one).
        write_sets: Dict[FrozenSet[str], FrozenSet[str]] = {}
        modified: Dict[int, FrozenSet[str]] = {}
        for item in sorted(set(level_nodes) | set(subloops)):
            is_sub = item in subloops
            edges = self._subloop_exits(subloops[item]) if is_sub \
                else self.cfg.intraprocedural_successors(item)
            succs[item] = tuple(self._compile_edge(edge, loop, item_of,
                                                   subloops)
                                for edge in edges)
            if is_sub:
                modified[item] = frozenset(
                    self.modified_variables(subloops[item]))
            else:
                node_writes = self.transfer.writes(self.cfg.node(item))
                writes[item] = write_sets.setdefault(node_writes,
                                                     node_writes)
            out: List[int] = []
            for edge in edges:
                if not is_sub and edge.kind is EdgeKind.SUMMARY \
                        and not _is_trusted_call_site(self.cfg, self.spec,
                                                      edge):
                    call_sites.add(item)
                if edge.dst == header:
                    # Reads the back formula, never the header's w.
                    back_sources.add(item)
                    if not is_sub:
                        continue
                mapped = item_of.get(edge.dst)
                if mapped is None:
                    continue
                # A sub-loop exit to the header still orders the DFS.
                out.append(mapped)
                if edge.dst != header:
                    predecessors.setdefault(mapped, []).append(item)
            successors[item] = out

        # Iterative DFS postorder = reverse-topological for our sweep.
        order: List[int] = []
        visited: Set[int] = set()
        for root in sorted(successors):
            if root in visited:
                continue
            stack: List[Tuple[int, int]] = [(root, 0)]
            visited.add(root)
            while stack:
                item, idx = stack[-1]
                succ = successors[item]
                if idx < len(succ):
                    stack[-1] = (item, idx + 1)
                    child = succ[idx]
                    if child not in visited:
                        visited.add(child)
                        stack.append((child, 0))
                else:
                    order.append(item)
                    stack.pop()
        return _Level(loop=loop, subloops=subloops, order=order,
                      item_of=item_of, predecessors=predecessors,
                      back_sources=frozenset(back_sources),
                      call_sites=frozenset(call_sites), succs=succs,
                      writes=writes, modified=modified)

    @staticmethod
    def _compile_edge(edge: Edge, loop: Optional[Loop],
                      item_of: Dict[int, int],
                      subloops: Dict[int, Loop]) -> _Succ:
        """Resolve where a sweep reads the formula *edge* carries."""
        cond = condition_formula(edge.condition) \
            if edge.condition is not None else TRUE
        dst = edge.dst
        item = item_of.get(dst)
        if loop is not None and dst == loop.header:
            kind, target = _BACK, dst
        elif item in subloops:
            kind, target = _SUB, item
        elif loop is not None and dst not in loop.body:
            kind, target = _LEAVE, dst
        else:
            kind, target = _NODE, dst
        return _Succ(edge, None if cond is TRUE else cond, kind, target,
                     edge.kind is EdgeKind.SUMMARY)

    def _live_order(self, function: str, loop: Optional[Loop],
                    seeds: FrozenSet[int], back: bool) -> Tuple[int, ...]:
        """The items a sweep visits, in sweep order: every item with a
        level-DAG path to a seed.  Besides the caller's *seeds* (items
        given a requirement, an entry obligation or an exit override),
        the back-edge sources seed when *back* (the back formula is not
        TRUE), and every untrusted call site always does: crossing one
        sweeps the callee (charging it to the touched set) and yields
        FALSE at the call-depth bound, even when TRUE follows the call.
        Any other item carries TRUE and has no side effect, so leaving
        it out changes nothing but time."""
        key = (function, loop.header if loop is not None else None,
               seeds, back)
        live_order = self._live_cache.get(key)
        if live_order is None:
            level = self._level_structure(function, loop)
            live = set(seeds) | level.call_sites
            if back:
                live |= level.back_sources
            stack = list(live)
            while stack:
                for pred in level.predecessors.get(stack.pop(), ()):
                    if pred not in live:
                        live.add(pred)
                        stack.append(pred)
            live_order = tuple(uid for uid in level.order if uid in live)
            self._live_cache[key] = live_order
        return live_order

    def _visit(self, level: _Level, uid: int, w: Dict[int, Formula],
               back_formula: Optional[Formula],
               entry_obligations: Dict[int, Formula],
               trials: Dict[int, Formula], depth: int) -> Formula:
        """wlp of one real node: the formula required before *uid* so
        that every edge out of it carries what its target needs.  A node
        that writes nothing free in the formula after it passes that
        formula through without a transfer."""
        parts: List[Formula] = []
        for succ in level.succs[uid]:
            target = self._target(level, succ, w, back_formula,
                                  entry_obligations)
            if succ.summary:
                target = self._across_call(succ.edge, target, trials,
                                           depth)
            parts.append(target if succ.cond is None
                         else implies(succ.cond, target))
        after = parts[0] if len(parts) == 1 else conj(*parts)
        if level.writes[uid].isdisjoint(after.free_variables()):
            return after
        return self.transfer.node_transfer(self.cfg.node(uid), after)

    def _target(self, level: _Level, succ: _Succ, w: Dict[int, Formula],
                back_formula: Optional[Formula],
                entry_obligations: Dict[int, Formula]) -> Formula:
        """The formula an edge out of a *level* item carries, before its
        condition: the exit override when one is set, else what the
        edge's compiled kind reads."""
        if self._exit_overrides:
            override = self._exit_overrides.get(
                (succ.edge.src, succ.edge.dst))
            if override is not None:
                return override
        kind = succ.kind
        if kind == _NODE:
            formula = w.get(succ.target)
            if formula is not None:
                return formula
            return entry_obligations.get(succ.target, TRUE)
        if kind == _BACK:
            return back_formula if back_formula is not None else TRUE
        if kind == _SUB:
            # Entering a collapsed sub-loop: its through-obligations were
            # discharged when the super-node was processed (w carries a
            # FALSE marker on failure); the caller may also require a
            # formula on entry.
            return conj(entry_obligations.get(succ.target, TRUE),
                        w.get(succ.target, TRUE))
        return TRUE  # leaving the loop: liberal precondition

    def _across_call(self, edge: Edge, q: Formula,
                     trials: Dict[int, Formula], depth: int) -> Formula:
        """wlp across a call: trusted calls havoc their returns/clobbers
        under the assumed postcondition; untrusted calls walk through
        the callee body as if inlined."""
        if _is_trusted_call_site(self.cfg, self.spec, edge):
            fn = self._trusted_fn(edge)
            clobbers = fn.clobbers if fn else TrustedFunction("?").clobbers
            returns = list(fn.returns) if fn else []
            post = fn.postcondition if fn else TRUE
            body = implies(post, q) if post is not TRUE else q
            for reg in set(returns) | set(clobbers):
                if reg in body.free_variables():
                    fresh = fresh_variable("$c")
                    body = forall([fresh],
                                  body.substitute(reg, Linear.var(fresh)))
            return body
        # Untrusted callee: inline walk (paper: "we simply walk through
        # the body of the callee as though it is inlined").
        callee = self._callee_function(edge)
        if callee is None or depth >= self.options.max_call_depth:
            return FALSE
        swept = self._sweep(callee, None,
                            requirements={
                                self.cfg.functions[callee].exit: q},
                            back_formula=None, entry_obligations={},
                            trials=trials, depth=depth + 1)
        return swept if swept is not None else FALSE

    def _trusted_fn(self, edge: Edge) -> Optional[TrustedFunction]:
        call = self.cfg.node(edge.call_site) \
            if edge.call_site is not None else None
        if call is None or call.instruction is None:
            return None
        label = getattr(call.instruction, "target_label", None)
        return self.spec.functions.get(label or "")

    def _callee_function(self, edge: Edge) -> Optional[str]:
        for call_edge in self.cfg.successors(edge.src):
            if call_edge.kind is EdgeKind.CALL:
                return self.cfg.node(call_edge.dst).function
        return None

    def _subloop_exits(self, sub: Loop) -> List[Edge]:
        out: List[Edge] = []
        for uid in sub.body:
            for edge in self.cfg.intraprocedural_successors(uid):
                if edge.dst not in sub.body:
                    out.append(edge)
        return out

    def _discharge_subloop(self, function: str, level: _Level,
                           sub: Loop, w: Dict[int, Formula],
                           requirements: Dict[int, Formula],
                           back_formula: Optional[Formula],
                           entry_obligations: Dict[int, Formula],
                           trials: Dict[int, Formula],
                           depth: int) -> None:
        """Prove, by invariant synthesis inside the collapsed sub-loop,
        every obligation its exit edges impose; requirements attached to
        nodes *inside* the sub-loop are folded into the same run."""
        exit_formulas: Dict[Tuple[int, int], Formula] = {}
        inner_requirements: Dict[int, Formula] = {}
        pass_through: List[Formula] = []
        needed = False
        modified = level.modified[sub.header]
        for succ in level.succs[sub.header]:
            target = self._target(level, succ, w, back_formula,
                                  entry_obligations)
            obligation = target if succ.cond is None \
                else implies(succ.cond, target)
            if isinstance(simplify(obligation), TrueFormula):
                continue
            if not (target.free_variables() & modified):
                # The sub-loop cannot change this obligation: requiring
                # it before the loop is enough (a sound strengthening
                # that drops the exit condition) — no invariant
                # synthesis needed, and no poisoning of the outer
                # search when the trial invariant is still too weak.
                pass_through.append(target)
                continue
            exit_formulas[(succ.edge.src, succ.edge.dst)] = target
            needed = True
        for uid, req in requirements.items():
            if uid in sub.body:
                inner_requirements[uid] = req
                needed = True
        entry_formula: Formula = conj(*pass_through)
        if needed:
            at_header = self._sweep_subloop_once(function, sub,
                                                 inner_requirements,
                                                 exit_formulas, trials,
                                                 depth)
            if at_header is None \
                    or not self._induction(sub, at_header, trials, depth):
                # Invariant synthesis inside the sub-loop failed (often
                # because the needed fact lives in the *enclosing*
                # context).  Fall back to a sound strengthening: project
                # the sub-loop-modified variables out of each obligation
                # (¬ eliminate ¬, the paper's generalization); the
                # result implies the obligation and passes through the
                # sub-loop untouched, so the enclosing level can
                # establish it.
                strengthened: List[Formula] = []
                obligations = list(exit_formulas.values()) \
                    + list(inner_requirements.values())
                for obligation in obligations:
                    g = self._generalize_away(obligation, modified)
                    if isinstance(g, FalseFormula):
                        strengthened = [FALSE]
                        break
                    strengthened.append(g)
                entry_formula = conj(entry_formula, *strengthened)
        if not isinstance(entry_formula, TrueFormula):
            w[sub.header] = simplify(entry_formula)

    def _generalize_away(self, f: Formula,
                         modified: Set[str]) -> Formula:
        """``¬ eliminate_modified(¬f)``: the strongest consequence-free
        strengthening of *f* that mentions no modified variable (FALSE
        when none exists)."""
        from repro.logic.normalize import to_dnf, to_nnf
        from repro.logic.omega import Constraints, project_real
        try:
            negated = self.quantifier_free(to_nnf(neg(f)))
            pieces: List[Formula] = []
            for atoms in to_dnf(to_nnf(negated)):
                constraints = Constraints.from_atoms(atoms)
                eliminate = sorted(set(constraints.variables())
                                   & modified)
                pieces.append(project_real(
                    constraints, eliminate).to_formula())
            result = simplify(to_nnf(neg(disj(*pieces))))
        except ProverError:
            return FALSE
        if result.free_variables() & modified:
            return FALSE
        return result

    def _sweep_subloop_once(self, function: str, sub: Loop,
                            requirements: Dict[int, Formula],
                            exit_formulas: Dict[Tuple[int, int], Formula],
                            trials: Dict[int, Formula],
                            depth: int) -> Optional[Formula]:
        """One-iteration sweep of a sub-loop body where specific exit
        edges carry obligations (used when crossing the sub-loop
        backwards)."""
        saved = self._exit_overrides
        self._exit_overrides = exit_formulas
        try:
            return self._sweep(function, sub, requirements=requirements,
                               back_formula=None, entry_obligations={},
                               trials=trials, depth=depth)
        finally:
            self._exit_overrides = saved

    _exit_overrides: Dict[Tuple[int, int], Formula] = {}
