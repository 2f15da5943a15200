"""Phase 2 — Typestate propagation (paper Sections 4.2.2 and 5.1,
Figure 6).

A standard worklist algorithm over the interprocedural CFG computes the
greatest fixed point of the typestate-propagation equations: the map at
every node starts at λl.⊤ except for the entry node, which carries the
Phase 1 initial annotations; the typestates at a node's entry are the
meet of the typestates at the exits of its predecessors; nodes are
interpreted with the abstract operational semantics and their
successors re-enqueued when their output store changes.

Interprocedural flow: CALL edges carry the store into the callee entry,
RETURN edges carry the callee's exit store back to every return point
(context-insensitive meet over call sites — the paper's procedure
abstraction).  SUMMARY edges propagate only for *trusted* calls, where
the callee has no analyzable body; the trusted function's returns/
clobbers summary is applied across the edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro import budget
from repro.errors import AnalysisError
from repro.cfg.graph import CFG, Edge, EdgeKind, NodeRole
from repro.policy.model import HostSpec, TrustedFunction
from repro.typesys.store import AbstractStore
from repro.analysis.options import CheckerOptions
from repro.analysis.prepare import Preparation
from repro.analysis.semantics import transfer, trusted_call_transfer


@dataclass
class PropagationResult:
    """Fixpoint stores before (``inputs``) and after (``outputs``) each
    reachable node, plus iteration statistics."""

    inputs: Dict[int, AbstractStore] = field(default_factory=dict)
    outputs: Dict[int, AbstractStore] = field(default_factory=dict)
    steps: int = 0

    def input_at(self, uid: int) -> Optional[AbstractStore]:
        return self.inputs.get(uid)

    def render_figure6(self, cfg: CFG, names: List[str]) -> str:
        """Render the fixpoint in the style of paper Figure 6: the
        abstract store (restricted to *names*) before each instruction
        of the main function, in index order."""
        lines = []
        by_index: Dict[int, int] = {}
        for uid, node in cfg.nodes.items():
            if node.function == CFG.MAIN and node.instruction is not None \
                    and node.role is NodeRole.NORMAL:
                by_index[node.index] = uid
        for index in sorted(by_index):
            uid = by_index[index]
            store = self.inputs.get(uid)
            inst = cfg.node(uid).instruction
            lines.append("%2d: %s" % (index, inst.render()))
            if store is None:
                lines.append("      (unreached)")
                continue
            for name in names:
                lines.append("      %s: %s" % (name, store[name]))
        return "\n".join(lines)


def propagate(cfg: CFG, preparation: Preparation, spec: HostSpec,
              options: Optional[CheckerOptions] = None
              ) -> PropagationResult:
    """Run typestate propagation to its greatest fixed point.

    Every worklist step polls the check's budget
    (:func:`repro.budget.check`), so a pathological fixpoint aborts
    with the ``undecided:timeout`` verdict instead of overrunning the
    budget until the step guard trips."""
    options = options or CheckerOptions()
    result = PropagationResult()
    locations = preparation.locations
    entry = cfg.entry_uid
    result.inputs[entry] = preparation.initial_store

    worklist: List[int] = [entry]
    queued: Set[int] = {entry}
    while worklist:
        result.steps += 1
        if result.steps > options.max_propagation_steps:
            raise AnalysisError("typestate propagation exceeded %d steps"
                                % options.max_propagation_steps)
        budget.check()
        uid = worklist.pop(0)
        queued.discard(uid)
        node = cfg.node(uid)
        in_store = _input_store(cfg, result, spec, uid,
                                preparation)
        if in_store is None:
            continue  # no predecessor interpreted yet
        result.inputs[uid] = in_store
        if node.instruction is None:  # synthetic exit
            out_store = in_store
        else:
            out_store = transfer(node.instruction, in_store, locations)
        if result.outputs.get(uid) == out_store:
            continue
        result.outputs[uid] = out_store
        for edge in cfg.successors(uid):
            if not _propagates(cfg, spec, edge):
                continue
            if edge.dst not in queued:
                queued.add(edge.dst)
                worklist.append(edge.dst)
    return result


def _input_store(cfg: CFG, result: PropagationResult, spec: HostSpec,
                 uid: int, preparation: Preparation
                 ) -> Optional[AbstractStore]:
    """Meet of the (transformed) outputs of all interpreted
    predecessors; the global entry additionally carries the initial
    annotations."""
    if uid == cfg.entry_uid:
        return preparation.initial_store
    met: Optional[AbstractStore] = None
    for edge in cfg.predecessors(uid):
        if not _propagates(cfg, spec, edge):
            continue
        source = result.outputs.get(edge.src)
        if source is None:
            continue
        value = _edge_value(cfg, spec, edge, source)
        met = value if met is None else met.meet(value)
    return met


def _edge_value(cfg: CFG, spec: HostSpec, edge: Edge,
                store: AbstractStore) -> AbstractStore:
    if edge.kind is EdgeKind.SUMMARY:
        fn = _trusted_function(cfg, spec, edge)
        if fn is not None:
            return trusted_call_transfer(store, fn.returns, fn.clobbers)
        # Unspecified external call: conservatively clobber the
        # caller-saved registers (the annotation phase flags the call).
        default = TrustedFunction(name="<unspecified>")
        return trusted_call_transfer(store, {}, default.clobbers)
    return store


def _propagates(cfg: CFG, spec: HostSpec, edge: Edge) -> bool:
    """SUMMARY edges carry dataflow only for trusted (body-less) calls;
    untrusted calls flow through their CALL/RETURN edges instead."""
    if edge.kind is not EdgeKind.SUMMARY:
        return True
    return _is_trusted_call_site(cfg, spec, edge)


def _is_trusted_call_site(cfg: CFG, spec: HostSpec, edge: Edge) -> bool:
    call = cfg.node(edge.call_site) if edge.call_site is not None else None
    if call is None or call.instruction is None:
        return True
    if call.instruction.target == 0:
        return True  # external symbol: necessarily a host function
    label = call.instruction.target_label
    return bool(label and label in spec.functions)


def _trusted_function(cfg: CFG, spec: HostSpec,
                      edge: Edge) -> Optional[TrustedFunction]:
    call = cfg.node(edge.call_site) if edge.call_site is not None else None
    if call is None or call.instruction is None:
        return None
    label = call.instruction.target_label
    if label is None:
        return None
    return spec.functions.get(label)
