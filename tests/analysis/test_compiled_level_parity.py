"""Compiled sweep levels change no verdict, no prover counter and no
touched-function set.

Each sweep level resolves, once per checker, every edge out of its
items (condition formula and target kind) and every node's wlp write
set; a visit then reads those instead of asking the CFG, and a node
that writes nothing free in the formula after it skips its transfer;
the sweep copies the formula after a pass-through node (one
unconditional edge to a real node, no write to the formula) without a
visit at all.  Below, the visit and the edge-target lookup are patched
back to the dynamic recipe the engine used before levels were
compiled: the CFG's successor edges, the edge-condition formula, the
sub-loop found by a scan of the level's sub-loops, and
``node_transfer`` on every visit; the levels are built without
pass-through nodes, so every live node is visited.
Each check must come out the same both ways.  All checks are
store-free and unlimited.
"""

import dataclasses
import json
from typing import Dict, List, Optional

import pytest

from repro.analysis.checker import SafetyChecker
from repro.analysis.options import CheckerOptions
from repro.analysis.report import result_to_json, verdict_projection
from repro.analysis.verify import VerificationEngine
from repro.analysis.wlp import WlpTransfer, condition_formula
from repro.cfg.graph import Edge, EdgeKind, Node
from repro.cfg.loops import Loop
from repro.logic.formula import TRUE, Formula, conj, implies
from repro.logic.memo import clear_all_caches
from repro.policy.parser import parse_spec
from tests.analysis.test_havoc_memo_parity import _figure9, _fuzz


# -- the dynamic recipe ---------------------------------------------------------


def _successor_formula(self, node: Node, loop: Optional[Loop],
                       w: Dict[int, Formula], subloops: Dict[int, Loop],
                       back_formula: Optional[Formula],
                       entry_obligations: Dict[int, Formula],
                       trials: Dict[int, Formula], depth: int) -> Formula:
    parts: List[Formula] = []
    for edge in self.cfg.intraprocedural_successors(node.uid):
        cond = (condition_formula(edge.condition)
                if edge.condition is not None else TRUE)
        target = _edge_target_formula(
            self, edge, loop, w, subloops, back_formula, entry_obligations,
            trials, depth)
        parts.append(implies(cond, target) if cond is not TRUE
                     else target)
    return parts[0] if len(parts) == 1 else conj(*parts)


def _edge_target_formula(self, edge: Edge, loop: Optional[Loop],
                         w: Dict[int, Formula], subloops: Dict[int, Loop],
                         back_formula: Optional[Formula],
                         entry_obligations: Dict[int, Formula],
                         trials: Dict[int, Formula], depth: int) -> Formula:
    base = _target_base(self, edge, loop, w, subloops, back_formula,
                        entry_obligations)
    if edge.kind is EdgeKind.SUMMARY:
        return self._across_call(edge, base, trials, depth)
    return base


def _target_base(self, edge: Edge, loop: Optional[Loop],
                 w: Dict[int, Formula], subloops: Dict[int, Loop],
                 back_formula: Optional[Formula],
                 entry_obligations: Dict[int, Formula]) -> Formula:
    dst = edge.dst
    override = self._exit_overrides.get((edge.src, dst))
    if override is not None:
        return override
    if loop is not None and dst == loop.header:
        return back_formula if back_formula is not None else TRUE
    sub = _containing_subloop(dst, subloops)
    if sub is not None:
        return conj(entry_obligations.get(sub.header, TRUE),
                    w.get(sub.header, TRUE))
    if dst in w:
        return w[dst]
    if loop is not None and dst not in loop.body:
        return TRUE
    return entry_obligations.get(dst, TRUE)


def _containing_subloop(uid: int,
                        subloops: Dict[int, Loop]) -> Optional[Loop]:
    for sub in subloops.values():
        if uid in sub.body:
            return sub
    return None


def _dynamic_visit(self, level, uid, w, back_formula, entry_obligations,
                   trials, depth):
    node = self.cfg.node(uid)
    after = _successor_formula(self, node, level.loop, w, level.subloops,
                               back_formula, entry_obligations, trials,
                               depth)
    return self.transfer.node_transfer(node, after)


def _dynamic_target(self, level, succ, w, back_formula, entry_obligations):
    return _target_base(self, succ.edge, level.loop, w, level.subloops,
                        back_formula, entry_obligations)


_build_level = VerificationEngine._build_level


def _level_without_passes(self, function, loop):
    return dataclasses.replace(_build_level(self, function, loop),
                               passes={})


# -- the comparison ---------------------------------------------------------------


def _outcome(case, monkeypatch, dynamic):
    """Verdict projection, integer prover counters, per-obligation
    touched sets, and the numbers of wlp transfers and of node visits
    of one cold check."""
    source, spec_text, arch = case
    touched = {}
    transfers = []
    visits = []
    prove = SafetyChecker._prove
    node_transfer = WlpTransfer.node_transfer

    def recording(self, engine, obligations):
        out = prove(self, engine, obligations)
        touched.update(out[2])
        return out

    def counting(self, node, q):
        transfers.append(node.uid)
        return node_transfer(self, node, q)

    with monkeypatch.context() as patch:
        patch.setattr(SafetyChecker, "_prove", recording)
        patch.setattr(WlpTransfer, "node_transfer", counting)
        if dynamic:
            patch.setattr(VerificationEngine, "_visit", _dynamic_visit)
            patch.setattr(VerificationEngine, "_target", _dynamic_target)
            patch.setattr(VerificationEngine, "_build_level",
                          _level_without_passes)
        visit = VerificationEngine._visit

        def visiting(self, level, uid, *args):
            visits.append(uid)
            return visit(self, level, uid, *args)

        patch.setattr(VerificationEngine, "_visit", visiting)
        clear_all_caches()
        checker = SafetyChecker(source, parse_spec(spec_text),
                                options=CheckerOptions(), arch=arch)
        try:
            result = checker.check()
        finally:
            checker.close()
    projection = json.dumps(verdict_projection(result_to_json(result)),
                            sort_keys=True)
    counters = {name: value for name, value in result.prover_stats.items()
                if isinstance(value, int) and not isinstance(value, bool)}
    return projection, counters, touched, len(transfers), len(visits)


def _assert_parity(case, monkeypatch):
    compiled = _outcome(case, monkeypatch, dynamic=False)
    dynamic = _outcome(case, monkeypatch, dynamic=True)
    assert compiled[0] == dynamic[0]
    assert compiled[1] == dynamic[1]
    assert compiled[2] == dynamic[2]
    # The compiled sweep skips the transfers that change nothing.
    assert compiled[3] < dynamic[3]
    # ... and the visits of pass-through nodes.
    assert compiled[4] < dynamic[4]


@pytest.mark.parametrize("case", [
    pytest.param(_figure9("sum"), id="sum"),
    pytest.param(_figure9("hash"), id="hash"),
    pytest.param(_figure9("stack-smashing"), id="stack-smashing"),
])
def test_compiled_levels_match_the_dynamic_sweep(case, monkeypatch):
    _assert_parity(case, monkeypatch)


@pytest.mark.bench
@pytest.mark.parametrize("case", [
    pytest.param(_figure9("md5"), id="md5"),
    pytest.param(_fuzz(41, "riscv"), id="fuzz-41-riscv"),
])
def test_compiled_levels_match_the_dynamic_sweep_heavy(case, monkeypatch):
    _assert_parity(case, monkeypatch)
