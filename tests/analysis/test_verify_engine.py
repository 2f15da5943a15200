"""Unit tests for the verification engine: sweeps, interprocedural
walks, trusted-call crossing, induction-iteration behaviors."""

import pytest

from repro import parse_spec
from repro.analysis.annotate import annotate
from repro.analysis.checker import SafetyChecker, check_assembly
from repro.analysis.prepare import prepare
from repro.analysis.propagate import propagate
from repro.analysis.verify import VerificationEngine
from repro.analysis.options import CheckerOptions
from repro.cfg import CFG, build_cfg
from repro.logic import TRUE, conj, congruent, eq, ge, le, lt, ne
from repro.logic.terms import Linear
from repro.programs import fast_programs
from repro.sparc import assemble
from tests.ir import test_parity as parity


def build_engine(source, spec_text, options=None):
    program = assemble(source)
    spec = parse_spec(spec_text)
    preparation = prepare(spec)
    cfg = build_cfg(program, trusted_labels=set(spec.functions))
    propagation = propagate(cfg, preparation, spec)
    annotations = annotate(cfg, propagation.inputs, spec,
                           preparation.locations)
    engine = VerificationEngine(cfg, propagation, preparation, spec,
                                options)
    return engine, cfg, annotations


def node_at(cfg, annotations, index):
    return next(a.uid for a in annotations.values() if a.index == index)


def v(name, coeff=1):
    return Linear.var(name, coeff)


BASIC_SPEC = "invoke %o0 = a\ninvoke %o1 = b\nassume a >= 1\n"


class TestStraightLine:
    def test_initial_constraints_discharge_conditions(self):
        engine, cfg, anns = build_engine(
            "add %o0,%o1,%o2\nretl\nnop", BASIC_SPEC)
        uid = node_at(cfg, anns, 1)
        assert engine.prove_at(uid, ge(v("%o0"), 1), {}, 0)
        assert not engine.prove_at(uid, ge(v("%o1"), 1), {}, 0)

    def test_substitution_chain(self):
        engine, cfg, anns = build_engine("""
        mov %o0,%o2
        add %o2,1,%o2
        retl
        nop
        """, BASIC_SPEC)
        uid = node_at(cfg, anns, 3)   # at retl
        assert engine.prove_at(uid, ge(v("%o2"), 2), {}, 0)
        assert not engine.prove_at(uid, ge(v("%o2"), 3), {}, 0)

    def test_branch_conditions_used(self):
        engine, cfg, anns = build_engine("""
        1: cmp %o0,10
        2: bl 5
        3: nop
        4: retl
        5: nop
        6: retl
        7: nop
        """, BASIC_SPEC)
        # Instruction 6 is only reached on the taken (%o0 < 10) edge...
        # careful: 5 is the slot; target of bl is 5, continuing at 6.
        uid6 = node_at(cfg, anns, 6)
        assert engine.prove_at(uid6, lt(v("%o0"), 10), {}, 0)
        # The fall-through return at 4 sees %o0 >= 10.
        uid4 = node_at(cfg, anns, 4)
        assert engine.prove_at(uid4, ge(v("%o0"), 10), {}, 0)


class TestLoops:
    COUNTDOWN = """
    1: mov %o0,%o2
    2: cmp %o2,0
    3: ble 7
    4: nop
    5: ba 2
    6: dec %o2
    7: retl
    8: nop
    """

    def test_loop_invariant_upper_bound(self):
        engine, cfg, anns = build_engine(self.COUNTDOWN, BASIC_SPEC)
        # %o2 <= a holds at the loop header in every iteration.
        uid = node_at(cfg, anns, 2)
        assert engine.prove_at(uid, le(v("%o2"), v("a")), {}, 0)

    def test_non_invariant_rejected(self):
        engine, cfg, anns = build_engine(self.COUNTDOWN, BASIC_SPEC)
        uid = node_at(cfg, anns, 2)
        assert not engine.prove_at(uid, eq(v("%o2"), v("a")), {}, 0)

    def test_congruence_invariant(self):
        engine, cfg, anns = build_engine("""
        1: clr %o2
        2: cmp %o2,64
        3: bge 7
        4: nop
        5: ba 2
        6: add %o2,4,%o2
        7: retl
        8: nop
        """, BASIC_SPEC)
        uid = node_at(cfg, anns, 2)
        assert engine.prove_at(uid, congruent(v("%o2"), 4), {}, 0)
        assert not engine.prove_at(uid, congruent(v("%o2"), 8), {}, 0)

    def test_condition_after_loop(self):
        engine, cfg, anns = build_engine(self.COUNTDOWN, BASIC_SPEC)
        # After the loop exits, %o2 <= 0.
        uid = node_at(cfg, anns, 7)
        assert engine.prove_at(uid, le(v("%o2"), 0), {}, 0)


class TestInterprocedural:
    CALLER = """
    1: mov %o7,%g4
    2: call helper
    3: mov 5,%o0
    4: mov %g4,%o7
    5: retl
    6: nop
    helper:
    7: retl
    8: add %o0,1,%o0
    """

    def test_callee_condition_proved_at_call_site(self):
        engine, cfg, anns = build_engine(self.CALLER, BASIC_SPEC)
        # Inside helper, %o0 = 5 (set in the caller's delay slot).
        uid = node_at(cfg, anns, 7)
        assert engine.prove_at(uid, eq(v("%o0"), 5), {}, 0)
        assert not engine.prove_at(uid, eq(v("%o0"), 6), {}, 0)

    def test_caller_condition_after_callee(self):
        engine, cfg, anns = build_engine(self.CALLER, BASIC_SPEC)
        # After the call, the callee's effect (o0 = 6) is visible.
        uid = node_at(cfg, anns, 4)
        assert engine.prove_at(uid, eq(v("%o0"), 6), {}, 0)


class TestTrustedCalls:
    SPEC = BASIC_SPEC + """
    function mystery {
        returns %o0 : int = initialized perms o
        ensures %o0 >= 0
        clobbers %g1
    }
    """
    SOURCE = """
    1: mov %o7,%g4
    2: call mystery
    3: nop
    4: mov %g4,%o7
    5: retl
    6: nop
    """

    def test_postcondition_assumed(self):
        engine, cfg, anns = build_engine(self.SOURCE, self.SPEC)
        uid = node_at(cfg, anns, 4)
        assert engine.prove_at(uid, ge(v("%o0"), 0), {}, 0)

    def test_return_value_otherwise_unknown(self):
        engine, cfg, anns = build_engine(self.SOURCE, self.SPEC)
        uid = node_at(cfg, anns, 4)
        assert not engine.prove_at(uid, ge(v("%o0"), 1), {}, 0)

    def test_untouched_register_survives_call(self):
        # %o1 is not in the clobber set, so facts about it survive the
        # trusted call.
        engine, cfg, anns = build_engine("""
        1: mov 3,%o1
        2: mov %o7,%g4
        3: call mystery
        4: nop
        5: mov %g4,%o7
        6: retl
        7: nop
        """, self.SPEC)
        uid = node_at(cfg, anns, 5)
        assert engine.prove_at(uid, eq(v("%o1"), 3), {}, 0)
        # %g1 *is* clobbered: nothing is known about it afterwards.
        assert not engine.prove_at(uid, ge(v("%g1"), 0), {}, 0)


class TestObligationGeneration:
    def test_deterministic_order_and_digests(self):
        from repro.analysis.obligations import generate_obligations
        program = next(p for p in fast_programs() if p.name == "hash")
        annotations = program.check().annotations
        first = generate_obligations(annotations)
        second = generate_obligations(annotations)
        assert [o.oid for o in first] == list(range(len(first)))
        assert [(o.uid, o.digest) for o in first] \
            == [(o.uid, o.digest) for o in second]
        assert all(len(o.digest) == 64 for o in first)


class TestEngineBookkeeping:
    def test_failed_targets_cached(self):
        engine, cfg, anns = build_engine(TestLoops.COUNTDOWN, BASIC_SPEC)
        uid = node_at(cfg, anns, 2)
        bogus = eq(v("%o2"), v("a"))
        assert not engine.prove_at(uid, bogus, {}, 0)
        runs = engine.induction_runs
        assert not engine.prove_at(uid, bogus, {}, 0)
        assert engine.induction_runs == runs  # served from the cache

    def test_proven_invariant_reused(self):
        engine, cfg, anns = build_engine(TestLoops.COUNTDOWN, BASIC_SPEC)
        uid = node_at(cfg, anns, 2)
        assert engine.prove_at(uid, le(v("%o2"), v("a")), {}, 0)
        runs = engine.induction_runs
        # A weaker consequence is discharged by the recorded invariant.
        assert engine.prove_at(uid, le(v("%o2"), v("a") + 5), {}, 0)
        assert engine.induction_runs == runs

    # A condition in helper reaches its entry and is re-proven at the
    # call site in main: the proof touches both functions.
    CALLEE_ENTRY = """
    1: mov %o7,%g4
    2: call helper
    3: nop
    4: mov %g4,%o7
    5: retl
    6: nop
    helper:
    7: retl
    8: nop
    """

    def test_memo_hit_recharges_its_deps(self, monkeypatch):
        # Function-unit replay is sound only if a memo hit charges the
        # obligation with every function the memoized proof touched.
        engine, cfg, anns = build_engine(self.CALLEE_ENTRY, BASIC_SPEC)
        uid = node_at(cfg, anns, 7)
        q = ge(v("%o0"), 1)
        engine.reset_touched()
        assert engine.prove_at(uid, q, {}, 0)
        cold = engine.touched_snapshot()
        assert cold == {CFG.MAIN, "helper"}
        uncached = []
        original = VerificationEngine._prove_at_function_entry_uncached
        monkeypatch.setattr(
            VerificationEngine, "_prove_at_function_entry_uncached",
            lambda self, *args: uncached.append(args) or original(
                self, *args))
        engine.reset_touched()
        assert engine.prove_at(uid, q, {}, 0)
        assert uncached == []  # answered by the function-entry memo
        assert engine.touched_snapshot() == cold

    def test_uncacheable_key_is_not_stored(self):
        engine, _, _ = build_engine("retl\nnop", BASIC_SPEC)
        memo = {}
        calls = []
        for _ in range(2):
            assert engine._memoized(memo, None,
                                    lambda: calls.append(1) or True)
        assert memo == {} and len(calls) == 2


# ---------------------------------------------------------------------------
# sliced sweeps
# ---------------------------------------------------------------------------


def _every_item(self, function, loop, seeds, back):
    """Reference live set: the full sweep visits every level item."""
    return tuple(self._level_structure(function, loop).order)


def _phase5(check, monkeypatch, full):
    """Proof records, integer prover counters and per-obligation
    touched sets of one check, sliced or (``full``) full-sweep."""
    touched = {}
    prove = SafetyChecker._prove

    def recording(self, engine, obligations):
        out = prove(self, engine, obligations)
        touched.update(out[2])
        return out

    with monkeypatch.context() as patch:
        patch.setattr(SafetyChecker, "_prove", recording)
        if full:
            patch.setattr(VerificationEngine, "_live_order", _every_item)
        result = check()
    stats = {name: value for name, value in result.prover_stats.items()
             if isinstance(value, int)}
    return result.proofs, stats, touched


_RISCV_SUM = parity.TestLoopParity.RISCV_SUM
_RISCV_SUM_SPEC = parity.TestLoopParity.RISCV_SUM_SPEC
_RISCV_CASES = [
    ("riscv-sum", _RISCV_SUM, _RISCV_SUM_SPEC),
    ("riscv-sum-oob", _RISCV_SUM.replace("blt t0,a1,5", "bge a1,t0,5"),
     _RISCV_SUM_SPEC),
    ("riscv-write", parity.RISCV_WRITE.format(offset=0),
     parity.RISCV_SPEC),
    ("riscv-write-oob", parity.RISCV_WRITE.format(offset=40),
     parity.RISCV_SPEC),
]


class TestSlicedSweep:
    """Each sweep visits only the items with a level-DAG path to a
    seed; forcing every item live (the full sweep) must change no
    proof, no prover counter and no touched-function set."""

    @pytest.mark.parametrize("program", fast_programs(),
                             ids=lambda p: p.name)
    def test_figure9_programs(self, program, monkeypatch):
        check = lambda: program.check(options=CheckerOptions())
        sliced = _phase5(check, monkeypatch, full=False)
        assert sliced == _phase5(check, monkeypatch, full=True)

    @pytest.mark.parametrize("name, source, spec", _RISCV_CASES,
                             ids=[case[0] for case in _RISCV_CASES])
    def test_riscv_parity_programs(self, name, source, spec,
                                   monkeypatch):
        check = lambda: check_assembly(source, spec, name=name,
                                       arch="riscv",
                                       options=CheckerOptions())
        sliced = _phase5(check, monkeypatch, full=False)
        assert sliced == _phase5(check, monkeypatch, full=True)

    # The call on the %o1 == 0 branch never reaches instruction 4, yet
    # at the call-depth bound crossing it yields FALSE: the sliced
    # sweep must still visit it (untrusted call sites always seed).
    OFF_PATH_CALL = """
    1: cmp %o1,0
    2: be 6
    3: nop
    4: retl
    5: nop
    6: mov %o7,%g4
    7: call helper
    8: nop
    9: mov %g4,%o7
    10: retl
    11: nop
    helper:
    12: retl
    13: nop
    """

    @pytest.mark.parametrize("max_call_depth", [0, 8])
    def test_untrusted_call_off_the_slice(self, max_call_depth,
                                          monkeypatch):
        q = ne(v("%o1"), 0)

        def prove():
            engine, cfg, anns = build_engine(
                self.OFF_PATH_CALL, BASIC_SPEC,
                CheckerOptions(max_call_depth=max_call_depth))
            engine.reset_touched()
            proved = engine.prove_at(node_at(cfg, anns, 4), q, {}, 0)
            return proved, engine.touched_snapshot()

        sliced = prove()
        with monkeypatch.context() as patch:
            patch.setattr(VerificationEngine, "_live_order", _every_item)
            full = prove()
        assert sliced == full
        # At the bound the off-path call makes the %o1 == 0 branch
        # FALSE; below it the callee is walked and charged.
        assert sliced[0] is (max_call_depth > 0)
        assert ("helper" in sliced[1]) is (max_call_depth > 0)
