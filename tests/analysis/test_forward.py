"""Unit tests for the forward fact-propagation pass (the Section 6
extension)."""

import pytest
from hypothesis import given, settings, strategies as st

import repro.analysis.forward as forward
from repro import parse_spec
from repro.analysis.forward import FactSet, ForwardBounds, _FactTransfer
from repro.analysis.prepare import prepare
from repro.cfg import CFG, NodeRole, build_cfg, find_loops
from repro.logic import (
    TRUE, Prover, congruent, conj, eq, ge, implies, le,
)
from repro.logic.formula import Cong, Geq
from repro.logic.terms import Linear
from repro.sparc import assemble


def v(name, coeff=1):
    return Linear.var(name, coeff)


def facts_for(source, spec_text, directed=False):
    """The CFG of *source* and its forward pass: directed at the loop
    headers, or else at every node (so every node reached from the
    entry is computed)."""
    program = assemble(source)
    spec = parse_spec(spec_text)
    preparation = prepare(spec)
    cfg = build_cfg(program, trusted_labels=set(spec.functions))
    targets = loop_headers(cfg) if directed else cfg.nodes
    return cfg, ForwardBounds(cfg, preparation.initial_constraints,
                              targets)


def loop_headers(cfg):
    return [loop.header for label in cfg.functions
            for loop in find_loops(cfg, label).loops]


class _CountingBudget:
    """Stands in for :mod:`repro.budget` inside the forward module: one
    ``check`` per worklist step."""

    def __init__(self):
        self.steps = 0

    def check(self):
        self.steps += 1


def facts_at_index(cfg, forward, index):
    uid = next(n.uid for n in cfg.nodes.values()
               if n.index == index and n.role is NodeRole.NORMAL)
    return forward.facts_at(uid)


SPEC = """
loc e   : int    = initialized  perms ro  region V summary
loc arr : int[n] = {e}          perms rfo region V
rule [V : int : ro]
rule [V : int[n] : rfo]
invoke %o0 = arr
invoke %o1 = n
assume n >= 1
"""


class TestFactSet:
    def test_geq_keeps_strongest(self):
        facts = FactSet()
        facts.add_atom(Geq(v("x") - 2))      # x >= 2
        facts.add_atom(Geq(v("x") - 5))      # x >= 5: stronger
        assert Prover().implies(facts.to_formula(), ge(v("x"), 5))

    def test_join_keeps_weaker(self):
        a, b = FactSet(), FactSet()
        a.add_atom(Geq(v("x") - 5))
        b.add_atom(Geq(v("x") - 2))
        joined = a.join(b)
        prover = Prover()
        assert prover.implies(joined.to_formula(), ge(v("x"), 2))
        assert not prover.implies(joined.to_formula(), ge(v("x"), 5))

    def test_join_drops_one_sided_facts(self):
        a, b = FactSet(), FactSet()
        a.add_atom(Geq(v("x")))
        joined = a.join(b)
        assert joined.to_formula() == conj()

    def test_widening_drops_unstable_bounds(self):
        a, b = FactSet(), FactSet()
        a.add_atom(Geq(v("x")))              # x >= 0 on both
        a.add_atom(Geq(-v("x") + 3))         # x <= 3 vs x <= 4: unstable
        b.add_atom(Geq(v("x")))
        b.add_atom(Geq(-v("x") + 4))
        widened = a.join(b, widen=True)
        prover = Prover()
        assert prover.implies(widened.to_formula(), ge(v("x"), 0))
        assert not prover.implies(widened.to_formula(), le(v("x"), 9))

    def test_congruence_weakened_to_gcd(self):
        a, b = FactSet(), FactSet()
        a.add_atom(Cong(v("x"), 8))          # x ≡ 0 (mod 8)
        b.add_atom(Cong(v("x") - 4, 8))      # x ≡ 4 (mod 8)
        joined = a.join(b)
        prover = Prover()
        assert prover.implies(joined.to_formula(),
                              congruent(v("x"), 4))

    def test_assign_shift_is_exact(self):
        facts = FactSet()
        facts.add_atom(Geq(v("x")))          # x >= 0
        shifted = facts.assign("x", v("x") + 1)
        assert Prover().implies(shifted.to_formula(), ge(v("x"), 1))

    def test_assign_unknown_kills(self):
        facts = FactSet()
        facts.add_atom(Geq(v("x")))
        killed = facts.assign("x", None)
        assert killed.to_formula() == conj()

    def test_assign_copy_creates_equality(self):
        facts = FactSet()
        copied = facts.assign("y", v("x"))
        assert Prover().implies(copied.to_formula(), eq(v("y"), v("x")))


_VARS = ["x", "y", "z"]
_TERMS = st.tuples(
    st.dictionaries(st.sampled_from(_VARS),
                    st.sampled_from([-2, -1, 1, 2]), min_size=1),
    st.integers(-3, 3)).map(lambda parts: Linear(*parts))
_ATOMS = st.one_of(
    _TERMS.map(lambda t: ge(t, 0)),
    _TERMS.map(lambda t: eq(t, 0)),
    st.tuples(_TERMS, st.integers(2, 6), st.integers(0, 5)).map(
        lambda parts: congruent(*parts)))
_INDEX = st.integers(0, 63)
_FACT_OPS = st.one_of(
    st.tuples(st.just("add"), _INDEX, _ATOMS),
    st.tuples(st.just("kill"), _INDEX, st.sampled_from(_VARS)),
    st.tuples(st.just("assign"), _INDEX, st.sampled_from(_VARS),
              st.one_of(st.none(), _TERMS)),
    st.tuples(st.just("substitute"), _INDEX, st.sampled_from(_VARS),
              st.integers(-2, 2)),
    st.tuples(st.just("copy"), _INDEX),
    st.tuples(st.just("join"), _INDEX, _INDEX, st.booleans()),
    st.tuples(st.just("equalities"), _INDEX))


def _recomputed_equalities(facts):
    fresh = FactSet()
    fresh.lower = dict(facts.lower)
    return fresh._equalities()


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_FACT_OPS, min_size=1, max_size=25))
def test_cached_equalities_match_recomputation(ops):
    """Whatever sequence of writes a fact set goes through, its cached
    equality map is the one recomputed from its bounds."""
    pool = [FactSet()]
    for op in ops:
        kind, facts = op[0], pool[op[1] % len(pool)]
        if kind == "add":
            facts.add_atom(op[2])
        elif kind == "kill":
            facts.kill(op[2])
        elif kind == "assign":
            pool.append(facts.assign(op[2], op[3]))
        elif kind == "substitute":
            pool.append(facts.substitute(op[2], v(op[2]) - op[3]))
        elif kind == "copy":
            pool.append(facts.copy())
        elif kind == "join":
            pool.append(facts.join(pool[op[2] % len(pool)], widen=op[3]))
        else:
            facts._equalities()
        for touched in (facts, pool[-1]):
            assert touched._equalities() == \
                _recomputed_equalities(touched)
    for facts in pool:
        assert facts._equalities() == _recomputed_equalities(facts)


def test_clear_all_caches_empties_the_direction_memos():
    from repro.logic.memo import clear_all_caches
    facts = FactSet()
    facts.add_atom(eq(v("x") - v("y"), 2))
    facts.join(facts.copy())
    facts.kill("y")
    assert len(forward._NEGATED) and len(forward._VARIABLES)
    clear_all_caches()
    assert len(forward._NEGATED) == 0 and len(forward._VARIABLES) == 0


class TestForwardPass:
    def test_initial_constraints_reach_straightline_code(self):
        cfg, forward = facts_for("1: mov %o0,%o2\n2: retl\n3: nop", SPEC)
        facts = facts_at_index(cfg, forward, 2)
        prover = Prover()
        assert prover.implies(facts, ge(v("%o0"), 1))
        assert prover.implies(facts, congruent(v("%o0"), 4))
        assert prover.implies(facts, eq(v("%o2"), v("%o0")))

    def test_branch_condition_recorded(self):
        cfg, forward = facts_for("""
        1: cmp %o1,3
        2: ble 5
        3: nop
        4: retl
        5: nop
        6: retl
        7: nop
        """, SPEC)
        taken = facts_at_index(cfg, forward, 6)
        assert Prover().implies(taken, le(v("%o1"), 3))
        fall = facts_at_index(cfg, forward, 4)
        assert Prover().implies(fall, ge(v("%o1"), 4))

    def test_loop_header_keeps_stable_facts(self):
        cfg, forward = facts_for("""
        1: clr %g3
        2: cmp %g3,%o1
        3: bge 7
        4: nop
        5: ba 2
        6: inc %g3
        7: retl
        8: nop
        """, SPEC)
        forest = find_loops(cfg, CFG.MAIN)
        header = forest.loops[0].header
        facts = forward.facts_at(header)
        prover = Prover()
        # The pointer facts survive the loop; they never change.
        assert prover.implies(facts, ge(v("%o0"), 1))
        assert prover.implies(facts, congruent(v("%o0"), 4))
        # The counter's stable lower bound survives widening.
        assert prover.implies(facts, ge(v("%g3"), 0))

    def test_congruence_loop_invariant_found(self):
        cfg, forward = facts_for("""
        1: clr %g3
        2: cmp %g3,64
        3: bge 7
        4: nop
        5: ba 2
        6: add %g3,4,%g3
        7: retl
        8: nop
        """, SPEC)
        forest = find_loops(cfg, CFG.MAIN)
        facts = forward.facts_at(forest.loops[0].header)
        assert Prover().implies(facts, congruent(v("%g3"), 4))

    def test_call_kills_register_facts(self):
        cfg, forward = facts_for("""
        1: mov 5,%g1
        2: mov %o7,%g4
        3: call unknown
        4: nop
        5: retl
        6: nop
        """, SPEC)
        after = facts_at_index(cfg, forward, 5)
        assert not Prover().implies(after, eq(v("%g1"), 5))

    def test_mask_bounds_recorded(self):
        cfg, forward = facts_for("""
        1: and %o1,63,%g1
        2: retl
        3: nop
        """, SPEC)
        facts = facts_at_index(cfg, forward, 2)
        prover = Prover()
        assert prover.implies(facts, ge(v("%g1"), 0))
        assert prover.implies(facts, le(v("%g1"), 63))


#: A counter loop: its header is the CFG's one loop header.
COUNTER_LOOP = """
        1: clr %g3
        2: cmp %g3,%o1
        3: bge 7
        4: nop
        5: ba 2
        6: inc %g3
"""


class TestStepCap:
    """A fixpoint stopped by the step cap publishes no facts: facts that
    have not converged may be stronger than what holds.  The cap counts
    the steps of the pass directed at the loop headers."""

    def directed_steps(self, monkeypatch, source):
        counting = _CountingBudget()
        with monkeypatch.context() as patch:
            patch.setattr(forward, "budget", counting)
            facts_for(source, SPEC, directed=True)
        return counting.steps

    def test_capped_run_publishes_nothing(self, monkeypatch):
        source = COUNTER_LOOP + "7: retl\n8: nop\n"
        assert self.directed_steps(monkeypatch, source) > 10
        monkeypatch.setattr(forward, "MAX_FORWARD_STEPS", 10)
        cfg, bounds = facts_for(source, SPEC, directed=True)
        assert bounds.before == {}
        assert all(bounds.facts_at(uid) is TRUE for uid in cfg.nodes)

    def test_capped_run_keeps_unsafe_program_rejected(self, monkeypatch):
        from repro.programs import all_programs
        program = next(p for p in all_programs()
                       if p.name == "paging-policy")
        counting = _CountingBudget()
        monkeypatch.setattr(forward, "budget", counting)
        program.check()
        assert counting.steps > 10
        monkeypatch.setattr(forward, "MAX_FORWARD_STEPS", 10)
        result = program.check()
        assert not result.safe
        assert sorted(v.index for v in result.violations) == [7, 12]

    def test_nodes_past_the_loop_do_not_count(self, monkeypatch):
        # A straight-line tail after the loop reaches no header: it
        # pushes the pass over every node past the cap, but the
        # directed pass converges and publishes the full pass's facts.
        tail = "".join("%d: add %%g1,1,%%g1\n" % i for i in range(7, 27))
        source = COUNTER_LOOP + tail + "27: retl\n28: nop\n"
        full_cfg, full = facts_for(source, SPEC)
        (header,) = loop_headers(full_cfg)
        assert full.facts_at(header) is not TRUE
        cap = 50
        assert self.directed_steps(monkeypatch, source) <= cap
        monkeypatch.setattr(forward, "MAX_FORWARD_STEPS", cap)
        __, capped_full = facts_for(source, SPEC)
        assert capped_full.before == {}
        __, directed = facts_for(source, SPEC, directed=True)
        assert len(directed.before) < len(full.before)
        assert str(directed.facts_at(header)) == \
            str(full.facts_at(header))


class TestEngineIntegration:
    def test_forward_facts_discharge_without_induction(self):
        # With the pass on, the loop-invariant pointer conditions are
        # discharged without any induction-iteration run.
        from repro.analysis.options import CheckerOptions
        from repro.programs.bubble_sort import PROGRAM
        on = PROGRAM.check()
        options = CheckerOptions()
        options.enable_forward_bounds = False
        off = PROGRAM.check(options)
        assert on.safe and off.safe
        assert on.induction_runs < off.induction_runs


# -- the fixpoint against its earlier loop ------------------------------------


def _reference_run(self, initial):
    """``ForwardBounds._run`` as it was before it skipped the no-op
    re-transfer: a list worklist, and a node whose joined facts equal
    its old ones is transferred again and compared with its output."""
    from repro.cfg.graph import EdgeKind
    entry = self.cfg.entry_uid
    self.before[entry] = FactSet.from_formula(initial)
    after = {}
    visits = {}
    worklist = [entry]
    queued = {entry}
    steps = 0
    while worklist and steps < 100_000:
        steps += 1
        uid = worklist.pop(0)
        queued.discard(uid)
        if uid != entry:
            combined = None
            for edge in self.cfg.predecessors(uid):
                if edge.kind is EdgeKind.RETURN:
                    continue
                source = after.get(edge.src)
                if source is None:
                    continue
                flowed = self._along_edge(edge, source)
                combined = flowed if combined is None \
                    else combined.join(flowed)
            if combined is None:
                continue
            old = self.before.get(uid)
            if old is not None:
                count = visits.get(uid, 0)
                combined = old.join(
                    combined, widen=count >= self.WIDENING_DELAY)
                if combined == old:
                    new_after = self._transfer(self.cfg.node(uid),
                                               combined)
                    if after.get(uid) == new_after:
                        continue
            self.before[uid] = combined
            visits[uid] = visits.get(uid, 0) + 1
        out_facts = self._transfer(self.cfg.node(uid), self.before[uid])
        if after.get(uid) == out_facts:
            continue
        after[uid] = out_facts
        for edge in self.cfg.successors(uid):
            if edge.kind is EdgeKind.RETURN:
                continue
            if edge.dst not in queued:
                queued.add(edge.dst)
                worklist.append(edge.dst)


class _Captured(Exception):
    pass


def _forward_inputs(source, spec_text, arch):
    """The CFG, initial facts and loop headers a check hands the
    forward pass (the check stops there)."""
    from repro.analysis.checker import SafetyChecker
    from repro.analysis.options import CheckerOptions
    captured = []

    def capture(self, cfg, initial, headers):
        captured.append((cfg, initial, list(headers)))
        raise _Captured()

    checker = SafetyChecker(source, parse_spec(spec_text),
                            options=CheckerOptions(), arch=arch)
    original = ForwardBounds.__init__
    ForwardBounds.__init__ = capture
    try:
        with pytest.raises(_Captured):
            checker.check()
    finally:
        ForwardBounds.__init__ = original
        checker.close()
    return captured[0]


def _figure9_cases():
    from repro.programs import all_programs
    return [pytest.param(p.source, p.spec_text, "sparc", id=p.name)
            for p in all_programs()]


def _riscv_parity_cases():
    from tests.ir.test_parity import RISCV_SPEC, RISCV_WRITE, TestLoopParity
    loop = TestLoopParity
    return [
        pytest.param(RISCV_WRITE.format(offset=0), RISCV_SPEC, "riscv",
                     id="rv-write-0"),
        pytest.param(RISCV_WRITE.format(offset=40), RISCV_SPEC, "riscv",
                     id="rv-write-40"),
        pytest.param(loop.RISCV_SUM, loop.RISCV_SUM_SPEC, "riscv",
                     id="rv-sum"),
        pytest.param(loop.RISCV_SUM.replace("blt t0,a1,5", "bge a1,t0,5"),
                     loop.RISCV_SUM_SPEC, "riscv", id="rv-sum-off-by-one"),
    ]


def _fuzz_cases():
    """Fuzz seeds 0-59 on both ISAs; seeds from 20 on run under the
    ``bench`` marker."""
    from repro.fuzz.generator import ARCHS, generate_sketch, lower, \
        spec_text
    return [pytest.param(lower(generate_sketch(seed), arch),
                         spec_text(generate_sketch(seed), arch), arch,
                         id="fuzz-%d-%s" % (seed, arch),
                         marks=[pytest.mark.bench] if seed >= 20 else [])
            for seed in range(60) for arch in ARCHS]


def _reference(cfg, initial):
    reference = ForwardBounds.__new__(ForwardBounds)
    reference.cfg = cfg
    reference.before = {}
    reference._transfer_visitor = _FactTransfer()
    _reference_run(reference, initial)
    return reference


@pytest.mark.parametrize("source, spec_text, arch",
                         _figure9_cases() + _riscv_parity_cases()
                         + _fuzz_cases())
def test_fixpoint_matches_reference_loop(source, spec_text, arch):
    """The pass at every node equals the reference loop everywhere; the
    pass directed at the loop headers equals it wherever it computed
    facts, and at every header."""
    cfg, initial, headers = _forward_inputs(source, spec_text, arch)
    reference = _reference(cfg, initial)
    full = ForwardBounds(cfg, initial, cfg.nodes)
    assert full.before.keys() == reference.before.keys()
    for uid, facts in reference.before.items():
        assert full.before[uid] == facts, uid
    directed = ForwardBounds(cfg, initial, headers)
    assert directed.before.keys() <= reference.before.keys()
    for uid, facts in directed.before.items():
        assert reference.before[uid] == facts, uid
    for header in headers:
        assert str(directed.facts_at(header)) == \
            str(reference.facts_at(header)), header


def test_md5_pass_skips_the_transform_body():
    """md5's one callee, the unrolled ``transform``, is left only by a
    RETURN edge, which the pass never follows: none of its nodes reaches
    a loop header, so none is computed."""
    from repro.programs import all_programs
    program = next(p for p in all_programs() if p.name == "md5")
    cfg, initial, headers = _forward_inputs(
        program.source, program.spec_text, "sparc")
    directed = ForwardBounds(cfg, initial, headers)
    full = ForwardBounds(cfg, initial, cfg.nodes)
    assert len(directed.before) <= 60 < len(full.before)
    assert all(cfg.node(uid).function != "transform"
               for uid in directed.before)
    assert headers
    for header in headers:
        assert str(directed.facts_at(header)) == \
            str(full.facts_at(header)), header
