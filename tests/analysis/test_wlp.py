"""Unit tests for the wlp transfer functions and edge conditions."""

import re

import pytest
from hypothesis import given, settings, strategies as st

import repro.analysis.wlp as wlp
from repro.analysis.options import CheckerOptions
from repro.analysis.wlp import (
    ICC, WlpTransfer, condition_formula, guarded_havoc, havoc,
    operand_term,
)
from repro.cfg.graph import BranchCondition, Node, NodeRole
from repro.ir.ops import Assign, BinOp, ConstOp, RegOp
from repro.logic import (
    FALSE, Prover, TRUE, conj, congruent, disj, eq, ge, le, lt,
)
from repro.logic.formula import Cong, fresh_drawn, has_quantifier
from repro.logic.memo import clear_all_caches
from repro.logic.terms import Linear
from repro.programs.stack_smashing import PROGRAM as STACK_SMASHING
from repro.riscv.assembler import assemble as rv_assemble
from repro.sparc import assemble
from repro.typesys.access import access
from repro.typesys.locations import AbstractLocation, LocationTable
from repro.typesys.state import INIT, points_to
from repro.typesys.store import AbstractStore
from repro.typesys.types import INT32, PointerType
from repro.typesys.typestate import Typestate
from tests.analysis.test_forward import _figure9_cases, _riscv_parity_cases


def v(name, coeff=1):
    return Linear.var(name, coeff)


def make_node(text, uid=0, arch="sparc"):
    assembler = rv_assemble if arch == "riscv" else assemble
    inst = assembler(text).lower().instruction(1)
    return Node(uid=uid, instruction=inst, role=NodeRole.NORMAL, index=1)


@pytest.fixture()
def plain_transfer():
    return WlpTransfer({}, LocationTable())


class TestRegisterAssignments:
    def test_mov_substitutes(self, plain_transfer):
        q = lt(v("%o2"), v("n"))
        out = plain_transfer.node_transfer(make_node("mov %o0,%o2"), q)
        assert out == lt(v("%o0"), v("n"))

    def test_clr_substitutes_zero(self, plain_transfer):
        q = ge(v("%g3"), 0)
        out = plain_transfer.node_transfer(make_node("clr %g3"), q)
        assert out == TRUE

    def test_add_sub(self, plain_transfer):
        q = lt(v("%g3"), v("n"))
        out = plain_transfer.node_transfer(make_node("inc %g3"), q)
        assert out == lt(v("%g3") + 1, v("n"))
        out = plain_transfer.node_transfer(make_node("dec %g3"), q)
        assert out == lt(v("%g3") - 1, v("n"))

    def test_sll_constant_scales(self, plain_transfer):
        q = lt(v("%g2"), v("n", 4))
        out = plain_transfer.node_transfer(
            make_node("sll %g3, 2,%g2"), q)
        assert out == lt(v("%g3", 4), v("n", 4))

    def test_self_referential_add(self, plain_transfer):
        # add %o0,%o0,%o0: Q[o0 -> o0 + o0].
        q = eq(v("%o0"), 8)
        out = plain_transfer.node_transfer(
            make_node("add %o0,%o0,%o0"), q)
        assert out == eq(v("%o0").scale(2), 8)

    def test_unknown_op_havocs(self, plain_transfer):
        q = ge(v("%o0"), 0)
        out = plain_transfer.node_transfer(
            make_node("xor %o1,%o2,%o0"), q)
        # Havoc: must not be provable anymore, and must not mention the
        # overwritten register's new value unconditionally.
        assert not Prover().is_valid(out)

    def test_untouched_formula_passes_through(self, plain_transfer):
        q = ge(v("%l0"), 0)
        assert plain_transfer.node_transfer(
            make_node("add %o1,%o2,%o3"), q) == q


class TestGuardedEncodings:
    def test_and_mask_exact(self, plain_transfer):
        # After and %o1,63,%g1 the result is in [0, 63]: the bound
        # g1 < 64 becomes valid.
        q = lt(v("%g1"), 64)
        out = plain_transfer.node_transfer(
            make_node("and %o1,63,%g1"), q)
        assert Prover().is_valid(out)

    def test_and_mask_congruence(self, plain_transfer):
        # The mask also fixes the residue: g1 ≡ o1 (mod 64).
        q = congruent(v("%g1") - v("%o1"), 64)
        out = plain_transfer.node_transfer(
            make_node("and %o1,63,%g1"), q)
        assert Prover().is_valid(out)

    def test_srl_constant_division(self, plain_transfer):
        # After srl %o1,1,%g1 (o1 >= 0): g1 <= o1.
        q = le(v("%g1"), v("%o1"))
        out = plain_transfer.node_transfer(
            make_node("srl %o1,1,%g1"), q)
        prover = Prover()
        assert prover.implies(ge(v("%o1"), 0), out)

    def test_and_with_zero_clears(self, plain_transfer):
        # x & 0 = 0 (a zero mask keeps no low bits), and andcc sets the
        # condition codes from that 0.
        q = conj(eq(v("%g1"), 0), eq(v(ICC), 0))
        out = plain_transfer.node_transfer(
            make_node("andcc %o1,%g0,%g1"), q)
        assert out is TRUE

    def test_register_shift_havocs(self, plain_transfer):
        q = lt(v("%g1"), 64)
        out = plain_transfer.node_transfer(
            make_node("sll %o1,%o2,%g1"), q)
        assert not Prover().is_valid(out)


class TestConditionCodes:
    def test_cmp_binds_icc(self, plain_transfer):
        q = lt(v(ICC), 0)
        out = plain_transfer.node_transfer(make_node("cmp %g3,%o1"), q)
        assert out == lt(v("%g3") - v("%o1"), 0)

    def test_tst_binds_icc_to_operand(self, plain_transfer):
        q = eq(v(ICC), 0)
        out = plain_transfer.node_transfer(make_node("tst %o3"), q)
        assert out == eq(v("%o3"), 0)

    def test_addcc_binds_sum(self, plain_transfer):
        q = ge(v(ICC), 0)
        out = plain_transfer.node_transfer(
            make_node("addcc %o0,%o1,%g0"), q)
        assert out == ge(v("%o0") + v("%o1"), 0)

    def test_subcc_with_destination_orders_substitutions(
            self, plain_transfer):
        # subcc %o0,%o1,%o0 writes both rd and icc from OLD values.
        q = conj(ge(v(ICC), 0), le(v("%o0"), 5))
        out = plain_transfer.node_transfer(
            make_node("subcc %o0,%o1,%o0"), q)
        expected = conj(ge(v("%o0") - v("%o1"), 0),
                        le(v("%o0") - v("%o1"), 5))
        assert Prover().equivalent(out, expected)

    def test_branch_condition_formulas(self):
        icc_lt = BranchCondition("<", RegOp(ICC), ConstOp(0), taken=True)
        assert condition_formula(icc_lt) == lt(v(ICC), 0)
        icc_ge = BranchCondition("<", RegOp(ICC), ConstOp(0), taken=False)
        assert Prover().equivalent(condition_formula(icc_ge),
                                   ge(v(ICC), 0))
        # Overflow branches (bvs/bvc) carry no linear relation.
        assert condition_formula(
            BranchCondition(None, taken=True)) is TRUE


class TestMemoryModel:
    def _table(self):
        table = LocationTable()
        table.add(AbstractLocation(name="t.tid", size=4, align=4))
        table.add(AbstractLocation(name="e", size=4, align=4,
                                   summary=True))
        return table

    def _stores(self, node_uid, pointer_target):
        ts = Typestate(
            PointerType(pointee=_TID_STRUCT), points_to(pointer_target),
            access("fo"))
        return {node_uid: AbstractStore({"%o3": ts})}

    def test_load_single_location_substitutes(self):
        table = self._table()
        node = make_node("ld [%o3],%g1", uid=7)
        transfer = WlpTransfer(self._stores(7, "t"), table)
        q = ge(v("%g1"), 0)
        out = transfer.node_transfer(node, q)
        assert out == ge(v("t.tid"), 0)

    def test_store_single_location_substitutes(self):
        table = self._table()
        node = make_node("st %g1,[%o3]", uid=7)
        transfer = WlpTransfer(self._stores(7, "t"), table)
        q = ge(v("t.tid"), 0)
        out = transfer.node_transfer(node, q)
        assert out == ge(v("%g1"), 0)

    def test_load_summary_havocs(self):
        table = self._table()
        ts = Typestate(
            __import__("repro.typesys.types",
                       fromlist=["ArrayBaseType"]).ArrayBaseType(
                element=INT32, size="n"),
            points_to("e"), access("fo"))
        node = make_node("ld [%o3+%g2],%g1", uid=7)
        transfer = WlpTransfer(
            {7: AbstractStore({"%o3": ts})}, table)
        q = ge(v("%g1"), 0)
        out = transfer.node_transfer(node, q)
        assert not Prover().is_valid(out)  # value unknown

    def test_store_summary_havocs_contents(self):
        table = self._table()
        ts = Typestate(
            __import__("repro.typesys.types",
                       fromlist=["ArrayBaseType"]).ArrayBaseType(
                element=INT32, size="n"),
            points_to("e"), access("fo"))
        node = make_node("st %g1,[%o3+%g2]", uid=7)
        transfer = WlpTransfer(
            {7: AbstractStore({"%o3": ts})}, table)
        q = ge(v("e"), 0)
        out = transfer.node_transfer(node, q)
        assert not Prover().is_valid(out)


from repro.typesys.types import Member, StructType  # noqa: E402

_TID_STRUCT = StructType(name="tid_only", members=(
    Member("tid", INT32, 0),))


class TestHavocHelpers:
    def test_havoc_removes_provability(self):
        q = ge(v("x"), 3)
        out = havoc(q, "x")
        assert not Prover().is_valid(out)

    def test_havoc_noop_when_absent(self):
        q = ge(v("y"), 3)
        assert havoc(q, "x") is q

    def test_guarded_havoc_keeps_guarded_fact(self):
        q = ge(v("x"), 0)
        out = guarded_havoc(q, "x",
                            lambda value: conj(ge(value, 0),
                                               le(value, 9)))
        assert Prover().is_valid(out)

    def test_operand_term_forms(self):
        from repro.sparc.isa import Imm, Reg
        assert operand_term(Reg(0)) == Linear.const(0)   # %g0
        assert operand_term(Reg(8)) == v("%o0")
        assert operand_term(Imm(-5)) == Linear.const(-5)


class TestUnwrittenDestination:
    """An op whose destination is not free in Q returns Q itself: no
    operand terms are built and Q is not rebuilt."""

    Q = conj(ge(v("%l0"), 0), lt(v("a2"), v("n")), eq(v(ICC), 0))

    @pytest.mark.parametrize("text, arch", [
        ("add %o1,%o2,%o3", "sparc"),
        ("sub %o1,3,%o3", "sparc"),
        ("sll %o1,2,%o3", "sparc"),
        ("and %o1,7,%o3", "sparc"),
        ("sra %o1,2,%o3", "sparc"),
        ("sethi 1,%o3", "sparc"),
        ("mov 5,%o3", "sparc"),
        ("add t0,t1,t2", "riscv"),
        ("sub t0,t1,t2", "riscv"),
        ("slli t0,t1,2", "riscv"),
        ("andi t0,t1,7", "riscv"),
        ("srai t0,t1,2", "riscv"),
        ("li t0,5", "riscv"),
        ("lui t0,1", "riscv"),
    ])
    def test_returns_q_itself(self, plain_transfer, text, arch):
        node = make_node(text, arch=arch)
        assert plain_transfer.node_transfer(node, self.Q) is self.Q

    def test_subcc_into_unrelated_register_still_binds_icc(
            self, plain_transfer):
        q = conj(lt(v(ICC), 0), ge(v("%l0"), 0))
        out = plain_transfer.node_transfer(
            make_node("subcc %o1,%o2,%g5"), q)
        assert out == conj(lt(v("%o1") - v("%o2"), 0), ge(v("%l0"), 0))

    def test_cc_op_without_icc_in_q_is_skipped(self, plain_transfer):
        q = ge(v("%l0"), 0)
        assert plain_transfer.node_transfer(
            make_node("subcc %o1,%o2,%g5"), q) is q


_REGS = ["%o0", "%o1", "%g1", "%g2"]
_ALU = ["add", "sub", "and", "or", "xor", "sll", "srl", "sra", "umul",
        "addcc", "subcc", "andcc", "orcc"]
_OPERAND2 = _REGS + ["%g0", "0", "1", "2", "3", "7"]


def _atom(parts):
    a, b, coeff, const, kind = parts
    term = v(a) - v(b).scale(coeff)
    if kind == "ge":
        return ge(term, const)
    if kind == "eq":
        return eq(term, const)
    return congruent(term, 4, const % 4)


_ATOMS = st.tuples(
    st.sampled_from(_REGS + [ICC, "n"]), st.sampled_from(_REGS + [ICC]),
    st.integers(-2, 2), st.integers(-4, 4),
    st.sampled_from(["ge", "eq", "cong"])).map(_atom)
_FORMULAS = st.tuples(st.lists(_ATOMS, min_size=1, max_size=3),
                      st.booleans()).map(
    lambda parts: conj(*parts[0]) if parts[1] else disj(*parts[0]))
_OPS = st.tuples(st.sampled_from(_ALU), st.sampled_from(_REGS + ["%g0"]),
                 st.sampled_from(_OPERAND2),
                 st.sampled_from(_REGS + ["%g0"])).map(
    lambda parts: "%s %s,%s,%s" % parts)


def _fresh_names_erased(f):
    return re.sub(r"\$h\d+", "$h", repr(f))


@settings(max_examples=150, deadline=None)
@given(text=_OPS, q=_FORMULAS)
def test_early_out_agrees_with_substitution_path(text, q):
    """Where the early-out fires, substituting the destination would
    have left Q unchanged; everywhere else the transfer is the
    substitution/havoc path (``_assign`` then ``_set_icc``)."""
    transfer = WlpTransfer({}, LocationTable())
    node = make_node(text)
    op = node.instruction
    out = transfer.node_transfer(node, q)
    free = q.free_variables()
    if op.dest not in free and not (op.sets_cc and ICC in free):
        assert out is q
        if op.dest is not None:
            assert q.substitute(op.dest, v("%l7") + 1) == q
    else:
        full = transfer._assign_op(op, q)
        # Each havoc names a fresh variable: compare up to those names.
        assert _fresh_names_erased(out) == _fresh_names_erased(full)


# -- the havoc and edge-condition memos ----------------------------------------


def _mask_guard(rs1, modulus):
    """The guard ``_assign_op`` gives ``and rs1, 2^k - 1, dest``."""
    return lambda value: conj(Cong(value - rs1, modulus), ge(value, 0),
                              lt(value, modulus))


def _drawn_by(call):
    """The result of *call* and how many fresh names it drew."""
    before = fresh_drawn()
    result = call()
    return result, fresh_drawn() - before


_MEMO_ATOMS = st.tuples(
    st.sampled_from(["x", "y", "z"]), st.sampled_from(["x", "y", "z"]),
    st.integers(-2, 2), st.integers(-4, 4),
    st.sampled_from(["ge", "cong"])).map(_atom)
_MEMO_FORMULAS = st.tuples(st.lists(_MEMO_ATOMS, min_size=1, max_size=3),
                           st.booleans()).map(
    lambda parts: conj(*parts[0]) if parts[1] else disj(*parts[0]))


@settings(max_examples=120, deadline=None)
@given(q=_MEMO_FORMULAS, modulus=st.sampled_from([None, 2, 8]))
def test_warm_havoc_returns_the_cold_result(q, modulus):
    """A second havoc of the same (q, var, guard) returns the stored
    formula itself and moves the fresh-name counter exactly as far as
    the first, so every later fresh name is unchanged."""
    if modulus is None:
        def run():
            return havoc(q, "x")
    else:
        guard = _mask_guard(v("y"), modulus)

        def run():
            return guarded_havoc(q, "x", guard)
    clear_all_caches()
    cold, cold_draws = _drawn_by(run)
    warm, warm_draws = _drawn_by(run)
    assert warm_draws == cold_draws
    if "x" not in q.free_variables():
        assert cold is q and warm is q and cold_draws == 0
    elif has_quantifier(cold):
        # Not stored: the ∀ binds the new fresh name of each call.
        assert warm is not cold and cold_draws == 1
    else:
        assert warm is cold and cold_draws >= 1


def test_guards_key_the_memo_apart():
    clear_all_caches()
    q = ge(v("x"), 1)
    results = [guarded_havoc(q, "x", _mask_guard(v("y"), 2)),
               guarded_havoc(q, "x", _mask_guard(v("y"), 4)),
               havoc(q, "x")]
    prover = Prover()
    # x := y & 1 needs y odd; x := y & 3 needs y ≢ 0 (mod 4).
    assert prover.equivalent(results[0], congruent(v("y"), 2, 1))
    assert prover.equivalent(results[1],
                             disj(*(congruent(v("y"), 4, r)
                                    for r in range(1, 4))))
    assert results[2] is FALSE
    assert len(wlp._HAVOC_CACHE) == 3


def test_quantified_result_is_not_stored(monkeypatch):
    """Above EAGER_QE_LIMIT the ∀ stays and names the call's own fresh
    variable; storing it would hand that name to a later call."""
    monkeypatch.setattr(wlp, "EAGER_QE_LIMIT", 0)
    clear_all_caches()
    q = ge(v("x"), 3)
    first = havoc(q, "x")
    second = havoc(q, "x")
    assert has_quantifier(first) and has_quantifier(second)
    assert first is not second
    assert len(wlp._HAVOC_CACHE) == 0


def test_condition_formula_is_built_once():
    clear_all_caches()
    first = condition_formula(
        BranchCondition("<", RegOp("a0"), RegOp("a1"), taken=False))
    again = condition_formula(
        BranchCondition("<", RegOp("a0"), RegOp("a1"), taken=False))
    assert again is first
    assert condition_formula(
        BranchCondition("<", RegOp("a0"), ConstOp(0))) is not first


def test_clear_all_caches_empties_both_memos():
    havoc(ge(v("x"), 3), "x")
    condition_formula(BranchCondition(">=", RegOp("x"), ConstOp(0)))
    assert len(wlp._HAVOC_CACHE) and len(wlp._CONDITION_CACHE)
    clear_all_caches()
    assert len(wlp._HAVOC_CACHE) == 0 and len(wlp._CONDITION_CACHE) == 0


def test_stack_smashing_eliminates_each_havoc_once(monkeypatch):
    """Without the memo a stack-smashing check runs 452 eager
    eliminations, 399 of them on a (q, var) pair it has already
    eliminated; with it, one per distinct pair (53)."""
    calls = []
    eliminate = wlp._eager_eliminate

    def counting(f):
        calls.append(f)
        return eliminate(f)

    monkeypatch.setattr(wlp, "_eager_eliminate", counting)
    clear_all_caches()
    result = STACK_SMASHING.check(CheckerOptions())
    assert not result.timed_out
    assert 0 < len(calls) <= 60


# -- write sets ------------------------------------------------------------------


class _Captured(Exception):
    pass


#: (source, spec text, arch) -> the engine its check builds.
_ENGINES = {}


def _engine_of(source, spec_text, arch):
    """The verification engine a check builds (the check stops there),
    built once per case."""
    key = (source, spec_text, arch)
    engine = _ENGINES.get(key)
    if engine is not None:
        return engine
    from repro.analysis.checker import SafetyChecker
    from repro.analysis.verify import VerificationEngine
    from repro.policy.parser import parse_spec
    captured = []
    init = VerificationEngine.__init__

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        captured.append(self)
        raise _Captured()

    checker = SafetyChecker(source, parse_spec(spec_text),
                            options=CheckerOptions(), arch=arch)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(VerificationEngine, "__init__", capture)
        with pytest.raises(_Captured):
            checker.check()
    checker.close()
    _ENGINES[key] = captured[0]
    return captured[0]


#: The 13 Figure-9 programs and the 4 RV32I parity cases.
_WRITE_SET_CASES = _figure9_cases() + _riscv_parity_cases()


def _instruction_nodes(engine):
    return [node for _, node in sorted(engine.cfg.nodes.items())
            if node.instruction is not None]


def _universe(engine):
    """Every variable a phase-5 formula over this program can mention:
    the registers, the condition codes, the memory locations' value
    variables, and a spec symbol."""
    names = {ICC, "n"}
    names.update(engine.cfg.arch.registers)
    names.update(location.name for location
                 in engine.preparation.locations.memory_locations())
    for node in _instruction_nodes(engine):
        names |= engine.transfer.writes(node)
    return sorted(names)


def _atoms_over(names):
    return st.tuples(
        st.sampled_from(names), st.sampled_from(names),
        st.integers(-2, 2), st.integers(-4, 4),
        st.sampled_from(["ge", "cong"])).map(_atom)


@pytest.mark.parametrize("source, spec_text, arch", _WRITE_SET_CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_formula_avoiding_the_write_set_is_returned_as_is(
        source, spec_text, arch, data):
    engine = _engine_of(source, spec_text, arch)
    node = data.draw(st.sampled_from(_instruction_nodes(engine)))
    writes = engine.transfer.writes(node)
    pool = [name for name in _universe(engine) if name not in writes]
    q = conj(*data.draw(st.lists(_atoms_over(pool), min_size=1,
                                 max_size=4)))
    assert engine.transfer.node_transfer(node, q) is q


def _keeps_its_value(op, name):
    """``add x,0,x`` and the like: the op writes *name* with the value
    it already has, so no formula changes (the write set may still
    list it)."""
    if not isinstance(op, Assign) or op.sets_cc:
        return False
    rs1, op2 = operand_term(op.src1), operand_term(op.src2)
    value = {BinOp.ADD: rs1 + op2, BinOp.SUB: rs1 - op2,
             BinOp.OR: rs1 + op2}.get(op.op)
    return value == v(name)


@pytest.mark.parametrize("source, spec_text, arch", _WRITE_SET_CASES)
def test_every_written_variable_can_change_a_formula(
        source, spec_text, arch, monkeypatch):
    # A havoc's ∀ is kept as is: eliminating it only restates it (and
    # md5's wide right shifts make that take seconds per node).
    monkeypatch.setattr(wlp, "_eager_eliminate", lambda f: f)
    engine = _engine_of(source, spec_text, arch)
    for node in _instruction_nodes(engine):
        for name in engine.transfer.writes(node):
            if _keeps_its_value(node.instruction, name):
                continue
            candidates = [ge(v(name), 1), congruent(v(name), 4, 1),
                          ge(v(name) - v("n"), 0)]
            assert any(engine.transfer.node_transfer(node, q) != q
                       for q in candidates), (node, name)
