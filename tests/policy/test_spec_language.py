"""Specification-language tests: locations, rules, invocation,
constraints, trusted functions, type definitions."""

import pytest

from repro.errors import SpecError
from repro.logic.formula import And, Cong, Geq, Or, TRUE
from repro.policy import parse_constraint, parse_spec
from repro.policy.model import (
    HostSpec, LocationDecl, TypeEnvironment, parse_state, split_perms,
)
from repro.typesys.state import INIT, PointsTo, UNINIT
from repro.typesys.types import (
    ArrayBaseType, ArrayMidType, INT32, PointerType, StructType, UINT8,
)


class TestConstraintParser:
    def test_relations(self):
        assert str(parse_constraint("n >= 1")) == "n-1 >= 0"
        assert isinstance(parse_constraint("x < y"), Geq)
        assert isinstance(parse_constraint("x != y"), Or)

    def test_equality_forms(self):
        a = parse_constraint("n = %o1")
        b = parse_constraint("n == %o1")
        assert a == b

    def test_coefficients_and_sums(self):
        f = parse_constraint("4 n > %g2 + 1")
        assert isinstance(f, Geq)
        assert f.term.coefficient("n") == 4
        assert f.term.coefficient("%g2") == -1

    def test_explicit_multiplication(self):
        assert parse_constraint("2 * x >= 0").term.coefficient("x") == 2

    def test_mod_produces_congruence(self):
        f = parse_constraint("%g2 mod 4 = 0")
        assert isinstance(f, Cong) and f.modulus == 4

    def test_mod_with_residue(self):
        f = parse_constraint("x mod 4 = 3")
        assert isinstance(f, Cong)
        assert f.term.constant == -3

    @pytest.mark.parametrize("text", [
        "n mod>= 1", "n mod 4 == -1", "n mod -4 == 1", "n mod 4 == x",
        "n mod 0 == 0", "n mod 1 == 0", "n mod", "n mod 4",
    ])
    def test_bad_mod_clause_rejected(self, text):
        with pytest.raises(SpecError):
            parse_constraint(text)
        with pytest.raises(SpecError):
            parse_spec("assume %s\n" % text)

    def test_null_is_zero(self):
        f = parse_constraint("%o0 != null")
        assert "%o0" in f.free_variables()

    def test_and_or_precedence(self):
        f = parse_constraint("a >= 0 and b >= 0 or c >= 0")
        assert isinstance(f, Or)  # 'and' binds tighter

    def test_parentheses(self):
        f = parse_constraint("a >= 0 and (b >= 0 or c >= 0)")
        assert isinstance(f, And)

    def test_garbage_rejected(self):
        with pytest.raises(SpecError):
            parse_constraint("n >=")
        with pytest.raises(SpecError):
            parse_constraint("n ? 3")


class TestTypeExpressions:
    def setup_method(self):
        self.types = TypeEnvironment()

    def test_ground(self):
        assert self.types.parse("int") is INT32
        assert self.types.parse("uint8") is UINT8

    def test_array_base_and_mid(self):
        base = self.types.parse("int[n]")
        assert isinstance(base, ArrayBaseType) and base.size == "n"
        mid = self.types.parse("int(64]")
        assert isinstance(mid, ArrayMidType) and mid.size == 64

    def test_pointer_suffix(self):
        t = self.types.parse("int ptr")
        assert isinstance(t, PointerType)

    def test_stacked_suffixes(self):
        t = self.types.parse("int ptr ptr")
        assert isinstance(t.pointee, PointerType)

    def test_named_struct(self):
        self.types.define_struct("pair", [("a", "int"), ("b", "int")])
        t = self.types.parse("pair ptr")
        assert isinstance(t.pointee, StructType)

    def test_unknown_type_rejected(self):
        with pytest.raises(SpecError):
            self.types.parse("wibble")

    def test_struct_offsets_respect_alignment(self):
        struct = self.types.define_struct(
            "mixed", [("flag", "uint8"), ("word", "int")])
        assert struct.member("flag").offset == 0
        assert struct.member("word").offset == 4


class TestSpecParsing:
    FIG1 = """
    loc e   : int    = initialized  perms ro  region V summary
    loc arr : int[n] = {e}          perms rfo region V
    rule [V : int : ro]
    rule [V : int[n] : rfo]
    invoke %o0 = arr
    invoke %o1 = n
    assume n >= 1
    """

    def test_figure1_roundtrip(self):
        spec = parse_spec(self.FIG1)
        assert [d.name for d in spec.locations] == ["e", "arr"]
        e = spec.location("e")
        assert e.summary and e.region == "V"
        arr_type = spec.resolve_type(spec.location("arr"))
        assert isinstance(arr_type, ArrayBaseType)
        assert spec.resolve_state(spec.location("arr")) == \
            PointsTo(frozenset({"e"}))
        assert spec.invocation.bindings == {"%o0": "arr", "%o1": "n"}
        assert len(spec.constraints) == 1

    def test_struct_and_field_rules(self):
        spec = parse_spec("""
        type thread = struct { tid: int; lwpid: int; next: thread ptr }
        loc t : thread perms r region H summary
        rule [H : thread.tid, thread.lwpid : ro]
        rule [H : thread.next : rfo]
        """)
        thread = spec.types.lookup("thread")
        assert [m.label for m in thread.members] == ["tid", "lwpid",
                                                     "next"]
        assert len(spec.rules) == 2
        assert spec.rules[0].categories == ("thread.tid", "thread.lwpid")

    def test_trusted_function_block(self):
        spec = parse_spec("""
        function getTime {
            returns %o0 : int = initialized perms o
            clobbers %g1 %g2
        }
        function log {
            param %o0 : int = initialized perms o
            requires %o0 >= 0
        }
        """)
        get_time = spec.functions["getTime"]
        assert get_time.returns["%o0"].state == INIT
        assert get_time.clobbers == ("%g1", "%g2")
        log = spec.functions["log"]
        assert log.precondition is not TRUE
        assert "%o0" in log.params

    def test_postcondition_accumulates(self):
        spec = parse_spec("ensure n >= 1\nensure n <= 10")
        assert isinstance(spec.postcondition, And)

    def test_duplicate_location_rejected(self):
        with pytest.raises(SpecError):
            parse_spec("loc a : int\nloc a : int")

    def test_unknown_directive_rejected(self):
        with pytest.raises(SpecError):
            parse_spec("frobnicate everything")

    @pytest.mark.parametrize("text", [
        "assume", "ensure", "entry  # label",
        "function f {\n    requires\n}",
        "function f {\n    ensures\n}",
    ], ids=["assume", "ensure", "entry", "requires", "ensures"])
    def test_keyword_without_argument_rejected(self, text):
        with pytest.raises(SpecError, match="needs an argument"):
            parse_spec(text)

    def test_unterminated_function_rejected(self):
        with pytest.raises(SpecError):
            parse_spec("function f {\nparam %o0 : int")

    def test_comments_ignored(self):
        spec = parse_spec("# comment\nloc a : int  # trailing\n")
        assert spec.location("a")

    def test_abstract_type(self):
        spec = parse_spec("abstract jnienv size 4\n"
                          "loc env : jnienv ptr perms rfo region J")
        assert spec.types.lookup("jnienv").size == 4


class TestHelpers:
    def test_split_perms(self):
        readable, writable, value = split_perms("rwfo")
        assert readable and writable
        assert value.followable and value.operable and not value.executable

    def test_split_perms_rejects_garbage(self):
        with pytest.raises(SpecError):
            split_perms("rz")

    def test_parse_state_forms(self):
        assert parse_state("initialized") == INIT
        assert parse_state("uninitialized") == UNINIT
        assert parse_state("{a, null}") == PointsTo(
            frozenset({"a", "null"}))
        with pytest.raises(SpecError):
            parse_state("{}")
        with pytest.raises(SpecError):
            parse_state("bogus")
