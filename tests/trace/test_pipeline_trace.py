"""Tracing through the real pipeline: schema validity, coverage, and
— the hard constraint — verdict/stat neutrality.

The parity tests run every check twice, traced and untraced, and
require identical verdicts, per-condition proof outcomes, violations,
and integer prover counters.  Wall-clock counters (``*_seconds``) and
derived rates are excluded: they are volatile by nature, not part of
the semantic result.
"""

import pytest

from repro.analysis.checker import check_assembly
from repro.analysis.options import CheckerOptions
from repro.programs import fast_programs
from repro.programs.sum_array import PROGRAM as SUM_PROGRAM
from repro.trace import load_trace, summarize, validate_record
from repro.trace.schema import PHASE_SPANS

# The RV32I sum loop of tests/ir/test_parity.py — certifies with
# induction on the riscv frontend.
RISCV_SUM = """
1: mv a2,a0
2: li a0,0
3: li t0,0
4: bge t0,a1,11
5: slli t1,t0,2
6: add t2,a2,t1
7: lw t1,0(t2)
8: addi t0,t0,1
9: add a0,a0,t1
10: blt t0,a1,5
11: ret
"""

RISCV_SUM_SPEC = """
loc e   : int    = initialized  perms ro  region V summary
loc arr : int[n] = {e}          perms rfo region V
rule [V : int : ro]
rule [V : int[n] : rfo]
invoke a0 = arr
invoke a1 = n
assume n >= 1
"""


def fingerprint(result):
    """Everything semantic about a check outcome."""
    return (result.safe, result.timed_out,
            tuple((p.uid, p.index, p.proved) for p in result.proofs),
            tuple((v.index, v.category, v.description, v.phase)
                  for v in result.violations))


def stable_stats(result):
    """The prover counters that must not move under tracing: every
    integer counter; seconds and derived rates are wall-clock
    volatile."""
    return {name: value
            for name, value in result.prover_stats.items()
            if not name.endswith("_rate")
            and not name.endswith("seconds")}


def assert_parity(untraced, traced):
    assert fingerprint(untraced) == fingerprint(traced)
    assert stable_stats(untraced) == stable_stats(traced)


class TestTraceCoverage:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("trace") / "sum.jsonl")
        result = SUM_PROGRAM.check(CheckerOptions(trace_path=path))
        return result, load_trace(path, validate=False)

    def test_all_records_schema_valid(self, traced):
        __, records = traced
        for record in records:
            validate_record(record)

    def test_all_five_phases_covered(self, traced):
        __, records = traced
        names = {r["name"] for r in records}
        for phase in PHASE_SPANS:
            assert phase in names

    def test_single_root_check_span_with_verdict(self, traced):
        result, records = traced
        roots = [r for r in records
                 if r["type"] == "span" and r["parent_id"] is None]
        assert len(roots) == 1
        assert roots[0]["name"] == "check"
        assert roots[0]["attrs"]["verdict"] == result.verdict
        assert roots[0]["attrs"]["arch"] == "sparc"

    def test_every_obligation_traced_with_provenance(self, traced):
        result, records = traced
        spans = [r for r in records if r["name"] == "obligation"]
        assert len(spans) == len(result.proofs)
        by_oid = {s["attrs"]["oid"]: s["attrs"] for s in spans}
        for proof, (oid, attrs) in zip(result.proofs,
                                       sorted(by_oid.items())):
            assert attrs["instruction"] == proof.index
            assert attrs["address"] == (proof.index - 1) * 4
            assert attrs["proved"] == proof.proved
            assert attrs["function"] == "<main>"
            assert attrs["loop_header"] is not None  # sum's loop

    def test_every_prover_query_traced(self, traced):
        result, records = traced
        events = [r for r in records if r["name"] == "prover:query"]
        assert len(events) \
            == result.prover_stats["satisfiability_queries"]

    def test_induction_rounds_traced(self, traced):
        result, records = traced
        runs = [r for r in records if r["name"] == "induction:run"]
        assert len(runs) == result.induction_runs
        assert any(r["attrs"]["success"] for r in runs)
        assert any(r["name"] == "induction:candidate"
                   for r in records)

    def test_summary_over_real_trace(self, traced):
        result, records = traced
        summary = summarize(records)
        assert summary["check"]["verdict"] == result.verdict
        assert summary["obligations"]["total"] == len(result.proofs)
        assert len(summary["phases"]) == len(PHASE_SPANS)


class TestTracingParity:
    @pytest.mark.parametrize(
        "program", fast_programs(), ids=lambda p: p.name)
    def test_figure9_sparc_serial(self, program, tmp_path):
        path = str(tmp_path / "t.jsonl")
        untraced = program.check(CheckerOptions())
        traced = program.check(CheckerOptions(trace_path=path))
        assert_parity(untraced, traced)
        for record in load_trace(path, validate=False):
            validate_record(record)

    def test_riscv_serial(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        untraced = check_assembly(RISCV_SUM, RISCV_SUM_SPEC,
                                  arch="riscv",
                                  options=CheckerOptions())
        traced = check_assembly(RISCV_SUM, RISCV_SUM_SPEC,
                                arch="riscv",
                                options=CheckerOptions(trace_path=path))
        assert untraced.safe and traced.safe
        assert_parity(untraced, traced)
        records = load_trace(path)
        root = [r for r in records if r["name"] == "check"][0]
        assert root["attrs"]["arch"] == "riscv"

    def test_riscv_unsafe_serial(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        buggy = RISCV_SUM.replace("blt t0,a1,5", "bge a1,t0,5")
        untraced = check_assembly(buggy, RISCV_SUM_SPEC, arch="riscv")
        traced = check_assembly(buggy, RISCV_SUM_SPEC, arch="riscv",
                                options=CheckerOptions(trace_path=path))
        assert not untraced.safe and not traced.safe
        assert_parity(untraced, traced)
        spans = [r for r in load_trace(path)
                 if r["name"] == "obligation"]
        assert any(s["attrs"]["proved"] is False for s in spans)


@pytest.mark.bench
class TestTracingParityFull:
    def test_full_figure9_sparc(self, tmp_path):
        from repro.programs import all_programs
        for program in all_programs():
            path = str(tmp_path / ("%s.jsonl" % program.name))
            untraced = program.check(CheckerOptions())
            traced = program.check(CheckerOptions(trace_path=path))
            assert_parity(untraced, traced)
            for record in load_trace(path, validate=False):
                validate_record(record)
