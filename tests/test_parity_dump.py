"""``benchmarks/parity_check.py --dump FILE``: one verdict record per
check, for diffing two versions of the checker."""

import json
import os

import pytest

from benchmarks import parity_check
from repro.programs.sum_array import SOURCE, SPEC


def _cases(arch):
    name, source, spec = parity_check.RISCV_CASES[2]
    return [("sum", SOURCE, SPEC, "sparc"), (name, source, spec, "riscv")]


def test_dump_records_the_deterministic_payload(tmp_path, monkeypatch):
    monkeypatch.setattr(parity_check, "dump_cases", _cases)
    path = tmp_path / "dump.json"
    assert parity_check.main(["--dump", str(path)]) == 0
    records = json.loads(path.read_text())
    assert sorted(records) == ["riscv-write", "sum"]
    for record in records.values():
        assert record["verdict"] == "certified"
        assert not record["timed_out"]
        assert "times" not in record
        prover = record["prover"]
        assert prover["validity_queries"] > 0
        assert not any(isinstance(value, float)
                       for value in prover.values())


def test_a_second_dump_is_identical(tmp_path):
    cases = _cases("both")
    first = parity_check.write_dump(tmp_path / "a.json", cases)
    second = parity_check.write_dump(tmp_path / "b.json", cases)
    assert first == second
    assert (tmp_path / "a.json").read_text() \
        == (tmp_path / "b.json").read_text()


def test_a_timed_out_check_records_only_that(tmp_path):
    records = parity_check.write_dump(tmp_path / "dump.json",
                                      _cases("both")[:1], timeout_s=1e-9)
    assert records == {"sum": {"timed_out": True}}


def test_dump_covers_figure9_the_riscv_cases_and_fuzz_seeds():
    keys = [case[0] for case in parity_check.dump_cases("both")]
    assert len(keys) == len(set(keys)) == 13 + 4 + 60 * 2
    assert "md5" in keys and "riscv-sum-oob" in keys
    assert "fuzz-0/sparc" in keys and "fuzz-59/riscv" in keys
    sparc = parity_check.dump_cases("sparc")
    assert {case[3] for case in sparc} == {"sparc"}
    assert len(sparc) == 13 + 60


def test_nothing_to_compare_is_a_usage_error():
    with pytest.raises(SystemExit) as exit_info:
        parity_check.main([])
    assert exit_info.value.code == 2


class TestAgainstGolden:
    """``--dump FILE --against GOLDEN``: the verdict gate of a change
    that must only buy time."""

    def _golden(self, tmp_path, monkeypatch, edit=None):
        monkeypatch.setattr(parity_check, "dump_cases", _cases)
        records = parity_check.write_dump(tmp_path / "golden.json",
                                          _cases("both"))
        if edit is not None:
            edit(records)
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(records))
        return str(path)

    def _run(self, tmp_path, golden):
        return parity_check.main(["--dump", str(tmp_path / "now.json"),
                                  "--against", golden])

    def test_identical_records_pass(self, tmp_path, monkeypatch):
        assert self._run(tmp_path, self._golden(tmp_path, monkeypatch)) == 0

    def test_prover_counters_are_ignored(self, tmp_path, monkeypatch):
        def edit(records):
            records["sum"]["prover"]["conjunct_queries"] += 1000
        golden = self._golden(tmp_path, monkeypatch, edit)
        assert self._run(tmp_path, golden) == 0

    def test_a_changed_verdict_fails(self, tmp_path, monkeypatch, capsys):
        def edit(records):
            records["sum"]["safe"] = False
        golden = self._golden(tmp_path, monkeypatch, edit)
        assert self._run(tmp_path, golden) == 1
        assert "sum[verdict differs]" in capsys.readouterr().out

    def test_a_decided_check_that_times_out_fails(
            self, tmp_path, monkeypatch, capsys):
        golden = self._golden(tmp_path, monkeypatch)
        write_dump = parity_check.write_dump
        monkeypatch.setattr(
            parity_check, "write_dump",
            lambda path, cases: write_dump(path, cases, timeout_s=1e-9))
        assert self._run(tmp_path, golden) == 1
        out = capsys.readouterr().out
        assert "sum[timed out]" in out and "riscv-write[timed out]" in out

    def test_a_golden_timeout_that_now_decides_is_reported(
            self, tmp_path, monkeypatch, capsys):
        def edit(records):
            records["sum"] = {"timed_out": True}
        golden = self._golden(tmp_path, monkeypatch, edit)
        assert self._run(tmp_path, golden) == 0
        assert "decided (golden: timed out)" in capsys.readouterr().out

    def test_a_check_missing_from_the_golden_fails(
            self, tmp_path, monkeypatch):
        golden = self._golden(tmp_path, monkeypatch,
                              lambda records: records.pop("sum"))
        assert self._run(tmp_path, golden) == 1

    def test_against_needs_a_dump(self):
        with pytest.raises(SystemExit) as exit_info:
            parity_check.main(["--against", "golden.json", "--ablations"])
        assert exit_info.value.code == 2


def test_committed_golden_covers_every_dump_case():
    path = os.path.join(os.path.dirname(parity_check.__file__), "data",
                        "verdicts.json")
    with open(path, encoding="utf-8") as source:
        golden = json.load(source)
    assert sorted(golden) == sorted(
        case[0] for case in parity_check.dump_cases("both"))
