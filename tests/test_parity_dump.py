"""``benchmarks/parity_check.py --dump FILE``: one verdict record per
check, for diffing two versions of the checker."""

import json

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
