"""``repro fuzz run | reduce | replay`` end to end through the CLI."""

import json

import pytest

from repro.cli import main


class TestFuzzRun:
    def test_honest_run_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "findings.jsonl"
        code = main(["fuzz", "run", "--arch", "sparc", "--count", "2",
                     "--vectors", "2", "--quiet", "--out", str(out),
                     "--check-timeout", "60"])
        assert code == 0
        assert "OK (no failing findings)" in capsys.readouterr().out
        assert out.exists()

    def test_weakened_run_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "findings.jsonl"
        code = main(["fuzz", "run", "--arch", "sparc", "--count", "3",
                     "--vectors", "2", "--quiet", "--out", str(out),
                     "--check-timeout", "60",
                     "--unsound-assume", "array-bounds"])
        assert code == 1
        stdout = capsys.readouterr().out
        assert "FAIL" in stdout and "SOUNDNESS" in stdout

    def test_both_arches_with_jobs(self, tmp_path, capsys):
        out = tmp_path / "findings.jsonl"
        code = main(["fuzz", "run", "--arch", "sparc", "--arch",
                     "riscv", "--jobs", "2", "--count", "2",
                     "--vectors", "2", "--quiet", "--out", str(out),
                     "--check-timeout", "60"])
        assert code == 0
        assert "sparc+riscv" in capsys.readouterr().out


class TestFuzzReduceAndReplay:
    def test_reduce_writes_corpus_entry_and_replay_passes(
            self, tmp_path, capsys):
        findings = tmp_path / "findings.jsonl"
        corpus = tmp_path / "entry.json"
        assert main(["fuzz", "run", "--arch", "sparc", "--count", "1",
                     "--vectors", "2", "--quiet",
                     "--out", str(findings), "--check-timeout", "60",
                     "--unsound-assume", "array-bounds"]) == 1
        assert main(["fuzz", "reduce", str(findings),
                     "--unsound-assume", "array-bounds",
                     "--check-timeout", "60", "--name", "cli-test",
                     "--out", str(corpus)]) == 0
        stdout = capsys.readouterr().out
        assert "reduced seed 0" in stdout
        entry = json.loads(corpus.read_text())
        assert entry["name"] == "cli-test"
        assert entry["expected"]  # honest classes re-recorded
        assert main(["fuzz", "replay", str(corpus),
                     "--check-timeout", "60"]) == 0
        assert "0 failures" in capsys.readouterr().out

    def test_reduce_without_reducible_finding(self, tmp_path):
        findings = tmp_path / "findings.jsonl"
        assert main(["fuzz", "run", "--arch", "sparc", "--count", "1",
                     "--vectors", "2", "--quiet",
                     "--out", str(findings),
                     "--check-timeout", "60"]) == 0
        assert main(["fuzz", "reduce", str(findings)]) == 2

    def test_replay_flags_stale_expectations(self, tmp_path, capsys):
        entry = {
            "name": "stale", "description": "expected class is wrong",
            "sketch": {"seed": 1, "array_size": 4,
                       "array_writable": False,
                       "statements": [["load", "t0", 9]]},
            "vector_seed": 1, "vector_count": 2,
            "expected": {"sparc": "soundness"},
            "expect_parity": False,
        }
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(entry))
        assert main(["fuzz", "replay", str(path),
                     "--check-timeout", "60"]) == 1
        assert "FAIL" in capsys.readouterr().out


_SKETCH = {"seed": 1, "array_size": 4, "array_writable": False,
           "statements": [["load", "t0", 9]]}
_ENTRY = {"name": "x", "sketch": _SKETCH, "vector_seed": 1,
          "vector_count": 2, "expected": ["sparc"]}


@pytest.mark.parametrize("command, name, text, message", [
    ("replay", "entry.json", '{"name": "x",\n "sketch": oops}\n',
     "entry.json:2: not valid JSON"),
    ("replay", "entry.json", json.dumps(_ENTRY),
     "entry.json: malformed corpus entry 'x': \"expected\" must map"),
    ("replay", "entry.json",
     json.dumps(dict(_ENTRY, expected={"mips": "agree"})),
     "entry.json: malformed corpus entry 'x'"),
    ("reduce", "findings.jsonl",
     '{"type": "summary"}\n{"type": "finding", "class": "soundness"}\n',
     'findings.jsonl:2: finding record has no integer "seed"'),
    ("reduce", "findings.jsonl", '{"type": "finding", "seed": 3}\n',
     'findings.jsonl:1: finding record has no string "class"'),
    ("reduce", "findings.jsonl",
     '{"type": "finding", "seed": 3, "class": "x", "arch": 1}\n',
     'findings.jsonl:1: finding record\'s "arch" is not a string'),
    ("reduce", "findings.jsonl",
     json.dumps({"type": "finding", "seed": 3, "class": "soundness",
                 "sketch": _SKETCH}) + "\n",
     "finding for seed 3 names no architecture"),
    ("replay", "entry.json", "[1]\n",
     "entry.json:1: corpus entry is not a JSON object"),
    ("reduce", "findings.jsonl", '{"type": "summary"}\nnot json\n',
     "findings.jsonl:2: not valid JSON"),
    ("reduce", "findings.jsonl", '{"type": "summary"}\n[1]\n',
     "findings.jsonl:2: findings record is not a JSON object"),
])
def test_malformed_fuzz_file_is_a_clean_error(tmp_path, capsys, command,
                                              name, text, message):
    path = tmp_path / name
    path.write_text(text)
    assert main(["fuzz", command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command, name", [
    ("replay", "entry.json"), ("reduce", "findings.jsonl")])
def test_non_utf8_fuzz_file_is_a_clean_error(tmp_path, capsys, command,
                                             name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe{}")
    assert main(["fuzz", command, str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: %s: not UTF-8 text\n" % path
