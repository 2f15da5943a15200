"""CLI surface of the tracing layer: ``check --trace``, the
``REPRO_TRACE`` environment variable, and the ``trace`` subcommands
(``summarize --hotspots`` included)."""

import json

import pytest

from repro.cli import main
from repro.programs.sum_array import SOURCE, SPEC
from repro.trace import load_trace


@pytest.fixture()
def files(tmp_path):
    code = tmp_path / "sum.s"
    code.write_text(SOURCE)
    spec = tmp_path / "sum.policy"
    spec.write_text(SPEC)
    return code, spec, tmp_path


@pytest.fixture()
def trace_file(files, capsys):
    code, spec, tmp = files
    trace = tmp / "trace.jsonl"
    assert main(["check", str(code), str(spec),
                 "--trace", str(trace)]) == 0
    capsys.readouterr()  # discard check output
    return trace


class TestCheckTrace:
    def test_check_with_trace_flag(self, files, capsys):
        code, spec, tmp = files
        trace = tmp / "trace.jsonl"
        assert main(["check", str(code), str(spec),
                     "--trace", str(trace)]) == 0
        assert "SAFE" in capsys.readouterr().out
        records = load_trace(str(trace))
        assert any(r["name"] == "check" for r in records)

    def test_trace_does_not_perturb_json_verdict(self, files, capsys):
        code, spec, tmp = files
        assert main(["check", str(code), str(spec), "--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(["check", str(code), str(spec), "--json",
                     "--trace", str(tmp / "t.jsonl")]) == 0
        traced = json.loads(capsys.readouterr().out)
        from repro.analysis.report import verdict_projection
        assert verdict_projection(plain) == verdict_projection(traced)

    def test_repro_trace_env(self, files, monkeypatch, capsys):
        code, spec, tmp = files
        trace = tmp / "env.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(trace))
        assert main(["check", str(code), str(spec)]) == 0
        assert trace.exists()
        assert load_trace(str(trace))


class TestTraceSubcommands:
    def test_validate_ok(self, trace_file, capsys):
        assert main(["trace", "validate", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "schema valid" in out

    def test_validate_rejects_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not": "a trace record"}\n')
        assert main(["trace", "validate", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_summarize_text(self, trace_file, capsys):
        assert main(["trace", "summarize", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "certified" in out
        assert "global_verification" in out

    def test_summarize_json(self, trace_file, capsys):
        assert main(["trace", "summarize", str(trace_file),
                     "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["check"]["verdict"] == "certified"
        assert summary["obligations"]["total"] > 0
        assert summary["queries"]["total"] > 0

    @pytest.mark.parametrize("command", ["validate", "summarize"])
    def test_non_utf8_file_is_a_clean_error(self, tmp_path, capsys,
                                            command):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\xfe{}\n")
        assert main(["trace", command, str(bad)]) == 2
        assert capsys.readouterr().err == \
            "error: %s: not UTF-8 text\n" % bad

    def test_summarize_missing_file_exits_two(self, capsys):
        assert main(["trace", "summarize", "/nonexistent.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err


class TestHotspots:
    def test_summarize_hotspots(self, trace_file, capsys):
        assert main(["trace", "summarize", str(trace_file),
                     "--hotspots"]) == 0
        out = capsys.readouterr().out
        assert "hot queries" in out
        assert "hot obligation sites" in out

    def test_summarize_hotspots_json(self, trace_file, capsys):
        assert main(["trace", "summarize", str(trace_file), "--hotspots",
                     "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        hotspots = summary["hotspots"]
        assert hotspots["queries_by_digest"]
        assert hotspots["obligations_by_site"]
        total = sum(entry["count"]
                    for entry in hotspots["queries_by_digest"])
        assert total <= summary["queries"]["total"]

    def test_summarize_without_flag_omits_hotspots(self, trace_file,
                                                   capsys):
        assert main(["trace", "summarize", str(trace_file), "--json"]) == 0
        assert "hotspots" not in json.loads(capsys.readouterr().out)
