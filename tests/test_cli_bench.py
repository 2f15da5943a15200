"""CLI surface of the benchmark layer: bare ``bench`` and ``trace
summarize --hotspots``."""

import json

import pytest

from repro.cli import main
from repro.programs.sum_array import SOURCE, SPEC


@pytest.fixture()
def files(tmp_path):
    code = tmp_path / "sum.s"
    code.write_text(SOURCE)
    spec = tmp_path / "sum.policy"
    spec.write_text(SPEC)
    return code, spec, tmp_path


@pytest.fixture()
def trace(files):
    code, spec, tmp = files
    trace = tmp / "trace.jsonl"
    assert main(["check", str(code), str(spec),
                 "--trace", str(trace)]) == 0
    return trace


def test_bench_without_a_mode_points_at_perfbench(capsys):
    assert main(["bench"]) == 2
    assert "perfbench/run.py" in capsys.readouterr().err


class TestHotspots:
    def test_summarize_hotspots(self, trace, capsys):
        assert main(["trace", "summarize", str(trace),
                     "--hotspots"]) == 0
        out = capsys.readouterr().out
        assert "hot queries" in out
        assert "hot obligation sites" in out

    def test_summarize_hotspots_json(self, trace, capsys):
        assert main(["trace", "summarize", str(trace), "--hotspots",
                     "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        hotspots = summary["hotspots"]
        assert hotspots["queries_by_digest"]
        assert hotspots["obligations_by_site"]
        total = sum(entry["count"]
                    for entry in hotspots["queries_by_digest"])
        assert total <= summary["queries"]["total"]

    def test_summarize_without_flag_omits_hotspots(self, trace,
                                                   capsys):
        assert main(["trace", "summarize", str(trace), "--json"]) == 0
        assert "hotspots" not in json.loads(capsys.readouterr().out)
