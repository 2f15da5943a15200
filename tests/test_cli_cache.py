"""The ``repro cache`` maintenance subcommand (direct main()
invocation; no subprocesses)."""

import json
import os

import pytest

from repro.cli import main
from repro.programs.sum_array import SOURCE, SPEC


@pytest.fixture()
def files(tmp_path):
    code = tmp_path / "sum.s"
    code.write_text(SOURCE)
    spec = tmp_path / "sum.policy"
    spec.write_text(SPEC)
    cache = tmp_path / "prover.sqlite"
    return code, spec, cache


def warm(code, spec, cache):
    assert main(["check", str(code), str(spec),
                 "--cache", str(cache)]) == 0


class TestStats:
    def test_missing_file_reports_and_creates_nothing(self, files,
                                                      capsys):
        __, __spec, cache = files
        assert main(["cache", "stats", "--cache", str(cache)]) == 0
        assert "(no database file)" in capsys.readouterr().out
        assert not os.path.exists(str(cache))

    def test_populated_cache(self, files, capsys):
        code, spec, cache = files
        warm(code, spec, cache)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "schema version: 4" in out
        assert "prover results:" not in out
        assert "replay rows:" in out
        assert "pipeline:" in out

    def test_json_stats(self, files, capsys):
        code, spec, cache = files
        warm(code, spec, cache)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache", str(cache),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exists"] is True
        assert payload["schema_version"] == 4
        assert "results" not in payload
        assert payload["units"] > 0
        assert payload["units_by_kind"]["pipeline"] == 1
        assert payload["size_bytes"] > 0

    def test_json_stats_missing_file(self, files, capsys):
        __, __spec, cache = files
        assert main(["cache", "stats", "--cache", str(cache),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exists"] is False
        assert payload["units"] == 0


class TestClear:
    def test_clear_drops_rows_keeps_file(self, files, capsys):
        code, spec, cache = files
        warm(code, spec, cache)
        capsys.readouterr()
        assert main(["cache", "clear", "--cache", str(cache)]) == 0
        assert "cleared" in capsys.readouterr().out
        assert os.path.exists(str(cache))
        assert main(["cache", "stats", "--cache", str(cache),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["units"] == 0


class TestGc:
    def test_gc_within_budget_is_a_no_op(self, files, capsys):
        code, spec, cache = files
        warm(code, spec, cache)
        capsys.readouterr()
        assert main(["cache", "gc", "--cache", str(cache),
                     "--max-mb", "64"]) == 0
        out = capsys.readouterr().out
        assert "dropped 0 rows" in out

    def test_gc_zero_budget_empties_the_store(self, files, capsys):
        code, spec, cache = files
        warm(code, spec, cache)
        capsys.readouterr()
        assert main(["cache", "gc", "--cache", str(cache),
                     "--max-mb", "0"]) == 0
        assert main(["cache", "stats", "--cache", str(cache),
                     "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        payload = json.loads("\n".join(
            lines[lines.index("{"):]))
        assert payload["units"] == 0


class TestForeignFile:
    """``--cache`` pointed at a file that is not a store: every command
    exits 2 naming the file, and the file's bytes are unchanged."""

    NOTES = b"line one of my notes\nline two\n"

    @pytest.mark.parametrize("command", [
        ["cache", "stats"], ["cache", "stats", "--json"],
        ["cache", "clear"], ["cache", "gc", "--max-mb", "0"], ["check"],
    ], ids=lambda c: " ".join(c))
    def test_foreign_file_exits_two_untouched(self, files, capsys,
                                              tmp_path, command):
        code, spec, __ = files
        notes = tmp_path / "notes.txt"
        notes.write_bytes(self.NOTES)
        argv = list(command)
        if command == ["check"]:
            argv += [str(code), str(spec)]
        assert main(argv + ["--cache", str(notes)]) == 2
        assert "notes.txt" in capsys.readouterr().err
        assert notes.read_bytes() == self.NOTES
        assert not os.path.exists(str(notes) + "-wal")

    def test_serve_refuses_before_listening(self, capsys, tmp_path,
                                            monkeypatch):
        import repro.service.server as server

        def no_server(*args, **kwargs):
            raise AssertionError("serve started despite a foreign --cache")

        monkeypatch.setattr(server, "CheckServer", no_server)
        notes = tmp_path / "notes.txt"
        notes.write_bytes(self.NOTES)
        assert main(["serve", "--port", "0", "--cache", str(notes)]) == 2
        assert "notes.txt" in capsys.readouterr().err
        assert notes.read_bytes() == self.NOTES
