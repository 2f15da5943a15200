"""CLI tests (direct main() invocation; no subprocesses)."""

import argparse
import json
import re

import pytest

from repro import cli
from repro.cli import main
from repro.programs.sum_array import SOURCE, SPEC


@pytest.fixture()
def files(tmp_path):
    code = tmp_path / "sum.s"
    code.write_text(SOURCE)
    spec = tmp_path / "sum.policy"
    spec.write_text(SPEC)
    return code, spec, tmp_path


class TestCheck:
    def test_safe_program_exits_zero(self, files, capsys):
        code, spec, __ = files
        assert main(["check", str(code), str(spec)]) == 0
        out = capsys.readouterr().out
        assert "SAFE" in out

    def test_unsafe_program_exits_one(self, files, capsys):
        code, spec, tmp = files
        buggy = tmp / "buggy.s"
        buggy.write_text(SOURCE.replace("bl 6", "ble 6"))
        assert main(["check", str(buggy), str(spec)]) == 1
        assert "VIOLATION" in capsys.readouterr().out

    @pytest.mark.parametrize("which", ["code", "spec"])
    def test_non_utf8_input_is_a_clean_error(self, files, capsys, which):
        code, spec, tmp = files
        bad = tmp / "bad.txt"
        bad.write_bytes(b"\xff\xfe" + SOURCE.encode())
        argv = [str(bad), str(spec)] if which == "code" \
            else [str(code), str(bad)]
        assert main(["check"] + argv) == 2
        assert capsys.readouterr().err == \
            "error: %s: not UTF-8 text\n" % bad

    def test_json_output(self, files, capsys):
        code, spec, __ = files
        assert main(["check", str(code), str(spec), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["safe"] is True
        assert payload["verdict"] == "certified"
        assert payload["arch"] == "sparc"
        assert payload["instructions"] == 13
        assert payload["violations"] == []
        from repro import __version__
        assert payload["version"] == __version__

    def test_verbose_lists_proofs(self, files, capsys):
        code, spec, __ = files
        assert main(["check", str(code), str(spec), "--verbose"]) == 0
        assert "PROVED" in capsys.readouterr().out

    def test_bad_spec_exits_two(self, files, capsys):
        code, __, tmp = files
        bad = tmp / "bad.policy"
        bad.write_text("frobnicate")
        assert main(["check", str(code), str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_keyword_without_argument_exits_two(self, files, capsys):
        code, __, tmp = files
        bad = tmp / "bad.policy"
        bad.write_text("assume\n")
        assert main(["check", str(code), str(bad)]) == 2
        assert "error: 'assume' needs an argument" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("clause, message", [
        ("n mod>= 1", "expected a number, got '>='"),
        ("n mod 4 == -1", "expected a number, got '-'"),
        ("n mod 0 == 0", "congruence modulus must be >= 2, got 0"),
    ])
    def test_bad_mod_clause_exits_two(self, files, capsys, clause,
                                      message):
        code, spec, tmp = files
        bad = tmp / "bad.policy"
        bad.write_text(spec.read_text() + "\nassume %s\n" % clause)
        assert main(["check", str(code), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s" % message)
        assert "Traceback" not in err

    def test_missing_file_exits_two(self, files, capsys):
        __, spec, __tmp = files
        assert main(["check", "/nonexistent.s", str(spec)]) == 2

    def test_malformed_assembly_exits_two(self, files, capsys):
        __, spec, tmp = files
        garbage = tmp / "garbage.s"
        garbage.write_text("1: this is not sparc\n")
        assert main(["check", str(garbage), str(spec)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_arch_exits_two(self, files, capsys):
        code, spec, __ = files
        with pytest.raises(SystemExit) as exc:
            main(["check", str(code), str(spec), "--arch", "m68k"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--no-slicing", "--no-incremental",
                                      "--no-unit-cache"])
    def test_prover_feature_flags_are_gone(self, files, capsys, flag):
        code, spec, __ = files
        with pytest.raises(SystemExit) as exc:
            main(["check", str(code), str(spec), flag])
        assert exc.value.code == 2
        assert "unrecognized arguments: %s" % flag \
            in capsys.readouterr().err

    def test_unreadable_binary_exits_two(self, files, capsys):
        __, spec, tmp = files
        # Word count not a multiple of 4: undecodable as machine code.
        bad = tmp / "bad.bin"
        bad.write_bytes(b"\xff\xff\xff")
        assert main(["check", str(bad), str(spec), "--binary"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_directory_as_code_exits_two(self, files, capsys):
        __, spec, tmp = files
        assert main(["check", str(tmp), str(spec)]) == 2
        assert "error:" in capsys.readouterr().err


class TestBinaryPipeline:
    def test_asm_disasm_check_roundtrip(self, files, capsys):
        code, spec, tmp = files
        binary = tmp / "sum.bin"
        assert main(["asm", str(code), "-o", str(binary)]) == 0
        assert binary.stat().st_size == 13 * 4
        capsys.readouterr()

        assert main(["disasm", str(binary)]) == 0
        listing = capsys.readouterr().out
        assert "ld [%o2+%g2], %g2" in listing

        # Checking the *binary* gives the same verdict.
        assert main(["check", str(binary), str(spec), "--binary"]) == 0


class TestCfgAndRun:
    def test_cfg_dot(self, files, capsys):
        code, __, __tmp = files
        assert main(["cfg", str(code), "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_run_with_registers_and_memory(self, files, capsys):
        code, __, __tmp = files
        rc = main(["run", str(code),
                   "--reg", "%o0=0x20000", "--reg", "%o1=3",
                   "--mem", "0x20000=10", "--mem", "0x20004=20",
                   "--mem", "0x20008=12"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "%o0=0x2a" in out  # 10+20+12 = 42


def _argv(files, argv):
    code, spec, __ = files
    return [{"CODE": str(code), "SPEC": str(spec)}.get(a, a)
            for a in argv]


@pytest.mark.parametrize("argv", [
    ["check", "CODE", "SPEC", "--jobs", "2"],
    ["check", "CODE", "SPEC", "--trace-formulas"],
    ["serve", "--jobs", "2"],
    ["submit", "CODE", "SPEC", "--jobs", "2"],
], ids=["check-jobs", "check-trace-formulas", "serve-jobs", "submit-jobs"])
def test_removed_flags_are_usage_errors(files, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(_argv(files, argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["bench"], ["bench", "--service"]],
                         ids=["bench", "bench-service"])
def test_removed_commands_are_usage_errors(capsys, argv):
    """perfbench is the one benchmark; there is no ``repro bench``."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_usage_text_names_every_command():
    """The module docstring's ``repro <command>`` lines and the
    parser's subcommands name the same commands, so a deleted command
    cannot linger in the usage text."""
    documented = set(re.findall(r"^\s*repro (\w+)", cli.__doc__, re.M))
    sub, = [action for action in cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)]
    assert documented == set(sub.choices)


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["check", "CODE", "SPEC", "--timeout"],
    ["submit", "CODE", "SPEC", "--timeout"],
    ["serve", "--timeout"],
    ["fuzz", "run", "--check-timeout"],
    ["fuzz", "reduce", "CODE", "--check-timeout"],
    ["fuzz", "replay", "CODE", "--check-timeout"],
], ids=["check", "submit", "serve", "fuzz-run", "fuzz-reduce",
        "fuzz-replay"])
def test_budget_must_be_finite_and_positive(files, capsys, argv, value):
    """Every wall-clock budget flag takes a finite number of seconds
    > 0; anything else is a usage error, never a run without a limit
    or an instant timeout."""
    argv = _argv(files, argv)
    argv[-1] += "=" + value
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not a finite number of seconds > 0" \
        in capsys.readouterr().err
