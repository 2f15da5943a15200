"""The per-check wall-clock timeout (``CheckerOptions.timeout_s``):
the distinct undecided verdict, clean abort, deadline hygiene on warm
provers, and the CLI exit-code mapping."""

import pytest

from repro.analysis.checker import SafetyChecker
from repro.analysis.options import CheckerOptions
from repro.cli import main
from repro.logic.prover import Prover
from repro.programs.sum_array import PROGRAM, SOURCE, SPEC

TINY = 1e-9


class TestTimeoutVerdict:
    def test_tiny_budget_times_out(self):
        result = PROGRAM.check(CheckerOptions(timeout_s=TINY))
        assert result.timed_out
        assert result.verdict == "undecided:timeout"
        assert not result.safe
        assert result.violations == []  # aborted, not rejected

    def test_ample_budget_is_a_no_op(self):
        result = PROGRAM.check(CheckerOptions(timeout_s=600.0))
        assert not result.timed_out
        assert result.verdict == "certified"

    def test_no_budget_by_default(self):
        assert CheckerOptions().timeout_s is None
        assert not PROGRAM.check().timed_out

    def test_summary_and_json_mark_the_timeout(self):
        from repro.analysis.report import result_to_json
        result = PROGRAM.check(CheckerOptions(timeout_s=TINY))
        assert "UNDECIDED (timeout)" in result.summary()
        payload = result_to_json(result)
        assert payload["verdict"] == "undecided:timeout"
        assert payload["timed_out"] is True


class TestDeadlineHygiene:
    def test_warm_prover_sheds_the_deadline(self):
        # A service worker reuses one prover across jobs: a finished
        # (even timed-out) check must not leave its budget behind.
        prover = Prover()
        checker = SafetyChecker(PROGRAM.program(), PROGRAM.spec(),
                                options=CheckerOptions(timeout_s=TINY),
                                prover=prover)
        assert checker.check().timed_out
        assert prover.deadline is None
        fresh = SafetyChecker(PROGRAM.program(), PROGRAM.spec(),
                              prover=prover)
        assert fresh.check().verdict == "certified"

    def test_timeout_error_is_not_a_resource_fallback(self):
        # ProverTimeout must abort the check, not be swallowed by the
        # conservative ProverError fallback in is_satisfiable.
        from repro.errors import ProverError, ProverTimeout
        assert not issubclass(ProverTimeout, ProverError)


class TestCliTimeout:
    @pytest.fixture()
    def files(self, tmp_path):
        code = tmp_path / "sum.s"
        code.write_text(SOURCE)
        spec = tmp_path / "sum.policy"
        spec.write_text(SPEC)
        return code, spec

    def test_exit_code_three_on_timeout(self, files, capsys):
        code, spec = files
        rc = main(["check", str(code), str(spec),
                   "--timeout", "0.000000001"])
        assert rc == 3
        assert "UNDECIDED (timeout)" in capsys.readouterr().out

    def test_generous_timeout_still_certifies(self, files, capsys):
        code, spec = files
        assert main(["check", str(code), str(spec),
                     "--timeout", "600"]) == 0
        assert "SAFE" in capsys.readouterr().out
