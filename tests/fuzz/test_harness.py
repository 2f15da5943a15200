"""Campaign harness: budgets, pool fan-out determinism, findings
files, and the injected-weakening self-test (the fuzzer must find and
reduce a real soundness violation when the checker is deliberately
weakened)."""

import json

import pytest

from repro.errors import FuzzError
from repro.fuzz.generator import instruction_count
from repro.fuzz.harness import (
    ERROR, CampaignConfig, examine_seed, load_findings,
    reduce_finding, render_summary, run_campaign,
)
from repro.fuzz.oracle import AGREE, SOUNDNESS

#: Honest-checker campaigns in this module reuse one small config.
QUICK = dict(budget_count=3, vectors=2, check_timeout_s=60.0)

#: The deliberate weakening: assume array-bounds obligations instead
#: of proving them (see CheckerOptions.unsound_assume_categories).
WEAKEN = {"unsound_assume_categories": ("array-bounds",)}


class TestConfig:
    def test_defaults_budget(self):
        config = CampaignConfig()
        assert config.budget_count == 50

    def test_explicit_time_budget_keeps_count_unbounded(self):
        config = CampaignConfig(budget_seconds=1.0)
        assert config.budget_count is None

    def test_unknown_arch_rejected(self):
        with pytest.raises(FuzzError):
            CampaignConfig(archs=("sparc", "vax"))
        with pytest.raises(FuzzError):
            CampaignConfig(archs=())

    @pytest.mark.parametrize("value", [0, -1, float("nan"), float("inf")])
    def test_invalid_check_timeout_rejected(self, value):
        with pytest.raises(FuzzError, match="check_timeout_s"):
            CampaignConfig(check_timeout_s=value)

    @pytest.mark.parametrize("value", [None, 1e-9, 60.0])
    def test_valid_check_timeout_kept(self, value):
        assert CampaignConfig(check_timeout_s=value).check_timeout_s \
            == value


class TestExamineSeed:
    def test_agreeing_seed(self):
        config = CampaignConfig(**QUICK)
        records = examine_seed(1, config)
        # One record per arch; no divergence record when archs agree.
        assert [r["arch"] for r in records] == ["sparc", "riscv"]
        assert all(r["class"] == AGREE for r in records)
        assert all("sketch" not in r for r in records)
        assert all(r["seed"] == 1 for r in records)

    def test_findings_carry_provenance(self):
        config = CampaignConfig(archs=("sparc",),
                                checker_overrides=WEAKEN, **QUICK)
        records = examine_seed(0, config)
        finding = records[0]
        assert finding["class"] == SOUNDNESS
        assert finding["sketch"]["seed"] == 0
        assert finding["vector_count"] == 2
        assert finding["instructions"] > 0
        assert finding["runtime_violations"]

    def test_crash_becomes_error_record(self):
        config = CampaignConfig(
            archs=("sparc",),
            checker_overrides={"no_such_option": 1}, **QUICK)
        records = examine_seed(0, config)
        assert records[0]["class"] == ERROR
        assert "traceback" in records[0]


class TestCampaign:
    def test_honest_campaign_all_agree(self, tmp_path):
        out = tmp_path / "findings.jsonl"
        config = CampaignConfig(findings_path=str(out), **QUICK)
        result = run_campaign(config)
        assert result.ok
        assert result.summary["seeds"] == 3
        assert result.summary["counts"] == {AGREE: 6}
        assert result.summary["failing"] == 0
        assert load_findings(str(out)) == []
        header = json.loads(out.read_text().splitlines()[0])
        assert header["type"] == "summary" and header["seeds"] == 3

    def test_pool_matches_serial(self, tmp_path):
        serial = tmp_path / "serial.jsonl"
        pooled = tmp_path / "pooled.jsonl"
        base = dict(archs=("sparc",), checker_overrides=WEAKEN,
                    budget_count=6, vectors=2, check_timeout_s=60.0,
                    chunk_size=2)
        run_campaign(CampaignConfig(jobs=1, findings_path=str(serial),
                                    **base))
        result = run_campaign(CampaignConfig(
            jobs=2, findings_path=str(pooled), **base))
        if result.summary["pool_fallback"]:
            pytest.skip("process pool unavailable here")
        assert load_findings(str(serial)) == load_findings(str(pooled))

    def test_zero_time_budget_examines_nothing(self):
        config = CampaignConfig(budget_seconds=0.0)
        result = run_campaign(config)
        assert result.summary["seeds"] == 0

    def test_seed_start_shifts_the_stream(self):
        config = CampaignConfig(seed_start=2, **QUICK)
        result = run_campaign(config)
        assert result.summary["seeds"] == 3
        assert result.summary["seed_start"] == 2

    def test_trace_written_and_valid(self, tmp_path):
        from repro.trace import load_trace
        trace = tmp_path / "fuzz.jsonl"
        config = CampaignConfig(archs=("sparc",),
                                checker_overrides=WEAKEN,
                                trace_path=str(trace), **QUICK)
        result = run_campaign(config)
        assert not result.ok
        records = load_trace(str(trace))
        names = [r["name"] for r in records]
        assert "fuzz:campaign" in names
        assert "fuzz:finding" in names

    def test_render_summary_readable(self):
        result = run_campaign(CampaignConfig(**QUICK))
        text = render_summary(result.summary)
        assert "3 seeds" in text
        assert "OK" in text


class TestSelfTest:
    """ISSUE acceptance: with the checker deliberately weakened, the
    fuzzer finds the soundness violation and reduces it to a tiny
    reproducer."""

    def test_weakened_checker_caught_and_reduced(self):
        config = CampaignConfig(archs=("sparc",),
                                checker_overrides=WEAKEN,
                                budget_count=6, vectors=2,
                                check_timeout_s=60.0)
        result = run_campaign(config)
        assert not result.ok
        soundness = [f for f in result.findings
                     if f["class"] == SOUNDNESS]
        assert soundness, "weakened checker must yield soundness bugs"
        reduced = reduce_finding(soundness[0], config)
        assert instruction_count(reduced, "sparc") <= 8
        # The reproducer still witnesses the soundness bug...
        from repro.fuzz.harness import finding_predicate
        assert finding_predicate(soundness[0], config)(reduced)
        # ...and the honest checker correctly rejects it.
        honest = CampaignConfig(archs=("sparc",), budget_count=1,
                                check_timeout_s=60.0)
        assert not finding_predicate(soundness[0], honest)(reduced)

    def test_non_reproducing_finding_rejected(self):
        config = CampaignConfig(archs=("sparc",),
                                checker_overrides=WEAKEN, **QUICK)
        finding = [r for r in examine_seed(0, config)
                   if r["class"] == SOUNDNESS][0]
        honest = CampaignConfig(archs=("sparc",), **QUICK)
        with pytest.raises(FuzzError):
            reduce_finding(finding, honest)
