"""``CheckerOptions``: environment defaults, the constructor-only
``jobs`` argument and the ``timeout_s`` budget rule."""

import dataclasses
import pickle

import pytest

from repro.analysis.options import CheckerOptions, valid_timeout


class TestEnvDefaults:
    def test_repro_cache_env_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "/tmp/somewhere.sqlite")
        assert CheckerOptions().cache_path == "/tmp/somewhere.sqlite"
        monkeypatch.delenv("REPRO_CACHE")
        assert CheckerOptions().cache_path is None


class TestJobs:
    def test_jobs_1_constructs(self):
        options = CheckerOptions(jobs=1, cache_path="c.sqlite")
        assert options == CheckerOptions(cache_path="c.sqlite")

    @pytest.mark.parametrize("jobs", [0, 2, 4])
    def test_other_jobs_values_raise(self, jobs):
        with pytest.raises(ValueError, match="one process"):
            CheckerOptions(jobs=jobs)

    def test_jobs_is_not_a_field(self):
        options = CheckerOptions(jobs=1, timeout_s=5.0)
        assert "jobs" not in {f.name for f in dataclasses.fields(options)}
        assert dataclasses.replace(options, timeout_s=1.0).timeout_s == 1.0
        assert pickle.loads(pickle.dumps(options)) == options


class TestTimeoutRule:
    @pytest.mark.parametrize("value", [1e-9, 0.5, 2, 600.0])
    def test_finite_positive_budgets_are_valid(self, value):
        assert valid_timeout(value)

    @pytest.mark.parametrize("value", [
        0, -1, 0.0, float("nan"), float("inf"), float("-inf"), 10 ** 400,
        True, None, "5"])
    def test_everything_else_is_invalid(self, value):
        assert not valid_timeout(value)


class TestTimeoutOption:
    """The library API applies the same budget rule as the CLI and the
    server: a NaN budget would never expire and a zero one would give
    up before checking anything."""

    @pytest.mark.parametrize("value", [0, -1, float("nan"), float("inf")])
    def test_invalid_budget_raises(self, value):
        with pytest.raises(ValueError, match="timeout_s"):
            CheckerOptions(timeout_s=value)

    @pytest.mark.parametrize("value", [None, 1e-9, 5])
    def test_valid_budget_constructs(self, value):
        assert CheckerOptions(timeout_s=value).timeout_s == value

    def test_replace_applies_the_rule(self):
        with pytest.raises(ValueError, match="timeout_s"):
            dataclasses.replace(CheckerOptions(), timeout_s=float("nan"))
