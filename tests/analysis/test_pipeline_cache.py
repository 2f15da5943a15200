"""Phase 2–4 replay (the full-pipeline incremental layer): a warm
unchanged re-check must reconstruct the propagation fixpoint, the
annotations, the local verdicts, and the loop-header forward facts from
the replay store — byte-identical to a cache-free run — and the one
``kind='pipeline'`` payload per program must invalidate on exactly the
inputs that can change it (body, CFG structure, program layout, spec,
verdict-affecting options) and on nothing else.
"""

import json
import os
import sqlite3
import subprocess
import sys

from repro.analysis.checker import check_assembly
from repro.analysis.options import CheckerOptions
from repro.analysis.report import result_to_json, verdict_projection
from repro.programs.incremental import (
    INCREMENTAL_EDITED_SOURCE, INCREMENTAL_SOURCE, INCREMENTAL_SPEC,
)

RISCV_SPEC_RW = """
loc e   : int    = initialized  perms rwo  region V summary
loc arr : int[n] = {e}          perms rwfo region V
rule [V : int : rwo]
rule [V : int[n] : rwfo]
invoke a0 = arr
assume n = 10
"""


def _check(source, options):
    return check_assembly(source, INCREMENTAL_SPEC,
                          name="incremental", options=options)


def _fingerprint(result):
    return (result.safe,
            tuple((p.uid, p.index, p.proved) for p in result.proofs),
            tuple((v.index, v.category, v.description, v.phase)
                  for v in result.violations))


def _json_bytes(result):
    return json.dumps(verdict_projection(result_to_json(result)),
                      sort_keys=True)


def _pipeline_stats(result):
    return {key: value
            for key, value in result.prover_stats.items()
            if key.startswith("unit_pipeline")}


def cache_at(tmp_path):
    return os.path.join(str(tmp_path), "units.sqlite")


def _reordered_source():
    """INCREMENTAL_SOURCE with the (call-independent) ``fthree`` block
    moved ahead of ``ftwo``: every per-function body is unchanged, only
    the program layout differs."""
    head, _, tail = INCREMENTAL_SOURCE.partition("ftwo:")
    two_block, _, three_block = tail.partition("fthree:")
    return (head + "fthree:" + three_block.rstrip() + "\n\nftwo:"
            + two_block)


class TestReplay:
    def test_warm_recheck_replays_every_function(self, tmp_path):
        cache = cache_at(tmp_path)
        cold = _check(INCREMENTAL_SOURCE,
                      CheckerOptions(cache_path=cache))
        warm = _check(INCREMENTAL_SOURCE,
                      CheckerOptions(cache_path=cache))
        assert _pipeline_stats(cold) == {
            "unit_pipeline_lookups": 1, "unit_pipeline_hits": 0,
            "unit_pipeline_misses": 1,
            "unit_pipeline_replayed_functions": 0,
            "unit_pipeline_stores": 1}
        assert _pipeline_stats(warm) == {
            "unit_pipeline_lookups": 1, "unit_pipeline_hits": 1,
            "unit_pipeline_misses": 0,
            "unit_pipeline_replayed_functions": 4,
            "unit_pipeline_stores": 0}
        # Phases 2–4 were replayed, so phase 5 also hits every unit:
        # the whole re-check was digests plus store lookups.
        assert warm.prover_stats["unit_hits"] \
            == warm.prover_stats["unit_lookups"] > 0
        assert warm.times.annotation_and_local == 0.0

    def test_json_identical_across_cache_states(self, tmp_path):
        cache = cache_at(tmp_path)
        reference = _check(INCREMENTAL_SOURCE, CheckerOptions())
        cold = _check(INCREMENTAL_SOURCE,
                      CheckerOptions(cache_path=cache))
        warm = _check(INCREMENTAL_SOURCE,
                      CheckerOptions(cache_path=cache))
        assert _pipeline_stats(reference) == {}
        assert _pipeline_stats(warm)["unit_pipeline_hits"] == 1
        want = _json_bytes(reference)
        assert want == _json_bytes(cold) == _json_bytes(warm)

    def test_local_violations_replay_in_order(self, tmp_path):
        """A rejected program's local (phase 2–4) violations must come
        back from the store with identical content *and order*."""
        source = "1: sw zero,0(a0)\n2: sw zero,44(a0)\n3: ret\n"
        options = lambda: CheckerOptions(  # noqa: E731
            cache_path=cache_at(tmp_path))
        reference = check_assembly(source, RISCV_SPEC_RW, name="oob",
                                   arch="riscv",
                                   options=CheckerOptions())
        assert not reference.safe
        cold = check_assembly(source, RISCV_SPEC_RW, name="oob",
                              arch="riscv", options=options())
        warm = check_assembly(source, RISCV_SPEC_RW, name="oob",
                              arch="riscv", options=options())
        assert _pipeline_stats(warm)["unit_pipeline_hits"] == 1
        assert [str(v) for v in warm.violations] \
            == [str(v) for v in cold.violations] \
            == [str(v) for v in reference.violations]
        assert _json_bytes(reference) == _json_bytes(cold) \
            == _json_bytes(warm)

    def test_replay_emits_a_span(self, tmp_path):
        from repro.trace.schema import load_trace, validate_records
        cache = cache_at(tmp_path)
        _check(INCREMENTAL_SOURCE,
               CheckerOptions(cache_path=cache))
        trace = os.path.join(str(tmp_path), "warm.jsonl")
        warm = _check(INCREMENTAL_SOURCE,
                      CheckerOptions(cache_path=cache,
                                     trace_path=trace))
        assert _pipeline_stats(warm)["unit_pipeline_hits"] == 1
        records = load_trace(trace)
        validate_records(records)
        names = [r["name"] for r in records if r.get("type") == "span"]
        assert "phase:replayed" in names
        # The replaced phases do not run, so their spans must be gone.
        assert "phase:typestate_propagation" not in names
        assert "phase:annotation" not in names
        assert "phase:local_verification" not in names
        span = next(r for r in records
                    if r.get("type") == "span"
                    and r["name"] == "phase:replayed")
        assert span["attrs"]["functions"] == 4
        assert span["attrs"]["nodes"] > 0


class TestInvalidation:
    def test_body_edit_misses(self, tmp_path):
        cache = cache_at(tmp_path)
        _check(INCREMENTAL_SOURCE,
               CheckerOptions(cache_path=cache))
        edited = _check(INCREMENTAL_EDITED_SOURCE,
                        CheckerOptions(cache_path=cache))
        stats = _pipeline_stats(edited)
        assert stats["unit_pipeline_hits"] == 0
        assert stats["unit_pipeline_misses"] == 1
        # ... and the miss stores the payload under the new key.
        assert stats["unit_pipeline_stores"] == 1
        rewarm = _check(INCREMENTAL_EDITED_SOURCE,
                        CheckerOptions(cache_path=cache))
        assert _pipeline_stats(rewarm)["unit_pipeline_hits"] == 1

    def test_spec_change_misses(self, tmp_path):
        cache = cache_at(tmp_path)
        _check(INCREMENTAL_SOURCE,
               CheckerOptions(cache_path=cache))
        changed_spec = INCREMENTAL_SPEC + \
            "loc pad : int = initialized perms ro region V summary\n"
        result = check_assembly(
            INCREMENTAL_SOURCE, changed_spec, name="incremental",
            options=CheckerOptions(cache_path=cache))
        assert _pipeline_stats(result)["unit_pipeline_hits"] == 0

    def test_verdict_affecting_option_misses(self, tmp_path):
        cache = cache_at(tmp_path)
        _check(INCREMENTAL_SOURCE,
               CheckerOptions(cache_path=cache))
        result = _check(
            INCREMENTAL_SOURCE,
            CheckerOptions(cache_path=cache,
                           max_propagation_steps=50000))
        assert _pipeline_stats(result)["unit_pipeline_hits"] == 0

    def test_performance_option_still_hits(self, tmp_path):
        cache = cache_at(tmp_path)
        _check(INCREMENTAL_SOURCE,
               CheckerOptions(cache_path=cache))
        result = _check(
            INCREMENTAL_SOURCE,
            CheckerOptions(cache_path=cache,
                           enable_prover_cache=False))
        assert _pipeline_stats(result)["unit_pipeline_hits"] == 1

    def test_function_reorder_misses_but_matches(self, tmp_path):
        """Swapping two function blocks keeps every per-function body
        (and hence structure digest) identical while reassigning uids
        and indices — exactly the hazard the layout digest pins.  The
        reordered program must not replay the original's uid-keyed
        payloads, and its verdicts must match a cache-free check."""
        cache = cache_at(tmp_path)
        reordered = _reordered_source()
        assert reordered != INCREMENTAL_SOURCE
        _check(INCREMENTAL_SOURCE,
               CheckerOptions(cache_path=cache))
        reference = _check(reordered, CheckerOptions())
        warm = _check(reordered,
                      CheckerOptions(cache_path=cache))
        assert _pipeline_stats(warm)["unit_pipeline_hits"] == 0
        assert _json_bytes(reference) == _json_bytes(warm)
        assert warm.safe


_KEYS_SNIPPET = """
import sqlite3, sys
sys.path.insert(0, %r)
from repro.analysis.checker import check_assembly
from repro.analysis.options import CheckerOptions
from repro.programs.incremental import INCREMENTAL_SOURCE, INCREMENTAL_SPEC
check_assembly(INCREMENTAL_SOURCE, INCREMENTAL_SPEC,
               name="incremental",
               options=CheckerOptions(cache_path=%r))
conn = sqlite3.connect(%r)
for key, deps in conn.execute(
        "SELECT unit_key, deps_digest FROM units "
        "WHERE kind='pipeline' ORDER BY unit_key"):
    print(key, deps)
"""


class TestDigestStability:
    def test_pipeline_keys_identical_across_hash_seeds(self, tmp_path):
        """The stored pipeline key — structure digests, layout digest,
        spec and options digests combined — must not depend on Python's
        hash randomization: a cache written by one process must hit in
        the next."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        keys = []
        for seed in ("1", "7"):
            cache = os.path.join(str(tmp_path),
                                 "seed%s.sqlite" % seed)
            env = dict(os.environ, PYTHONHASHSEED=seed)
            out = subprocess.run(
                [sys.executable, "-c",
                 _KEYS_SNIPPET % (src, cache, cache)],
                capture_output=True, text=True, env=env, check=True)
            keys.append(out.stdout.strip().splitlines())
        assert keys[0] == keys[1]
        assert len(keys[0]) == 1  # one row for the whole program

    def test_cross_process_replay_hits(self, tmp_path):
        """End to end: a cache primed under one hash seed replays under
        another (fresh process each, so no interned state leaks)."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        cache = cache_at(tmp_path)
        snippet = (
            "import sys\n"
            "sys.path.insert(0, %r)\n"
            "from repro.analysis.checker import check_assembly\n"
            "from repro.analysis.options import CheckerOptions\n"
            "from repro.programs.incremental import INCREMENTAL_SOURCE, "
            "INCREMENTAL_SPEC\n"
            "r = check_assembly(INCREMENTAL_SOURCE, INCREMENTAL_SPEC,"
            " name='incremental',"
            " options=CheckerOptions(cache_path=%r))\n"
            "print(r.prover_stats.get('unit_pipeline_hits'))\n"
            % (src, cache))
        hits = []
        for seed in ("3", "11"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            out = subprocess.run([sys.executable, "-c", snippet],
                                 capture_output=True, text=True,
                                 env=env, check=True)
            hits.append(out.stdout.strip())
        assert hits == ["0", "1"]


class TestStatsPlumbing:
    def test_summary_reports_pipeline_counters(self, tmp_path):
        cache = cache_at(tmp_path)
        _check(INCREMENTAL_SOURCE,
               CheckerOptions(cache_path=cache))
        warm = _check(INCREMENTAL_SOURCE,
                      CheckerOptions(cache_path=cache))
        summary = warm.summary()
        assert "pipeline (phases 2-4)" in summary
        assert "hits=1" in summary

    def test_cache_stats_breaks_units_down_by_kind(self, tmp_path):
        from repro.logic.persist import PersistentProverCache
        cache = cache_at(tmp_path)
        _check(INCREMENTAL_SOURCE,
               CheckerOptions(cache_path=cache))
        with PersistentProverCache(cache) as handle:
            stats = handle.stats()
        assert stats["units_by_kind"]["pipeline"] == 1
        assert stats["units_by_kind"]["unit"] >= 3
        assert stats["units"] == sum(stats["units_by_kind"].values())
