"""The persistent cross-run prover cache: storage, sharing, and —
critically — invalidation.  A stale or corrupt cache file must never
change verdicts; it may only cost a cold start.
"""

import sqlite3

import pytest

from repro.analysis.options import CheckerOptions
from repro.logic.formula import conj, ge
from repro.logic.persist import PersistentProverCache, SCHEMA_VERSION
from repro.logic.prover import Prover
from repro.logic.terms import Linear


def v(name):
    return Linear.var(name)


class TestRoundtrip:
    def test_get_put(self, tmp_path):
        cache = PersistentProverCache(str(tmp_path / "c.sqlite"))
        assert cache.get("d1") is None
        cache.put("d1", True)
        cache.put("d2", False)
        assert cache.get("d1") is True
        assert cache.get("d2") is False
        assert len(cache) == 2
        cache.close()

    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        first = PersistentProverCache(path)
        first.put("digest", True)
        first.close()
        second = PersistentProverCache(path)
        assert second.get("digest") is True
        assert second.hits == 1
        second.close()

    def test_two_handles_share_one_file(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        writer = PersistentProverCache(path)
        reader = PersistentProverCache(path)
        writer.put("shared", False)
        writer.flush()
        assert reader.get("shared") is False
        writer.close()
        reader.close()


class TestInvalidation:
    def test_corrupt_file_is_discarded(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        with open(path, "w") as handle:
            handle.write("this is not a sqlite database at all\n")
        cache = PersistentProverCache(path)
        assert cache.invalidations == 1
        assert cache.get("anything") is None
        cache.put("fresh", True)
        assert cache.get("fresh") is True
        cache.close()

    def test_version_bump_discards_results(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        old = PersistentProverCache(path, schema_version=SCHEMA_VERSION)
        old.put("stale", True)
        old.close()
        new = PersistentProverCache(path,
                                    schema_version=SCHEMA_VERSION + 1)
        assert new.invalidations == 1
        assert new.get("stale") is None  # result discarded
        new.close()
        # The file now carries the new version.
        conn = sqlite3.connect(path)
        row = conn.execute("SELECT value FROM meta WHERE "
                           "key='schema_version'").fetchone()
        conn.close()
        assert row[0] == str(SCHEMA_VERSION + 1)

    def test_unwritable_path_degrades_to_no_cache(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file where the directory should be")
        cache = PersistentProverCache(str(target / "c.sqlite"))
        # Every operation is a total no-op, never an exception.
        assert cache.get("d") is None
        cache.put("d", True)
        cache.flush()
        assert len(cache) == 0
        cache.close()


class TestUnitTable:
    def payload(self, function="f", verdicts=((
            "ob1", True), ("ob2", False))):
        return {"schema": 1, "function": function,
                "obligations": [[d, ok] for d, ok in verdicts],
                "deps": {function: "digest"}}

    def test_put_get_roundtrip(self, tmp_path):
        cache = PersistentProverCache(str(tmp_path / "c.sqlite"))
        assert cache.get_unit("k1") == []
        cache.put_unit("k1", "deps-a", "f", self.payload())
        cache.flush()
        assert cache.get_unit("k1") == [self.payload()]
        assert cache.get_unit("other") == []
        cache.close()

    def test_one_key_many_dependency_contexts(self, tmp_path):
        """The same function body proved under different dependency
        contexts stores one row per context, and lookup returns every
        candidate."""
        cache = PersistentProverCache(str(tmp_path / "c.sqlite"))
        cache.put_unit("k", "deps-a", "f", self.payload("f"))
        cache.put_unit("k", "deps-b", "f",
                       {"schema": 1, "function": "f",
                        "obligations": [["ob1", True]],
                        "deps": {"f": "digest", "g": "other"}})
        cache.flush()
        assert len(cache.get_unit("k")) == 2
        # Same context again replaces, never duplicates.
        cache.put_unit("k", "deps-a", "f", self.payload("f"))
        cache.flush()
        assert len(cache.get_unit("k")) == 2
        cache.close()

    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        first = PersistentProverCache(path)
        first.put_unit("k", "deps", "f", self.payload())
        first.close()
        second = PersistentProverCache(path)
        assert second.get_unit("k") == [self.payload()]
        second.close()

    def test_version_bump_migrates_in_place(self, tmp_path):
        """A schema bump keeps the file but drops the rows of *both*
        tables — stale unit verdicts are as dangerous as stale formula
        results."""
        path = str(tmp_path / "c.sqlite")
        old = PersistentProverCache(path, schema_version=SCHEMA_VERSION)
        old.put("stale-result", True)
        old.put_unit("stale-unit", "deps", "f", self.payload())
        old.close()
        new = PersistentProverCache(path,
                                    schema_version=SCHEMA_VERSION + 1)
        assert new.invalidations == 1
        assert new.get("stale-result") is None
        assert new.get_unit("stale-unit") == []
        new.put_unit("fresh", "deps", "f", self.payload())
        new.flush()
        assert new.get_unit("fresh") == [self.payload()]
        new.close()
        conn = sqlite3.connect(path)
        row = conn.execute("SELECT value FROM meta WHERE "
                           "key='schema_version'").fetchone()
        conn.close()
        assert row[0] == str(SCHEMA_VERSION + 1)

    def test_wrong_column_layout_is_rebuilt(self, tmp_path):
        """A ``units`` table with an incompatible layout (e.g. written
        by a future version whose meta row was lost) is recreated, not
        queried."""
        path = str(tmp_path / "c.sqlite")
        seeded = PersistentProverCache(path)
        seeded.close()
        conn = sqlite3.connect(path)
        conn.execute("DROP TABLE units")
        conn.execute("CREATE TABLE units (unit_key TEXT, blob TEXT)")
        conn.execute("INSERT INTO units VALUES ('k', 'junk')")
        conn.commit()
        conn.close()
        cache = PersistentProverCache(path)
        assert cache.get_unit("k") == []
        cache.put_unit("k", "deps", "f", self.payload())
        cache.flush()
        assert cache.get_unit("k") == [self.payload()]
        cache.close()

    def test_corrupt_file_regression(self, tmp_path):
        """Corruption never raises out of the unit API — the file is
        discarded and the store behaves as empty (the formula-result
        regression, extended to the units table)."""
        path = str(tmp_path / "c.sqlite")
        with open(path, "w") as handle:
            handle.write("not a sqlite database\n")
        cache = PersistentProverCache(path)
        assert cache.invalidations == 1
        assert cache.get_unit("k") == []
        cache.put_unit("k", "deps", "f", self.payload())
        cache.flush()
        assert cache.get_unit("k") == [self.payload()]
        cache.close()

    def test_legacy_layout_is_migrated_in_place(self, tmp_path):
        """A ``units`` table from before the ``last_used`` column keeps
        its rows: the column is added in place, seeded from
        ``created``."""
        path = str(tmp_path / "c.sqlite")
        seeded = PersistentProverCache(path)
        seeded.put("result", True)
        seeded.close()
        conn = sqlite3.connect(path)
        conn.execute("DROP TABLE units")
        conn.execute("CREATE TABLE units ("
                     "unit_key TEXT NOT NULL, "
                     "deps_digest TEXT NOT NULL, "
                     "function TEXT NOT NULL, "
                     "payload TEXT NOT NULL, "
                     "created REAL NOT NULL, "
                     "PRIMARY KEY (unit_key, deps_digest))")
        import json as json_mod
        conn.execute("INSERT INTO units VALUES (?, ?, ?, ?, ?)",
                     ("k", "deps", "f",
                      json_mod.dumps(self.payload()), 123.0))
        conn.commit()
        conn.close()
        cache = PersistentProverCache(path)
        assert cache.migrations == 1
        assert cache.invalidations == 0
        assert cache.get_unit("k") == [self.payload()]  # row survived
        assert cache.get("result") is True
        cache.flush()
        conn = sqlite3.connect(path)
        columns = [row[1] for row in
                   conn.execute("PRAGMA table_info(units)")]
        conn.close()
        assert "last_used" in columns
        assert columns[-1] == "kind"
        cache.close()

    def test_lookup_bumps_last_used(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        cache = PersistentProverCache(path)
        cache.put_unit("k", "deps", "f", self.payload())
        cache.flush()
        before = cache._conn.execute(
            "SELECT last_used FROM units WHERE unit_key='k'"
        ).fetchone()[0]
        import time as time_mod
        time_mod.sleep(0.01)
        cache.get_unit("k")
        cache.flush()
        after = cache._conn.execute(
            "SELECT last_used FROM units WHERE unit_key='k'"
        ).fetchone()[0]
        assert after > before
        cache.close()

    def test_undecodable_payload_rows_are_skipped(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        cache = PersistentProverCache(path)
        cache.put_unit("k", "deps-a", "f", self.payload())
        cache.flush()
        cache._conn.execute(
            "INSERT INTO units VALUES ('k', 'deps-b', 'f', "
            "'{not json', 0, 0, 'unit')")
        cache._conn.commit()
        assert cache.get_unit("k") == [self.payload()]
        cache.close()


class TestMaintenance:
    def seeded(self, tmp_path):
        cache = PersistentProverCache(str(tmp_path / "c.sqlite"))
        for index in range(8):
            cache.put("digest-%d" % index, True)
            cache.put_unit("key-%d" % index, "deps", "f",
                           {"schema": 1, "function": "f",
                            "obligations": [["ob", True]],
                            "deps": {"f": "x" * 256}})
        cache.flush()
        return cache

    def test_stats_counts_both_tables(self, tmp_path):
        cache = self.seeded(tmp_path)
        stats = cache.stats()
        assert stats["exists"] is True
        assert stats["results"] == 8
        assert stats["units"] == 8
        assert stats["schema_version"] == SCHEMA_VERSION
        assert stats["size_bytes"] > 0
        cache.close()

    def test_clear_drops_rows_keeps_file(self, tmp_path):
        cache = self.seeded(tmp_path)
        cache.clear()
        stats = cache.stats()
        assert stats["exists"] is True
        assert stats["results"] == 0
        assert stats["units"] == 0
        cache.close()

    def test_gc_evicts_units_first(self, tmp_path):
        cache = self.seeded(tmp_path)
        report = cache.gc(max_mb=0.0)
        assert report["deleted_units"] == 8
        assert report["deleted_results"] == 8
        assert cache.stats()["units"] == 0
        cache.close()

    def test_gc_within_budget_deletes_nothing(self, tmp_path):
        cache = self.seeded(tmp_path)
        report = cache.gc(max_mb=64.0)
        assert report["deleted_units"] == 0
        assert report["deleted_results"] == 0
        assert cache.stats()["units"] == 8
        cache.close()

    def test_gc_evicts_lru_and_hot_units_survive(self, tmp_path):
        """gc evicts in ``last_used`` order: units kept hot by replay
        lookups outlive colder units that were *created* later."""
        cache = PersistentProverCache(str(tmp_path / "c.sqlite"))
        bulky = {"schema": 1, "function": "f",
                 "obligations": [["ob", True]],
                 "deps": {"f": "x" * 2048}}
        for index in range(256):
            cache.put_unit("key-%d" % index, "deps", "f", bulky)
        cache.flush()
        # Replay-touch the eight *oldest-created* units, making them
        # the hottest; with created-order eviction they would die
        # first, with LRU they must all survive.
        import time as time_mod
        time_mod.sleep(0.01)
        for index in range(8):
            assert cache.get_unit("key-%d" % index)
        cache.flush()
        page = cache.stats()["size_bytes"]
        report = cache.gc(max_mb=page / 2.0 / (1024 * 1024))
        assert report["deleted_units"] > 0
        survivors = {
            row[0] for row in cache._conn.execute(
                "SELECT unit_key FROM units").fetchall()}
        for index in range(8):
            assert "key-%d" % index in survivors
        cache.close()


class TestProverIntegration:
    def query(self):
        return conj(ge(v("x"), 0), ge(Linear({"x": -1}, 10), 0))

    def test_second_prover_hits_persistent_cache(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        first = Prover(persistent=PersistentProverCache(path))
        verdict = first.is_satisfiable(self.query())
        assert first.stats.persistent_cache_stores == 1
        first.persistent.close()
        second = Prover(persistent=PersistentProverCache(path))
        assert second.is_satisfiable(self.query()) == verdict
        assert second.stats.persistent_cache_hits == 1
        second.persistent.close()

    def test_verdicts_identical_with_corrupted_cache(self, tmp_path):
        """Corruption mid-lifecycle: verdicts match a cold run."""
        path = str(tmp_path / "c.sqlite")
        plain = Prover().is_satisfiable(self.query())
        with open(path, "w") as handle:
            handle.write("garbage")
        prover = Prover(persistent=PersistentProverCache(path))
        assert prover.is_satisfiable(self.query()) == plain
        prover.persistent.close()


class TestCheckerIntegration:
    def checked(self, tmp_path, name="sum"):
        from repro.programs import all_programs
        program = next(p for p in all_programs() if p.name == name)
        path = str(tmp_path / "prover.sqlite")
        options = CheckerOptions(cache_path=path)
        return program, options

    @staticmethod
    def verdicts(result):
        return (result.safe,
                [(p.uid, p.index, p.proved) for p in result.proofs],
                [(w.index, w.category, w.description, w.phase)
                 for w in result.violations])

    def test_warm_run_identical_to_cold(self, tmp_path):
        program, options = self.checked(tmp_path)
        baseline = program.check()  # no persistent cache at all
        cold = program.check(options=options)
        warm = program.check(options=options)
        assert self.verdicts(cold) == self.verdicts(baseline)
        assert self.verdicts(warm) == self.verdicts(baseline)
        assert cold.prover_stats["persistent_cache_stores"] > 0
        # Warm, the function-unit layer replays the verdicts before
        # the formula-level cache is ever consulted.
        assert warm.prover_stats["unit_hits"] > 0

    def test_formula_level_cache_still_warms(self, tmp_path):
        """With unit replay disabled the formula-level persistent
        cache carries the warm run, exactly as before the unit layer
        existed."""
        program, options = self.checked(tmp_path)
        options.enable_unit_cache = False
        baseline = program.check()
        cold = program.check(options=options)
        warm = program.check(options=options)
        assert self.verdicts(cold) == self.verdicts(baseline)
        assert self.verdicts(warm) == self.verdicts(baseline)
        assert cold.prover_stats["persistent_cache_stores"] > 0
        assert warm.prover_stats["persistent_cache_hits"] > 0
        assert warm.prover_stats["persistent_cache_stores"] == 0

    def test_version_bumped_cache_matches_cold_verdicts(self, tmp_path,
                                                        monkeypatch):
        program, options = self.checked(tmp_path)
        cold = program.check(options=options)
        # Simulate a digest-definition change: bump the schema.
        import repro.logic.persist as persist
        monkeypatch.setattr(persist, "SCHEMA_VERSION",
                            persist.SCHEMA_VERSION + 1)
        bumped = program.check(options=options)
        assert self.verdicts(bumped) == self.verdicts(cold)
        # The stale results were dropped: everything re-proved.
        assert bumped.prover_stats["persistent_cache_hits"] == 0
        assert bumped.prover_stats["persistent_cache_stores"] > 0


class TestSchemaV2Migration:
    """v2 files (pre-``kind`` column) carry rows whose digest recipes
    are unchanged in v3: opening one must keep every row, tag the
    table with the ``kind`` column, and count a migration — not an
    invalidation."""

    def seeded_v2(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, "
                     "value TEXT NOT NULL)")
        conn.execute("INSERT INTO meta VALUES ('schema_version', '2')")
        conn.execute("CREATE TABLE results (digest TEXT PRIMARY KEY, "
                     "satisfiable INTEGER NOT NULL)")
        conn.execute("INSERT INTO results VALUES ('d', 1)")
        conn.execute("CREATE TABLE units ("
                     "unit_key TEXT NOT NULL, "
                     "deps_digest TEXT NOT NULL, "
                     "function TEXT NOT NULL, "
                     "payload TEXT NOT NULL, "
                     "created REAL NOT NULL, "
                     "last_used REAL NOT NULL, "
                     "PRIMARY KEY (unit_key, deps_digest))")
        import json as json_mod
        conn.execute("INSERT INTO units VALUES (?, ?, ?, ?, ?, ?)",
                     ("k", "deps", "f",
                      json_mod.dumps({"schema": 1}), 1.0, 2.0))
        conn.commit()
        conn.close()
        return path

    def test_v2_rows_survive_the_v3_migration(self, tmp_path):
        path = self.seeded_v2(tmp_path)
        cache = PersistentProverCache(path)
        assert cache.migrations == 1
        assert cache.invalidations == 0
        assert cache.get("d") is True
        assert cache.get_unit("k") == [{"schema": 1}]
        cache.close()
        conn = sqlite3.connect(path)
        assert conn.execute("SELECT value FROM meta WHERE "
                            "key='schema_version'").fetchone()[0] \
            == str(SCHEMA_VERSION)
        columns = [row[1] for row in
                   conn.execute("PRAGMA table_info(units)")]
        assert columns[-1] == "kind"
        # Pre-existing rows default to the phase-5 verdict kind.
        assert conn.execute("SELECT kind FROM units").fetchone()[0] \
            == "unit"
        conn.close()

    def test_migrated_file_counts_kinds(self, tmp_path):
        path = self.seeded_v2(tmp_path)
        cache = PersistentProverCache(path)
        cache.put_unit("p", "deps", "f", {"schema": 1},
                       kind="pipeline")
        cache.flush()
        stats = cache.stats()
        assert stats["units_by_kind"] == {"pipeline": 1, "unit": 1}
        cache.close()

    def test_future_version_still_invalidates(self, tmp_path):
        path = self.seeded_v2(tmp_path)
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value='99' "
                     "WHERE key='schema_version'")
        conn.commit()
        conn.close()
        cache = PersistentProverCache(path)
        assert cache.invalidations == 1
        assert cache.get("d") is None
        assert cache.get_unit("k") == []
        cache.close()


class TestWriteBehindFlush:
    """``last_used`` bumps ride a write-behind batch; every graceful
    exit path (checker close, worker drain) must flush it so LRU gc
    never evicts a unit the previous run just replayed."""

    def test_bumps_are_batched_until_flush(self, tmp_path):
        cache = PersistentProverCache(str(tmp_path / "c.sqlite"))
        cache.put_unit("k", "deps", "f", {"schema": 1})
        cache.flush()
        before = cache._conn.execute(
            "SELECT last_used FROM units").fetchone()[0]
        import time as time_mod
        time_mod.sleep(0.01)
        cache.get_unit("k")
        # Not flushed yet: the row is untouched on disk.
        assert cache._conn.execute(
            "SELECT last_used FROM units").fetchone()[0] == before
        cache.flush()
        assert cache._conn.execute(
            "SELECT last_used FROM units").fetchone()[0] > before

    def test_close_flushes_the_batch(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        cache = PersistentProverCache(path)
        cache.put_unit("k", "deps", "f", {"schema": 1})
        cache.flush()
        before = cache._conn.execute(
            "SELECT last_used FROM units").fetchone()[0]
        import time as time_mod
        time_mod.sleep(0.01)
        cache.get_unit("k")
        cache.close()
        conn = sqlite3.connect(path)
        after = conn.execute(
            "SELECT last_used FROM units").fetchone()[0]
        conn.close()
        assert after > before

    def test_verify_drain_gc_keeps_the_unit(self, tmp_path):
        """End to end through the service: verify a program through a
        worker, drain the pool (the graceful shutdown path), then gc
        hard enough to evict cold ballast — the replayed units'
        flushed recency must keep them alive, and a warm re-check must
        still hit."""
        from repro.analysis.options import CheckerOptions
        from repro.programs.incremental import (
            INCREMENTAL_SOURCE, INCREMENTAL_SPEC,
        )
        from repro.service.scheduler import CheckRequest, Scheduler
        from repro.service.worker import WorkerPool

        path = str(tmp_path / "c.sqlite")
        # Cold ballast: old units a recency-blind gc would keep and an
        # LRU gc must evict first.
        ballast = PersistentProverCache(path)
        bulky = {"schema": 1, "function": "f", "pad": "x" * 4096}
        for index in range(64):
            ballast.put_unit("ballast-%d" % index, "deps", "f", bulky)
        ballast.flush()
        ballast._conn.execute("UPDATE units SET last_used=1.0")
        ballast._conn.commit()
        ballast.close()

        def run_job():
            scheduler = Scheduler()
            pool = WorkerPool(scheduler, workers=1, cache_path=path)
            pool.start()
            job = scheduler.submit(CheckRequest.build(
                INCREMENTAL_SOURCE, INCREMENTAL_SPEC,
                name="incremental"))
            scheduler.drain()
            assert pool.join(timeout_s=60.0)
            assert job.state == "completed"
            return job

        run_job()  # populate
        import time as time_mod
        time_mod.sleep(0.01)
        run_job()  # replay: bumps last_used through the drain path

        survivor = PersistentProverCache(path)
        # Budget sized between the program's own rows (~70 KiB,
        # pipeline blobs included) and ballast+program, so the LRU
        # sweep must stop right after the ballast.
        report = survivor.gc(max_mb=0.2)
        assert report["deleted_units"] > 0
        fresh = {row[0] for row in survivor._conn.execute(
            "SELECT unit_key FROM units WHERE "
            "unit_key NOT LIKE 'ballast-%'")}
        survivor.close()
        assert fresh  # the verified program's units outlived the gc

        from repro.analysis.checker import check_assembly
        warm = check_assembly(
            INCREMENTAL_SOURCE, INCREMENTAL_SPEC, name="incremental",
            options=CheckerOptions(cache_path=path))
        assert warm.prover_stats["unit_pipeline_hits"] == 1
        assert warm.prover_stats["unit_hits"] > 0
