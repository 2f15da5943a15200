"""The replay store: storage, sharing, and — critically — invalidation.
A stale, corrupt or truncated store file must never change verdicts; it
may only cost a cold start.  A file that is not a store must never be
touched at all.
"""

import base64
import json
import os
import pickle
import sqlite3

import pytest

from repro.analysis.options import CheckerOptions
from repro.analysis.report import verdict_projection
from repro.cli import main
from repro.errors import ReproError
from repro.logic import persist
from repro.logic.persist import PersistentProverCache, SCHEMA_VERSION
from repro.programs.sum_array import SOURCE, SPEC

#: A file that passes the header test but is no database.
SQLITE_GARBAGE = b"SQLite format 3\x00" + b"\xde\xad" * 200


def payload(tag="a"):
    return {"blob": tag}


class TestRoundtrip:
    def test_get_put(self, tmp_path):
        cache = PersistentProverCache(str(tmp_path / "c.sqlite"))
        assert cache.get("k1") is None
        cache.put("k1", payload("one"))
        cache.put("k2", payload("two"))
        assert cache.get("k1") == payload("one")
        assert cache.get("k2") == payload("two")
        assert (cache.hits, cache.misses) == (2, 1)
        # Program payloads are pipeline rows of the one units table.
        assert cache.stats()["units_by_kind"] == {"pipeline": 2}
        # Same key again replaces, never duplicates.
        cache.put("k1", payload("newer"))
        assert cache.get("k1") == payload("newer")
        assert cache.stats()["units"] == 2
        cache.close()

    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        first = PersistentProverCache(path)
        first.put("key", payload())
        first.close()
        second = PersistentProverCache(path)
        assert second.get("key") == payload()
        assert second.hits == 1
        second.close()

    def test_two_handles_share_one_file(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        writer = PersistentProverCache(path)
        reader = PersistentProverCache(path)
        writer.put("shared", payload())
        writer.flush()
        assert reader.get("shared") == payload()
        writer.close()
        reader.close()


class TestInvalidation:
    def test_corrupt_file_is_discarded(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        with open(path, "wb") as handle:
            handle.write(SQLITE_GARBAGE)
        cache = PersistentProverCache(path)
        assert cache.invalidations == 1
        assert cache.get("anything") is None
        cache.put("fresh", payload())
        assert cache.get("fresh") == payload()
        cache.close()

    def test_corruption_found_in_use_rebuilds(self, tmp_path):
        """Pages that only break when a lookup reads them: the lookup
        misses, the file is rebuilt, and writes land in the new one."""
        path = str(tmp_path / "c.sqlite")
        cache = PersistentProverCache(path)
        for index in range(400):
            cache.put_unit("key-%03d" % index, "deps", "f",
                           {"pad": "x" * 512})
        cache.close()
        pages = os.path.getsize(path) // 4096
        with open(path, "r+b") as handle:  # keep the schema pages
            handle.seek(3 * 4096)
            handle.write(b"\xab" * 4096 * (pages - 4))
        cache = PersistentProverCache(path)
        assert cache.invalidations == 0
        assert cache.get_unit("key-200") == []
        assert cache.invalidations == 1
        cache.put_unit("key-200", "deps", "f", {"fresh": True})
        assert cache.get_unit("key-200") == [{"fresh": True}]
        assert cache.stats()["units"] == 1
        cache.close()

    def test_version_bump_discards_results(self, tmp_path, monkeypatch):
        path = str(tmp_path / "c.sqlite")
        old = PersistentProverCache(path)
        old.put("stale", payload())
        old.close()
        monkeypatch.setattr(persist, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        new = PersistentProverCache(path)
        assert new.invalidations == 1
        assert new.get("stale") is None  # payload discarded
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
        cache.put("d", payload())
        cache.flush()
        assert cache.get("d") is None
        assert cache.stats()["units"] == 0
        cache.close()

    @pytest.mark.parametrize("content", [
        b"notes: the store lives elsewhere\nsecond line\n",
        b"SQLite",  # a prefix of the header is not the header
    ])
    def test_foreign_file_is_refused_untouched(self, tmp_path, content):
        path = tmp_path / "notes.txt"
        path.write_bytes(content)
        with pytest.raises(ReproError, match="notes.txt"):
            PersistentProverCache(str(path))
        assert path.read_bytes() == content
        assert sorted(os.listdir(str(tmp_path))) == ["notes.txt"]

    def test_empty_file_becomes_a_store(self, tmp_path):
        path = tmp_path / "empty.sqlite"
        path.write_bytes(b"")
        cache = PersistentProverCache(str(path))
        cache.put("k", payload())
        assert cache.get("k") == payload()
        assert cache.invalidations == 0
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

    def test_version_bump_migrates_in_place(self, tmp_path,
                                            monkeypatch):
        """A schema bump keeps the file but drops every row — unit
        verdicts and program payloads alike — and the satisfiability
        table of schema 3 and earlier."""
        path = str(tmp_path / "c.sqlite")
        old = PersistentProverCache(path)
        old.put("stale-payload", {"blob": "x"})
        old.put_unit("stale-unit", "deps", "f", self.payload())
        old.close()
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE results (digest TEXT PRIMARY KEY, "
                     "satisfiable INTEGER NOT NULL)")
        conn.commit()
        conn.close()
        monkeypatch.setattr(persist, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        new = PersistentProverCache(path)
        assert new.invalidations == 1
        assert new.get("stale-payload") is None
        assert new.get_unit("stale-unit") == []
        new.put_unit("fresh", "deps", "f", self.payload())
        new.flush()
        assert new.get_unit("fresh") == [self.payload()]
        new.close()
        conn = sqlite3.connect(path)
        row = conn.execute("SELECT value FROM meta WHERE "
                           "key='schema_version'").fetchone()
        tables = {name for (name,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table'")}
        conn.close()
        assert row[0] == str(SCHEMA_VERSION + 1)
        assert tables == {"meta", "units"}

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
        discarded and the store behaves as empty."""
        path = str(tmp_path / "c.sqlite")
        with open(path, "wb") as handle:
            handle.write(SQLITE_GARBAGE)
        cache = PersistentProverCache(path)
        assert cache.invalidations == 1
        assert cache.get_unit("k") == []
        cache.put_unit("k", "deps", "f", self.payload())
        cache.flush()
        assert cache.get_unit("k") == [self.payload()]
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
            cache.put("program-%d" % index, {"blob": "x" * 256})
            cache.put_unit("key-%d" % index, "deps", "f",
                           {"schema": 1, "function": "f",
                            "obligations": [["ob", True]],
                            "deps": {"f": "x" * 256}})
        cache.flush()
        return cache

    def test_stats_counts_both_tables(self, tmp_path):
        """Unit verdicts and program payloads share one table; stats
        counts them by kind."""
        cache = self.seeded(tmp_path)
        stats = cache.stats()
        assert stats["exists"] is True
        assert stats["units_by_kind"] == {"pipeline": 8, "unit": 8}
        assert stats["units"] == 16
        assert stats["schema_version"] == SCHEMA_VERSION
        assert stats["size_bytes"] > 0
        cache.close()

    def test_clear_drops_rows_keeps_file(self, tmp_path):
        cache = self.seeded(tmp_path)
        cache.clear()
        stats = cache.stats()
        assert stats["exists"] is True
        assert stats["units"] == 0
        assert stats["units_by_kind"] == {}
        cache.close()

    def test_gc_evicts_units_first(self, tmp_path):
        cache = self.seeded(tmp_path)
        report = cache.gc(max_mb=0.0)
        assert report["deleted_units"] == 16
        assert cache.stats()["units"] == 0
        cache.close()

    def test_gc_within_budget_deletes_nothing(self, tmp_path):
        cache = self.seeded(tmp_path)
        report = cache.gc(max_mb=64.0)
        assert report["deleted_units"] == 0
        assert cache.stats()["units"] == 16
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
        baseline = program.check()  # no store at all
        cold = program.check(options=options)
        warm = program.check(options=options)
        assert self.verdicts(cold) == self.verdicts(baseline)
        assert self.verdicts(warm) == self.verdicts(baseline)
        assert cold.prover_stats["unit_stores"] > 0
        assert cold.prover_stats["unit_pipeline_stores"] == 1
        # Warm, phases 2-5 replay: the prover is never asked.
        assert warm.prover_stats["unit_hits"] > 0
        assert warm.prover_stats["unit_pipeline_hits"] == 1
        assert warm.prover_queries == 0

    def test_version_bumped_cache_matches_cold_verdicts(self, tmp_path,
                                                        monkeypatch):
        program, options = self.checked(tmp_path)
        cold = program.check(options=options)
        # Simulate a payload-recipe change: bump the schema.
        monkeypatch.setattr(persist, "SCHEMA_VERSION",
                            persist.SCHEMA_VERSION + 1)
        bumped = program.check(options=options)
        assert self.verdicts(bumped) == self.verdicts(cold)
        # The stale rows were dropped: everything re-proved.
        assert bumped.prover_stats["unit_hits"] == 0
        assert bumped.prover_stats["unit_pipeline_hits"] == 0
        assert bumped.prover_stats["unit_stores"] > 0

    def test_verdicts_identical_with_corrupted_cache(self, tmp_path):
        """A corrupt store file: verdicts match a store-free run."""
        program, options = self.checked(tmp_path)
        plain = program.check()
        with open(options.cache_path, "wb") as handle:
            handle.write(SQLITE_GARBAGE)
        assert self.verdicts(program.check(options=options)) \
            == self.verdicts(plain)


def _v3_store(path):
    """A store as schema 3 wrote it: a satisfiability table beside the
    units table, both with rows."""
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
    conn.execute("INSERT INTO meta VALUES ('schema_version', '3')")
    conn.execute("CREATE TABLE results (digest TEXT PRIMARY KEY, "
                 "satisfiable INTEGER NOT NULL)")
    conn.executemany("INSERT INTO results VALUES (?, ?)",
                     [("d%d" % i, i % 2) for i in range(32)])
    conn.execute(persist._TABLE_DDL["units"])
    conn.execute("INSERT INTO units VALUES ('k', 'deps', 'main', ?, "
                 "1.0, 2.0, 'unit')", (json.dumps({"schema": 2}),))
    conn.execute("INSERT INTO units VALUES ('p', 'deps', 'main', ?, "
                 "1.0, 2.0, 'pipeline')", (json.dumps({"blob": ""}),))
    conn.commit()
    conn.close()


def _truncated(path):
    """A primed store cut to half its size."""
    _prime(path)
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size // 2)


def _rewrite_rows(kind, payload):
    def damage(path):
        _prime(path)
        conn = sqlite3.connect(path)
        conn.execute("UPDATE units SET payload=? WHERE kind=?",
                     (payload, kind))
        assert conn.total_changes > 0
        conn.commit()
        conn.close()
    return damage


def _rewrite_digests(edit):
    """A primed store whose pipeline payload's map of function input
    digests went through *edit* (which may also delete the map)."""
    def damage(path):
        _prime(path)
        conn = sqlite3.connect(path)
        (key, text), = conn.execute(
            "SELECT unit_key, payload FROM units "
            "WHERE kind='pipeline'").fetchall()
        replay = pickle.loads(base64.b64decode(json.loads(text)["blob"]))
        assert isinstance(replay.input_digests, dict) \
            and replay.input_digests
        edit(replay)
        blob = base64.b64encode(pickle.dumps(replay, protocol=4))
        conn.execute("UPDATE units SET payload=? WHERE unit_key=?",
                     (json.dumps({"blob": blob.decode("ascii")}), key))
        conn.commit()
        conn.close()
    return damage


def _drop_one_digest(replay):
    del replay.input_digests[sorted(replay.input_digests)[0]]


def _prime(path):
    with open(path + ".s", "w") as f:
        f.write(SOURCE)
    with open(path + ".policy", "w") as f:
        f.write(SPEC)
    assert main(["check", path + ".s", path + ".policy",
                 "--cache", path]) == 0
    assert not os.path.exists(path + "-wal")


DAMAGE = {
    "v3-file": _v3_store,
    "truncated": _truncated,
    "pipeline-blob-not-a-pickle": _rewrite_rows(
        "pipeline", json.dumps({"blob": "bm90IGEgcGlja2xl"})),
    "pipeline-payload-not-json": _rewrite_rows("pipeline", "{not json"),
    "unit-rows-wrong-shape": _rewrite_rows(
        "unit", json.dumps({"schema": 2, "members": [[1]], "deps": []})),
    "unit-rows-not-objects": _rewrite_rows("unit", "[1, 2, 3]"),
}

#: Pipeline rows whose map of function input digests is damaged; the
#: unit rows are intact.
DIGEST_DAMAGE = {
    "absent": _rewrite_digests(
        lambda replay: delattr(replay, "input_digests")),
    "not-a-dict": _rewrite_digests(
        lambda replay: setattr(replay, "input_digests", "not a map")),
    "not-strings": _rewrite_digests(
        lambda replay: setattr(replay, "input_digests",
                               {label: [digest] for label, digest
                                in replay.input_digests.items()})),
    "missing-label": _rewrite_digests(_drop_one_digest),
}


class TestDamagedStore:
    """Stores damaged in every way a file on disk can be: a check
    through the CLI succeeds with the store-free verdicts, and the
    check after it replays from the repaired store."""

    @staticmethod
    def check_json(code, spec, capsys, *extra):
        capsys.readouterr()
        assert main(["check", code, spec, "--json"] + list(extra)) == 0
        return json.loads(capsys.readouterr().out)

    @staticmethod
    def sum_files(tmp_path):
        (tmp_path / "sum.s").write_text(SOURCE)
        (tmp_path / "sum.policy").write_text(SPEC)
        return str(tmp_path / "sum.s"), str(tmp_path / "sum.policy")

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_store_checks_like_no_store(self, tmp_path, capsys,
                                                damage):
        code, spec = self.sum_files(tmp_path)
        store = str(tmp_path / "store.sqlite")
        DAMAGE[damage](store)
        reference = self.check_json(code, spec, capsys)
        first = self.check_json(code, spec, capsys, "--cache", store)
        assert verdict_projection(first) == verdict_projection(reference)
        second = self.check_json(code, spec, capsys, "--cache", store)
        assert verdict_projection(second) == verdict_projection(reference)
        assert second["prover"]["unit_pipeline_hits"] == 1
        assert second["prover"]["unit_hits"] \
            == second["prover"]["unit_lookups"] > 0

    @pytest.mark.parametrize("damage", sorted(DIGEST_DAMAGE))
    def test_damaged_digest_map_is_recomputed(self, tmp_path, capsys,
                                              damage):
        """The digests are recomputed from the replayed phases 2–4, so
        the intact unit rows still replay, on this run and the next."""
        code, spec = self.sum_files(tmp_path)
        store = str(tmp_path / "store.sqlite")
        DIGEST_DAMAGE[damage](store)
        reference = self.check_json(code, spec, capsys)
        for _ in range(2):
            warm = self.check_json(code, spec, capsys, "--cache", store)
            assert verdict_projection(warm) == verdict_projection(reference)
            assert warm["prover"]["unit_pipeline_hits"] == 1
            assert warm["prover"]["unit_hits"] \
                == warm["prover"]["unit_lookups"] > 0


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
            pool = WorkerPool(scheduler, workers=1)
            pool.start()
            job = scheduler.submit(CheckRequest.build(
                INCREMENTAL_SOURCE, INCREMENTAL_SPEC,
                name="incremental",
                options=CheckerOptions(cache_path=path)))
            scheduler.drain()
            assert pool.join(timeout_s=60.0)
            assert job.state == "completed"
            return job

        run_job()  # populate
        import time as time_mod
        time_mod.sleep(0.01)
        run_job()  # replay: bumps last_used through the drain path

        survivor = PersistentProverCache(path)
        # Budget sized between the program's own rows (pipeline blob
        # included) and ballast+program, so the LRU
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
