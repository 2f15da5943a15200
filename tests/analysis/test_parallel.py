"""The parallel proof engine: obligation generation and scheduling,
pool discharge, the determinism guarantee (``--jobs N`` verdicts are
identical to serial for every N), and the serial fallback when no pool
can be created.
"""

import pytest

from repro.analysis import obligations as ob
from repro.analysis.options import CheckerOptions
from repro.logic.parallel import ParallelProver, PoolUnavailable
from repro.logic.prover import Prover
from repro.programs import all_programs


def program_named(name):
    return next(p for p in all_programs() if p.name == name)


def verdicts(result):
    return (result.safe,
            [(p.uid, p.index, p.proved) for p in result.proofs],
            [(v.index, v.category, v.description, v.phase)
             for v in result.violations])


class TestObligationGeneration:
    def engine_and_annotations(self, name="hash"):
        from repro.analysis.annotate import annotate
        benchmark = program_named(name)
        machine = benchmark.program().lower()
        spec = benchmark.spec()
        engine = ob.build_engine(machine, spec, CheckerOptions())
        annotations = annotate(engine.cfg, engine.propagation.inputs,
                               spec, engine.preparation.locations)
        return engine, annotations

    def test_deterministic_order_and_digests(self):
        __, annotations = self.engine_and_annotations()
        first = ob.generate_obligations(annotations)
        second = ob.generate_obligations(annotations)
        assert [o.oid for o in first] == list(range(len(first)))
        assert [(o.uid, o.digest) for o in first] \
            == [(o.uid, o.digest) for o in second]
        assert all(len(o.digest) == 64 for o in first)

    def test_groups_partition_the_obligations(self):
        engine, annotations = self.engine_and_annotations()
        obs = ob.generate_obligations(annotations)
        groups = ob.obligation_groups(engine, obs)
        flattened = sorted(o.oid for g in groups for o in g)
        assert flattened == [o.oid for o in obs]
        # Groups are keyed by (function, containing loop header):
        # every member of a group maps to the same key.
        for group in groups:
            keys = set()
            for o in group:
                node = engine.cfg.node(o.uid)
                loop = engine.loops[node.function].containing(o.uid)
                keys.add((node.function,
                          loop.header if loop else -1))
            assert len(keys) == 1


@pytest.mark.parametrize("name", ["sum", "hash", "btree", "jpvm"])
class TestSerialParallelParity:
    """``--jobs 2`` must produce byte-identical verdicts, proof
    records, and violations — including on unsafe programs (jpvm)."""

    def test_jobs2_matches_serial(self, name):
        program = program_named(name)
        serial = program.check(options=CheckerOptions(jobs=1))
        parallel = program.check(options=CheckerOptions(jobs=2))
        assert verdicts(parallel) == verdicts(serial)

    def test_parallel_counters_surface(self, name):
        program = program_named(name)
        result = program.check(options=CheckerOptions(jobs=2))
        stats = result.prover_stats
        assert stats.get("pool_jobs") == 2
        # Either the pool ran (and dispatched every obligation) or the
        # program had too few independent groups to bother.
        if stats.get("pool_tasks_dispatched"):
            assert stats["pool_obligations_dispatched"] \
                == result.characteristics.global_conditions
            assert stats["pool_serialization_seconds"] >= 0


class TestSerialFallback:
    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        """When no pool can be created, the checker silently degrades
        to the serial engine and records the fallback."""
        def broken_discharge(self, tasks, items=0):
            raise PoolUnavailable("simulated: no processes")
        monkeypatch.setattr(ParallelProver, "discharge",
                            broken_discharge)
        program = program_named("hash")
        serial = program.check(options=CheckerOptions(jobs=1))
        degraded = program.check(options=CheckerOptions(jobs=2))
        assert verdicts(degraded) == verdicts(serial)
        assert degraded.prover_stats.get("pool_fallback") == 1

    def test_unpicklable_payload_raises_pool_unavailable(self):
        with pytest.raises(PoolUnavailable):
            ParallelProver(jobs=2, payload=lambda: None,
                           initializer=ob.worker_initialize,
                           worker=ob.worker_discharge)

    def test_single_group_skips_the_pool(self):
        program = program_named("sum")
        result = program.check(options=CheckerOptions(jobs=4))
        assert verdicts(result) \
            == verdicts(program.check(options=CheckerOptions(jobs=1)))
        assert result.prover_stats.get("pool_tasks_dispatched") == 0


class TestEnvDefaults:
    def test_repro_jobs_env_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert CheckerOptions().jobs == 3
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        assert CheckerOptions().jobs == 1

    def test_repro_cache_env_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "/tmp/somewhere.sqlite")
        assert CheckerOptions().cache_path == "/tmp/somewhere.sqlite"
        monkeypatch.delenv("REPRO_CACHE")
        assert CheckerOptions().cache_path is None

    def test_jobs_zero_means_all_cores(self):
        import os
        assert ob.resolve_jobs(CheckerOptions(jobs=0)) \
            == (os.cpu_count() or 1)
        assert ob.resolve_jobs(CheckerOptions(jobs=5)) == 5


class TestStatsSplit:
    def test_reset_stats_keeps_caches(self):
        from repro.logic.formula import conj, ge
        from repro.logic.terms import Linear
        prover = Prover()
        f = conj(ge(Linear.var("x"), 0), ge(Linear.var("y"), 2))
        prover.is_satisfiable(f)
        prover.reset_stats()
        assert prover.stats.satisfiability_queries == 0
        prover.is_satisfiable(f)  # still answered from the raw cache
        assert prover.stats.cache_hits == 1

    def test_clear_caches_keeps_stats(self):
        from repro.logic.formula import ge
        from repro.logic.terms import Linear
        prover = Prover()
        prover.is_satisfiable(ge(Linear.var("x"), 0))
        queries = prover.stats.satisfiability_queries
        prover.clear_caches()
        assert prover.stats.satisfiability_queries == queries
        prover.is_satisfiable(ge(Linear.var("x"), 0))
        assert prover.stats.cache_hits == 0  # cache really was dropped


class TestWorkerTaskIsolation:
    """A pool worker runs whichever tasks the pool hands it, in any
    order; each task must report the same verdicts and counters as if
    it ran first, or a ``--jobs 2`` check's counters would depend on
    scheduling."""

    def discharge_in_order(self, machine, spec, groups):
        import pickle
        ob.worker_initialize(pickle.dumps((machine, spec,
                                           CheckerOptions(jobs=1))))
        try:
            outcomes = {}
            for group in groups:
                verdicts, stats, induction, __, touched = \
                    ob.worker_discharge(pickle.dumps(list(group)))
                stats = {name: value for name, value in stats.items()
                         if not name.endswith("seconds")}
                outcomes[group[0].oid] = (verdicts, stats, induction,
                                          touched)
            return outcomes
        finally:
            ob._WORKER_STATE.clear()

    def test_task_outcome_does_not_depend_on_earlier_tasks(self):
        from repro.analysis.annotate import annotate
        benchmark = program_named("hash")
        machine = benchmark.program().lower()
        spec = benchmark.spec()
        engine = ob.build_engine(machine, spec, CheckerOptions())
        annotations = annotate(engine.cfg, engine.propagation.inputs,
                               spec, engine.preparation.locations)
        groups = ob.obligation_groups(
            engine, ob.generate_obligations(annotations))
        assert len(groups) >= 2
        forward = self.discharge_in_order(machine, spec, groups)
        backward = self.discharge_in_order(machine, spec, groups[::-1])
        assert forward == backward
