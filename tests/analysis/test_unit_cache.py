"""The function-granular verdict cache is pure optimization: replayed
runs must be byte-identical to cache-free ones, edits must invalidate
exactly the functions they touch, and the unit digests must be stable
across processes (hash randomization included).

The multi-function program under test is the incremental benchmark
chain (``main -> fone -> ftwo -> fthree``) whose obligations all stay
local to their function, so every unit is a one-member group.  The
group tests use a caller/callee pair whose proofs touch each other, so
both units form one group that stores and replays as a whole.
"""

import json
import os
import sqlite3
import subprocess
import sys

import pytest

from repro.analysis.checker import check_assembly
from repro.analysis.options import CheckerOptions
from repro.analysis.report import result_to_json, verdict_projection
from repro.programs.incremental import (
    INCREMENTAL_EDITED_SOURCE, INCREMENTAL_SOURCE, INCREMENTAL_SPEC,
)

#: ``fthree`` indexes with a stride of 8 over the 64-word array: reads
#: up to offset 504 while the spec grants 252 — unsafe, in phase 5.
UNSAFE_SOURCE = "%s%s%s" % (
    *INCREMENTAL_SOURCE.rpartition("sll %g7,2,%g2")[0:1],
    "sll %g7,3,%g2",
    INCREMENTAL_SOURCE.rpartition("sll %g7,2,%g2")[2])


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


def cache_at(tmp_path):
    return os.path.join(str(tmp_path), "units.sqlite")


class TestByteIdentity:
    def test_json_identical_across_cache_states(self, tmp_path):
        cache = cache_at(tmp_path)
        reference = _check(INCREMENTAL_SOURCE, CheckerOptions())
        cold = _check(INCREMENTAL_SOURCE,
                      CheckerOptions(cache_path=cache))
        warm = _check(INCREMENTAL_SOURCE,
                      CheckerOptions(cache_path=cache))
        assert warm.prover_stats["unit_hits"] > 0
        assert reference.prover_stats.get("unit_lookups", 0) == 0
        want = _json_bytes(reference)
        assert want == _json_bytes(cold) == _json_bytes(warm)
        want = _fingerprint(reference)
        assert want == _fingerprint(cold) == _fingerprint(warm)

    def test_unsafe_program_replays_identically(self, tmp_path):
        cache = cache_at(tmp_path)
        reference = _check(UNSAFE_SOURCE, CheckerOptions())
        assert not reference.safe
        cold = _check(UNSAFE_SOURCE,
                      CheckerOptions(cache_path=cache))
        warm = _check(UNSAFE_SOURCE,
                      CheckerOptions(cache_path=cache))
        assert warm.prover_stats["unit_hits"] > 0
        assert _fingerprint(reference) == _fingerprint(cold) \
            == _fingerprint(warm)
        assert _json_bytes(reference) == _json_bytes(warm)


class TestInvalidation:
    def test_edit_one_function_reproves_only_it(self, tmp_path):
        cache = cache_at(tmp_path)
        base = _check(INCREMENTAL_SOURCE,
                      CheckerOptions(cache_path=cache))
        assert base.prover_stats["unit_stores"] >= 3
        reference = _check(INCREMENTAL_EDITED_SOURCE,
                           CheckerOptions())
        warm = _check(INCREMENTAL_EDITED_SOURCE,
                      CheckerOptions(cache_path=cache))
        stats = warm.prover_stats
        # The edit is inside fone; ftwo and fthree replay, fone (the
        # only miss) is re-proved and stored under its new digest.
        assert stats["unit_hits"] == 2
        assert stats["unit_misses"] >= 1
        assert stats["unit_replayed_obligations"] > 0
        assert stats["unit_stores"] >= 1
        assert _fingerprint(reference) == _fingerprint(warm)
        rewarm = _check(INCREMENTAL_EDITED_SOURCE,
                        CheckerOptions(cache_path=cache))
        assert rewarm.prover_stats["unit_hits"] \
            == rewarm.prover_stats["unit_lookups"]
        assert _fingerprint(reference) == _fingerprint(rewarm)

    def test_spec_change_invalidates_every_unit(self, tmp_path):
        cache = cache_at(tmp_path)
        primed = _check(INCREMENTAL_SOURCE,
                        CheckerOptions(cache_path=cache))
        assert primed.prover_stats["unit_stores"] >= 3
        changed_spec = INCREMENTAL_SPEC + \
            "loc pad : int = initialized perms ro region V summary\n"
        result = check_assembly(
            INCREMENTAL_SOURCE, changed_spec, name="incremental",
            options=CheckerOptions(cache_path=cache))
        stats = result.prover_stats
        assert stats["unit_lookups"] > 0
        assert stats["unit_hits"] == 0

    def test_verdict_affecting_option_invalidates_every_unit(
            self, tmp_path):
        cache = cache_at(tmp_path)
        _check(INCREMENTAL_SOURCE,
               CheckerOptions(cache_path=cache))
        result = _check(
            INCREMENTAL_SOURCE,
            CheckerOptions(cache_path=cache,
                           max_induction_iterations=4))
        stats = result.prover_stats
        assert stats["unit_lookups"] > 0
        assert stats["unit_hits"] == 0

    def test_performance_option_does_not_invalidate(self, tmp_path):
        cache = cache_at(tmp_path)
        _check(INCREMENTAL_SOURCE,
               CheckerOptions(cache_path=cache))
        result = _check(
            INCREMENTAL_SOURCE,
            CheckerOptions(cache_path=cache,
                           enable_prover_cache=False))
        stats = result.prover_stats
        assert stats["unit_hits"] == stats["unit_lookups"] > 0


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
for (key,) in conn.execute(
        "SELECT unit_key FROM units ORDER BY unit_key"):
    print(key)
"""


class TestDigestStability:
    def test_unit_keys_identical_across_hash_seeds(self, tmp_path):
        """The stored unit keys — spec digest, options digest, and
        function input digest combined — must not depend on Python's
        per-process hash randomization."""
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
        assert len(keys[0]) >= 3
        assert all(len(key) == 64 for key in keys[0])

    def test_warm_hit_from_a_fresh_cache_handle(self, tmp_path):
        """A second checker process (simulated: fresh persistent
        handle, cleared in-process caches) replays what the first one
        stored — the cross-run contract of the cache."""
        cache = cache_at(tmp_path)
        _check(INCREMENTAL_SOURCE,
               CheckerOptions(cache_path=cache))
        conn = sqlite3.connect(cache)
        stored = conn.execute("SELECT COUNT(*) FROM units") \
            .fetchone()[0]
        conn.close()
        assert stored >= 3
        warm = _check(INCREMENTAL_SOURCE,
                      CheckerOptions(cache_path=cache))
        assert warm.prover_stats["unit_hits"] >= 3


class TestReplayTracing:
    def test_replay_emits_schema_valid_spans(self, tmp_path):
        from repro.trace.schema import load_trace, validate_records
        cache = cache_at(tmp_path)
        _check(INCREMENTAL_SOURCE,
               CheckerOptions(cache_path=cache))
        trace = os.path.join(str(tmp_path), "warm.jsonl")
        warm = _check(INCREMENTAL_SOURCE,
                      CheckerOptions(cache_path=cache,
                                     trace_path=trace))
        assert warm.prover_stats["unit_hits"] > 0
        records = load_trace(trace)
        validate_records(records)
        replayed = [r for r in records
                    if r.get("name") == "function:replayed"
                    and r.get("type") == "span"]
        assert replayed, "warm run recorded no function:replayed span"
        functions = {r["attrs"]["function"] for r in replayed}
        assert functions <= {"main", "fone", "ftwo", "fthree"}
        for record in replayed:
            attrs = record["attrs"]
            assert len(attrs["input_digest"]) == 64
            assert attrs["obligations"] >= 1
            assert attrs["proved"] <= attrs["obligations"]
        obligations = [r for r in records
                       if r.get("name") == "obligation"
                       and r.get("type") == "span"
                       and r["attrs"].get("replayed")]
        assert obligations, "replayed obligations carry no spans"


# ---------------------------------------------------------------------------
# unit groups
# ---------------------------------------------------------------------------

#: A caller/callee pair whose proofs touch each other: fget's load is
#: bounded only by the caller's loop (its proof walks into ``<main>``),
#: and main's load uses the offset fget leaves in %g2 (its proof walks
#: into ``fget``).  Neither unit is self-contained; together they are.
PAIR_SOURCE = """
! %o0 = arr (n words), %o1 = n >= 1: main reads arr[i] via fget,
! then re-reads the slot fget left in %g2.
    mov %o7,%g4          ! save the host return address
    clr %o2              ! i = 0
loop:
    call fget
    nop
    ld [%o0+%g2],%g3     ! offset computed by fget
    inc %o2
    cmp %o2,%o1
    bl loop
    nop
    mov %g4,%o7
    retl
    nop

fget:
! fget(a=%o0, i=%o2): %g2 = 4*i, %g3 = a[i]
    sll %o2,2,%g2
    ld [%o0+%g2],%g3
    retl
    nop
"""

#: The callee edited so that it reads a[2i]: unsafe, and both members'
#: verdicts must be re-proved.
PAIR_EDITED_SOURCE = PAIR_SOURCE.replace("sll %o2,2,%g2", "sll %o2,3,%g2")

PAIR_SPEC = """
loc e   : int    = initialized  perms ro  region V summary
loc arr : int[n] = {e}          perms rfo region V
rule [V : int : ro]
rule [V : int[n] : rfo]
invoke %o0 = arr
invoke %o1 = n
assume n >= 1
"""


def _check_pair(source, options):
    return check_assembly(source, PAIR_SPEC, name="pair",
                          options=options)


def _unit_rows(cache):
    conn = sqlite3.connect(cache)
    try:
        return conn.execute(
            "SELECT unit_key, deps_digest, payload FROM units "
            "WHERE kind='unit'").fetchall()
    finally:
        conn.close()


def _rewrite_payloads(cache, rewrite):
    """Replace every stored unit payload with ``rewrite(payload)``."""
    conn = sqlite3.connect(cache)
    try:
        for key, deps, text in conn.execute(
                "SELECT unit_key, deps_digest, payload FROM units "
                "WHERE kind='unit'").fetchall():
            conn.execute(
                "UPDATE units SET payload=? "
                "WHERE unit_key=? AND deps_digest=?",
                (json.dumps(rewrite(json.loads(text))), key, deps))
        conn.commit()
    finally:
        conn.close()


class TestUnitGroups:
    def test_cold_run_stores_one_group(self, tmp_path):
        cache = cache_at(tmp_path)
        cold = _check_pair(PAIR_SOURCE,
                           CheckerOptions(cache_path=cache))
        assert cold.safe
        assert cold.prover_stats["unit_lookups"] == 2
        assert cold.prover_stats["unit_stores"] == 1
        rows = _unit_rows(cache)
        assert len(rows) == 1
        payload = json.loads(rows[0][2])
        assert [member[0] for member in payload["members"]] \
            == ["<main>", "fget"]
        assert payload["function"] == "<main>"
        assert sorted(payload["deps"]) == ["<main>", "fget"]

    def test_warm_run_replays_both_members(self, tmp_path):
        cache = cache_at(tmp_path)
        _check_pair(PAIR_SOURCE, CheckerOptions(cache_path=cache))
        warm = _check_pair(PAIR_SOURCE,
                           CheckerOptions(cache_path=cache))
        stats = warm.prover_stats
        assert stats["unit_hits"] == stats["unit_lookups"] == 2
        assert stats["unit_misses"] == 0
        assert stats["unit_stores"] == 0
        assert stats["unit_aborts"] == 0
        assert warm.prover_queries == 0

    def test_json_identical_across_cache_states(self, tmp_path):
        cache = cache_at(tmp_path)
        reference = _check_pair(PAIR_SOURCE, CheckerOptions())
        cold = _check_pair(PAIR_SOURCE,
                           CheckerOptions(cache_path=cache))
        warm = _check_pair(PAIR_SOURCE,
                           CheckerOptions(cache_path=cache))
        assert warm.prover_stats["unit_hits"] == 2
        assert reference.prover_stats.get("unit_lookups", 0) == 0
        want = _json_bytes(reference)
        for result in (cold, warm):
            assert _json_bytes(result) == want
            assert _fingerprint(result) == _fingerprint(reference)

    def test_callee_edit_misses_both_members(self, tmp_path):
        cache = cache_at(tmp_path)
        _check_pair(PAIR_SOURCE, CheckerOptions(cache_path=cache))
        reference = _check_pair(PAIR_EDITED_SOURCE,
                                CheckerOptions())
        assert not reference.safe
        warm = _check_pair(PAIR_EDITED_SOURCE,
                           CheckerOptions(cache_path=cache))
        stats = warm.prover_stats
        assert stats["unit_lookups"] == stats["unit_misses"] == 2
        assert stats["unit_hits"] == 0
        assert _fingerprint(warm) == _fingerprint(reference)
        assert _json_bytes(warm) == _json_bytes(reference)

    @pytest.mark.parametrize("tamper", [
        "missing-member", "extra-member", "reordered-members",
        "duplicate-member", "stale-obligations", "malformed-label",
        "malformed-verdict",
    ])
    def test_tampered_group_is_rejected(self, tmp_path, tamper):
        def rewrite(payload):
            members = payload["members"]
            if tamper == "missing-member":
                payload["members"] = members[:1]
            elif tamper == "extra-member":
                payload["members"] = members + [["ghost", []]]
            elif tamper == "reordered-members":
                payload["members"] = members[::-1]
            elif tamper == "duplicate-member":
                payload["members"] = members + members[-1:]
            elif tamper == "malformed-label":
                members[-1][0] = [members[-1][0]]
            elif tamper == "malformed-verdict":
                members[-1][1][0] = members[-1][1][0][:1]
            else:
                members[-1][1] = members[-1][1][:-1]
            return payload

        cache = cache_at(tmp_path)
        reference = _check_pair(PAIR_SOURCE, CheckerOptions())
        _check_pair(PAIR_SOURCE, CheckerOptions(cache_path=cache))
        _rewrite_payloads(cache, rewrite)
        warm = _check_pair(PAIR_SOURCE,
                           CheckerOptions(cache_path=cache))
        stats = warm.prover_stats
        assert stats["unit_hits"] == 0
        assert stats["unit_misses"] == stats["unit_lookups"] == 2
        assert _fingerprint(warm) == _fingerprint(reference)

    def test_schema_1_rows_miss_without_raising(self, tmp_path):
        """A store written by the per-function layout (``schema`` 1:
        one ``obligations`` list per row, no ``members``) is a miss,
        then gets re-stored in the group layout."""
        def legacy(payload):
            anchor = payload["members"][0]
            return {"schema": 1, "function": anchor[0],
                    "obligations": anchor[1], "deps": payload["deps"]}

        cache = cache_at(tmp_path)
        reference = _check_pair(PAIR_SOURCE, CheckerOptions())
        _check_pair(PAIR_SOURCE, CheckerOptions(cache_path=cache))
        _rewrite_payloads(cache, legacy)
        warm = _check_pair(PAIR_SOURCE,
                           CheckerOptions(cache_path=cache))
        stats = warm.prover_stats
        assert stats["unit_hits"] == 0
        assert stats["unit_stores"] == 1
        assert _fingerprint(warm) == _fingerprint(reference)
        rewarm = _check_pair(PAIR_SOURCE,
                             CheckerOptions(cache_path=cache))
        assert rewarm.prover_stats["unit_hits"] == 2


def _plain_input_digest(engine, label):
    """The function input digest recipe with every store rendered by
    plain ``AbstractStore.render()`` — the reference bytes."""
    from repro.analysis.units import _render_op
    from repro.logic.serialize import formula_digest, text_digest
    cfg = engine.cfg
    uids = sorted(cfg.functions[label].node_uids)
    ordinal = {uid: position for position, uid in enumerate(uids)}
    indices = [cfg.node(uid).index for uid in uids if cfg.node(uid).index]
    base_index = min(indices) if indices else 0
    parts = []
    for uid in uids:
        node = cfg.node(uid)
        relative = node.index - base_index if node.index else -1
        parts.append("n%d i%d %s %s" % (
            ordinal[uid], relative, node.role.value,
            _render_op(node.instruction, base_index)))
        store = engine.propagation.inputs.get(uid)
        parts.append(store.render() if store is not None else "-")
    edges = []
    for uid in uids:
        for edge in cfg.successors(uid):
            dst = str(ordinal[edge.dst]) if edge.dst in ordinal \
                else "x:" + cfg.node(edge.dst).function
            edges.append("e %d %s %s %s" % (
                ordinal[uid], dst, edge.kind.value,
                edge.condition if edge.condition is not None else "-"))
    parts.extend(sorted(edges))
    for loop in sorted(engine.loops[label].loops,
                       key=lambda l: l.header):
        parts.append("h%d %s" % (
            ordinal.get(loop.header, -1),
            formula_digest(engine.header_facts(loop))))
    return text_digest("fn", label, *parts)


class TestInputDigest:
    @pytest.mark.parametrize("name", ["md5", "heapsort2"])
    def test_memoized_render_matches_plain_render(self, name):
        """The input digest renders each distinct typestate object
        once; its bytes must equal the plain-render recipe's."""
        from repro.analysis.prepare import prepare
        from repro.analysis.propagate import propagate
        from repro.analysis.units import function_input_digest
        from repro.analysis.verify import VerificationEngine
        from repro.cfg import build_cfg
        from repro.programs import all_programs
        program = next(p for p in all_programs() if p.name == name)
        spec = program.spec()
        preparation = prepare(spec)
        cfg = build_cfg(program.program(),
                        trusted_labels=set(spec.functions))
        propagation = propagate(cfg, preparation, spec)
        engine = VerificationEngine(cfg, propagation, preparation, spec,
                                    CheckerOptions())
        assert len(cfg.functions) == 2
        for label in cfg.functions:
            assert function_input_digest(engine, label) \
                == _plain_input_digest(engine, label)


def _figure9_or_chain():
    from repro.programs import all_programs
    cases = [pytest.param(program.source, program.spec_text,
                          id=program.name)
             for program in all_programs()]
    cases.append(pytest.param(INCREMENTAL_SOURCE, INCREMENTAL_SPEC,
                              id="chain"))
    return cases


class TestReplayedInputDigests:
    """The phase 2–4 payload carries every function's input digest, so
    a warm unchanged re-check renders no propagated store."""

    def test_warm_recheck_computes_no_input_digest(self, tmp_path,
                                                   monkeypatch):
        from repro.analysis import units
        from repro.cfg import loops
        cache = cache_at(tmp_path)
        _check(INCREMENTAL_SOURCE, CheckerOptions(cache_path=cache))
        digests, forests = [], []
        input_digest = units.function_input_digest
        compute_idoms = loops.compute_idoms
        monkeypatch.setattr(
            units, "function_input_digest",
            lambda engine, label: digests.append(label)
            or input_digest(engine, label))
        # Every ``find_loops`` call, wherever it was imported, starts
        # with the function's dominator tree.
        monkeypatch.setattr(
            loops, "compute_idoms",
            lambda cfg, label: forests.append(label)
            or compute_idoms(cfg, label))
        warm = _check(INCREMENTAL_SOURCE,
                      CheckerOptions(cache_path=cache))
        assert warm.prover_stats["unit_pipeline_hits"] == 1
        assert warm.prover_stats["unit_hits"] \
            == warm.prover_stats["unit_lookups"] > 0
        assert digests == []
        assert sorted(forests) == sorted(
            ["<main>", "fone", "ftwo", "fthree"])

    @pytest.mark.parametrize("source, spec", _figure9_or_chain())
    def test_replayed_digests_match_the_replaying_engine(
            self, tmp_path, monkeypatch, source, spec):
        from repro.analysis.checker import SafetyChecker
        from repro.analysis.units import function_input_digest
        cache = cache_at(tmp_path)
        check_assembly(source, spec, options=CheckerOptions(
            cache_path=cache))
        seen = []
        discharge = SafetyChecker._discharge

        def capturing(self, engine, annotations, input_digests):
            seen.append((engine, input_digests))
            return discharge(self, engine, annotations, input_digests)

        monkeypatch.setattr(SafetyChecker, "_discharge", capturing)
        warm = check_assembly(source, spec, options=CheckerOptions(
            cache_path=cache))
        assert warm.prover_stats["unit_pipeline_hits"] == 1
        (engine, replayed), = seen
        assert replayed == {
            label: function_input_digest(engine, label)
            for label in engine.cfg.functions}


class TestReplayAbort:
    """A fresh proof that walks into a replayed group's dependency set
    discards the replay and re-proves every obligation on a new engine
    (``unit_aborts``); the verdicts are a store-free check's."""

    @pytest.mark.parametrize("source, forward_runs", [
        # Phases 2–4 replay: the forward facts come from the store.
        pytest.param(INCREMENTAL_SOURCE, 0, id="unchanged"),
        # Phases 2–4 rerun: one forward pass, shared by the redo.
        pytest.param(INCREMENTAL_EDITED_SOURCE, 1, id="edited"),
    ])
    def test_abort_checks_like_no_store(self, tmp_path, monkeypatch,
                                        source, forward_runs):
        from repro.analysis import forward
        from repro.analysis.units import UnitManager
        cache = cache_at(tmp_path)
        reference = _check(source, CheckerOptions())
        _check(INCREMENTAL_SOURCE, CheckerOptions(cache_path=cache))
        runs = []

        class CountingForward(forward.ForwardBounds):
            def __init__(self, *args):
                runs.append(args)
                super().__init__(*args)

        monkeypatch.setattr(forward, "ForwardBounds", CountingForward)
        monkeypatch.setattr(UnitManager, "replay_conflicts",
                            lambda self, touched, groups: bool(groups))
        warm = _check(source, CheckerOptions(cache_path=cache))
        assert warm.prover_stats["unit_hits"] > 0
        assert warm.prover_stats["unit_aborts"] == 1
        assert len(runs) == forward_runs
        assert _fingerprint(warm) == _fingerprint(reference)
        assert _json_bytes(warm) == _json_bytes(reference)


@pytest.mark.bench
class TestHeavyGroupReplay:
    @pytest.mark.parametrize("name", ["md5", "heapsort2"])
    def test_warm_recheck_replays_every_unit(self, tmp_path, name):
        from repro.programs import all_programs
        program = next(p for p in all_programs() if p.name == name)
        cache = cache_at(tmp_path)
        reference = program.check(options=CheckerOptions())
        cold = program.check(
            options=CheckerOptions(cache_path=cache))
        warm = program.check(
            options=CheckerOptions(cache_path=cache))
        stats = warm.prover_stats
        assert stats["unit_hits"] == stats["unit_lookups"] == 2
        assert warm.prover_queries == 0
        assert _fingerprint(reference) == _fingerprint(cold) \
            == _fingerprint(warm)
        assert _json_bytes(reference) == _json_bytes(warm)
