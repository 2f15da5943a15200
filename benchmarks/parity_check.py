#!/usr/bin/env python
"""Assert that performance features change nothing but time.

Checks every program of the Figure-9 suite (SPARC) and the
cross-backend parity programs (RISC-V) at default options — the
reference run — and then under the configurations selected below,
failing loudly unless the safety verdict, every per-condition proof
outcome, and every violation are identical to the reference.  At
least one of ``--ablations``, ``--incremental`` and ``--dump`` is
required.

With ``--ablations`` each program also runs under the paper's
prover cache ablation (``no-prover-cache``: every query decided from
scratch, no result cache or session memo) and every verdict
fingerprint must match the default configuration; the ablated run
must also answer nothing from a cache.  This is the verdict gate of
the prover cache; the timed benchmark is perfbench
(``perfbench/run.py``).

With ``--incremental`` each program also runs against the replay
store — cold and warm — and every verdict fingerprint must match the
store-free reference run; the unchanged warm re-check must also replay
phases 2-4 and every phase-5 unit (``unit_hits == unit_lookups``); a
dedicated multi-function program then checks the edit-one-function path: priming the cache with
the base program and re-checking an edited variant must replay the
untouched functions (``unit_hits > 0``) and still match a cache-free
check of the edited program exactly.

With ``--dump FILE`` every Figure-9 program, the RV32I cases below
and fuzz generator seeds 0-59 on both frontends (as ``--arch``
selects) are checked store-free under a 5 s limit, and FILE gets one
JSON record per check: the ``result_to_json`` payload
without ``times`` and without the float prover fields (the integer
counters stay), or just ``{"timed_out": true}`` for a check that hit
the limit.  Two dumps made from two versions of the checker compare
with ``diff``: a change that only buys time must leave them
identical apart from checks that time out on one side.

Usage::

    PYTHONPATH=src python benchmarks/parity_check.py
        [--arch sparc|riscv|both] [--full] [--ablations]
        [--incremental] [--dump FILE]
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))

from repro.analysis.checker import check_assembly  # noqa: E402
from repro.analysis.options import CheckerOptions  # noqa: E402
from repro.analysis.report import result_to_json  # noqa: E402
from repro.logic.memo import clear_all_caches  # noqa: E402

# RISC-V programs mirroring tests/ir/test_parity.py: a loop that needs
# invariant synthesis (safe), its off-by-one variant (unsafe), and
# in/out-of-bounds constant-offset stores.
RISCV_SPEC_RW = """
loc e   : int    = initialized  perms rwo  region V summary
loc arr : int[n] = {e}          perms rwfo region V
rule [V : int : rwo]
rule [V : int[n] : rwfo]
invoke a0 = arr
assume n = 10
"""

RISCV_SPEC_SUM = """
loc e   : int    = initialized  perms ro  region V summary
loc arr : int[n] = {e}          perms rfo region V
rule [V : int : ro]
rule [V : int[n] : rfo]
invoke a0 = arr
invoke a1 = n
assume n >= 1
"""

RISCV_SUM = """
1: mv a2,a0
2: li a0,0
3: li t0,0
4: bge t0,a1,11
5: slli t1,t0,2
6: add t2,a2,t1
7: lw t1,0(t2)
8: addi t0,t0,1
9: add a0,a0,t1
10: blt t0,a1,5
11: ret
"""

RISCV_CASES = [
    ("riscv-sum", RISCV_SUM, RISCV_SPEC_SUM),
    ("riscv-sum-oob",
     RISCV_SUM.replace("blt t0,a1,5", "bge a1,t0,5"), RISCV_SPEC_SUM),
    ("riscv-write", "1: sw zero,0(a0)\n2: ret\n", RISCV_SPEC_RW),
    ("riscv-write-oob", "1: sw zero,40(a0)\n2: ret\n", RISCV_SPEC_RW),
]


def fingerprint(result):
    return (result.safe,
            tuple((p.uid, p.index, p.proved) for p in result.proofs),
            tuple((v.index, v.category, v.description, v.phase)
                  for v in result.violations))


#: The paper's one prover ablation: the result caches off.
ABLATIONS = [
    ("no-prover-cache", dict(enable_prover_cache=False)),
]

#: prover_stats counters of queries and conjuncts answered from a
#: result cache; all must stay 0 with the cache off.
CACHE_HITS = ("cache_hits", "conjunct_cache_hits")


def compare_ablations(name, reference, check, failures):
    for ablation, overrides in ABLATIONS:
        result = check(CheckerOptions(**overrides))
        ok = fingerprint(reference) == fingerprint(result)
        hits = sum(result.prover_stats[k] for k in CACHE_HITS)
        print("%-18s %-14s %s"
              % (name, ablation,
                 "PARITY MISMATCH" if not ok else
                 "CACHE HITS" if hits else "parity OK"))
        if not ok:
            failures.append("%s[%s]" % (name, ablation))
        elif hits:
            failures.append("%s[%s: %d cache hits]"
                            % (name, ablation, hits))


def compare_incremental(name, reference, check, failures):
    """Verdict parity of one program across the replay-store states."""
    scratch = tempfile.mkdtemp(prefix="repro-parity-")
    cache = os.path.join(scratch, "cache.sqlite")
    try:
        cold = check(CheckerOptions(cache_path=cache))
        warm = check(CheckerOptions(cache_path=cache))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    want = fingerprint(reference)
    ok = want == fingerprint(cold) == fingerprint(warm)
    stats = warm.prover_stats
    pipeline_hits = stats.get("unit_pipeline_hits", 0)
    hits = stats.get("unit_hits", 0)
    lookups = stats.get("unit_lookups", 0)
    if not ok:
        status = "PARITY MISMATCH"
    elif not pipeline_hits:
        status = "NO PHASE REPLAY"
    elif hits < lookups:
        status = "UNITS RE-PROVED"
    else:
        status = "parity OK"
    print("%-18s %-14s %s (units: %d/%d hit, %d replayed; "
          "phases 2-4: %d functions replayed)"
          % (name, "incremental", status, hits, lookups,
             stats.get("unit_replayed_obligations", 0),
             stats.get("unit_pipeline_replayed_functions", 0)))
    if not ok:
        failures.append("%s[incremental]" % name)
    elif not pipeline_hits:
        # An unchanged warm re-check must serve phases 2-4 from the
        # store, not just the phase-5 verdicts.
        failures.append("%s[no phase 2-4 replay]" % name)
    elif hits < lookups:
        # ... and every phase-5 unit: the cold run stored each group.
        failures.append("%s[units re-proved warm]" % name)


def run_incremental_edit(failures):
    """The edit-one-function path: prime with the base program, check
    the edited variant warm — untouched functions must replay and the
    verdicts must match a cache-free check of the edited program."""
    from repro.programs.incremental import (
        INCREMENTAL_EDITED_SOURCE, INCREMENTAL_SOURCE, INCREMENTAL_SPEC,
    )
    scratch = tempfile.mkdtemp(prefix="repro-parity-")
    cache = os.path.join(scratch, "cache.sqlite")
    try:
        reference = check_assembly(
            INCREMENTAL_EDITED_SOURCE, INCREMENTAL_SPEC,
            name="incremental", options=CheckerOptions())
        check_assembly(
            INCREMENTAL_SOURCE, INCREMENTAL_SPEC, name="incremental",
            options=CheckerOptions(cache_path=cache))
        warm = check_assembly(
            INCREMENTAL_EDITED_SOURCE, INCREMENTAL_SPEC,
            name="incremental",
            options=CheckerOptions(cache_path=cache))
        # The warm run just re-stored phases 2-4 for the edited
        # program; an *unchanged* re-check must now replay them
        # wholesale and still match the cache-free reference.
        recheck = check_assembly(
            INCREMENTAL_EDITED_SOURCE, INCREMENTAL_SPEC,
            name="incremental",
            options=CheckerOptions(cache_path=cache))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    ok = fingerprint(reference) == fingerprint(warm)
    hits = warm.prover_stats.get("unit_hits", 0)
    print("%-18s %-14s %s (units: %d hit after edit)"
          % ("incremental-edit", "incremental",
             "parity OK" if ok and hits else
             "PARITY MISMATCH" if not ok else "NO UNIT HITS",
             hits))
    if not ok:
        failures.append("incremental-edit[verdicts]")
    elif not hits:
        failures.append("incremental-edit[no unit hits]")
    replay_ok = fingerprint(reference) == fingerprint(recheck)
    replayed = recheck.prover_stats.get(
        "unit_pipeline_replayed_functions", 0)
    print("%-18s %-14s %s (phases 2-4: %d functions replayed)"
          % ("incremental-replay", "incremental",
             "parity OK" if replay_ok and replayed else
             "PARITY MISMATCH" if not replay_ok else "NO PHASE REPLAY",
             replayed))
    if not replay_ok:
        failures.append("incremental-replay[verdicts]")
    elif not replayed:
        failures.append("incremental-replay[no phase 2-4 replay]")


def run_sparc(full, failures, ablations=False, incremental=False):
    from repro.programs import all_programs, fast_programs
    for program in (all_programs() if full else fast_programs()):
        reference = program.check(options=CheckerOptions())
        if ablations:
            compare_ablations(
                "sparc:" + program.name, reference,
                lambda options, program=program:
                    program.check(options=options),
                failures)
        if incremental:
            compare_incremental(
                "sparc:" + program.name, reference,
                lambda options, program=program:
                    program.check(options=options),
                failures)
    if incremental:
        run_incremental_edit(failures)


def run_riscv(failures, ablations=False, incremental=False):
    for name, source, spec in RISCV_CASES:
        reference = check_assembly(source, spec, name=name,
                                   arch="riscv", options=CheckerOptions())
        if ablations:
            compare_ablations(
                name, reference,
                lambda options, source=source, spec=spec, name=name:
                    check_assembly(source, spec, name=name,
                                   arch="riscv", options=options),
                failures)
        if incremental:
            compare_incremental(
                name, reference,
                lambda options, source=source, spec=spec, name=name:
                    check_assembly(source, spec, name=name,
                                   arch="riscv", options=options),
                failures)


#: Per-check limit of a ``--dump`` run (seconds).
DUMP_TIMEOUT_S = 5.0

#: Fuzz generator seeds a ``--dump`` run checks on each frontend.
DUMP_FUZZ_SEEDS = range(60)


def dump_cases(arch):
    """(key, source, spec text, arch) of every check ``--dump``
    records for *arch* (``sparc``, ``riscv`` or ``both``)."""
    from repro.fuzz.generator import ARCHS, generate_sketch, lower, \
        spec_text
    from repro.programs import all_programs
    cases = []
    if arch in ("sparc", "both"):
        cases += [(program.name, program.source, program.spec_text,
                   "sparc") for program in all_programs()]
    if arch in ("riscv", "both"):
        cases += [(name, source, spec, "riscv")
                  for name, source, spec in RISCV_CASES]
    for seed in DUMP_FUZZ_SEEDS:
        sketch = generate_sketch(seed)
        for fuzz_arch in ARCHS:
            if arch in (fuzz_arch, "both"):
                cases.append(("fuzz-%d/%s" % (seed, fuzz_arch),
                              lower(sketch, fuzz_arch),
                              spec_text(sketch, fuzz_arch), fuzz_arch))
    return cases


def dump_record(result):
    """The parts of one check's ``result_to_json`` that two versions of
    the checker must agree on."""
    if result.timed_out:
        return {"timed_out": True}
    payload = result_to_json(result)
    del payload["times"]
    payload["prover"] = {name: value
                         for name, value in payload["prover"].items()
                         if not isinstance(value, float)}
    return payload


def write_dump(path, cases, timeout_s=DUMP_TIMEOUT_S):
    """Check every case cold and write the records to *path*."""
    records = {}
    for key, source, spec, arch in cases:
        clear_all_caches()
        result = check_assembly(
            source, spec, name=key, arch=arch,
            options=CheckerOptions(timeout_s=timeout_s))
        records[key] = dump_record(result)
        print("%-18s %-14s %s" % (key, "dump", result.verdict))
    with open(path, "w", encoding="utf-8") as out:
        json.dump(records, out, indent=1, sort_keys=True)
        out.write("\n")
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--arch", choices=["sparc", "riscv", "both"],
                        default="both")
    parser.add_argument("--full", action="store_true",
                        help="include the heavyweight SPARC programs")
    parser.add_argument("--ablations", action="store_true",
                        help="also check the prover cache ablation "
                             "(no-prover-cache) against the default "
                             "configuration")
    parser.add_argument("--incremental", action="store_true",
                        help="also check the replay store (cold / "
                             "warm, plus the edit-one-function path) "
                             "against the store-free default "
                             "configuration")
    parser.add_argument("--dump", metavar="FILE",
                        help="write each check's verdict record "
                             "(Figure 9, the RV32I cases, fuzz seeds "
                             "0-59) to FILE for diffing two versions")
    args = parser.parse_args(argv)
    if not (args.ablations or args.incremental or args.dump):
        parser.error("nothing to compare: pass --ablations, "
                     "--incremental and/or --dump")
    if args.dump:
        write_dump(args.dump, dump_cases(args.arch))
        if not (args.ablations or args.incremental):
            return 0
    failures = []
    if args.arch in ("sparc", "both"):
        run_sparc(args.full, failures, ablations=args.ablations,
                  incremental=args.incremental)
    if args.arch in ("riscv", "both"):
        run_riscv(failures, ablations=args.ablations,
                  incremental=args.incremental)
    if failures:
        print("parity FAILED for: %s" % ", ".join(failures))
        return 1
    checked = [label for flag, label in (
        (args.ablations, "under the prover cache ablation"),
        (args.incremental, "across every replay-store state")) if flag]
    print("all verdicts identical to the default configuration %s"
          % " and ".join(checked))
    return 0


if __name__ == "__main__":
    sys.exit(main())
