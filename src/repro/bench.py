"""End-to-end pipeline benchmark over the Figure-9 program suite.

Runs every benchmark program through the full five-phase checker under
up to five configurations:

* **seed** — the un-enhanced baseline: hash-consing, formula-layer
  memoization, and canonical prover caching all disabled (only the
  original raw result cache and the difference-solver fast path
  remain, as in the seed revision of this repository);
* **enhanced** — everything on (the defaults);
* **parallel** (``--jobs N``, N > 1) — the enhanced configuration with
  proof obligations discharged on an N-worker process pool;
* **cache-cold** / **cache-warm** (``--cache [PATH]``) — the enhanced
  configuration with the persistent cross-run prover cache attached:
  first against a freshly deleted cache file, then against the file
  the cold pass populated;
* **no-matrix** / **no-slicing** / **no-incremental**
  (``--ablations``) — the enhanced configuration minus one
  Omega-overhaul feature each.

Two further modes replace the program suite entirely:
``--prover-replay TRACE`` re-discharges the exact prover-query stream
of a ``--trace --trace-formulas`` recording under every prover
configuration (:func:`replay_suite`, written to ``BENCH_prover.json``)
and ``--compare OLD.json NEW.json`` prints per-program speedups
between two reports with a verdict-fingerprint cross-check
(:func:`compare_reports`).

and writes a JSON report (``BENCH_pipeline.json`` at the repository
root by default) with per-program phase times (best-of-N and median-
of-N), prover/pool/persistent-cache counters, per-program verdict
fingerprints (so verdict parity across configurations is checkable
from the report alone), and the overall speedups.  Invoked as
``repro bench`` or via ``benchmarks/bench_pipeline.py``.

The configurations share a process, so the harness aggressively
resets global state (intern tables, memo caches) between runs; the
"seed" configuration is measured first so it cannot accidentally reuse
interned nodes created by the enhanced run.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from typing import Dict, List, Optional

from repro.analysis.options import CheckerOptions
from repro.logic.formula import (
    formula_intern_table_size, set_formula_interning,
)
from repro.logic.memo import clear_all_caches, set_memoization
from repro.logic.terms import set_term_interning, term_intern_table_size

#: The two baseline configurations: name -> feature flags.  The raw
#: prover cache and the difference fast path stay on in both — they
#: predate this performance layer.  ``jobs``/``cache``/``cold`` are
#: optional keys used by the dynamic configurations below.
CONFIGS = {
    "seed": dict(interning=False, memoization=False, canonical=False,
                 matrix=False, slicing=False, incremental=False),
    "enhanced": dict(interning=True, memoization=True, canonical=True),
}

#: Prover-layer ablations (``--ablations``): the enhanced
#: configuration minus exactly one Omega-overhaul feature each, so the
#: report isolates what the matrix kernel, obligation slicing, and
#: incremental sessions individually buy — with verdict parity
#: checked against the other configurations as always.
ABLATIONS = {
    "no-matrix": dict(matrix=False),
    "no-slicing": dict(slicing=False),
    "no-incremental": dict(incremental=False),
}


def config_table(jobs: int = 1,
                 cache_path: Optional[str] = None,
                 ablations: bool = False) -> Dict[str, dict]:
    """The benchmark configurations for one invocation: the two
    baselines, plus the parallel, persistent-cache, and prover-ablation
    configurations when requested."""
    configs = {name: dict(flags) for name, flags in CONFIGS.items()}
    if jobs > 1:
        configs["parallel"] = dict(interning=True, memoization=True,
                                   canonical=True, jobs=jobs)
    if cache_path:
        configs["cache-cold"] = dict(interning=True, memoization=True,
                                     canonical=True, cache=cache_path,
                                     cold=True)
        configs["cache-warm"] = dict(interning=True, memoization=True,
                                     canonical=True, cache=cache_path)
    if ablations:
        for name, removed in ABLATIONS.items():
            config = dict(interning=True, memoization=True,
                          canonical=True)
            config.update(removed)
            configs[name] = config
    return configs


def _apply_config(config: Dict[str, object]) -> CheckerOptions:
    set_term_interning(bool(config["interning"]))
    set_formula_interning(bool(config["interning"]))
    set_memoization(bool(config["memoization"]))
    clear_all_caches()
    return CheckerOptions(
        enable_canonical_prover_cache=bool(config["canonical"]),
        enable_formula_memoization=bool(config["memoization"]),
        enable_matrix_kernel=bool(config.get("matrix", True)),
        enable_slicing=bool(config.get("slicing", True)),
        enable_incremental=bool(config.get("incremental", True)),
        jobs=int(config.get("jobs", 1)),
        cache_path=config.get("cache"),
    )


def _restore_defaults() -> None:
    set_term_interning(True)
    set_formula_interning(True)
    set_memoization(True)
    clear_all_caches()


def _delete_cache(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        try:
            os.remove(path + suffix)
        except OSError:
            pass


def _fingerprint(result) -> dict:
    """The verdict content of one check, order-preserved — identical
    across configurations iff the runs agreed on every outcome."""
    return {
        "safe": result.safe,
        "proof_verdicts": "".join("P" if p.proved else "F"
                                  for p in result.proofs),
        "violations": [[v.index, v.category, v.description, v.phase]
                       for v in result.violations],
    }


#: Dedicated program for the incremental (function-granular verdict
#: cache) benchmark: a chain ``main → fone → ftwo → fthree`` of
#: constant-bound loops over the shared array.  The shape matters
#: twice over: forward-propagated facts about the array pointer
#: survive a ``call`` edge into the callee (only the caller's
#: *post-call* state is clobbered), and the masked index bounds every
#: array access by construction, so no loop needs induction — each
#: routine proves its obligations from forward facts alone.  Its
#: verdict unit is therefore a one-member group, replayable
#: independently of the others, exactly the shape function-granular
#: caching targets.
INCREMENTAL_SOURCE = """
! Incremental benchmark: %o0 = arr (64 words); main has no memory ops.
    mov %o7,%g4          ! save the host return address
    call fone
    nop
    mov %g4,%o7          ! restore the return address
    retl
    nop

fone:
! Increment the first 64 elements, then hand off to ftwo.
    mov %o7,%g5          ! save the return address
    clr %g1              ! i = 0
oneloop:
    and %g1,63,%g7     ! masked index: 0 <= %g7 <= 63 by construction
    sll %g7,2,%g2
    ld [%o0+%g2],%g3
    add %g3,1,%g3
    st %g3,[%o0+%g2]
    inc %g1
    cmp %g1,64
    bl oneloop
    nop
    call ftwo
    nop
    mov %g5,%o7
    retl
    nop

ftwo:
! Double the first 64 elements, then hand off to fthree.
    mov %o7,%g6          ! save the return address
    clr %g1
twoloop:
    and %g1,63,%g7     ! masked index: 0 <= %g7 <= 63 by construction
    sll %g7,2,%g2
    ld [%o0+%g2],%g3
    add %g3,%g3,%g3
    st %g3,[%o0+%g2]
    inc %g1
    cmp %g1,64
    bl twoloop
    nop
    call fthree
    nop
    mov %g6,%o7
    retl
    nop

fthree:
! Accumulate the first 64 elements into %o5 (leaf).
    clr %g1
    clr %o5
threeloop:
    and %g1,63,%g7     ! masked index: 0 <= %g7 <= 63 by construction
    sll %g7,2,%g2
    ld [%o0+%g2],%g3
    add %o5,%g3,%o5
    inc %g1
    cmp %g1,64
    bl threeloop
    nop
    retl
    nop
"""

#: The "one function edited" variant: ``fone`` adds 2 instead of 1, so
#: only its body digest changes; ``ftwo``/``fthree`` verdict units
#: from a run of the base program replay as-is.
INCREMENTAL_EDITED_SOURCE = INCREMENTAL_SOURCE.replace(
    "add %g3,1,%g3", "add %g3,2,%g3")

INCREMENTAL_SPEC = """
loc e   : int     = initialized  perms rwo region V summary
loc arr : int[64] = {e}          perms rfo  region V
rule [V : int : rwo]
rule [V : int[64] : rfo]
invoke %o0 = arr
"""


def _check_incremental(source: str, options: CheckerOptions):
    from repro.analysis.checker import SafetyChecker
    from repro.policy.parser import parse_spec
    from repro.sparc.assembler import assemble
    program = assemble(source, name="incremental")
    spec = parse_spec(INCREMENTAL_SPEC)
    return SafetyChecker(program, spec, options=options,
                         name="incremental").check()


def _incremental_row(result, timings: List[float]) -> dict:
    return {
        "name": "incremental",
        "safe": result.safe,
        "matches_expectation": result.safe,
        "verdicts": _fingerprint(result),
        "prover_queries": result.prover_queries,
        "prover": result.prover_stats,
        "phases": {
            "preparation": result.times.preparation,
            "propagation": result.times.typestate_propagation,
            "annotation_local": result.times.annotation_and_local,
            "global": result.times.global_verification,
        },
        "seconds": min(timings),
        "seconds_min": min(timings),
        "seconds_median": statistics.median(timings),
    }


def run_incremental(cache_path: str, repeat: int = 3,
                    progress=None) -> Dict[str, dict]:
    """The function-granular-cache benchmark (``--incremental``).

    Three configurations over :data:`INCREMENTAL_EDITED_SOURCE`:
    ``incremental-ref`` (no cache — the parity reference),
    ``incremental-cold`` (fresh cache file per attempt), and
    ``incremental-warm`` (per attempt: prime a fresh cache with the
    *base* program, then time a check of the edited one — the
    "edit one function, re-check" path, where the two untouched
    routines replay from the cache).

    ``incremental-full`` is the unchanged re-check: prime a fresh
    cache with the *edited* program, then time a second check of the
    very same program — phases 2–4 replay from the pipeline payloads
    and every phase-5 unit replays, so the run is digest computation
    plus store lookups end-to-end."""
    repeat = max(1, repeat)
    configs: Dict[str, dict] = {}
    plans = [
        ("incremental-ref", dict(cache=None)),
        ("incremental-cold", dict(cache=cache_path, cold=True)),
        ("incremental-warm", dict(cache=cache_path, prime=True)),
        ("incremental-full", dict(cache=cache_path, prime=True,
                                  prime_source=INCREMENTAL_EDITED_SOURCE)),
    ]
    for config_name, plan in plans:
        timings: List[float] = []
        result = None
        suite_start = time.perf_counter()
        for attempt in range(repeat):
            base = dict(interning=True, memoization=True,
                        canonical=True)
            if plan["cache"]:
                _delete_cache(str(plan["cache"]))
                base["cache"] = plan["cache"]
            options = _apply_config(base)
            if plan.get("prime"):
                # Populate the cache from the priming program, then
                # reset the in-process caches so only the persistent
                # payloads carry over — as in a fresh process.
                _check_incremental(
                    plan.get("prime_source", INCREMENTAL_SOURCE),
                    options)
                options = _apply_config(base)
            t0 = time.perf_counter()
            attempt_result = _check_incremental(
                INCREMENTAL_EDITED_SOURCE, options)
            timings.append(time.perf_counter() - t0)
            if result is None:
                result = attempt_result
        total = time.perf_counter() - suite_start
        row = _incremental_row(result, timings)
        configs[config_name] = {
            "options": {"cache": plan["cache"],
                        "primed": bool(plan.get("prime"))},
            "programs": [row],
            "total_seconds": row["seconds"],
            "wall_seconds": total,
            "term_intern_table": term_intern_table_size(),
            "formula_intern_table": formula_intern_table_size(),
        }
        if progress is not None:
            progress("%-16s %-16s %7.2fs" % (
                config_name, "incremental", row["seconds"]))
    _restore_defaults()
    return configs


def run_suite(full: bool = False, repeat: int = 3,
              configs: Optional[List[str]] = None,
              jobs: int = 1, cache_path: Optional[str] = None,
              ablations: bool = False,
              incremental: bool = False,
              progress=None) -> dict:
    """Run the Figure-9 suite under each configuration.

    Returns the report dict (also the JSON file's content).  *repeat*
    times each program N times and records both the minimum (damps
    scheduler noise; the headline ``seconds``) and the median (robust
    central tendency) per row; cache counters come from the first run
    (later repeats would hit warm in-process caches and distort the
    hit rates).  The ``cache-cold`` configuration always runs against
    a freshly deleted cache file and therefore times a single attempt.
    """
    from repro.programs import all_programs, fast_programs

    repeat = max(1, repeat)
    programs = all_programs() if full else fast_programs()
    table = config_table(jobs=jobs, cache_path=cache_path,
                         ablations=ablations)
    names = configs or list(table)
    report: dict = {
        "suite": "figure9-full" if full else "figure9-fast",
        "repeat": repeat,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "configs": {},
    }
    for config_name in names:
        config = table[config_name]
        cold = bool(config.get("cold"))
        if cold:
            _delete_cache(str(config["cache"]))
        options = _apply_config(config)
        rows = []
        suite_start = time.perf_counter()
        for program in programs:
            timings: List[float] = []
            best: Optional[dict] = None
            # A cold-cache run is only cold once: time one attempt.
            for attempt in range(1 if cold else repeat):
                t0 = time.perf_counter()
                result = program.check(options=options)
                timings.append(time.perf_counter() - t0)
                if best is None:
                    best = {
                        "name": program.name,
                        "safe": result.safe,
                        "matches_expectation":
                            result.safe == program.expect_safe,
                        "verdicts": _fingerprint(result),
                        "prover_queries": result.prover_queries,
                        "prover": result.prover_stats,
                        "phases": {
                            "preparation": result.times.preparation,
                            "propagation":
                                result.times.typestate_propagation,
                            "annotation_local":
                                result.times.annotation_and_local,
                            "global": result.times.global_verification,
                        },
                    }
            best["seconds"] = best["seconds_min"] = min(timings)
            best["seconds_median"] = statistics.median(timings)
            rows.append(best)
            if progress is not None:
                progress("%-10s %-16s %7.2fs" % (
                    config_name, program.name, best["seconds"]))
        total = time.perf_counter() - suite_start
        report["configs"][config_name] = {
            "options": dict(config),
            "programs": rows,
            "total_seconds": sum(r["seconds"] for r in rows),
            "wall_seconds": total,
            "term_intern_table": term_intern_table_size(),
            "formula_intern_table": formula_intern_table_size(),
        }
    _restore_defaults()
    if incremental:
        if cache_path:
            unit_cache = cache_path + ".units"
            report["configs"].update(run_incremental(
                unit_cache, repeat=repeat, progress=progress))
            _delete_cache(unit_cache)
        else:
            import shutil
            import tempfile
            scratch = tempfile.mkdtemp(prefix="repro-bench-")
            try:
                report["configs"].update(run_incremental(
                    os.path.join(scratch, "units.sqlite"),
                    repeat=repeat, progress=progress))
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
    _add_parity(report)
    _add_speedups(report)
    return report


def _add_parity(report: dict) -> None:
    """Record whether every configuration produced identical verdicts,
    proof outcomes, and violations for every program.  The reference
    fingerprint of each program comes from the first configuration that
    ran it (the incremental configurations run a dedicated program the
    main suite does not)."""
    configs = report["configs"]
    if len(configs) < 2:
        return
    reference_name = next(iter(configs))
    reference: Dict[str, dict] = {}
    for config in configs.values():
        for row in config["programs"]:
            reference.setdefault(row["name"], row["verdicts"])
    mismatches = []
    for name, config in configs.items():
        for row in config["programs"]:
            if row["verdicts"] != reference[row["name"]]:
                mismatches.append([name, row["name"]])
    report["verdict_parity"] = {
        "reference": reference_name,
        "identical": not mismatches,
        "mismatches": mismatches,
    }


def _add_speedups(report: dict) -> None:
    configs = report["configs"]

    def ratio(a: str, b: str) -> Optional[float]:
        if a not in configs or b not in configs:
            return None
        denominator = configs[b]["total_seconds"]
        return (configs[a]["total_seconds"] / denominator
                if denominator else None)

    speedup = ratio("seed", "enhanced")
    if speedup is not None:
        report["speedup"] = speedup
    parallel = ratio("enhanced", "parallel")
    if parallel is not None:
        report["parallel_speedup"] = parallel
        # On a single-core host the pool only adds fork/pickle
        # overhead; flag the number so downstream comparisons do not
        # read a 1-core "slowdown" as a parallelism regression.
        report["parallel_speedup_valid"] = \
            (report.get("cpu_count") or 1) > 1
    warm = ratio("cache-cold", "cache-warm")
    if warm is not None:
        report["warm_cache_speedup"] = warm
    incremental = ratio("incremental-cold", "incremental-warm")
    if incremental is not None:
        report["incremental_warm_speedup"] = incremental
    full = ratio("incremental-cold", "incremental-full")
    if full is not None:
        report["incremental_full_speedup"] = full


def comparison_table(report: dict, serial: str = "enhanced",
                     other: str = "parallel") -> Optional[str]:
    """Per-program serial-vs-*other* table (None when either
    configuration is missing from the report)."""
    configs = report["configs"]
    if serial not in configs or other not in configs:
        return None
    by_name = {row["name"]: row for row in configs[other]["programs"]}
    lines = ["%-16s %10s %10s %8s" % ("program", serial, other,
                                      "speedup")]
    for row in configs[serial]["programs"]:
        peer = by_name.get(row["name"])
        if peer is None:
            continue
        ratio = (row["seconds"] / peer["seconds"]
                 if peer["seconds"] else float("inf"))
        lines.append("%-16s %9.2fs %9.2fs %7.2fx" % (
            row["name"], row["seconds"], peer["seconds"], ratio))
    lines.append("%-16s %9.2fs %9.2fs %7.2fx" % (
        "total", configs[serial]["total_seconds"],
        configs[other]["total_seconds"],
        (configs[serial]["total_seconds"]
         / configs[other]["total_seconds"])
        if configs[other]["total_seconds"] else float("inf")))
    return "\n".join(lines)


#: ``--prover-replay`` configurations: the default prover, the three
#: Omega-overhaul ablations, and a no-result-cache run (every query
#: decided from scratch).  Incremental sessions live in the analysis
#: layer, so "no-incremental" is expected to match "full" exactly here;
#: it stays in the table so the flag plumbing is exercised end to end.
REPLAY_CONFIGS = {
    "full": {},
    "no-matrix": dict(enable_matrix=False),
    "no-slicing": dict(enable_slicing=False),
    "no-incremental": dict(enable_incremental=False),
    "no-cache": dict(enable_cache=False, enable_canonical_cache=False),
}


def load_replay_queries(trace_path: str) -> List[dict]:
    """The formula-bearing ``prover:query`` attr dicts of a trace, in
    recorded order (the exact query stream the checker discharged)."""
    from repro.trace.schema import load_trace
    return [record["attrs"] for record in load_trace(trace_path)
            if record.get("type") == "event"
            and record.get("name") == "prover:query"
            and "formula" in record.get("attrs", {})]


def replay_suite(trace_path: str,
                 configs: Optional[List[str]] = None) -> dict:
    """Re-discharge a recorded query stream against each prover
    configuration (``repro bench --prover-replay``).

    The trace must have been recorded with ``repro check --trace
    --trace-formulas``; each replayed query's verdict is compared with
    the recorded one, so the report doubles as a parity check of every
    prover configuration against the original run."""
    from repro.logic.prover import Prover
    from repro.logic.serialize import formula_from_obj

    queries = load_replay_queries(trace_path)
    if not queries:
        raise ValueError(
            "%s has no formula-bearing prover:query events — record "
            "the trace with `repro check --trace FILE "
            "--trace-formulas`" % trace_path)
    report: dict = {
        "trace": trace_path,
        "queries": len(queries),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "configs": {},
    }
    names = configs or list(REPLAY_CONFIGS)
    for name in names:
        clear_all_caches()
        prover = Prover(**REPLAY_CONFIGS[name])
        # Rebuilt after the cache reset so every structural memo
        # (NNF/DNF/simplify/canonicalize) starts cold for this config.
        formulas = [formula_from_obj(attrs["formula"])
                    for attrs in queries]
        mismatches = []
        t0 = time.perf_counter()
        for attrs, formula in zip(queries, formulas):
            if prover.is_satisfiable(formula) != attrs["result"]:
                mismatches.append(attrs["digest"])
        seconds = time.perf_counter() - t0
        report["configs"][name] = {
            "seconds": seconds,
            "queries_per_second": (len(queries) / seconds
                                   if seconds else None),
            "mismatches": mismatches,
            "stats": prover.stats.as_dict(),
        }
    clear_all_caches()
    report["verdict_parity"] = {
        "reference": "recorded trace",
        "identical": not any(c["mismatches"]
                             for c in report["configs"].values()),
    }
    return report


def replay_table(report: dict) -> str:
    lines = ["%-16s %10s %12s %10s" % ("config", "seconds",
                                       "queries/s", "mismatch")]
    for name, config in report["configs"].items():
        lines.append("%-16s %9.3fs %12.0f %10d" % (
            name, config["seconds"],
            config.get("queries_per_second") or 0.0,
            len(config["mismatches"])))
    return "\n".join(lines)


def compare_reports(old: dict, new: dict) -> dict:
    """Compare two ``repro bench`` reports (``--compare OLD NEW``).

    Returns per-config/per-program speedups of *new* over *old* plus a
    verdict-fingerprint cross-check: a program whose fingerprint
    changed between the reports makes the comparison invalid (the runs
    decided different things), and the CLI exits non-zero."""
    comparison: dict = {"configs": {}, "verdict_mismatches": []}
    shared = [name for name in old.get("configs", {})
              if name in new.get("configs", {})]
    for name in shared:
        old_rows = {row["name"]: row
                    for row in old["configs"][name]["programs"]}
        new_rows = {row["name"]: row
                    for row in new["configs"][name]["programs"]}
        programs = []
        for program, old_row in old_rows.items():
            new_row = new_rows.get(program)
            if new_row is None:
                continue
            if old_row.get("verdicts") != new_row.get("verdicts"):
                comparison["verdict_mismatches"].append(
                    [name, program])
            programs.append({
                "name": program,
                "old_seconds": old_row["seconds"],
                "new_seconds": new_row["seconds"],
                "speedup": (old_row["seconds"] / new_row["seconds"]
                            if new_row["seconds"] else None),
            })
        old_total = old["configs"][name]["total_seconds"]
        new_total = new["configs"][name]["total_seconds"]
        comparison["configs"][name] = {
            "programs": programs,
            "old_total_seconds": old_total,
            "new_total_seconds": new_total,
            "speedup": (old_total / new_total if new_total else None),
        }
    comparison["identical_verdicts"] = \
        not comparison["verdict_mismatches"]
    return comparison


def comparison_report_table(comparison: dict) -> str:
    lines: List[str] = []
    for name, config in comparison["configs"].items():
        lines.append("%s:" % name)
        lines.append("  %-16s %10s %10s %8s" % ("program", "old",
                                                "new", "speedup"))
        for row in config["programs"]:
            lines.append("  %-16s %9.2fs %9.2fs %7.2fx" % (
                row["name"], row["old_seconds"], row["new_seconds"],
                row["speedup"] or float("inf")))
        lines.append("  %-16s %9.2fs %9.2fs %7.2fx" % (
            "total", config["old_total_seconds"],
            config["new_total_seconds"],
            config["speedup"] or float("inf")))
    return "\n".join(lines)


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(full: bool = False, repeat: int = 3,
         output: str = "BENCH_pipeline.json",
         quiet: bool = False, jobs: int = 1,
         cache_path: Optional[str] = None,
         ablations: bool = False,
         incremental: bool = False,
         prover_replay: Optional[str] = None,
         compare: Optional[List[str]] = None) -> int:
    if compare:
        with open(compare[0]) as handle:
            old = json.load(handle)
        with open(compare[1]) as handle:
            new = json.load(handle)
        comparison = compare_reports(old, new)
        print(comparison_report_table(comparison))
        if not comparison["identical_verdicts"]:
            print("VERDICT MISMATCH between reports: %r"
                  % (comparison["verdict_mismatches"],),
                  file=sys.stderr)
            return 1
        print("verdicts identical across both reports")
        return 0
    if prover_replay:
        try:
            report = replay_suite(prover_replay)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        write_report(report, output)
        print("replayed %d queries from %s"
              % (report["queries"], report["trace"]))
        print(replay_table(report))
        print("wrote %s" % output)
        if not report["verdict_parity"]["identical"]:
            print("REPLAY MISMATCH against recorded verdicts",
                  file=sys.stderr)
            return 1
        return 0
    progress = None if quiet else \
        (lambda line: print(line, file=sys.stderr))
    report = run_suite(full=full, repeat=repeat, jobs=jobs,
                       cache_path=cache_path, ablations=ablations,
                       incremental=incremental, progress=progress)
    write_report(report, output)
    print("suite: %s (repeat %d, %s cores)"
          % (report["suite"], report["repeat"],
             report["cpu_count"] or "?"))
    for name, config in report["configs"].items():
        print("%-10s %7.2fs" % (name + ":", config["total_seconds"]))
    if report.get("speedup"):
        print("enhanced speedup over seed: %.2fx" % report["speedup"])
    table = comparison_table(report)
    if table is not None:
        print("\nserial vs --jobs %d:" % jobs)
        print(table)
        if report.get("parallel_speedup"):
            print("parallel speedup: %.2fx" % report["parallel_speedup"])
    warm_table = comparison_table(report, serial="cache-cold",
                                  other="cache-warm")
    if warm_table is not None:
        print("\ncold vs warm persistent cache:")
        print(warm_table)
        if report.get("warm_cache_speedup"):
            print("warm-cache speedup: %.2fx"
                  % report["warm_cache_speedup"])
    incr_table = comparison_table(report, serial="incremental-cold",
                                  other="incremental-warm")
    if incr_table is not None:
        row = report["configs"]["incremental-warm"]["programs"][0]
        print("\ncold vs warm function-granular cache "
              "(one function edited):")
        print(incr_table)
        print("warm run replayed %d obligations from %d cached "
              "function units"
              % (row["prover"].get("unit_replayed_obligations", 0),
                 row["prover"].get("unit_hits", 0)))
        if report.get("incremental_warm_speedup"):
            print("incremental warm speedup: %.2fx"
                  % report["incremental_warm_speedup"])
        full = report["configs"].get("incremental-full")
        if full is not None:
            frow = full["programs"][0]
            print("unchanged re-check replayed phases 2-4 for %d "
                  "functions and %d phase-5 obligations"
                  % (frow["prover"].get(
                      "unit_pipeline_replayed_functions", 0),
                     frow["prover"].get(
                         "unit_replayed_obligations", 0)))
        if report.get("incremental_full_speedup"):
            print("incremental full-replay speedup: %.2fx"
                  % report["incremental_full_speedup"])
    parity = report.get("verdict_parity")
    if parity is not None:
        print("verdict parity across configs: %s"
              % ("identical" if parity["identical"]
                 else "MISMATCH %r" % (parity["mismatches"],)))
    print("wrote %s" % output)
    return 0
