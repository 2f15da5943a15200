"""Prover-replay benchmark (``repro bench --prover-replay TRACE``).

Re-discharges the exact prover-query stream of a ``repro check --trace
--trace-formulas`` recording under every prover configuration
(:data:`REPLAY_CONFIGS`), compares each verdict with the recorded one,
and writes ``BENCH_prover.json``.  The measured benchmark of the whole
checker is perfbench (``perfbench/run.py``); the verdict-parity gates
are ``benchmarks/parity_check.py``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import List, Optional

from repro.logic.memo import clear_all_caches
from repro.trace.schema import TraceError, load_trace
# perfbench's recheck workload imports the chain program from here.
from repro.programs.incremental import (  # noqa: F401
    INCREMENTAL_EDITED_SOURCE, INCREMENTAL_SOURCE, INCREMENTAL_SPEC,
)


#: ``--prover-replay`` configurations: the default prover and the
#: paper's cache ablation (every query decided from scratch).
REPLAY_CONFIGS = {
    "full": {},
    "no-cache": dict(enable_cache=False),
}


def load_replay_queries(trace_path: str) -> List[dict]:
    """The formula-bearing ``prover:query`` attr dicts of a trace, in
    recorded order (the exact query stream the checker discharged)."""
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
        raise TraceError(
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


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(trace_path: str, output: str = "BENCH_prover.json") -> int:
    report = replay_suite(trace_path)
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
