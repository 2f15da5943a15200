"""The benchmark worker: one workload, one run, in a fresh process.

``run.py`` starts this module once per run and reads the JSON it
writes.  Modes:

* ``run`` — prepare the workload and warm up (untimed), then either
  time the number of whole passes over its checks that ``--seconds``
  calls for (``--trace 0``, see :meth:`Workload.passes`), or time one
  untraced and one traced pass over the same checks (``--trace 1``).
  Every result goes through the workload's verdict gate after its timed
  section.
* ``prime`` / ``reference`` — the two untimed halves of the
  ``recheck`` set-up (fill the stores; store-free cold fingerprints),
  which ``run`` starts as two concurrent processes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.analysis import checker as checker_module  # noqa: E402
from repro.analysis.options import CheckerOptions  # noqa: E402
from repro.logic.formula import set_formula_interning  # noqa: E402
from repro.logic.memo import clear_all_caches  # noqa: E402
from repro.logic.terms import set_term_interning  # noqa: E402
from repro.policy import parser as policy_parser  # noqa: E402

import speed  # noqa: E402
from layers import LAYERS, UNATTRIBUTED, SpanTracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Check, Recheck, Workload, copy_store, fingerprint,
)


@dataclass
class Sample:
    """What the benchmark keeps of one timed check."""

    check: Check
    seconds: float
    verdict: str
    stats: Dict[str, float]
    persist_hits: int = 0
    persist_misses: int = 0
    obligations: int = 0
    proved: int = 0
    fingerprint: str = ""
    #: Why the verdict gate rejected the result, if it did.
    wrong: Optional[str] = None
    #: Traceback of a check that raised instead of returning a result.
    error: Optional[str] = None
    #: Speed probe around the check: mean of the probes taken just
    #: before and just after it (see ``speed.py``).
    probe_s: float = 0.0
    #: Highest resident memory of the process during the check (MB).
    rss_mb: float = 0.0

    @property
    def reference_seconds(self) -> float:
        # A timed-out check ran for the limit, a wall-clock quantity
        # that no machine speed changes.
        if self.verdict == "undecided:timeout":
            return self.seconds
        return speed.at_reference(self.seconds, self.probe_s)

    @property
    def decided(self) -> bool:
        return self.verdict in ("certified", "rejected")


def run_check(check: Check, workload: Workload,
              tracer: Optional[SpanTracer] = None, check_id: int = 0,
              gate: bool = True) -> Sample:
    """Time one check from program text to ``CheckResult``; then, outside
    the timed section, record it and pass it through the verdict gate.

    In-process caches and the term and formula interning tables are
    emptied and garbage collected first, so every check starts as cold
    as a fresh ``repro check`` would (its modules already imported),
    apart from the persistent store it is given."""
    if check.before is not None:
        check.before()
    clear_all_caches()
    # Switching interning off empties the table; it changes no verdict.
    set_term_interning(False)
    set_term_interning(True)
    set_formula_interning(False)
    set_formula_interning(True)
    gc.collect()
    reset_peak_rss()
    options = CheckerOptions(jobs=1, cache_path=check.store,
                             timeout_s=workload.timeout_s)
    result = None
    checker = None
    error = None
    root = tracer.check_span(check_id) if tracer is not None \
        else contextlib.nullcontext()
    span = None
    start = time.perf_counter()
    try:
        with root as span:
            spec = policy_parser.parse_spec(check.spec_text)
            checker = checker_module.SafetyChecker(
                check.source, spec, options=options, name=check.key,
                arch=check.arch)
            result = checker.check()
        seconds = time.perf_counter() - start
    except Exception:  # a crashed check is an undecided, failed one
        seconds = time.perf_counter() - start
        error = traceback.format_exc()
    finally:
        # Closing the store (a checkpoint when the last connection goes)
        # is teardown: the verdict is complete when check() returns.
        persist = (0, 0)
        if checker is not None:
            if checker.persistent is not None:
                persist = (checker.persistent.hits,
                           checker.persistent.misses)
            checker.close()
    rss_mb = peak_rss_mb()
    if span is not None:
        # Traced: the check's wall time is its root span, which the
        # layer self times and ``unattributed`` sum to exactly.
        seconds = tracer.end[span] - tracer.start[span]
    if result is None:
        return Sample(check=check, seconds=seconds, verdict="error",
                      stats={}, error=error, rss_mb=rss_mb)
    sample = Sample(
        check=check, seconds=seconds, verdict=result.verdict,
        stats=dict(result.prover_stats), persist_hits=persist[0],
        persist_misses=persist[1], obligations=len(result.proofs),
        proved=result.proved_count(), fingerprint=fingerprint(result),
        rss_mb=rss_mb)
    if gate:
        sample.wrong = workload.verify(check, result)
    return sample


def run_passes(workload: Workload, passes: int,
               tracer: Optional[SpanTracer] = None) -> List[Sample]:
    """Time *passes* whole passes over the workload's checks."""
    samples: List[Sample] = []
    probe = speed.probe()
    for _ in range(passes):
        workload.begin_pass()
        for check in workload.checks():
            sample = run_check(check, workload, tracer,
                               check_id=len(samples))
            before, probe = probe, speed.probe()
            sample.probe_s = (before + probe) / 2.0
            samples.append(sample)
    return samples


def warm_up(workload: Workload) -> None:
    """One untimed check per architecture, so that the modules the
    checker imports on first use are loaded before timing starts."""
    seen = set()
    for check in workload.checks():
        if check.arch not in seen:
            seen.add(check.arch)
            run_check(check, workload, gate=False)


# -- metrics -----------------------------------------------------------------


def tail_rank(count: int) -> int:
    """1-based rank, in *count* sorted samples, of the highest
    percentile that has ten samples beyond it."""
    return max(1, count - 10)


def timing_metrics(times: List[float], rank: int) -> Dict:
    times = sorted(times)
    return {
        "checks_per_s": len(times) / sum(times),
        "verdict_p50_s": statistics.median(times),
        "verdict_tail_s": times[rank - 1],
    }


def end_to_end(samples: List[Sample]) -> Dict:
    """Every end-to-end metric except ``setup_s`` (measured by
    ``run.py`` in separate processes).  Times are at the reference
    speed; ``wall`` has the same three from raw wall time."""
    count = len(samples)
    rank = tail_rank(count)
    decided = sum(1 for sample in samples if sample.decided)
    metrics = timing_metrics([s.reference_seconds for s in samples], rank)
    metrics["decided_ratio"] = decided / count
    # How far a check stopped by the wall-clock limit gets, and so how
    # much memory it takes, depends on the machine's speed.
    metrics["peak_rss_mb"] = max(
        (s.rss_mb for s in samples if s.decided),
        default=max(s.rss_mb for s in samples))
    probes = [sample.probe_s for sample in samples]
    return {
        "metrics": metrics,
        "wall": timing_metrics([s.seconds for s in samples], rank),
        "probe_ms": [1000.0 * min(probes), 1000.0 * statistics.median(probes),
                     1000.0 * max(probes)],
        "tail": {"percentile": round(100.0 * rank / count, 2),
                 "samples": count, "beyond": count - rank},
    }


def reset_peak_rss() -> None:
    """Start a new peak-memory window: Linux resets the process's
    high-water mark (VmHWM) to its current resident set."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Highest resident memory (MB) since :func:`reset_peak_rss`."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(samples: List[Sample], workload: Workload) -> Dict:
    """Ratios and counts from the checker's own exact counters
    (``CheckResult.prover_stats``, the store's hit/miss counters)."""
    total: Counter = Counter()
    for sample in samples:
        for key, value in sample.stats.items():
            if isinstance(value, (int, float)):
                total[key] += value
    hits = sum(sample.persist_hits for sample in samples)
    misses = sum(sample.persist_misses for sample in samples)
    obligations = sum(sample.obligations for sample in samples)
    store_bytes = sum(os.path.getsize(path + suffix)
                      for path in workload.store_files()
                      for suffix in ("", "-wal")
                      if os.path.exists(path + suffix))
    return {
        "units.hit_ratio": _ratio(total["unit_hits"],
                                  total["unit_lookups"]),
        "units.pipeline_hit_ratio": _ratio(
            total["unit_pipeline_hits"], total["unit_pipeline_lookups"]),
        "units.aborts": total["unit_aborts"],
        "persist.hit_ratio": _ratio(hits, hits + misses),
        "persist.file_mb": store_bytes / (1024.0 * 1024.0),
        "verify.obligations": obligations,
        "verify.proved_ratio": _ratio(
            sum(sample.proved for sample in samples), obligations),
        "prover.cache_hit_ratio": _ratio(
            total["cache_hits"] + total["canonical_cache_hits"],
            total["satisfiability_queries"]),
        "prover.conjunct_hit_ratio": _ratio(
            total["conjunct_cache_hits"], total["conjunct_queries"]),
        "prover.fallbacks": total["resource_fallbacks"],
        "prover.timeouts": sum(1 for sample in samples
                               if sample.verdict == "undecided:timeout"),
    }


def layer_metrics(tracer: SpanTracer, traced: List[Sample],
                  untraced: List[Sample]) -> Dict:
    """The per-layer metrics of a traced run, plus its overhead."""
    table = tracer.layer_table()
    metrics: Dict[str, float] = {}
    for layer in LAYERS + [UNATTRIBUTED]:
        row = table[layer]
        if layer != UNATTRIBUTED:
            metrics[layer + ".calls"] = row["calls"]
            metrics[layer + ".total_s"] = row["total_s"]
        metrics[layer + ".self_s"] = row["self_s"]
    counts = tracer.counts
    metrics["induction.candidates"] = counts["induction.candidates"]
    metrics["induction.success_ratio"] = _ratio(
        counts["induction.successes"], counts["induction.runs"])
    metrics["to_dnf.conjuncts"] = counts["to_dnf.conjuncts"]
    metrics["diffsolver.decided_ratio"] = _ratio(
        counts["diffsolver.decided"], counts["diffsolver.attempts"])
    # The overhead compares the two passes at the reference speed, so a
    # change of machine speed between them does not count as overhead.
    traced_s = sum(sample.reference_seconds for sample in traced)
    untraced_s = sum(sample.reference_seconds for sample in untraced)
    metrics["trace.check_wall_s"] = sum(sample.seconds for sample in traced)
    metrics["trace.checks_per_s"] = len(traced) / traced_s
    metrics["trace.untraced_checks_per_s"] = len(untraced) / untraced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    return metrics


def summary(samples: List[Sample]) -> Dict:
    wrong = [{"check": sample.check.key, "arch": sample.check.arch,
              "why": sample.wrong}
             for sample in samples if sample.wrong]
    errors = [{"check": sample.check.key, "traceback": sample.error}
              for sample in samples if sample.error]
    return {
        "correct": not wrong,
        "attempted": len(samples),
        # A check stopped by its wall-clock limit ends with the
        # checker's own "undecided: timeout" verdict: it counts against
        # decided_ratio, but it has not failed, since whether a check
        # near the limit reaches it depends on the machine's load.
        "failed": sum(1 for sample in samples if sample.error),
        "undecided": sum(1 for sample in samples if not sample.decided),
        "wrong": wrong,
        "errors": errors,
    }


# -- recheck set-up --------------------------------------------------------------


def _spawn(mode: str, args, out: Optional[str] = None) -> subprocess.Popen:
    command = [sys.executable, os.path.abspath(__file__), "--mode", mode,
               "--workload", args.workload, "--seed", str(args.seed),
               "--workdir", args.workdir]
    if out is not None:
        command += ["--out", out]
    return subprocess.Popen(command)


def prepare_recheck(workload, args) -> None:
    """Prime the stores and compute the cold store-free fingerprints in
    two concurrent processes; both finish before timing starts."""
    reference_path = os.path.join(args.workdir, "reference.json")
    procs = [_spawn("prime", args), _spawn("reference", args,
                                           out=reference_path)]
    codes = [proc.wait() for proc in procs]
    if any(codes):
        raise SystemExit("recheck set-up failed (exit codes %s)" % codes)
    with open(reference_path) as handle:
        workload.reference = json.load(handle)


def prime(workload) -> None:
    for index, check in enumerate(workload.priming_checks()):
        sample = run_check(check, workload, gate=False)
        if not sample.decided:
            raise SystemExit("priming check %s: %s"
                             % (check.key, sample.verdict))
        if index == 0:
            copy_store(workload.store, workload.base_snapshot)


def reference(workload, out: str) -> None:
    fingerprints = {}
    for check in workload.reference_checks():
        sample = run_check(check, workload, gate=False)
        if not sample.decided:
            raise SystemExit("reference check %s: %s"
                             % (check.key, sample.verdict))
        fingerprints[check.key] = sample.fingerprint
    with open(out, "w") as handle:
        json.dump(fingerprints, handle)


# -- main ----------------------------------------------------------------------


def write_setup_inputs(workload: Workload, workdir: str) -> None:
    """Leave the first check's inputs for ``setup_probe.py``."""
    first = workload.checks()[0]
    paths = {"source": os.path.join(workdir, "first.s"),
             "spec": os.path.join(workdir, "first.policy")}
    with open(paths["source"], "w") as handle:
        handle.write(first.source)
    with open(paths["spec"], "w") as handle:
        handle.write(first.spec_text)
    setup = dict(paths, arch=first.arch, store=first.store,
                 fresh_store=workload.fresh_store)
    with open(os.path.join(workdir, "setup.json"), "w") as handle:
        json.dump(setup, handle)


def run(workload: Workload, args) -> Dict:
    if isinstance(workload, Recheck):
        prepare_recheck(workload, args)
    write_setup_inputs(workload, args.workdir)
    warm_up(workload)
    if not args.trace:
        start = time.perf_counter()
        samples = run_passes(workload, workload.passes(args.seconds))
        timed_wall = time.perf_counter() - start
        out = end_to_end(samples)
        last_pass = samples[-len(workload.checks()):]
        out["counters"] = counter_metrics(last_pass, workload)
        out["passes"] = len(samples) // len(workload.checks())
        out["pass_wall_s"] = timed_wall / out["passes"]
    else:
        untraced = run_passes(workload, 1)
        tracer = SpanTracer()
        tracer.install()
        try:
            traced = run_passes(workload, 1, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, traced, untraced)
        metrics.update(counter_metrics(traced, workload))
        out = {"metrics": metrics, "passes": 1,
               "spans": len(tracer.layer)}
        if args.spans:
            tracer.write(args.spans)
        samples = untraced + traced
    out.update(summary(samples))
    out["report"] = workload.report(samples)
    out["checks"] = sorted({"%s=%.4f" % (s.check.key, s.seconds)
                            for s in samples[-len(workload.checks()):]})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("run", "prime", "reference"),
                        default="run")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out")
    parser.add_argument("--spans", help="write the traced run's spans "
                        "to this file (see SpanTracer.write)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    if args.mode == "prime":
        prime(workload)
    elif args.mode == "reference":
        reference(workload, args.out)
    else:
        result = run(workload, args)
        with open(args.out, "w") as handle:
            json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
