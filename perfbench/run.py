"""Benchmark of the safety checker: end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload fig9 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each run starts a fresh worker process (``worker.py``) for one workload
and, with ``--trace 0``, several fresh set-up probes
(``setup_probe.py``).  ``--workload all`` runs every workload, each in
its own process, in an order rotated by the seed, so that runs with
successive seeds spread drift over all of them.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The exit code is 1 when any verdict is wrong, 2 when
the run could not be made.

Scratch files (stores, the worker's report) live in a temporary
directory under ``perfbench/out/``, removed after the run; a traced
run leaves its spans in ``perfbench/out/trace-<workload>.json.gz``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("fig9", "fuzz-corpus", "recheck")

#: Fresh processes timed per run for ``setup_s``; the median counts.
SETUP_PROBES = 5
#: A worker that has not finished by then is stopped (the run fails).
WORKER_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "checks_per_s": "checks/s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("checks_per_s"):
        return "checks/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


class RunFailed(Exception):
    """The run could not produce a result."""


def _worker(workload: str, seed: int, seconds: float, trace: int,
            workdir: str) -> Dict:
    out = os.path.join(workdir, "result.json")
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", workdir, "--out", out]
    if trace:
        command += ["--spans",
                    os.path.join(OUT, "trace-%s.json.gz" % workload)]
    # Its own process group, so a stopped worker takes the recheck
    # set-up processes it may have started with it.
    proc = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RunFailed("worker exceeded %.0f s" % WORKER_TIMEOUT_S)
    if code != 0:
        raise RunFailed("worker exited with %d" % code)
    with open(out) as handle:
        return json.load(handle)


def _setup_probe(workdir: str) -> Tuple[float, float]:
    """Wall seconds from starting a fresh process to its first check
    being ready (imports, spec, checker construction, store opened),
    and the speed probe the process took right after."""
    with open(os.path.join(workdir, "setup.json")) as handle:
        setup = json.load(handle)
    command = [sys.executable, os.path.join(HERE, "setup_probe.py"),
               os.path.join(workdir, "setup.json")]
    if setup["store"]:
        store = setup["store"]
        if setup["fresh_store"]:
            store = os.path.join(workdir, "probe.sqlite")
            for suffix in ("", "-wal", "-shm"):
                if os.path.exists(store + suffix):
                    os.remove(store + suffix)
        command.append(store)
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        rest = proc.stdout.read().split()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or line.strip() != "ready" or len(rest) != 1:
        raise RunFailed("set-up probe failed (exit %d)" % code)
    return seconds, float(rest[0])


def run_one(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    """One run of one workload: the worker, then (untraced) the set-up
    probes.  Returns the worker's report with ``metrics`` completed."""
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        result = _worker(workload, seed, seconds, trace, workdir)
        if not trace:
            probes = [_setup_probe(workdir) for _ in range(SETUP_PROBES)]
            result["wall"]["setup_s"] = statistics.median(
                wall for wall, _ in probes)
            result["metrics"] = dict(setup_s=statistics.median(
                speed.at_reference(wall, probe) for wall, probe in probes),
                **result["metrics"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["workload"] = workload
    return result


def with_units(metrics: Dict[str, float], trace: int) -> Dict:
    return {name: {"value": value,
                   "unit": layer_unit(name) if trace
                   else END_TO_END_UNITS[name]}
            for name, value in metrics.items()}


# -- human-readable report ----------------------------------------------------


def print_report(result: Dict, trace: int) -> None:
    name = result["workload"]
    print("== %s: %d checks, %d undecided, %d failed, %s" % (
        name, result["attempted"], result["undecided"], result["failed"],
        "verdicts correct" if result["correct"] else "WRONG VERDICTS"))
    for wrong in result["wrong"]:
        print("   WRONG %s (%s): %s" % (wrong["check"], wrong["arch"],
                                       wrong["why"]))
    for error in result["errors"]:
        print("   ERROR %s:\n%s" % (error["check"], error["traceback"]))
    if not trace:
        for metric, value in result["metrics"].items():
            print("   %-16s %12.6g %s" % (metric, value,
                                          END_TO_END_UNITS[metric]))
        print("   wall clock: " + ", ".join(
            "%s=%.6g" % item for item in result["wall"].items())
            + "; speed probe min/median/max %.3f/%.3f/%.3f ms"
            % tuple(result["probe_ms"]))
        tail = result["tail"]
        print("   verdict_tail_s is p%.2f over %d samples (%d beyond); "
              "%d passes of %.1f s wall each" % (
                  tail["percentile"], tail["samples"], tail["beyond"],
                  result["passes"], result["pass_wall_s"]))
        print("   counters (last pass): " + ", ".join(
            "%s=%.4g" % item for item in result["counters"].items()))
        print("   seconds per check (last pass): "
              + " ".join(result["checks"]))
    else:
        print_layer_table(result["metrics"])
    for key, value in result["report"].items():
        if isinstance(value, dict):
            print("   %s:" % key)
            for item, fields in value.items():
                print("     %-18s %s" % (item, json.dumps(fields)))
        else:
            print("   %s: %s" % (key, json.dumps(value)))


def print_layer_table(metrics: Dict[str, float]) -> None:
    wall = metrics["trace.check_wall_s"]
    layers = [name[:-len(".self_s")] for name in metrics
              if name.endswith(".self_s")]
    print("   %-14s %10s %10s %10s %7s" % ("layer", "calls", "total_s",
                                          "self_s", "self%"))
    covered = 0.0
    for layer in layers:
        self_s = metrics[layer + ".self_s"]
        covered += self_s
        calls = metrics.get(layer + ".calls")
        total = metrics.get(layer + ".total_s", self_s)
        print("   %-14s %10s %10.4f %10.4f %6.2f%%" % (
            layer, "-" if calls is None else "%d" % calls, total, self_s,
            100.0 * self_s / wall))
    print("   %-14s %10s %10s %10.4f  (check wall time %.4f s)" % (
        "sum", "", "", covered, wall))
    print("   tracing overhead: %.1f%% (%.3f traced vs %.3f untraced "
          "checks/s on the same checks, at the reference speed)" % (
              100.0 * metrics["trace.overhead_ratio"],
              metrics["trace.checks_per_s"],
              metrics["trace.untraced_checks_per_s"]))
    extras = [name for name in metrics
              if not name.endswith((".calls", ".total_s", ".self_s"))
              and not name.startswith("trace.")]
    print("   " + ", ".join("%s=%.4g" % (name, metrics[name])
                            for name in extras))


# -- main -----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print("perfbench: no checker sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    shift = args.seed % len(names)
    results: List[Dict] = []
    metrics: Dict[str, Dict] = {}
    try:
        for name in names[shift:] + names[:shift]:
            result = run_one(name, args.seed, args.seconds, args.trace)
            print_report(result, args.trace)
            results.append(result)
            for metric, entry in with_units(result["metrics"],
                                            args.trace).items():
                key = metric if args.workload != "all" \
                    else "%s.%s" % (name, metric)
                metrics[key] = entry
    except RunFailed as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 2
    correct = all(result["correct"] for result in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
