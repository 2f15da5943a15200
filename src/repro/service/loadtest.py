"""Load-test rig for the check service (``repro bench --service``).

For each configuration this module boots a real ``repro serve``
process fleet (1..N shards) on an ephemeral port, drives a mixed
duplicate/fresh workload across both frontends from concurrent client
threads, and folds the outcome into one scoreboard row: throughput,
p50/p95/p99 latency, shard balance, dedup and unit-cache hit rates —
written to ``BENCH_service.json`` by :func:`run_suite`, the scaling
scoreboard later PRs regress against.

Correctness is asserted while measuring: every response's verdict
payload is fingerprinted on its deterministic projection
(:func:`repro.analysis.report.verdict_projection`), and
:func:`run_suite` fails unless each program's fingerprint is identical
across every configuration *and* to a local ``repro check --json``
run.

The workload mirrors the paper's Figure-9 mix at service scale: the
summation loop of Figure 1 on SPARC and RV32I plus its buggy variant
(off-by-one bound), in a configurable duplicate/fresh ratio.  "Fresh"
submissions perturb a verdict-neutral option (the wall-clock budget)
so every fresh request carries a distinct dedup key and exercises the
full pipeline, while duplicates exercise the verdict-cache/coalescing
path — near-duplicate traffic is also exactly the workload the
function-unit cache (PR 7) exists for, which is what makes
``unit_hit_rate`` per config worth recording.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.report import verdict_projection
from repro.logic.serialize import text_digest
from repro.programs.sum_array import SOURCE as SPARC_SUM
from repro.programs.sum_array import SPEC as SPARC_SUM_SPEC

#: RV32I rendering of the same summation loop (see
#: tests/ir/test_parity.py; inlined to keep the rig self-contained).
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

RISCV_SUM_SPEC = """
loc e   : int    = initialized  perms ro  region V summary
loc arr : int[n] = {e}          perms rfo region V
rule [V : int : ro]
rule [V : int[n] : rfo]
invoke a0 = arr
invoke a1 = n
assume n >= 1
"""

SPARC_BUGGY = SPARC_SUM.replace("bl 6", "ble 6")

#: The program mix, each entry one distinct (program, spec, arch).
PROGRAMS = (
    {"name": "sum-sparc", "code": SPARC_SUM, "spec": SPARC_SUM_SPEC,
     "arch": "sparc"},
    {"name": "sum-riscv", "code": RISCV_SUM, "spec": RISCV_SUM_SPEC,
     "arch": "riscv"},
    {"name": "buggy-sparc", "code": SPARC_BUGGY,
     "spec": SPARC_SUM_SPEC, "arch": "sparc"},
)

#: Base wall-clock budget for "fresh" requests; request *i* uses
#: ``FRESH_TIMEOUT_BASE_S + i`` so every fresh submission has a unique
#: options digest (hence dedup key) without affecting its verdict.
FRESH_TIMEOUT_BASE_S = 86400.0


@dataclass
class LoadConfig:
    """One scoreboard configuration."""

    name: str
    shards: int = 1
    requests: int = 200
    clients: int = 8
    #: Fraction of requests that reuse a base program's exact digest
    #: (answered by the verdict cache / in-flight coalescing).
    duplicate_ratio: float = 0.0
    #: Submit via ``POST /v1/batch`` in chunks of this size (0 = one
    #: ``POST /v1/check`` per request).
    batch: int = 0
    workers: int = 2
    queue_limit: int = 256
    cache_path: Optional[str] = None
    seed: int = 20000815
    notes: str = ""


def build_workload(config: LoadConfig) -> List[Dict]:
    """The request payloads, in submission order (deterministic)."""
    rng = random.Random(config.seed)
    payloads = []
    for index in range(config.requests):
        base = PROGRAMS[index % len(PROGRAMS)]
        payload: Dict = {
            "code": base["code"], "spec": base["spec"],
            "arch": base["arch"], "name": base["name"],
            "wait": True,
        }
        if rng.random() >= config.duplicate_ratio:
            payload["options"] = {
                "timeout_s": FRESH_TIMEOUT_BASE_S + index}
        payloads.append(payload)
    return payloads


def local_fingerprints() -> Dict[str, str]:
    """``repro check --json`` equivalent fingerprints per program —
    the parity reference every service response is held against."""
    from repro.analysis.checker import check_assembly
    from repro.analysis.report import result_to_json
    prints = {}
    for base in PROGRAMS:
        result = result_to_json(check_assembly(
            base["code"], base["spec"], name=base["name"],
            arch=base["arch"]))
        prints[base["name"]] = fingerprint(result)
    return prints


def fingerprint(result_payload: Dict) -> str:
    """Digest of the deterministic projection of one verdict payload."""
    return text_digest(json.dumps(verdict_projection(result_payload),
                                  sort_keys=True))


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile (samples need not be sorted)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1,
               max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


class _Fleet:
    """One ``repro serve`` subprocess (sharded or not) for the rig."""

    def __init__(self, config: LoadConfig, log_path: str):
        self.config = config
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None
        self.url: Optional[str] = None

    def __enter__(self) -> "_Fleet":
        src = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep \
            + env.get("PYTHONPATH", "")
        command = [sys.executable, "-m", "repro.cli", "serve",
                   "--port", "0",
                   "--shards", str(self.config.shards),
                   "--workers", str(self.config.workers),
                   "--queue-limit", str(self.config.queue_limit)]
        if self.config.cache_path:
            command += ["--cache", self.config.cache_path]
        self._log = open(self.log_path, "w")
        self.process = subprocess.Popen(command, stderr=self._log,
                                        env=env)
        self.url = self._await_url()
        self._await_health()
        return self

    def _await_url(self) -> str:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with open(self.log_path) as handle:
                for line in handle:
                    if line.startswith("repro service listening on "):
                        return line.split()[4]
            if self.process.poll() is not None:
                break
            time.sleep(0.1)
        self.process.kill()
        raise RuntimeError("service did not come up:\n"
                           + open(self.log_path).read())

    def _await_health(self) -> None:
        from repro.service.client import fetch_json
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                health = fetch_json(self.url, "/healthz", timeout_s=5)
                shards = health.get("shard_count", 1)
                if health.get("status") == "ok" \
                        and shards >= self.config.shards:
                    return
            except Exception:
                pass
            time.sleep(0.1)
        self.process.kill()
        raise RuntimeError("service never became healthy")

    def metrics(self) -> Dict:
        from repro.service.client import fetch_json
        return fetch_json(self.url, "/metrics", timeout_s=30)

    def __exit__(self, *exc_info) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(120)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def _drive(url: str, config: LoadConfig,
           payloads: List[Dict]) -> Dict:
    """Fan the workload out from ``config.clients`` threads; returns
    latencies, fingerprints seen per program, and error counts."""
    from repro.service.client import (
        ServiceError, submit, submit_batch,
    )
    lock = threading.Lock()
    cursor = [0]
    latencies: List[float] = []
    prints: Dict[str, set] = {}
    errors: List[str] = []

    def record(name: str, job: Dict, elapsed: float) -> None:
        with lock:
            if job.get("state") == "completed" and "result" in job:
                latencies.append(elapsed)
                prints.setdefault(name, set()).add(
                    fingerprint(job["result"]))
            else:
                errors.append("%s: state=%s error=%s" % (
                    name, job.get("state"), job.get("error")))

    def take(count: int) -> List[Dict]:
        with lock:
            start = cursor[0]
            cursor[0] = min(len(payloads), start + count)
            return payloads[start:cursor[0]]

    def client() -> None:
        while True:
            chunk = take(config.batch or 1)
            if not chunk:
                return
            t0 = time.perf_counter()
            try:
                if config.batch:
                    items = [{key: value for key, value in p.items()
                              if key != "wait"} for p in chunk]
                    doc = submit_batch(url, items, wait=True,
                                       retries=8)
                    # Whole-batch latency attributed to each item —
                    # that is what a batch client experiences.
                    elapsed = time.perf_counter() - t0
                    for payload, entry in zip(chunk, doc["items"]):
                        record(payload["name"],
                               entry.get("job",
                                         {"state": "rejected",
                                          "error": entry.get("error")}),
                               elapsed)
                else:
                    job = submit(url, chunk[0], retries=8)
                    record(chunk[0]["name"],
                           job, time.perf_counter() - t0)
            except ServiceError as error:
                with lock:
                    errors.append(str(error))

    threads = [threading.Thread(target=client, daemon=True,
                                name="load-%d" % index)
               for index in range(config.clients)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - t0
    return {"latencies": latencies, "fingerprints": prints,
            "errors": errors, "wall_s": wall_s}


def run_config(config: LoadConfig, quiet: bool = False) -> Dict:
    """Boot the fleet, drive the workload, return the scoreboard row."""
    payloads = build_workload(config)
    log_path = os.path.join(tempfile.gettempdir(),
                            "repro-bench-service-%s.log" % config.name)
    with _Fleet(config, log_path) as fleet:
        outcome = _drive(fleet.url, config, payloads)
        metrics = fleet.metrics()
    latencies = outcome["latencies"]
    counters = metrics.get("counters", {})
    received = counters.get("requests_received", 0)
    per_shard_accepted = {
        label: doc["counters"].get("jobs_accepted", 0)
        for label, doc in (metrics.get("shards") or {}).items()
        if "counters" in doc}
    if not per_shard_accepted:  # single-process server: one "shard"
        per_shard_accepted = {"0": counters.get("jobs_accepted", 0)}
    balance = 0.0
    if max(per_shard_accepted.values()):
        balance = (min(per_shard_accepted.values())
                   / max(per_shard_accepted.values()))
    row = {
        "name": config.name,
        "shards": config.shards,
        "workers": config.workers,
        "requests": config.requests,
        "clients": config.clients,
        "duplicate_ratio": config.duplicate_ratio,
        "batch": config.batch,
        "cache": bool(config.cache_path),
        "completed": len(latencies),
        "errors": len(outcome["errors"]),
        "error_samples": outcome["errors"][:5],
        "wall_s": round(outcome["wall_s"], 4),
        "throughput_rps": round(
            len(latencies) / outcome["wall_s"], 3)
            if outcome["wall_s"] else 0.0,
        "latency_s": {
            "p50": round(percentile(latencies, 0.50), 5),
            "p95": round(percentile(latencies, 0.95), 5),
            "p99": round(percentile(latencies, 0.99), 5),
            "mean": round(sum(latencies) / len(latencies), 5)
                if latencies else 0.0,
        },
        "dedup": {
            "hits": metrics.get("dedup_hits", 0),
            "verdict_cache": counters.get("jobs_deduped_cache", 0),
            "in_flight": counters.get("jobs_deduped_inflight", 0),
            "rate": round(metrics.get("dedup_hits", 0) / received, 4)
                if received else 0.0,
        },
        "prover": {
            "unit_hit_rate": round(
                metrics.get("prover", {}).get("unit_hit_rate", 0.0),
                4),
            "cache_hit_rate": round(
                metrics.get("prover", {}).get("cache_hit_rate", 0.0),
                4),
        },
        "jobs_accepted": counters.get("jobs_accepted", 0),
        "shard_accepted": per_shard_accepted,
        "shard_balance": round(balance, 4),
        "rejected_429": counters.get("rejected_queue_full", 0),
        "fingerprints": {
            name: sorted(prints)
            for name, prints in outcome["fingerprints"].items()},
    }
    if config.notes:
        row["notes"] = config.notes
    if not quiet:
        print("  %-22s %7.2f req/s  p50 %6.1fms  p95 %6.1fms  "
              "dedup %4.0f%%  unit-hits %4.0f%%"
              % (config.name, row["throughput_rps"],
                 1000 * row["latency_s"]["p50"],
                 1000 * row["latency_s"]["p95"],
                 100 * row["dedup"]["rate"],
                 100 * row["prover"]["unit_hit_rate"]),
              file=sys.stderr)
    return row


def default_configs(requests: int = 240, clients: int = 8,
                    shards: Optional[int] = None,
                    cache_dir: Optional[str] = None) \
        -> List[LoadConfig]:
    """The acceptance matrix: 1-shard fresh baseline, N-shard fresh,
    N-shard mixed-duplicate (with the shared replay store)."""
    n = shards or max(2, os.cpu_count() or 1)
    cache_path = os.path.join(cache_dir or tempfile.mkdtemp(
        prefix="repro-bench-service-"), "prover.sqlite")
    return [
        LoadConfig(name="shards-1-fresh", shards=1,
                   requests=requests, clients=clients,
                   duplicate_ratio=0.0,
                   notes="single-process baseline"),
        LoadConfig(name="shards-%d-fresh" % n, shards=n,
                   requests=requests, clients=clients,
                   duplicate_ratio=0.0,
                   notes="pre-forked fleet, all-fresh workload"),
        LoadConfig(name="shards-%d-mixed" % n, shards=n,
                   requests=requests, clients=clients,
                   duplicate_ratio=0.6, batch=8,
                   cache_path=cache_path,
                   notes="60% duplicates via /v1/batch, shared "
                         "replay store"),
    ]


def run_suite(configs: List[LoadConfig], output: str,
              quiet: bool = False) -> int:
    """Run every config, verify fingerprint parity, write *output*.

    Returns a process exit status: non-zero when any program's verdict
    fingerprint differs between configurations or from the local
    checker — a wrong scoreboard must never look like a fast one."""
    if not quiet:
        print("service load test: %d configs, local parity reference"
              % len(configs), file=sys.stderr)
    reference = local_fingerprints()
    rows = [run_config(config, quiet=quiet) for config in configs]
    parity_ok = True
    for row in rows:
        for name, prints in row["fingerprints"].items():
            expected = reference.get(name)
            if prints != [expected]:
                parity_ok = False
                print("FINGERPRINT MISMATCH: %s in %s: %s != [%s]"
                      % (name, row["name"], prints, expected),
                      file=sys.stderr)
    cores = os.cpu_count() or 1
    baseline = next((row for row in rows if row["shards"] == 1), None)
    fleet_fresh = next(
        (row for row in rows
         if row["shards"] > 1 and row["duplicate_ratio"] == 0.0),
        None)
    speedup = None
    if baseline and fleet_fresh and baseline["throughput_rps"]:
        speedup = round(fleet_fresh["throughput_rps"]
                        / baseline["throughput_rps"], 3)
    report = {
        "schema": 1,
        "kind": "service-loadtest",
        "python": sys.version.split()[0],
        "cpu_count": cores,
        "parity_ok": parity_ok,
        "local_fingerprints": reference,
        "shard_speedup": speedup,
        #: On a single-core runner the N-shard fleet time-slices one
        #: core, so the >=2x acceptance threshold is not evaluable.
        "shard_speedup_valid": cores > 1,
        "configs": rows,
    }
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if not quiet:
        print("wrote %s (parity %s, shard speedup %s%s)"
              % (output, "OK" if parity_ok else "FAILED",
                 speedup,
                 "" if cores > 1 else ", single-core: speedup "
                                      "not evaluable"),
              file=sys.stderr)
    return 0 if parity_ok else 1


__all__ = ["LoadConfig", "build_workload", "default_configs",
           "fingerprint", "local_fingerprints", "percentile",
           "run_config", "run_suite"]
