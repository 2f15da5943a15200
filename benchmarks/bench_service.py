#!/usr/bin/env python
"""Service scaling scoreboard: ``repro bench --service`` as a script.

Boots the sharded check service at several configurations (1-shard
baseline, N-shard fresh, N-shard mixed-duplicate with the shared
replay store), drives a concurrent mixed workload over both
frontends, and writes throughput, p50/p95/p99 latency, shard balance,
and dedup/unit-cache hit rates to ``BENCH_service.json``.  Exits
non-zero if any verdict fingerprint differs across configurations or
from a local ``repro check --json`` run.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py \
        [--requests 240] [--clients 8] [--shards 0] \
        [--output BENCH_service.json] [--quiet]

CI runs this with ``--requests 36`` as the ``bench-service`` smoke.
"""

import argparse
import os
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.service.loadtest import default_configs, run_suite  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=240,
                        help="submissions per configuration "
                             "(default: 240)")
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent client threads (default: 8)")
    parser.add_argument("--shards", type=int, default=0,
                        help="fleet size for the N-shard configs "
                             "(0 = max(2, cpu_count); default: 0)")
    parser.add_argument("--output", default="BENCH_service.json",
                        help="report path (default: BENCH_service.json)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-config progress lines")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(
            prefix="repro-bench-service-") as cache_dir:
        configs = default_configs(
            requests=args.requests, clients=args.clients,
            shards=args.shards or None, cache_dir=cache_dir)
        return run_suite(configs, args.output, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
