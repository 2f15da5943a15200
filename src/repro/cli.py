"""Command-line interface.

::

    repro check CODE.s SPEC.policy        # run the safety checker
    repro check CODE.bin SPEC.policy --binary
    repro asm CODE.s -o CODE.bin          # assemble to SPARC V8 words
    repro disasm CODE.bin                 # disassemble machine code
    repro cfg CODE.s --dot                # control-flow graph (Graphviz)
    repro run CODE.s --reg %o0=7 ...      # concrete emulation
    repro fig9 [--full]                   # regenerate the paper's table
    repro serve [--port N] [--shards N]   # run the check service
    repro submit CODE.s SPEC.policy       # check via a running service
    repro fuzz run --jobs 4 --count 200   # differential fuzzing campaign
    repro fuzz reduce FINDINGS.jsonl      # minimize a finding (delta
                                          # debugging) to a reproducer
    repro fuzz replay tests/fuzz/corpus   # re-check committed corpus
    repro trace summarize T.jsonl         # profile a recorded check
    repro trace validate T.jsonl          # schema-check a trace file
    repro cache stats                     # replay-store contents
    repro cache gc --max-mb 64            # shrink it to a size budget

Exit status of ``check`` and ``submit``: 0 = certified safe,
1 = violations found, 2 = error (bad input, unsupported construct,
service unreachable), 3 = undecided (wall-clock timeout).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.analysis.checker import SafetyChecker
from repro.analysis.options import CheckerOptions, valid_timeout
from repro.logic.persist import DEFAULT_CACHE_PATH as _DEFAULT_CACHE
from repro.analysis.report import render_figure9
from repro.ir.frontend import frontend_names, get_frontend
from repro.policy.parser import parse_spec
from repro.sparc.assembler import assemble
from repro.sparc.decoder import decode_program
from repro.sparc.emulator import Emulator
from repro.sparc.encoder import encode_program
from repro.textfile import read_text


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    except OSError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2


def _budget(text: str) -> float:
    """argparse type of every wall-clock budget flag: a finite number
    of seconds greater than zero."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if not valid_timeout(value):
        raise argparse.ArgumentTypeError(
            "%r is not a finite number of seconds > 0" % text)
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Safety checker for machine code — SPARC V8 and "
                    "RV32I frontends (PLDI 2000 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="check untrusted code against "
                                         "a host specification")
    check.add_argument("code", help="assembly file (or binary with "
                                    "--binary)")
    check.add_argument("spec", help="host specification file")
    check.add_argument("--binary", action="store_true",
                       help="treat CODE as raw machine code")
    check.add_argument("--arch", choices=frontend_names(),
                       default="sparc",
                       help="instruction-set architecture of CODE "
                            "(default: sparc)")
    check.add_argument("--json", action="store_true",
                       help="machine-readable output")
    check.add_argument("--verbose", action="store_true",
                       help="print per-condition proof outcomes")
    check.add_argument("--annotate", action="store_true",
                       help="print the listing with inline verdicts")
    check.add_argument("--cache", nargs="?", const=_DEFAULT_CACHE,
                       default=None, metavar="PATH",
                       help="replay store: phases 2-5 of unchanged "
                            "code replay from earlier checks (default "
                            "path when PATH is omitted: %s)"
                            % _DEFAULT_CACHE)
    check.add_argument("--timeout", type=_budget, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget; past it the check "
                            "aborts with the undecided-timeout "
                            "verdict (exit status 3)")
    check.add_argument("--trace", default=None, metavar="FILE",
                       help="write a JSONL trace of the run (spans "
                            "per phase, obligation, prover query; "
                            "default: $REPRO_TRACE); verdicts are "
                            "unaffected")
    check.set_defaults(handler=_cmd_check)

    asm = sub.add_parser("asm", help="assemble to machine code")
    asm.add_argument("code")
    asm.add_argument("-o", "--output", required=True)
    asm.set_defaults(handler=_cmd_asm)

    disasm = sub.add_parser("disasm", help="disassemble machine code")
    disasm.add_argument("binary")
    disasm.add_argument("--arch", choices=frontend_names(),
                        default="sparc",
                        help="instruction-set architecture of BINARY "
                             "(default: sparc)")
    disasm.set_defaults(handler=_cmd_disasm)

    cfg = sub.add_parser("cfg", help="print the control-flow graph")
    cfg.add_argument("code")
    cfg.add_argument("--dot", action="store_true",
                     help="Graphviz dot output (default: listing)")
    cfg.set_defaults(handler=_cmd_cfg)

    run = sub.add_parser("run", help="run on the concrete emulator")
    run.add_argument("code")
    run.add_argument("--reg", action="append", default=[],
                     metavar="%reg=value",
                     help="initial register value (repeatable)")
    run.add_argument("--mem", action="append", default=[],
                     metavar="addr=word",
                     help="initial memory word (repeatable)")
    run.add_argument("--max-steps", type=int, default=1_000_000)
    run.set_defaults(handler=_cmd_run)

    fig9 = sub.add_parser("fig9", help="regenerate the paper's Figure 9 "
                                       "table")
    fig9.add_argument("--full", action="store_true",
                      help="include the heavyweight rows (heap sorts, "
                           "stack-smashing, MD5)")
    fig9.set_defaults(handler=_cmd_fig9)

    serve = sub.add_parser("serve", help="run the resident check "
                                         "service (HTTP/JSON)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="listen port (0 = ephemeral; default 8642)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent checker workers per shard "
                            "(default: 2)")
    serve.add_argument("--shards", type=int, default=1,
                       help="pre-forked shard processes sharing the "
                            "listen socket (0 = one per CPU core; "
                            "default: 1 = single process; >1 "
                            "requires os.fork)")
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="bounded job queue size; beyond it "
                            "submissions get HTTP 429 (default: 64)")
    serve.add_argument("--lru-size", type=int, default=256,
                       help="LRU verdict-cache entries (default: 256)")
    serve.add_argument("--cache", nargs="?", const=_DEFAULT_CACHE,
                       default=None, metavar="PATH",
                       help="replay store shared by all workers "
                            "(default path when PATH is omitted: %s)"
                            % _DEFAULT_CACHE)
    serve.add_argument("--timeout", type=_budget, default=None,
                       metavar="SECONDS",
                       help="default per-job wall-clock budget")
    serve.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="capture a JSONL trace per job in DIR "
                            "(job envelopes echo the trace_id)")
    serve.set_defaults(handler=_cmd_serve)

    fuzz = sub.add_parser("fuzz", help="differential fuzzing: random "
                                       "programs vs a concrete-"
                                       "execution oracle")
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=True)
    fuzz_run = fuzz_sub.add_parser(
        "run", help="run a seeded campaign; exit non-zero on any "
                    "soundness, divergence, or error finding")
    fuzz_run.add_argument("--arch", action="append",
                          choices=("sparc", "riscv"), default=None,
                          help="architecture to fuzz (repeatable; "
                               "default: both, which also enables the "
                               "cross-architecture differential)")
    fuzz_run.add_argument("--seed-start", type=int, default=0,
                          metavar="N",
                          help="first generator seed (default: 0)")
    fuzz_run.add_argument("--count", type=int, default=None,
                          metavar="N",
                          help="seed-count budget (default: 50 when "
                               "no --budget-seconds either); the "
                               "examined seed set — and hence the "
                               "findings file — is deterministic at "
                               "any --jobs")
    fuzz_run.add_argument("--budget-seconds", type=float, default=None,
                          metavar="S",
                          help="wall-clock budget: stop issuing new "
                               "seeds after S seconds")
    fuzz_run.add_argument("--jobs", "-j", type=int, default=1,
                          metavar="N",
                          help="worker processes (default: 1)")
    fuzz_run.add_argument("--vectors", type=int, default=3,
                          metavar="N",
                          help="random input vectors per seed "
                               "(default: 3)")
    fuzz_run.add_argument("--check-timeout", type=_budget, default=None,
                          metavar="SECONDS",
                          help="static-check budget per seed "
                               "(default: 30); past it the seed "
                               "records an undecided finding")
    fuzz_run.add_argument("--out", default="FUZZ_findings.jsonl",
                          metavar="FILE",
                          help="findings JSONL (default: "
                               "FUZZ_findings.jsonl)")
    fuzz_run.add_argument("--trace", default=None, metavar="FILE",
                          help="write a JSONL trace of the campaign")
    fuzz_run.add_argument("--chunk", type=int, default=4, metavar="N",
                          help="seeds per pool task (default: 4)")
    fuzz_run.add_argument("--quiet", action="store_true",
                          help="suppress progress lines")
    # Test-only: deliberately weaken the checker (skip proving the
    # given obligation category) so the soundness direction of the
    # differential can be exercised; see docs/fuzzing.md.
    fuzz_run.add_argument("--unsound-assume", action="append",
                          default=[], help=argparse.SUPPRESS)
    fuzz_run.set_defaults(handler=_cmd_fuzz_run)
    fuzz_reduce = fuzz_sub.add_parser(
        "reduce", help="delta-debug a campaign finding to a minimal "
                       "reproducer")
    fuzz_reduce.add_argument("findings",
                             help="campaign findings JSONL file")
    fuzz_reduce.add_argument("--seed", type=int, default=None,
                             metavar="N",
                             help="finding to reduce (default: the "
                                  "first failing finding, else the "
                                  "first finding)")
    fuzz_reduce.add_argument("--arch", default=None,
                             choices=("sparc", "riscv"),
                             help="disambiguate when one seed has "
                                  "findings on both architectures")
    fuzz_reduce.add_argument("--out", default=None, metavar="FILE",
                             help="also write the minimized program "
                                  "as a corpus-style JSON entry "
                                  "(expected classes re-recorded "
                                  "under the honest checker)")
    fuzz_reduce.add_argument("--name", default=None,
                             help="corpus entry name (default: "
                                  "seed<N>-<class>)")
    fuzz_reduce.add_argument("--check-timeout", type=_budget,
                             default=None, metavar="SECONDS")
    fuzz_reduce.add_argument("--unsound-assume", action="append",
                             default=[], help=argparse.SUPPRESS)
    fuzz_reduce.set_defaults(handler=_cmd_fuzz_reduce)
    fuzz_replay = fuzz_sub.add_parser(
        "replay", help="re-check committed corpus entries against "
                       "their recorded expectations")
    fuzz_replay.add_argument("paths", nargs="+",
                             help="corpus JSON files or directories")
    fuzz_replay.add_argument("--check-timeout", type=_budget,
                             default=None, metavar="SECONDS")
    fuzz_replay.set_defaults(handler=_cmd_fuzz_replay)

    trace = sub.add_parser("trace", help="inspect JSONL traces from "
                                         "`repro check --trace`")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_sum = trace_sub.add_parser(
        "summarize", help="per-phase breakdown, slowest obligations "
                          "and prover queries")
    trace_sum.add_argument("file", help="JSONL trace file")
    trace_sum.add_argument("--top", type=int, default=10, metavar="N",
                           help="slowest entries to show (default: 10)")
    trace_sum.add_argument("--hotspots", action="store_true",
                           help="also rank prover queries by total "
                                "seconds per canonical digest and "
                                "obligations by total seconds per "
                                "(function, category)")
    trace_sum.add_argument("--json", action="store_true",
                           help="machine-readable summary")
    trace_sum.set_defaults(handler=_cmd_trace_summarize)
    trace_val = trace_sub.add_parser(
        "validate", help="check every record against the trace schema")
    trace_val.add_argument("file", help="JSONL trace file")
    trace_val.set_defaults(handler=_cmd_trace_validate)

    cache = sub.add_parser("cache", help="inspect or maintain the "
                                         "replay store")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="size, schema version, row counts")
    cache_stats.add_argument("--json", action="store_true",
                             help="machine-readable output")
    cache_stats.set_defaults(handler=_cmd_cache_stats)
    cache_clear = cache_sub.add_parser(
        "clear", help="drop every stored payload")
    cache_clear.set_defaults(handler=_cmd_cache_clear)
    cache_gc = cache_sub.add_parser(
        "gc", help="shrink the store below a size budget, least-"
                   "recently-used rows first")
    cache_gc.add_argument("--max-mb", type=float, default=64.0,
                          metavar="MB",
                          help="target size in megabytes (default: 64)")
    cache_gc.set_defaults(handler=_cmd_cache_gc)
    for cache_cmd in (cache_stats, cache_clear, cache_gc):
        cache_cmd.add_argument("--cache", default=_DEFAULT_CACHE,
                               metavar="PATH",
                               help="cache database path (default: %s)"
                                    % _DEFAULT_CACHE)

    submit = sub.add_parser("submit", help="check code through a "
                                           "running `repro serve`")
    submit.add_argument("code", help="assembly file (or binary with "
                                     "--binary)")
    submit.add_argument("spec", help="host specification file")
    submit.add_argument("--binary", action="store_true",
                        help="treat CODE as raw machine code")
    submit.add_argument("--arch", choices=frontend_names(),
                        default="sparc",
                        help="instruction-set architecture of CODE "
                             "(default: sparc)")
    submit.add_argument("--server", default=None, metavar="URL",
                        help="service base URL (default: "
                             "$REPRO_SERVER or http://127.0.0.1:8642)")
    submit.add_argument("--json", action="store_true",
                        help="print the verdict payload (byte-"
                             "identical to `repro check --json`)")
    submit.add_argument("--timeout", type=_budget, default=None,
                        metavar="SECONDS",
                        help="per-request wall-clock budget")
    submit.add_argument("--retries", type=int, default=4,
                        metavar="N",
                        help="retry a 429 (queue full) up to N times "
                             "with exponential backoff + jitter, "
                             "honoring the server's Retry-After hint "
                             "(default: 4; 0 = fail immediately)")
    submit.set_defaults(handler=_cmd_submit)

    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _load_program(args):
    arch = getattr(args, "arch", "sparc")
    if getattr(args, "binary", False) or args.code.endswith((".bin",
                                                            ".ro")):
        with open(args.code, "rb") as handle:
            blob = handle.read()
        if arch == "sparc" and blob[:4] == b"RPRO":
            from repro.sparc.objfile import read_object
            return read_object(blob, name=args.code)
        if arch == "sparc":
            return decode_program(blob, name=args.code)
        return get_frontend(arch).decode(blob, name=args.code)
    text = read_text(args.code)
    if arch == "sparc":
        return assemble(text, name=args.code)
    return get_frontend(arch).assemble(text, name=args.code)


def _cmd_check(args) -> int:
    from repro.analysis.report import result_to_json
    program = _load_program(args)
    spec = parse_spec(read_text(args.spec))
    options = CheckerOptions()
    if args.cache is not None:
        options.cache_path = args.cache
    if args.timeout is not None:
        options.timeout_s = args.timeout
    if args.trace is not None:
        options.trace_path = args.trace
    with SafetyChecker(program, spec, options=options) as checker:
        result = checker.check()
    if args.json:
        print(json.dumps(result_to_json(result), indent=2))
    else:
        print(result.summary())
        if args.annotate:
            print()
            print(result.annotated_listing(program))
        if args.verbose:
            for proof in result.proofs:
                print("  line %-4d %-50s %s" % (
                    proof.index, proof.predicate.description,
                    "PROVED" if proof.proved else "FAILED"))
    if result.timed_out:
        return 3
    return 0 if result.safe else 1


def _cmd_asm(args) -> int:
    program = _load_program(args)
    if args.output.endswith(".ro"):
        from repro.sparc.objfile import write_object
        blob = write_object(program)
    else:
        blob = encode_program(program)
    with open(args.output, "wb") as handle:
        handle.write(blob)
    print("wrote %d bytes (%d instructions) to %s"
          % (len(blob), len(program), args.output))
    return 0


def _cmd_disasm(args) -> int:
    with open(args.binary, "rb") as handle:
        blob = handle.read()
    arch = getattr(args, "arch", "sparc")
    if arch == "sparc":
        if blob[:4] == b"RPRO":
            from repro.sparc.objfile import read_object
            program = read_object(blob, name=args.binary)
        else:
            program = decode_program(blob, name=args.binary)
    else:
        program = get_frontend(arch).decode(blob, name=args.binary)
    print(program.listing(canonical=True))
    return 0


def _cmd_cfg(args) -> int:
    from repro.cfg.builder import build_cfg
    program = _load_program(args)
    cfg = build_cfg(program)
    if args.dot:
        print(cfg.to_dot())
    else:
        print(program.listing(canonical=True))
        print("\nfunctions: %s" % ", ".join(sorted(cfg.functions)))
        print("nodes: %d" % len(cfg))
    return 0


def _cmd_run(args) -> int:
    program = _load_program(args)
    emulator = Emulator(program, max_steps=args.max_steps)
    for binding in args.reg:
        name, __, value = binding.partition("=")
        emulator.set_register(name, int(value, 0))
    for binding in args.mem:
        address, __, value = binding.partition("=")
        emulator.write_memory(int(address, 0), int(value, 0), 4)
    steps = emulator.run()
    print("executed %d instructions" % steps)
    for bank in ("o", "g", "l", "i"):
        row = []
        for i in range(8):
            name = "%%%s%d" % (bank, i)
            value = emulator.register(name)
            if value:
                row.append("%s=0x%x" % (name, value))
        if row:
            print("  " + "  ".join(row))
    return 0


def _cmd_cache_stats(args) -> int:
    import os

    from repro.logic.persist import PersistentProverCache
    if os.path.exists(args.cache):
        with PersistentProverCache(args.cache) as cache:
            stats = cache.stats()
    else:
        # Inspecting a cache must not create one.
        stats = {"path": args.cache, "exists": False,
                 "schema_version": None, "size_bytes": 0, "units": 0}
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print("cache:          %s" % stats["path"])
    if not stats["exists"]:
        print("  (no database file)")
        return 0
    print("schema version: %d" % stats["schema_version"])
    print("size:           %.1f KiB" % (stats["size_bytes"] / 1024.0))
    print("replay rows:    %d" % stats["units"])
    for kind, count in sorted(stats.get("units_by_kind", {}).items()):
        print("  %-13s %d" % (kind + ":", count))
    return 0


def _cmd_cache_clear(args) -> int:
    from repro.logic.persist import PersistentProverCache
    with PersistentProverCache(args.cache) as cache:
        cache.clear()
        stats = cache.stats()
    print("cleared %s (now %.1f KiB)"
          % (stats["path"], stats["size_bytes"] / 1024.0))
    return 0


def _cmd_cache_gc(args) -> int:
    from repro.logic.persist import PersistentProverCache
    with PersistentProverCache(args.cache) as cache:
        report = cache.gc(max_mb=args.max_mb)
    print("gc %s: dropped %d rows; now %.1f KiB"
          % (args.cache, report["deleted_units"],
             report["size_bytes"] / 1024.0))
    return 0


def _cmd_serve(args) -> int:
    import logging
    import os
    import signal

    from repro.service.server import CheckServer, ServeConfig

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
    if args.cache:
        # Every job opens the store; a path that is not one fails here,
        # once, instead of failing every job.
        from repro.logic.persist import PersistentProverCache
        PersistentProverCache(args.cache).close()
    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        queue_limit=args.queue_limit,
        verdict_cache_size=args.lru_size,
        cache_path=args.cache, default_timeout_s=args.timeout,
        trace_dir=args.trace_dir, shards=args.shards)

    from repro.service import shards as shards_mod
    shard_count = shards_mod.resolve_shards(args.shards) \
        if args.shards != 1 else 1
    if shard_count > 1 and not shards_mod.fork_supported():
        print("warning: --shards needs os.fork; falling back to a "
              "single process", file=sys.stderr)
        shard_count = 1
    if shard_count > 1:
        def _announce(url):
            print("repro service listening on %s (%d shards)"
                  % (url, shard_count), file=sys.stderr)
            sys.stderr.flush()

        config.shards = shard_count
        return shards_mod.serve_sharded(config, announce=_announce)

    server = CheckServer(config)

    def _drain(signum, frame):
        server.begin_drain()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    print("repro service listening on %s" % server.url,
          file=sys.stderr)
    server.serve_forever()
    return 0


def _cmd_submit(args) -> int:
    import os

    from repro.service.client import (
        DEFAULT_SERVER, build_payload, submit,
    )

    server = args.server or os.environ.get("REPRO_SERVER") \
        or DEFAULT_SERVER
    if args.binary or args.code.endswith((".bin", ".ro")):
        with open(args.code, "rb") as handle:
            code = handle.read()
        binary = True
    else:
        code = read_text(args.code)
        binary = False
    spec = read_text(args.spec)
    payload = build_payload(
        code, spec, arch=args.arch, binary=binary,
        name=os.path.basename(args.code), timeout_s=args.timeout)
    job = submit(server, payload, retries=max(0, args.retries))
    if job["state"] == "failed":
        print("error: %s" % job.get("error", "job failed"),
              file=sys.stderr)
        return 2
    result = job["result"]
    if args.json:
        # Byte-identical to `repro check --json` for the same inputs
        # (the server builds the payload with the same function).
        print(json.dumps(result, indent=2))
    else:
        outcome = {"certified": "SAFE", "rejected": "UNSAFE",
                   "undecided:timeout": "UNDECIDED (timeout)"}.get(
                       result["verdict"], result["verdict"])
        dedup = " [%s]" % job["dedup"] if job.get("dedup") else ""
        print("%s: %s  (job %s via %s%s)"
              % (result["name"], outcome, job["id"], server, dedup))
        for violation in result["violations"]:
            print("  VIOLATION instruction %d: %s (%s, %s "
                  "verification)"
                  % (violation["instruction"], violation["description"],
                     violation["category"], violation["phase"]))
    if result["verdict"] == "undecided:timeout":
        return 3
    return 0 if result["safe"] else 1


def _fuzz_overrides(args) -> dict:
    if not args.unsound_assume:
        return {}
    return {"unsound_assume_categories": tuple(args.unsound_assume)}


def _cmd_fuzz_run(args) -> int:
    from repro.fuzz.generator import ARCHS
    from repro.fuzz.harness import (
        CampaignConfig, render_summary, run_campaign,
    )
    from repro.fuzz.oracle import DEFAULT_CHECK_TIMEOUT_S
    archs = tuple(dict.fromkeys(args.arch)) if args.arch else ARCHS
    config = CampaignConfig(
        archs=archs, seed_start=args.seed_start,
        budget_count=args.count, budget_seconds=args.budget_seconds,
        jobs=args.jobs, vectors=args.vectors,
        check_timeout_s=args.check_timeout
        if args.check_timeout is not None else DEFAULT_CHECK_TIMEOUT_S,
        checker_overrides=_fuzz_overrides(args),
        chunk_size=args.chunk, findings_path=args.out,
        trace_path=args.trace)
    log = None if args.quiet else \
        (lambda line: print(line, file=sys.stderr))
    result = run_campaign(config, log=log)
    print(render_summary(result.summary))
    for finding in result.findings:
        if finding["class"] in ("soundness", "divergence", "error"):
            print("  %s seed %d%s" % (
                finding["class"].upper(), finding["seed"],
                " (%s)" % finding["arch"] if finding.get("arch")
                else ""))
    return 0 if result.ok else 1


def _cmd_fuzz_reduce(args) -> int:
    from repro.errors import FuzzError
    from repro.fuzz.generator import (
        instruction_count, lower, make_vectors,
    )
    from repro.fuzz.harness import (
        FAILING_CLASSES, CampaignConfig, corpus_entry, load_findings,
        reduce_finding,
    )
    from repro.fuzz.oracle import (
        DEFAULT_CHECK_TIMEOUT_S, check_options, classify,
    )
    findings = load_findings(args.findings)
    if args.seed is not None:
        findings = [f for f in findings if f["seed"] == args.seed]
    if args.arch is not None:
        findings = [f for f in findings if f.get("arch") == args.arch]
    reducible = [f for f in findings if "sketch" in f]
    if not reducible:
        raise FuzzError("no reducible finding matches (of %d records "
                        "in %s)" % (len(findings), args.findings))
    failing = [f for f in reducible
               if f["class"] in FAILING_CLASSES and f["class"] != "error"]
    finding = failing[0] if failing else reducible[0]
    timeout = args.check_timeout if args.check_timeout is not None \
        else DEFAULT_CHECK_TIMEOUT_S
    config = CampaignConfig(check_timeout_s=timeout,
                            checker_overrides=_fuzz_overrides(args))
    reduced = reduce_finding(finding, config)
    arch = finding.get("arch") or "sparc"
    print("reduced seed %d (%s, %s): %d -> %d %s instructions"
          % (finding["seed"], finding["class"], arch,
             finding.get("instructions", 0),
             instruction_count(reduced, arch), arch))
    print(lower(reduced, arch))
    if args.out:
        vectors = make_vectors(finding["seed"], reduced.array_size,
                               finding.get("vector_count", 3))
        expected = {
            a: classify(reduced, a, vectors,
                        options=check_options(timeout)).kind
            for a in ("sparc", "riscv")}
        entry = corpus_entry(
            name=args.name or "seed%d-%s" % (finding["seed"],
                                             finding["class"]),
            description="minimized from campaign finding (seed %d, "
                        "class %s on %s)" % (finding["seed"],
                                             finding["class"], arch),
            sketch=reduced, vector_seed=finding["seed"],
            vector_count=finding.get("vector_count", 3),
            expected=expected)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(entry, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote corpus entry %s (expected: %s)"
              % (args.out, expected))
    return 0


def _cmd_fuzz_replay(args) -> int:
    from repro.fuzz.harness import corpus_paths, replay_corpus
    from repro.fuzz.oracle import DEFAULT_CHECK_TIMEOUT_S
    timeout = args.check_timeout if args.check_timeout is not None \
        else DEFAULT_CHECK_TIMEOUT_S
    paths = corpus_paths(args.paths)
    failures = replay_corpus(paths, check_timeout_s=timeout)
    failed = dict(failures)
    for path in paths:
        if path in failed:
            print("FAIL %s" % path)
            for problem in failed[path]:
                print("  %s" % problem)
        else:
            print("ok   %s" % path)
    print("%d corpus entr%s, %d failure%s"
          % (len(paths), "y" if len(paths) == 1 else "ies",
             len(failures), "" if len(failures) == 1 else "s"))
    return 1 if failures else 0


def _cmd_trace_summarize(args) -> int:
    from repro.trace import load_trace, render_summary, summarize
    records = load_trace(args.file)
    summary = summarize(records, top=args.top,
                        hotspots=args.hotspots)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(render_summary(summary))
    return 0


def _cmd_trace_validate(args) -> int:
    from repro.trace import load_trace
    records = load_trace(args.file)  # raises TraceError → exit 2
    print("%s: %d records, schema valid" % (args.file, len(records)))
    return 0


def _cmd_fig9(args) -> int:
    from repro.programs import all_programs, fast_programs
    chosen = all_programs() if args.full else fast_programs()
    results = []
    for program in chosen:
        result = program.check()
        results.append(result)
        print("%-16s %s" % (program.name,
                            "SAFE" if result.safe else "UNSAFE"),
              file=sys.stderr)
    print(render_figure9(results))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
