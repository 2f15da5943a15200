"""One check budget (:mod:`repro.budget`) bounds every formula
operation of a check, including the phase-5 wlp eliminations that run
on the module-level default prover, and concurrent checks each keep
their own budget."""

import os
import subprocess
import sys
import threading
import time

import pytest

from repro import budget
from repro.analysis.checker import SafetyChecker
from repro.analysis.options import CheckerOptions
from repro.analysis.wlp import WlpTransfer
from repro.cfg.builder import build_cfg
from repro.errors import ProverTimeout
from repro.logic.prover import Prover
from repro.policy.parser import parse_constraint, parse_spec
from repro.programs import all_programs, fast_programs
from repro.programs.sum_array import SPEC as SUM_SPEC
from repro.typesys.locations import LocationTable
from tests.analysis.test_forward import _riscv_parity_cases

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

#: Twelve register pairs bounding the intervals of :func:`_intervals`.
_BOUNDS = ("%l0 %l1 %l2 %l3 %l4 %l5 %l6 %l7 %i0 %i1 %i2 %i3 "
           "%i4 %i5 %g2 %g3 %g4 %g5 %o2 %o3 %o4 %o5 %g6 %g7").split()


def _intervals(register):
    """The spec text "*register* lies in one of twelve intervals"."""
    return " or ".join("(%s >= %s and %s <= %s)" % (
        register, _BOUNDS[2 * i], register, _BOUNDS[2 * i + 1])
        for i in range(12))


#: A right shift feeding a trusted call whose precondition puts the
#: result in one of twelve intervals.  Eliminating the guarded havoc of
#: ``srl`` expands the negated precondition into 2^12 DNF pieces, and
#: simplifying the eliminated result takes minutes (each extra
#: interval costs ~4x), so without a budget the check does not end in
#: any test's lifetime.
SRL_SOURCE = """
srl %o1,10,%o0
call F
nop
retl
nop
"""
SRL_SPEC = SUM_SPEC + "function F {\n    requires %s\n}\n" % (
    _intervals("%o0"),)

#: The slack a timed-out check may take past its budget.
SLACK_S = 0.5


def test_srl_program_times_out_in_a_subprocess(tmp_path):
    code = tmp_path / "srl.s"
    code.write_text(SRL_SOURCE)
    spec = tmp_path / "srl.policy"
    spec.write_text(SRL_SPEC)
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    t0 = time.monotonic()
    try:
        run = subprocess.run(
            [sys.executable, "-m", "repro.cli", "check", str(code),
             str(spec), "--timeout", "1"],
            env=env, capture_output=True, text=True, timeout=30)
    except subprocess.TimeoutExpired:  # the child is killed
        pytest.fail("a 1 s check still ran after 30 s")
    elapsed = time.monotonic() - t0
    assert run.returncode == 3, run.stdout + run.stderr
    assert "UNDECIDED (timeout)" in run.stdout
    assert elapsed < 5.0


def _md5_node(index):
    program = next(p for p in all_programs() if p.name == "md5")
    spec = program.spec()
    cfg = build_cfg(program.program().lower(),
                    trusted_labels=set(spec.functions))
    return next(node for node in cfg.nodes.values()
                if node.index == index and node.instruction is not None)


@pytest.mark.parametrize("index", [75, 93, 129])
def test_md5_srl_transfer_honours_the_budget(index):
    """Each of these ``srl ...,%g7`` transfers, applied to "%g7 lies in
    one of twelve intervals", takes minutes without a budget (see
    :data:`SRL_SOURCE`); the havoc elimination inside it must poll the
    budget."""
    node = _md5_node(index)
    assert node.instruction.render().startswith("srl")
    transfer = WlpTransfer({}, LocationTable())
    post = parse_constraint(_intervals("%g7"))
    t0 = time.monotonic()
    with budget.limit(0.2), pytest.raises(ProverTimeout):
        transfer.node_transfer(node, post)
    assert time.monotonic() - t0 < 1.0


def _sweep(cases):
    """Check every case at each budget; return the timed-out checks
    that overran their budget by more than :data:`SLACK_S`."""
    overruns = []
    for seconds in (0.02, 0.1, 0.3):
        for name, source, spec_text, arch in cases:
            checker = SafetyChecker(
                source, parse_spec(spec_text), arch=arch,
                options=CheckerOptions(timeout_s=seconds))
            t0 = time.monotonic()
            result = checker.check()
            elapsed = time.monotonic() - t0
            if result.timed_out and elapsed > seconds + SLACK_S:
                overruns.append((name, seconds, round(elapsed, 3)))
    return overruns


def test_budget_sweep_fast_programs_and_riscv_cases():
    cases = [(p.name, p.source, p.spec_text, "sparc")
             for p in fast_programs()]
    cases += [(case.id,) + tuple(case.values)
              for case in _riscv_parity_cases()]
    assert _sweep(cases) == []


@pytest.mark.bench
def test_budget_sweep_all_programs():
    cases = [(p.name, p.source, p.spec_text, "sparc")
             for p in all_programs()]
    assert _sweep(cases) == []


def test_prover_carries_no_budget():
    assert not hasattr(Prover(), "deadline")
    assert not hasattr(Prover, "check_deadline")
    for root, __, files in os.walk(os.path.join(_SRC, "repro")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name)) as handle:
                    assert "check_deadline" not in handle.read(), name


def test_concurrent_service_jobs_keep_their_own_budgets():
    """Two workers run two never-ending checks at once, one with a
    0.3 s budget and one with 2 s: each stops on its own budget."""
    from repro.service.client import build_payload, submit
    from repro.service.server import CheckServer, ServeConfig
    server = CheckServer(ServeConfig(port=0, workers=2))
    server.start_background()
    jobs = {}

    def run(name, seconds):
        jobs[name] = submit(server.url, build_payload(
            SRL_SOURCE, SRL_SPEC, name=name, timeout_s=seconds,
            wait=False), poll_interval_s=0.05, total_timeout_s=30)

    try:
        threads = [threading.Thread(target=run, args=args)
                   for args in (("short.s", 0.3), ("long.s", 2.0))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
    finally:
        server.close()
    short, long_ = jobs["short.s"], jobs["long.s"]
    for job in (short, long_):
        assert job["result"]["verdict"] == "undecided:timeout"
    # The two ran concurrently ...
    assert short["started_at"] < long_["finished_at"]
    assert long_["started_at"] < short["finished_at"]
    # ... and each stopped on its own budget.
    assert short["finished_at"] - short["started_at"] < 0.3 + SLACK_S
    assert 2.0 <= long_["finished_at"] - long_["started_at"] \
        < 2.0 + SLACK_S
