"""The one wall-clock budget of a check.

A check's budget (``CheckerOptions.timeout_s``) is a per-thread
``time.monotonic()`` deadline: the service runs checks concurrently in
worker threads, each with its own budget, and an NTP step while a check
runs must neither fire a spurious timeout nor extend the budget.

``SafetyChecker.check`` runs its pipeline inside :func:`limit`; the
code that can run long calls :func:`check` — once per prover query,
once per worklist step of the analysis fixpoints, and inside the loops
that run long between queries (induction search, quantifier
elimination, the Omega kernel, NNF/DNF construction, simplification).
Nothing else knows about the budget, so every formula operation of a
check is bounded, whichever prover it runs on.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import ProverTimeout


class _State(threading.local):
    #: Absolute ``time.monotonic()`` deadline; None means no limit.
    deadline: Optional[float] = None


_STATE = _State()


@contextmanager
def limit(seconds: Optional[float]) -> Iterator[None]:
    """Run the body with a budget of *seconds* from now (no limit when
    None) on this thread; the previous budget comes back on exit."""
    previous = _STATE.deadline
    _STATE.deadline = None if seconds is None \
        else time.monotonic() + seconds
    try:
        yield
    finally:
        _STATE.deadline = previous


def check() -> None:
    """Raise :class:`~repro.errors.ProverTimeout` once this thread's
    budget is exhausted."""
    deadline = _STATE.deadline
    if deadline is not None and time.monotonic() > deadline:
        raise ProverTimeout("check wall-clock budget exhausted")
