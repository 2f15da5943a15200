"""One set-up probe: a fresh process that gets a check ready, then exits.

It pays what every ``repro check`` invocation pays before the first
check runs: the imports, parsing the spec, constructing the checker
(which assembles the program) and opening the store.  It prints
``ready`` when that is done; ``run.py`` times the process from its
start to that line.  It then prints a speed probe (``speed.py``), by
which ``run.py`` scales that time to the reference speed.

Usage: ``python3 perfbench/setup_probe.py SETUP.json [STORE]``, where
SETUP.json names the architecture and the program and spec files, and
STORE (optional) is the store to open.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.analysis.checker import SafetyChecker  # noqa: E402
from repro.analysis.options import CheckerOptions  # noqa: E402
from repro.policy.parser import parse_spec  # noqa: E402

import speed  # noqa: E402


def main(argv):
    with open(argv[1]) as handle:
        setup = json.load(handle)
    store = argv[2] if len(argv) > 2 else None
    with open(setup["source"]) as handle:
        source = handle.read()
    with open(setup["spec"]) as handle:
        spec = parse_spec(handle.read())
    options = CheckerOptions(jobs=1, cache_path=store)
    with SafetyChecker(source, spec, options=options, arch=setup["arch"]):
        print("ready", flush=True)
    print(speed.probe(), flush=True)


if __name__ == "__main__":
    main(sys.argv)
