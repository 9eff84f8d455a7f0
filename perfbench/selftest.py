"""Self-test of the benchmark's failure accounting.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Runs short workloads with a fault planted in the benchmark's own process and
asserts that each fault is reported as failed ops, with ``correct`` false,
rather than as a crash or a pass:

* a corrupted expected fact (every chain is expected to have one label more
  than ``P * (A + 4)``), on ``large_audit``;
* a server killed with SIGKILL in the middle of the timed window, on
  ``serve_warm``.

The program under test is not modified.  Exits 0 when both faults are
caught, 1 otherwise.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from typing import Callable

from common import Run, SpeedProbe, require_program


def corrupted_fact(run: Run) -> None:
    import checks
    import inprocess

    original = checks.check_facts

    def wrong(document, command, facts):
        if "labels" in facts:
            facts = {**facts, "labels": facts["labels"] + 1}
        return original(document, command, facts)

    checks.check_facts = wrong
    try:
        inprocess.large_audit(run)
    finally:
        checks.check_facts = original


def killed_server(run: Run) -> None:
    import children

    original = children.start_server

    def start_then_kill(scratch, cache_dir):
        process, client = original(scratch, cache_dir)

        def kill() -> None:
            # Only the server still serving: earlier set-ups are torn down.
            if process.poll() is None:
                os.kill(process.pid, signal.SIGKILL)

        timer = threading.Timer(8.0, kill)
        timer.daemon = True
        timer.start()
        return process, client

    children.start_server = start_then_kill
    try:
        children.serve_warm(run)
    finally:
        children.start_server = original


def expect_failures(name: str, workload: str, plant: Callable[[Run], None]) -> bool:
    probe = SpeedProbe()
    run = Run(workload, seed=1, seconds=6, trace=False, probe=probe)
    try:
        plant(run)
    except Exception as error:  # a crash is exactly what must not happen
        print(f"selftest {name}: crashed: {error!r}")
        return False
    finally:
        probe.close()
    caught = run.failed > 0 and run.attempted >= run.failed
    verdict = "ok" if caught else "NOT CAUGHT"
    print(f"selftest {name}: {verdict} (attempted {run.attempted}, failed {run.failed}; "
          f"first: {run.failures[:1]})")
    return caught


def main() -> int:
    require_program()
    results = [
        expect_failures("corrupted expected fact", "large_audit", corrupted_fact),
        expect_failures("killed server", "serve_warm", killed_server),
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
