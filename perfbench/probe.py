"""The machine-speed probe: a fixed pure-Python task, timed on request.

Runs as a child process of the benchmark (``python3 perfbench/probe.py``):
each line read from stdin makes it run the task and print the seconds it
took: wall seconds, best of two, for a line ``probe``; CPU seconds of one
run for a line ``cpu``.  A process of its own keeps the probe's heap small
and fixed, so the program under test, whose heap is the benchmark's, cannot
move it.
"""

from __future__ import annotations

import gc
import sys
import time


def task() -> None:
    """The fixed pure-Python task."""
    table = {f"k{index}": (index * 7919) % 10007 for index in range(20000)}
    ordered = sorted(table.items(), key=lambda item: item[1])
    ",".join(key for key, _value in ordered[:5000])


def speed_probe() -> float:
    """Seconds the task takes now (best of two, GC off)."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(2):
            started = time.perf_counter()
            task()
            best = min(best, time.perf_counter() - started)
    finally:
        gc.enable()
    return best


def cpu_probe() -> float:
    """CPU seconds one run of the task takes now (GC off).

    CPU time rather than wall time for a probe taken beside busy work: the
    wait for a core is then left out, while a slow spell of the machine,
    which makes every instruction slower, still shows.
    """
    gc.disable()
    try:
        started = time.process_time()
        task()
        return time.process_time() - started
    finally:
        gc.enable()


def main() -> None:
    for line in sys.stdin:
        print(repr(cpu_probe() if line.startswith("cpu") else speed_probe()), flush=True)


if __name__ == "__main__":
    main()
