"""Shared plumbing: the checkout layout, child processes, memory, and stats."""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from checks import Checker
from spans import Tracer

T = TypeVar("T")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "schema_v1.json"
POLICY_FILE = HERE / "policy.json"

#: Tail percentile per workload: the highest one with at least ten samples
#: beyond it at the run length in BENCHMARK.json (see record.json).
TAIL = {"cli_cold": 0.70, "large_audit": 0.80, "serve_warm": 0.98, "hier_edit": 0.80}


class MissingProgram(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def require_program() -> None:
    """Put ``src/`` on the import path, or fail when the program is absent."""
    for needed in (SRC / "repro" / "__init__.py", SCHEMA):
        if not needed.is_file():
            raise MissingProgram(f"{needed.relative_to(ROOT)} not found under {ROOT}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """The environment of every child process: the checkout's ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Scratch:
    """A private working directory inside the checkout, removed on exit."""

    def __init__(self, label: str):
        base = ROOT / ".perfbench_tmp"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=base))

    def file(self, name: str, text: str) -> Path:
        path = self.path / name
        path.write_text(text, encoding="utf-8")
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of one process, in MB."""
    status = Path(f"/proc/{pid if pid is not None else 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid``, read from ``/proc/*/stat``."""
    parents: Dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2 :].split()
        parents[int(entry.name)] = int(fields[1])
    found: List[int] = []
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        children = [child for child, parent in parents.items() if parent == current]
        found.extend(children)
        frontier.extend(children)
    return found


#: The calibration probe's time, in seconds, on the machine the figures are
#: quoted for.  Every end-to-end time is scaled by REFERENCE_PROBE_S over the
#: probe's time taken just before the work was measured, so a run reads about
#: the same whether the shared machine happens to run fast or slow: on a
#: 2-core container, raw medians of 20-second windows moved by 16% from
#: window to window while the probe moved alike, and the scaled medians by 1%.
REFERENCE_PROBE_S = 0.012


class SpeedProbe:
    """A ``probe.py`` child process that times the fixed task on request."""

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def measure(self, kind: str = "probe") -> float:
        """The probe's seconds now (``kind``: ``probe`` or ``cpu``)."""
        assert self._process.stdin is not None and self._process.stdout is not None
        self._process.stdin.write(f"{kind}\n")
        self._process.stdin.flush()
        return float(self._process.stdout.readline())

    def close(self) -> None:
        if self._process.stdin is not None:
            self._process.stdin.close()
        try:
            self._process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait(timeout=10)


#: The CPU-time probe's seconds, beside the serve_warm load, on the machine
#: the figures are quoted for (see SpeedSampler).
REFERENCE_CPU_PROBE_S = 0.018


def cpu_ticks() -> Tuple[int, int]:
    """``(busy, stolen)`` clock ticks of all CPUs so far, from ``/proc/stat``.

    Stolen ticks are those the host ran someone else while a CPU of this
    machine had work; ``(0, 0)`` where the file is missing.
    """
    try:
        line = Path("/proc/stat").read_text().split("\n", 1)[0]
        user, nice, system, _idle, _iowait, irq, softirq, steal = (
            int(field) for field in line.split()[1:9]
        )
    except (OSError, ValueError):
        return 0, 0
    return user + nice + system + irq + softirq + steal, steal


class SpeedSampler:
    """The machine's speed while work runs beside it, as a scaling factor.

    For work that keeps both cores busy (serve_warm).  There a wall-time
    probe taken between pauses of the work read 8-34 ms within one run, and
    scaling by it added more spread than it removed.  A thread asks the
    probe for the CPU time of one run of its task at once and then every
    ``period`` seconds, until the ``with`` block ends.  CPU time shows a
    slow spell of the host, which runs every instruction up to 1.8x slower
    for a second or so, but not the time the host took the CPU away, so
    :meth:`factor` is REFERENCE_CPU_PROBE_S over the samples' mean, times
    the share of busy ticks not stolen.  The probe takes about a tenth of
    one core, the same share in every run.

    Not for single-threaded work: the probe then runs on the other core,
    whose speed is not the work's (large_audit spread three times wider).
    """

    def __init__(self, probe: SpeedProbe, period: float = 0.2):
        self.probe = probe
        self.period = period
        self.samples: List[float] = []
        self.stolen = 0.0  # share of the busy ticks stolen, once ended
        self._ticks = (0, 0)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while True:
            self.samples.append(self.probe.measure("cpu"))
            if self._stop.wait(self.period):
                return

    def __enter__(self) -> "SpeedSampler":
        self._ticks = cpu_ticks()
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join()
        busy, stolen = (now - then for now, then in zip(cpu_ticks(), self._ticks))
        self.stolen = stolen / busy if busy > 0 else 0.0

    def factor(self) -> float:
        return REFERENCE_CPU_PROBE_S / statistics.mean(self.samples) * (1.0 - self.stolen)


class Run:
    """The outcome of one workload run: op accounting and samples.

    Latencies are stored already scaled by the speed factor of
    :meth:`calibrate` (see ``REFERENCE_PROBE_S``), except in serve_warm,
    which records them as measured and scales them all by the
    :class:`SpeedSampler` factor of its window (:meth:`scale`).
    """

    def __init__(
        self, workload: str, seed: int, seconds: float, trace: bool, probe: SpeedProbe
    ):
        self.workload = workload
        self.probe = probe
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer(f"{workload}-{seed}", enabled=trace)
        self.checker = Checker(SCHEMA)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.latencies: List[float] = []  # seconds, successful ops only
        self.per_op: Dict[Any, List[float]] = {}
        #: p50_ms and the per-command metrics over distinct ops, for runs
        #: that repeat a fixed op set in whole passes; a request mix that
        #: visits some ops only a few times takes plain medians.
        self.over_ops = True
        #: The SpeedSampler factor of the window, in runs that sample one
        #: (serve_warm); None where probes between ops scale each time.
        self.window_factor: Optional[float] = None
        self.setup_s = 0.0
        self.window_s = 0.0
        self.peak_rss_mb = 0.0
        self.extra: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.probes: List[float] = []  # probe seconds taken in the window
        self.probing_s = 0.0  # window time spent probing
        self.raw_op_s = 0.0  # the successful ops' seconds before scaling
        self._factor: Optional[float] = None  # of the latest calibrate()

    def calibrate(self) -> float:
        """Probe the machine now; returns the factor that scales a time.

        The ops recorded until the next call are taken to be scaled by it.
        """
        started = time.perf_counter()
        probe = self.probe.measure()
        self.probing_s += time.perf_counter() - started
        self.probes.append(probe)
        self._factor = REFERENCE_PROBE_S / probe
        return self._factor

    def scale(self, sampler: "SpeedSampler") -> None:
        """Scale every latency recorded so far by the sampler's factor."""
        self.window_factor = sampler.factor()
        self.probes.extend(sampler.samples)
        self.latencies = [seconds * self.window_factor for seconds in self.latencies]
        for samples in self.per_op.values():
            samples[:] = [seconds * self.window_factor for seconds in samples]

    def passed(self) -> None:
        """One output check that is not a timed op (a cross-surface check)."""
        self.attempted += 1

    def ok(self, seconds: float, key: Tuple[Any, str]) -> None:
        """One successful op of ``seconds`` (already scaled, but see above).

        ``key`` names the distinct op, ending with its command: each run
        repeats a fixed set of distinct ops, and p50_ms and the per-command
        metrics are medians over the distinct ops of each one's median, so
        how many of each a run happened to fit in cannot shift them.
        """
        self.attempted += 1
        self.latencies.append(seconds)
        self.per_op.setdefault(key, []).append(seconds)
        if self._factor is not None:
            self.raw_op_s += seconds / self._factor

    def op_medians(self) -> Dict[Any, float]:
        """Each distinct op's median latency (ops recorded with a key)."""
        return {key: statistics.median(samples) for key, samples in self.per_op.items()}

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    def finish_checks(self) -> None:
        """Run the deferred schema checks; each counts as one checked op."""
        for key, reason in self.checker.finish():
            if reason is None:
                self.passed()
            else:
                self.fail(f"{key}: {reason}")

    def command_ms(self, command: str) -> float:
        """One command's median latency (over its distinct ops), in ms."""
        if self.over_ops:
            samples = [seconds for key, seconds in self.op_medians().items() if key[-1] == command]
        else:
            samples = [seconds for key, values in self.per_op.items() if key[-1] == command
                       for seconds in values]
        return statistics.median(samples) * 1000.0 if samples else 0.0

    def end_to_end(self) -> Dict[str, float]:
        """The end-to-end metrics every workload reports."""
        lat = self.latencies
        busy = self.window_s - self.probing_s
        if self.window_factor is not None:
            busy *= self.window_factor
        elif self.raw_op_s > 0:
            # The factors the ops were scaled by, weighed by op time: the
            # window's median probe tracked the machine far worse (ops_per_s
            # spread 0.24 against 0.06 over six large_audit seeds).
            busy *= sum(lat) / self.raw_op_s
        metrics = {
            "setup_s": self.setup_s,
            "peak_rss_mb": self.peak_rss_mb,
            "p50_ms": statistics.median(
                (self.op_medians().values() if self.over_ops else lat) or [0.0]
            ) * 1000.0,
            "tail_ms": percentile(lat, TAIL[self.workload]) * 1000.0,
            "ops_per_s": len(lat) / busy if busy > 0 else 0.0,
            "analyze_ms": self.command_ms("analyze"),
            "check_ms": self.command_ms("check"),
            "lint_ms": self.command_ms("lint"),
        }
        metrics.update(self.extra)
        return metrics


#: How many times a run performs its set-up; setup_s is their median.
SETUPS = 5


def timed_setups(
    run: "Run",
    setup: Callable[[], T],
    teardown: Callable[[T], None],
    times: int = SETUPS,
    sampled: bool = False,
) -> T:
    """Set up ``times`` times, keep the last, and record the median time.

    Each set-up time is scaled by the mean speed factor of probes taken
    just before and just after it, or with ``sampled`` by a SpeedSampler
    beside it.  Every set-up but the last is torn down; a failure tears
    nothing else down, since the caller's own clean-up still owns what it
    created.
    """
    samples: List[float] = []
    state: Optional[T] = None
    for attempt in range(times):
        if state is not None:
            teardown(state)
        if sampled:
            with SpeedSampler(run.probe) as sampler:
                started = time.perf_counter()
                state = setup()
                elapsed = time.perf_counter() - started
            samples.append(elapsed * sampler.factor())
            continue
        before = run.probe.measure()
        started = time.perf_counter()
        state = setup()
        elapsed = time.perf_counter() - started
        factor = REFERENCE_PROBE_S / ((before + run.probe.measure()) / 2)
        samples.append(elapsed * factor)
    run.setup_s = statistics.median(samples)
    assert state is not None
    return state


def quiet_gc() -> None:
    """Collect garbage between ops so one op's garbage is not the next's cost."""
    gc.collect()


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, min(len(ordered), int(-(-fraction * len(ordered) // 1))))
    return ordered[rank - 1]
