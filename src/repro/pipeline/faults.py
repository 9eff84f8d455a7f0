"""Deterministic fault injection for the serve/batch worker machinery.

The fault-tolerance behaviour of ``vhdl-ifa serve`` (request timeouts that
recycle a hung worker, crash recovery, corrupt-cache eviction) and of the
batch driver (surviving a broken process pool) is only trustworthy if it is
*testable on demand*.  This module is the single switch all of those tests
flip: a :class:`FaultPlan` describes which faults to inject and when, and a
:class:`FaultInjector` applies them at the few choke points the workers
thread it through.

Faults are off by default and armed in one of two ways:

* **constructor switch** — pass ``faults=FaultPlan(...)`` to
  :class:`repro.pipeline.serve.AnalysisServer`; the plan is shipped to every
  pool worker it spawns;
* **environment switch** — set :data:`FAULTS_ENV` to the plan's JSON form
  (``FaultPlan.to_env()``); batch pool workers and standalone processes pick
  it up in their initialisers via :func:`FaultPlan.from_env`.

The injectable faults:

``delay_seconds``
    Sleep this long before running an analysis — long enough relative to the
    server's ``--timeout`` and this *is* a hung worker.
``crash``
    Hard-exit the worker process (``os._exit``) before the analysis runs,
    simulating an OOM kill / segfault mid-request.
``fail``
    Raise :class:`InjectedFault` before the analysis runs, simulating a bug
    inside the analysis: the request is answered with a ``500`` document
    while the worker lives on.
``corrupt_cache_reads``
    Truncate the on-disk cache entry for a key *just before* it is read, so
    every disk hit exercises :class:`~repro.pipeline.cache.DiskArtifactCache`'s
    evict-on-corruption path (the analysis must recompute and still answer
    correctly).

``match`` scopes a fault to requests whose trigger text (the VHDL source for
serve workers, the job path for batch workers) contains the substring, so a
test can hang exactly one request while its neighbours stay healthy.
``once`` disarms the plan after its first trigger in a given process.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: The environment switch: a JSON object with any of the FaultPlan fields.
FAULTS_ENV = "VHDL_IFA_FAULTS"

#: Exit status of a crash-injected worker (distinct from real Python exits).
CRASH_EXIT_CODE = 70


class InjectedFault(RuntimeError):
    """The exception a ``fail`` plan raises inside an analysis."""


@dataclass
class FaultPlan:
    """Which faults to inject, and when they trigger.

    All fields default to the no-fault behaviour, so an empty plan (and an
    unset :data:`FAULTS_ENV`) is exactly the production configuration.
    """

    delay_seconds: float = 0.0
    crash: bool = False
    fail: bool = False
    corrupt_cache_reads: bool = False
    match: Optional[str] = None
    once: bool = False

    def is_active(self) -> bool:
        """True when the plan injects anything at all."""
        return bool(
            self.delay_seconds or self.crash or self.fail or self.corrupt_cache_reads
        )

    def to_env(self) -> str:
        """The JSON form to place in :data:`FAULTS_ENV` for child processes."""
        return json.dumps(
            {
                "delay_seconds": self.delay_seconds,
                "crash": self.crash,
                "fail": self.fail,
                "corrupt_cache_reads": self.corrupt_cache_reads,
                "match": self.match,
                "once": self.once,
            }
        )

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None) -> Optional["FaultPlan"]:
        """The plan encoded in :data:`FAULTS_ENV`, or ``None``.

        A malformed value is treated as no plan: fault injection is a test
        facility and must never take a production process down by itself.
        """
        raw = (environ if environ is not None else os.environ).get(FAULTS_ENV)
        if not raw:
            return None
        try:
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                return None
            known = {name: payload[name] for name in (
                "delay_seconds", "crash", "fail", "corrupt_cache_reads", "match",
                "once",
            ) if name in payload}
            return cls(**known)
        except (ValueError, TypeError):
            return None


class FaultInjector:
    """Applies one :class:`FaultPlan` at the worker choke points.

    One injector lives per worker process; ``fired`` counts triggers (visible
    in worker metadata), and a ``once`` plan disarms itself after the first.
    """

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan if plan is not None else FaultPlan()
        self.fired = 0
        self._armed = self.plan.is_active()

    def _triggers(self, text: str) -> bool:
        if not self._armed:
            return False
        if self.plan.match is not None and self.plan.match not in text:
            return False
        self.fired += 1
        if self.plan.once:
            self._armed = False
        return True

    def before_analysis(self, trigger_text: str = "") -> None:
        """Inject delay, crash and/or failure just before an analysis runs."""
        if not (self.plan.delay_seconds or self.plan.crash or self.plan.fail):
            return
        if not self._triggers(trigger_text):
            return
        if self.plan.delay_seconds:
            time.sleep(self.plan.delay_seconds)
        if self.plan.crash:
            # A hard exit, not an exception: the point is to simulate the
            # worker being killed out from under the supervisor.
            os._exit(CRASH_EXIT_CODE)
        if self.plan.fail:
            raise InjectedFault("injected analysis failure")

    def wrap_cache(self, cache: Any) -> Any:
        """Wrap ``cache`` so disk reads hit corrupted entry files.

        Understands the three store shapes of :mod:`repro.pipeline.cache`:
        a tiered cache has its disk tier wrapped in place, a bare disk cache
        is wrapped directly, and anything else (in-memory, ``None``) is
        returned untouched — there is no file to corrupt.
        """
        if not self.plan.corrupt_cache_reads or cache is None:
            return cache
        disk = getattr(cache, "disk", None)
        if disk is not None:
            cache.disk = CorruptingDiskCache(disk, self)
            return cache
        if hasattr(cache, "_entry_path"):
            return CorruptingDiskCache(cache, self)
        return cache

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None) -> "FaultInjector":
        return cls(FaultPlan.from_env(environ))


class CorruptingDiskCache:
    """A :class:`~repro.pipeline.cache.DiskArtifactCache` proxy that tears
    the entry file apart immediately before every read.

    The wrapped store's own robustness is what is under test: a corrupted
    entry must be evicted and counted as a miss, never raised, and the
    caller recomputes.  ``corruptions`` counts how many files were damaged.
    """

    _OWN_ATTRS = ("_disk", "_injector", "corruptions")

    def __init__(self, disk: Any, injector: FaultInjector):
        object.__setattr__(self, "_disk", disk)
        object.__setattr__(self, "_injector", injector)
        object.__setattr__(self, "corruptions", 0)

    def get(self, key: str) -> Optional[Any]:
        path = self._disk._entry_path(key)
        if path.exists() and self._injector._triggers(key):
            try:
                # Truncate mid-pickle: the classic torn write / bad sector.
                blob = path.read_bytes()
                path.write_bytes(blob[: max(1, len(blob) // 3)])
                self.corruptions += 1
            except OSError:
                pass
        return self._disk.get(key)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._disk, name)

    def __setattr__(self, name: str, value: Any) -> None:
        # Counter updates (hits/misses) must land on the real store, not
        # shadow it on the proxy.
        if name in self._OWN_ATTRS:
            object.__setattr__(self, name, value)
        else:
            setattr(self._disk, name, value)

    def __len__(self) -> int:
        return len(self._disk)

    def __contains__(self, key: str) -> bool:
        return key in self._disk


#: The per-process injector the batch pool workers consult (installed by the
#: pool initialiser from the environment switch; a no-op plan by default).
_PROCESS_INJECTOR: Optional[FaultInjector] = None


def install_process_injector(
    plan: Optional[FaultPlan] = None,
) -> FaultInjector:
    """Install this process's injector (explicit plan, else the env switch)."""
    global _PROCESS_INJECTOR
    _PROCESS_INJECTOR = (
        FaultInjector(plan) if plan is not None else FaultInjector.from_env()
    )
    return _PROCESS_INJECTOR


def process_injector() -> FaultInjector:
    """The installed injector, installing the env-derived one on first use."""
    global _PROCESS_INJECTOR
    if _PROCESS_INJECTOR is None:
        _PROCESS_INJECTOR = FaultInjector.from_env()
    return _PROCESS_INJECTOR
