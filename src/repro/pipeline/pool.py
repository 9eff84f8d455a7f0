"""The supervised analysis worker pool behind ``vhdl-ifa serve``.

``concurrent.futures.ProcessPoolExecutor`` cannot cancel a running task or
survive a killed worker without poisoning the whole pool, so the server uses
its own, deliberately small supervisor: one :class:`WorkerHandle` per slot,
each owning a dedicated ``multiprocessing`` pipe to a long-lived worker
process.  The supervisor's contract is the server's fault model:

* a request that exceeds its wall-clock ``timeout`` gets the worker killed
  and respawned — the *request* fails (a structured 5xx upstream), the
  *service* does not;
* a worker that dies mid-request (crash, OOM kill) is detected by the broken
  pipe, respawned, and only that request fails;
* the pool never propagates worker death to the caller as an exception; every
  :meth:`WorkerPool.run` returns a :class:`PoolResult`.

Workers are spawned (not forked): the server runs the pool from a threaded
asyncio process, where forking is unsafe, and a spawn also guarantees each
worker arms its own :mod:`repro.pipeline.faults` plan deterministically.
Each worker builds one :class:`repro.workspace.Workspace` over the shared
``cache_dir`` disk tier (its in-memory tier is per-worker), so all workers
serve warm artifacts out of one store — the same layering the batch driver
uses.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.pipeline.faults import FaultInjector, FaultPlan
from repro.pipeline.render import response_body

#: Spawned, not forked: safe under threads, and a clean slate per worker.
_CTX = multiprocessing.get_context("spawn")

#: Seconds a worker gets to exit voluntarily before the supervisor kills it.
_STOP_GRACE = 2.0


@dataclass
class PoolResult:
    """The outcome of one pooled request — never an exception.

    ``status``/``body`` are the HTTP answer the server relays, the body
    already encoded by :func:`repro.pipeline.render.response_body`.
    ``timed_out``/``crashed`` record the fault (the worker was recycled);
    ``meta`` is the worker's self-report (cache counters, fault triggers,
    and the document's stage ``timings``).
    """

    status: int
    body: bytes
    worker: int = -1
    timed_out: bool = False
    crashed: bool = False
    meta: Dict[str, Any] = field(default_factory=dict)


def _worker_main(
    conn: Any,
    cache_dir: Optional[str],
    no_cache: bool,
    fault_plan: Optional[FaultPlan],
) -> None:
    """One worker: build a workspace once, answer requests until EOF.

    The request protocol is ``(kind, request_dict)`` in,
    ``(status, body, meta)`` out; ``None`` in means drain and exit.  The
    worker encodes the response body itself, so the server's event loop only
    relays bytes; the document's ``timings`` ride along in ``meta`` for the
    server's latency histograms.  Analysis errors are classified here exactly
    as the inline server path classifies them, and both modes encode with
    :func:`~repro.pipeline.render.response_body`, so pooled responses are
    byte-identical to inline ones.
    """
    # Imported here: the worker entry point must be importable by the spawn
    # machinery without dragging the whole toolchain in at module level.
    # The lint catalog is otherwise imported by the first lint request;
    # loading it now keeps every import out of the requests themselves.
    import repro.analysis.lint.rules  # noqa: F401
    from repro.pipeline.cache import open_cache
    from repro.pipeline.serve import execute_request
    from repro.workspace import Workspace

    injector = FaultInjector(fault_plan) if fault_plan is not None else FaultInjector.from_env()
    cache = None if no_cache else open_cache(cache_dir)
    cache = injector.wrap_cache(cache)
    workspace = Workspace(cache=cache)

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        kind, request = message
        status, document = execute_request(workspace, kind, request, injector)
        body = response_body(document)
        meta: Dict[str, Any] = {
            "pid": os.getpid(),
            "faults_fired": injector.fired,
            "timings": document.get("timings"),
        }
        if workspace.cache is not None:
            stats = workspace.cache.stats()
            meta["cache"] = {
                "hits": stats.get("hits", 0),
                "misses": stats.get("misses", 0),
            }
        try:
            conn.send((status, body, meta))
        except (BrokenPipeError, OSError):
            break


class WorkerTimeout(Exception):
    """Internal: the request exceeded its wall-clock budget."""


class WorkerCrash(Exception):
    """Internal: the worker process died before answering."""


class WorkerHandle:
    """One supervised worker slot: a process, its pipe, and respawn logic."""

    def __init__(
        self,
        index: int,
        cache_dir: Optional[str],
        no_cache: bool,
        fault_plan: Optional[FaultPlan],
    ):
        self.index = index
        self.restarts = 0
        self._spec = (cache_dir, no_cache, fault_plan)
        self._process: Optional[Any] = None
        self._conn: Optional[Any] = None
        self._spawn()

    def _spawn(self) -> None:
        parent_conn, child_conn = _CTX.Pipe()
        process = _CTX.Process(
            target=_worker_main,
            args=(child_conn, *self._spec),
            name=f"vhdl-ifa-worker-{self.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._process = process
        self._conn = parent_conn

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    def call(
        self, message: Any, timeout: Optional[float]
    ) -> Tuple[int, bytes, Dict[str, Any]]:
        """Round-trip one request; raises :class:`WorkerTimeout` /
        :class:`WorkerCrash` after recycling the worker."""
        try:
            self._conn.send(message)
        except (BrokenPipeError, OSError):
            self.recycle()
            raise WorkerCrash(f"worker {self.index} was dead before the request")
        try:
            if not self._conn.poll(timeout):
                self.recycle()
                raise WorkerTimeout(
                    f"worker {self.index} exceeded the {timeout:g}s budget"
                )
            return self._conn.recv()
        except (EOFError, BrokenPipeError, OSError):
            self.recycle()
            raise WorkerCrash(f"worker {self.index} died mid-request")

    def recycle(self) -> None:
        """Kill the current process (if any) and spawn a replacement."""
        self._shutdown(kill=True)
        self.restarts += 1
        self._spawn()

    def stop(self) -> None:
        """Drain politely, then make sure the process is gone."""
        self._shutdown(kill=False)

    def _shutdown(self, kill: bool) -> None:
        process, conn = self._process, self._conn
        self._process = self._conn = None
        if conn is not None:
            if not kill:
                try:
                    conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            try:
                conn.close()
            except OSError:
                pass
        if process is None:
            return
        if kill:
            process.kill()
            process.join(_STOP_GRACE)
        else:
            process.join(_STOP_GRACE)
            if process.is_alive():
                process.kill()
                process.join(_STOP_GRACE)
        # Release the process object's pipe/semaphore resources promptly.
        process.close()


class WorkerPool:
    """A fixed-size pool of supervised workers with a thread-safe free list.

    Callers (the server's executor threads) check a handle out, run exactly
    one request on it, and check it back in — :meth:`run` does all three and
    translates worker faults into :class:`PoolResult` fields instead of
    exceptions.  ``timeout`` is the per-request wall-clock budget; ``None``
    waits forever (no recycling on slow requests).
    """

    def __init__(
        self,
        size: int,
        *,
        cache_dir: Optional[str] = None,
        no_cache: bool = False,
        timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if size < 1:
            raise ValueError("pool size must be positive")
        self.size = size
        self.timeout = timeout
        self._handles = [
            WorkerHandle(index, cache_dir, no_cache, fault_plan)
            for index in range(size)
        ]
        self._free: "queue.Queue[WorkerHandle]" = queue.Queue()
        for handle in self._handles:
            self._free.put(handle)
        self._stopped = threading.Event()

    # ------------------------------------------------------------------ state

    @property
    def restarts(self) -> int:
        """Total worker respawns over the pool's lifetime."""
        return sum(handle.restarts for handle in self._handles)

    @property
    def alive(self) -> int:
        """How many worker processes are currently running."""
        return sum(1 for handle in self._handles if handle.alive)

    # ------------------------------------------------------------------- run

    def run(self, kind: str, request: Dict[str, Any]) -> PoolResult:
        """Run one request on the next free worker (blocking; call from a
        thread, not the event loop)."""
        if self._stopped.is_set():
            return PoolResult(
                status=503, body=response_body({"error": "server is shutting down"})
            )
        handle = self._free.get()
        try:
            try:
                status, body, meta = handle.call((kind, request), self.timeout)
                return PoolResult(
                    status=status, body=body, worker=handle.index, meta=meta
                )
            except WorkerTimeout:
                return PoolResult(
                    status=504,
                    body=response_body(
                        {
                            "error": (
                                f"analysis exceeded the {self.timeout:g}s "
                                "request budget; the worker was recycled"
                            )
                        }
                    ),
                    worker=handle.index,
                    timed_out=True,
                )
            except WorkerCrash:
                return PoolResult(
                    status=500,
                    body=response_body(
                        {
                            "error": (
                                "analysis worker died mid-request; "
                                "the worker was recycled"
                            )
                        }
                    ),
                    worker=handle.index,
                    crashed=True,
                )
        finally:
            self._free.put(handle)

    # ------------------------------------------------------------------ stop

    def stop(self) -> None:
        """Stop every worker; the pool answers 503 from then on."""
        self._stopped.set()
        for handle in self._handles:
            handle.stop()

    def stats(self) -> Dict[str, Any]:
        return {
            "configured": self.size,
            "alive": self.alive,
            "restarts": self.restarts,
            "timeout_seconds": self.timeout,
        }
