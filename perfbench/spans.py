"""In-memory spans around calls into the program's layers.

A span is ``(name, start, end, parent, run_id)``.  Spans are appended to a
list while the run executes and written to disk once, when it ends.  The
self time of a span is its duration minus the time its direct children
cover; a layer's self time is the sum over its spans.

:func:`instrument` wraps the public functions each layer exposes, in every
module namespace that imported them, so the program's own call path runs
unchanged with a span around each layer call.  Nothing is wrapped unless
the benchmark runs with ``--trace 1``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (module, attribute) -> span name.  Every namespace that imports a layer
#: function is listed, because ``from x import f`` binds ``f`` locally.
LAYER_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.vhdl.parser", "tokenize", "vhdl.tokenize"),
    ("repro.pipeline.stages", "parse_program", "vhdl.parse"),
    ("repro.pipeline.stages", "elaborate", "vhdl.elaborate"),
    ("repro.pipeline.stages", "build_cfg", "cfg.build"),
    ("repro.pipeline.stages", "analyze_all_active_signals", "analysis.active"),
    ("repro.pipeline.stages", "analyze_reaching_definitions", "analysis.reaching"),
    ("repro.pipeline.stages", "local_resource_matrix", "analysis.local"),
    ("repro.pipeline.stages", "specialize", "analysis.specialize"),
    ("repro.pipeline.stages", "improved_global_resource_matrix", "analysis.closure"),
    ("repro.pipeline.stages", "global_resource_matrix", "analysis.closure"),
    ("repro.hier.link", "specialize", "analysis.specialize"),
    ("repro.hier.link", "improved_global_resource_matrix", "analysis.closure"),
    ("repro.hier.link", "global_resource_matrix", "analysis.closure"),
    ("repro.hier.link", "build_hierarchy", "hier.build_hierarchy"),
    ("repro.hier.link", "summarize_entity", "hier.summary"),
    ("repro.workspace", "link_hierarchy", "hier.link"),
    ("repro.workspace", "flatten_source", "hier.flatten"),
    ("repro.security.report", "build_report", "security.report"),
    ("repro.analysis.lint", "run_lint_rules", "lint.rules"),
)


class Tracer:
    """Collects spans of one run; ``enabled=False`` makes every span free."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: List[List[Any]] = []  # [name, start, end, parent]
        self._stack: List[int] = []
        self.counts: Dict[str, float] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, function: Callable, name: str, counter: Optional[str] = None) -> Callable:
        """``function`` under a span; ``counter`` also counts ``len(result)``."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                result = function(*args, **kwargs)
            if counter is not None and tracer.enabled:
                tracer.count(counter, len(result))
            return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def self_times(self) -> Dict[str, float]:
        """Layer name -> summed self time (duration minus direct children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
        return totals

    def op_times(self, name: str = "op") -> Tuple[int, float, float]:
        """``(count, summed duration, summed self time)`` of the op spans."""
        child_time: Dict[int, float] = {}
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        count, total, own = 0, 0.0, 0.0
        for index, (span_name, start, end, _parent) in enumerate(self.spans):
            if span_name == name:
                count += 1
                total += end - start
                own += end - start - child_time.get(index, 0.0)
        return count, total, own

    def write(self, path: str) -> None:
        """Write every span once, as Chrome trace events (microseconds)."""
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"run": self.run_id, "parent": parent},
            }
            for name, start, end, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "counts": self.counts}, handle)


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer function; returns the function that unwraps them."""
    import importlib

    from repro.analysis.flowgraph import FlowGraph

    undo: List[Tuple[Any, str, Any]] = []
    for module_name, attribute, span_name in LAYER_FUNCTIONS:
        module = importlib.import_module(module_name)
        original = getattr(module, attribute)
        undo.append((module, attribute, original))
        counter = "vhdl.tokens" if span_name == "vhdl.tokenize" else None
        setattr(module, attribute, tracer.wrap(original, span_name, counter))
    original_from_rm = FlowGraph.__dict__["from_resource_matrix"]
    undo.append((FlowGraph, "from_resource_matrix", original_from_rm))
    FlowGraph.from_resource_matrix = classmethod(  # type: ignore[assignment]
        tracer.wrap(original_from_rm.__func__, "analysis.flow_graph")
    )

    def restore() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return restore


class TimedStore:
    """A timing and counting proxy around one artifact store.

    Handed to ``Workspace(cache=...)`` (directly or as a tier), it forwards
    every call, records a ``cache.<tier>.get``/``put`` span around it and
    counts ``cache.<tier>.hits``/``misses``.
    """

    def __init__(self, store: Any, tier: str, tracer: Tracer):
        self._store = store
        self._tier = tier
        self._tracer = tracer

    def get(self, key: str) -> Optional[Any]:
        with self._tracer.span(f"cache.{self._tier}.get"):
            value = self._store.get(key)
        self._tracer.count(
            f"cache.{self._tier}.{'misses' if value is None else 'hits'}"
        )
        return value

    def put(self, key: str, value: Any) -> None:
        with self._tracer.span(f"cache.{self._tier}.put"):
            self._store.put(key, value)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._store, name)

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def __len__(self) -> int:
        return len(self._store)

