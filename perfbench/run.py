"""Benchmark driver for the vhdl-ifa toolkit.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 20 --trace 0

Runs one named workload on inputs made from ``--seed``, checks every output
it produces, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run is made
twice, untraced and then with spans around every layer call, and the
metrics are the per-layer ones (self times, counts, ``unattributed_s`` and
``trace.overhead_pct``).  The spans are written once, at the end, to
``.perfbench_out/`` as Chrome trace events.

Every end-to-end time is scaled to a reference machine speed by a
calibration probe (``probe.py``, in a child process): taken just before the
work (``common.REFERENCE_PROBE_S``), or, on ``serve_warm``, sampled beside
it (``common.SpeedSampler``); layer self times are not.  ``BENCHMARK.json`` lists the workloads and
metrics; ``record.json`` beside this file says what each layer should move,
and ``baseline.json`` holds the figures measured when the benchmark was
defined.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
from typing import Any, Callable, Dict, List, Tuple

from common import ROOT, MissingProgram, Run, SpeedProbe, require_program

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("analyze_ms", "ms"),
    ("check_ms", "ms"),
    ("lint_ms", "ms"),
)

#: Layer metrics that are summed self times of spans of the same name.
SPAN_LAYERS = (
    "vhdl.tokenize", "vhdl.parse", "vhdl.elaborate", "cfg.build",
    "analysis.active", "analysis.reaching", "analysis.local",
    "analysis.specialize", "analysis.closure", "analysis.flow_graph",
    "security.report", "lint.rules", "render.build", "render.encode",
    "cache.memory.get", "cache.memory.put", "cache.disk.get", "cache.disk.put",
    "hier.build_hierarchy", "hier.summary", "hier.link", "hier.flatten",
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("startup.interpreter_ms", "ms"),
    ("startup.import_ms", "ms"),
    *((f"{name}_s", "s") for name in SPAN_LAYERS),
    ("vhdl.tokens_per_s", "1/s"),
    ("cfg.labels", "count"),
    ("analysis.graph_edges", "count"),
    ("security.violations", "count"),
    ("lint.findings", "count"),
    ("render.bytes", "bytes"),
    ("cache.memory.hits", "count"),
    ("cache.memory.misses", "count"),
    ("cache.disk.hits", "count"),
    ("cache.disk.misses", "count"),
    ("cache.disk.bytes_written", "bytes"),
    ("cache.hit_ratio", "ratio"),
    ("serve.server_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.dedup_hits", "count"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("pool.restarts", "count"),
    ("hier.summary.hits", "count"),
    ("hier.summary.misses", "count"),
    ("hier.flatten_route_s", "s"),
    ("hier.cold_s", "s"),
    ("ops_failed_ratio", "ratio"),
    ("trace.ops", "count"),
    ("trace.wall_s", "s"),
    ("unattributed_s", "s"),
    ("trace.overhead_pct", "%"),
    ("machine.probe_ms", "ms"),
)

WORKLOADS = ("cli_cold", "large_audit", "serve_warm", "hier_edit")


def workload_function(name: str) -> Callable[[Run], None]:
    import children
    import inprocess

    return {
        "cli_cold": children.cli_cold,
        "large_audit": inprocess.large_audit,
        "serve_warm": children.serve_warm,
        "hier_edit": inprocess.hier_edit,
    }[name]


def layer_metrics(untraced: Run, traced: Run) -> Dict[str, float]:
    """The per-layer values of one traced run (every name in PER_LAYER)."""
    tracer = traced.tracer
    values: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    for name, seconds in tracer.self_times().items():
        if name in SPAN_LAYERS:
            values[f"{name}_s"] = seconds
    for name, amount in tracer.counts.items():
        if name in values:
            values[name] = float(amount)
    tokens = tracer.counts.get("vhdl.tokens", 0)
    if values["vhdl.tokenize_s"] > 0:
        values["vhdl.tokens_per_s"] = tokens / values["vhdl.tokenize_s"]
    memory_lookups = values["cache.memory.hits"] + values["cache.memory.misses"]
    if memory_lookups:
        values["cache.hit_ratio"] = (
            values["cache.memory.hits"] + values["cache.disk.hits"]
        ) / memory_lookups
    ops, wall, own = tracer.op_times()
    values["trace.ops"] = float(ops)
    values["trace.wall_s"] = wall
    values["unattributed_s"] = own
    if traced.probes:
        values["machine.probe_ms"] = statistics.median(traced.probes) * 1000.0
    values.update(traced.layers)
    base = untraced.end_to_end()["p50_ms"]
    if base:
        values["trace.overhead_pct"] = (traced.end_to_end()["p50_ms"] - base) / base * 100.0
    attempted = untraced.attempted + traced.attempted
    values["ops_failed_ratio"] = (
        (untraced.failed + traced.failed) / attempted if attempted else 0.0
    )
    return values


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_program()
    except MissingProgram as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    function = workload_function(args.workload)
    # A SIGTERM unwinds like an exception, so every ``finally`` that stops a
    # child process (the server, its workers, the speed probe) still runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    probe = SpeedProbe()
    try:
        runs = [Run(args.workload, args.seed, args.seconds, False, probe)]
        function(runs[0])
        if args.trace:
            from spans import instrument

            traced = Run(args.workload, args.seed, args.seconds, True, probe)
            restore = instrument(traced.tracer)
            try:
                function(traced)
            finally:
                restore()
            runs.append(traced)
            values = layer_metrics(runs[0], traced)
            units = dict(PER_LAYER)
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            traced.tracer.write(str(out / f"trace-{args.workload}-{args.seed}.json"))
        else:
            values = runs[0].end_to_end()
            units = dict(END_TO_END)
    finally:
        probe.close()
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    for run in runs:
        for reason in run.failures:
            print(f"perfbench: failed op: {reason}", file=sys.stderr)
    result: Dict[str, Any] = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
