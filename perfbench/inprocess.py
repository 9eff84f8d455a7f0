"""The in-process workloads: ``large_audit`` and ``hier_edit``.

Both call the public :class:`repro.workspace.Workspace` API single-threaded
and encode every document with ``render.json_text``, as the CLI does.  An op
is one command (``analyze``, ``check`` or ``lint``) from source text to the
encoded document; garbage is collected before each op, outside its timing.
"""

from __future__ import annotations

import random
import re
import time
from typing import Any, Dict, List, Optional, Tuple

from common import Run, quiet_gc, timed_setups, vm_hwm_mb
from spans import TimedStore

COMMANDS = ("analyze", "check", "lint")

#: large_audit chain shapes (processes, assignments): many short processes,
#: few long ones, and the shapes between.  The seed draws the entity names
#: and the order, not the sizes: a size draw of +-3 assignments moved the
#: per-command totals by up to 50% from seed to seed.
AUDIT_SHAPES = ((32, 16), (8, 64), (16, 24), (24, 16), (8, 40), (12, 32))


def command_text(
    workspace: Any,
    command: str,
    source: str,
    policy: Any,
    file: Optional[str],
    run: Run,
    entity: Optional[str] = None,
) -> str:
    """Run one command and encode its document (the timed unit of work)."""
    from repro.pipeline.render import analyze_document, json_text

    tracer = run.tracer
    if command == "analyze":
        result = workspace.analyze_run(source, entity=entity)
        with tracer.span("render.build"):
            document = analyze_document(result, file=file)
    elif command == "check":
        result = workspace.check(source, policy, entity=entity)
        with tracer.span("render.build"):
            document = result.document(file=file)
    else:
        result = workspace.lint(source, entity=entity)
        with tracer.span("render.build"):
            document = result.document(file=file)
    with tracer.span("render.encode"):
        text = json_text(document)
    if tracer.enabled:
        tracer.count("render.bytes", len(text))
    return text


def count_document(run: Run, command: str, document: Optional[Dict[str, Any]]) -> None:
    """Per-layer work counts read from one document (traced runs only)."""
    if not run.tracer.enabled or document is None:
        return
    tracer = run.tracer
    if command == "analyze":
        tracer.count("cfg.labels", document["summary"]["labels"])
        tracer.count("analysis.graph_edges", document["summary"]["edges"])
    elif command == "check":
        tracer.count("security.violations", len(document["violations"]))
    else:
        tracer.count("lint.findings", len(document["findings"]))


def timed_op(
    run: Run,
    workspace: Any,
    command: str,
    source: str,
    policy: Any,
    file: str,
    facts: Dict[str, Any],
    key: str,
    factor: float,
    op: Any,
) -> Optional[float]:
    """One checked op; returns its scaled latency, or ``None`` on failure.

    ``op`` names the distinct op together with ``command``.
    """
    started = time.perf_counter()
    try:
        with run.tracer.span("op"):
            text = command_text(workspace, command, source, policy, file, run)
    except Exception as error:  # a crash in the program is a failed op
        run.fail(f"{command} {file}: {error!r}")
        return None
    elapsed = (time.perf_counter() - started) * factor
    document, reason = run.checker.document(text, command, facts, key=f"{key}:{command}")
    if reason is not None:
        run.fail(f"{command} {file}: {reason}")
        return None
    count_document(run, command, document)
    run.ok(elapsed, (op, command))
    return elapsed


# ----------------------------------------------------------------- large_audit


def audit_designs(seed: int) -> List[Tuple[str, str, Dict[str, Any]]]:
    """The seeded design set: ``(file label, source, expected facts)``."""
    from repro.workloads import synthetic_chain_program

    rng = random.Random(seed)
    designs = []
    for index, (processes, assignments) in enumerate(AUDIT_SHAPES):
        name = f"audit_{index}_{rng.randrange(10_000)}"
        facts = {
            "design": name,
            "labels": processes * (assignments + 4),
            "reach": ("chain_in", "chain_out"),
            "violation": ("chain_in", "chain_out"),
        }
        source = synthetic_chain_program(processes, assignments, name=name)
        designs.append((f"{name}.vhd", source, facts))
    rng.shuffle(designs)
    return designs


def large_audit(run: Run) -> None:
    from repro.security.policy import TwoLevelPolicy
    from repro.workloads import synthetic_chain_program
    from repro.workspace import Workspace

    policy = TwoLevelPolicy(secret_resources=["chain_in"])

    def setup() -> List[Tuple[str, str, Dict[str, Any]]]:
        designs = audit_designs(run.seed)
        # Warm-up: lazy imports and first-call set-up, on a small design.
        warm = synthetic_chain_program(4, 16)
        for command in COMMANDS:
            command_text(Workspace(memory_cache=False), command, warm, policy, "warm.vhd", run)
        return designs

    designs = timed_setups(run, setup, lambda _designs: None)
    run.tracer.spans.clear()
    run.tracer.counts.clear()

    window_start = time.perf_counter()
    # Whole passes only, so every run weighs the designs alike.
    while time.perf_counter() < window_start + run.seconds:
        for file, source, facts in designs:
            for command in COMMANDS:
                quiet_gc()
                factor = run.calibrate()
                # A fresh uncached workspace per command, as the CLI default.
                timed_op(
                    run, Workspace(memory_cache=False), command, source,
                    policy, file, facts, file, factor, file,
                )
    run.window_s = time.perf_counter() - window_start
    run.peak_rss_mb = vm_hwm_mb()
    run.finish_checks()
    # Per command: the design set's total, each design at its median.
    medians = run.op_medians()
    for command in COMMANDS:
        run.extra[f"{command}_ms"] = 1000.0 * sum(
            seconds for (_file, kind), seconds in medians.items() if kind == command
        )


# ------------------------------------------------------------------- hier_edit

#: Register-file sizes (cells, depth 8).  Fixed, like the audit shapes: the
#: seed picks the lines each edit touches and the constants it writes.
HIER_CELLS = (104, 128)

_LEAF_LINE = re.compile(r'(    tmp := tmp xor ")([01]{8})(";)')
_WIRING = re.compile(r"(q => q_\d+|status => st_\d+), (q => q_\d+|status => st_\d+)")


def hier_designs() -> List[Tuple[str, str, Dict[str, Any], Any]]:
    """``(file label, source, facts, policy)`` of the hierarchy set."""
    from repro.security.policy import TwoLevelPolicy
    from repro.workloads import hierarchical_bus_program, hierarchical_register_file

    designs = []
    for index, cells in enumerate(HIER_CELLS):
        source = hierarchical_register_file(cells=cells, depth=8)
        facts = {"design": "regfile", "reach": ("din", "dout"),
                 "violation": ("din", "cell_0__state")}
        designs.append((f"regfile_{index}_{cells}.vhd", source, facts,
                        TwoLevelPolicy(secret_resources=["din"])))
    source = hierarchical_bus_program(banks=2, cells_per_bank=2, depth=6)
    facts = {"design": "bus_top", "reach": ("data", "merged"),
             "violation": ("data", "bank_0__cell_0__state")}
    designs.append(("bus_top.vhd", source, facts, TwoLevelPolicy(secret_resources=["data"])))
    return designs


def leaf_edit(source: str, rng: random.Random) -> str:
    """Change one constant in the register cell's body (one summary)."""
    matches = list(_LEAF_LINE.finditer(source))
    match = matches[rng.randrange(len(matches))]
    constant = format(rng.randrange(256), "08b")
    if constant == match.group(2):
        constant = format(int(constant, 2) ^ 1, "08b")
    return source[: match.start(2)] + constant + source[match.end(2) :]


def wiring_edit(source: str, rng: random.Random) -> str:
    """Reorder the named outputs of one instance's port map in the root.

    The wiring stays the same, so the edit invalidates no entity summary
    and costs the same whichever instance the seed picks.
    """
    matches = list(_WIRING.finditer(source))
    match = matches[rng.randrange(len(matches))]
    first, second = match.group(1), match.group(2)
    return source[: match.start()] + f"{second}, {first}" + source[match.end() :]


#: One cycle of edit steps, as (design index, edit kind): every kind on each
#: register file, and one leaf edit of the small bus design.  The seed picks
#: the lines the edits touch.
EDIT_CYCLE = (
    (0, "leaf"), (0, "wiring"), (0, "unchanged"),
    (1, "leaf"), (1, "wiring"), (1, "unchanged"),
    (2, "leaf"),
)


def _summary_presence(run: Run, workspace: Any, source: str) -> None:
    """Count which entity summaries the next link will find cached."""
    from repro.hier import build_hierarchy, summary_cache_key
    from repro.vhdl.parser import parse_program

    hierarchy = build_hierarchy(parse_program(source))
    for name in hierarchy.order:
        key = summary_cache_key(hierarchy.unit_of(name))
        run.tracer.count("hier.summary.hits" if key in workspace.cache else "hier.summary.misses")


def hier_step(
    run: Run, workspace: Any, file: str, source: str, facts, policy, step: Any
) -> float:
    """analyze (link route), check and lint (flatten route) of one design.

    Each command is one op, named by ``step`` (its place in the edit
    cycle, or the cold pass) and the command; returns the summed op time.
    """
    quiet_gc()
    if run.tracer.enabled:
        _summary_presence(run, workspace, source)
    factor = run.calibrate()
    total = 0.0
    for command in COMMANDS:
        elapsed = timed_op(run, workspace, command, source, policy, file, facts, file,
                           factor, step)
        total += elapsed or 0.0
    return total


def hier_edit(run: Run) -> None:
    from repro.pipeline.cache import ArtifactCache
    from repro.workspace import Workspace

    def setup() -> Tuple[List[List[Any]], Any]:
        designs = [list(design) for design in hier_designs()]
        # Warm-up: lazy imports and first-call set-up of both routes, on
        # the small bus design, in a throwaway session.
        warm = Workspace()
        for command in COMMANDS:
            command_text(warm, command, designs[-1][1], designs[-1][3], "warm.vhd", run)
        cache: Any = ArtifactCache()
        if run.tracer.enabled:
            cache = TimedStore(cache, "memory", run.tracer)
        return designs, Workspace(cache=cache)

    designs, workspace = timed_setups(run, setup, lambda _state: None)
    run.tracer.spans.clear()
    run.tracer.counts.clear()
    rng = random.Random(run.seed)

    # The cold pass (empty cache) comes first, outside the window.
    cold = 0.0
    for file, source, facts, policy in designs:
        cold += hier_step(run, workspace, file, source, facts, policy, ("cold", file))
    run.layers["hier.cold_s"] = cold
    # The cold ops are reported above, not among the window's ops.
    run.latencies.clear()
    run.per_op.clear()
    run.probes.clear()
    run.probing_s = 0.0
    run.raw_op_s = 0.0
    window_start = time.perf_counter()
    # Whole cycles only (every kind of edit on every design), so every run
    # weighs the kinds and designs alike.
    cycle = len(EDIT_CYCLE)
    step = 0
    while step % cycle or time.perf_counter() < window_start + run.seconds:
        index, kind = EDIT_CYCLE[step % cycle]
        design = designs[index]
        if kind == "leaf":
            design[1] = leaf_edit(design[1], rng)
        elif kind == "wiring":
            design[1] = wiring_edit(design[1], rng)
        hier_step(run, workspace, *design, step=step % cycle)
        step += 1
        if step == cycle:
            # The session's peak after one edit of each kind on each design:
            # later cycles only add cache entries, as many as the speed of
            # the run allows, so a later reading would follow the speed.
            run.peak_rss_mb = vm_hwm_mb()
    run.window_s = time.perf_counter() - window_start
    run.finish_checks()
    traced, run.tracer.enabled = run.tracer.enabled, False
    linked_equals_flattened(run, workspace, designs)
    if traced:
        flatten_route(run, designs)
    run.tracer.enabled = traced


def linked_equals_flattened(run: Run, workspace: Any, designs) -> None:
    """The link and flatten routes give equal adjacency (once per run)."""
    for file, source, _facts, _policy in designs:
        linked = workspace.analyze_run(source).result.graph.to_adjacency()
        flat = workspace.analyze_run(source, hierarchy="flatten").result.graph.to_adjacency()
        if linked == flat:
            run.passed()
        else:
            run.fail(f"{file}: linked and flattened adjacency differ")


def flatten_route(run: Run, designs) -> None:
    """Time the flatten route (flatten_source + a cold Pipeline run)."""
    from repro.hier import flatten_source
    from repro.pipeline.stages import Pipeline
    from repro.vhdl.parser import parse_program

    started = time.perf_counter()
    for _file, source, _facts, _policy in designs:
        Pipeline().run(flatten_source(parse_program(source)))
    run.layers["hier.flatten_route_s"] = time.perf_counter() - started
