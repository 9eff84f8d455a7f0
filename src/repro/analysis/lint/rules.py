"""The built-in lint-rule catalog (``IFA101`` … ``IFA108``).

Every rule here falls out of artefacts the pipeline already computes — the
per-process CFGs, the whole-program Reaching Definitions, and the closed
information-flow graph — so linting a cached design costs one extra (cached)
stage, not a second analysis.  The catalog is documented, with one minimal
reproducer per code, in ``docs/lint.md``; ``scripts/check_docs.py`` fails
when a registered code is missing from that table.

========  =====================================================
code      finding
========  =====================================================
IFA101    signal driven by more than one process (write race)
IFA102    signal written but never read
IFA103    signal read but never written
IFA104    dead process: none of its writes reach an output port
IFA105    incomplete sensitivity list
IFA106    combinational feedback loop (no clocked driver)
IFA107    statement unreachable from the process entry
IFA108    shadowed variable assignment (killed before any use)
========  =====================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Set, Tuple

from repro.analysis.closure import _strongly_connected_components
from repro.analysis.lint.registry import LintRule, rule
from repro.analysis.resource_matrix import outgoing_node
from repro.cfg.builder import ProcessCFG
from repro.cfg.labels import BlockKind
from repro.security.report import Diagnostic
from repro.vhdl import ast
from repro.vhdl.elaborate import Design, Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.artifacts import AnalysisResult


def _expression_reads(process: Process) -> Set[str]:
    """Signals read in the process's expressions (not its wait sensitivity)."""
    reads: Set[str] = set()
    for stmt in ast.iter_statements(process.body):
        if isinstance(stmt, (ast.SignalAssign, ast.VariableAssign)):
            reads |= ast.free_signals_expr(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            reads |= ast.free_signals_expr(stmt.condition)
        elif isinstance(stmt, ast.Wait):
            reads |= ast.free_signals_expr(stmt.condition)
    return reads


def _wait_sensitivity(process: Process) -> Set[str]:
    """The union of all wait-statement signal sets of the process."""
    sensitivity: Set[str] = set()
    for stmt in ast.iter_statements(process.body):
        if isinstance(stmt, ast.Wait):
            sensitivity |= set(stmt.signals)
    return sensitivity


def _signal_reads(design: Design) -> Set[str]:
    """Every signal observed anywhere: expressions plus wait sensitivity."""
    reads: Set[str] = set()
    for process in design.processes:
        reads |= _expression_reads(process)
        reads |= _wait_sensitivity(process)
    return reads


def _signal_writes(design: Design) -> Set[str]:
    writes: Set[str] = set()
    for process in design.processes:
        writes |= ast.written_signals(process.body)
    return writes


@rule
class MultipleDriversRule(LintRule):
    """Two processes assigning one signal race on every write."""

    code = "IFA101"
    title = "multiple drivers on one signal"
    default_severity = "error"
    requires = ("cfg",)

    def check(self, analysis: "AnalysisResult") -> Iterator[Diagnostic]:
        processes = analysis.program_cfg.processes
        for name in sorted(analysis.design.signals):
            drivers = sorted(
                cfg.name
                for cfg in processes.values()
                if cfg.assignment_labels_of_signal(name)
            )
            if len(drivers) < 2:
                continue
            yield self.diagnostic(
                f"signal '{name}' is driven by {len(drivers)} processes "
                f"({', '.join(drivers)}); concurrent writes race",
                source=name,
                target=name,
                path=tuple(drivers),
            )


@rule
class WrittenNeverReadRule(LintRule):
    """A driven signal nobody observes is dead logic."""

    code = "IFA102"
    title = "signal written but never read"
    default_severity = "warning"
    requires = ("cfg",)

    def check(self, analysis: "AnalysisResult") -> Iterator[Diagnostic]:
        design = analysis.design
        reads = _signal_reads(design)
        for name in sorted(_signal_writes(design) - reads):
            info = design.signals.get(name)
            if info is None or info.is_output:
                # Output ports are read by the environment by definition.
                continue
            yield self.diagnostic(
                f"signal '{name}' is written but never read by any process",
                source=name,
                target=name,
            )


@rule
class ReadNeverWrittenRule(LintRule):
    """A signal no process drives is stuck at its initial value."""

    code = "IFA103"
    title = "signal read but never written"
    default_severity = "warning"
    requires = ("cfg",)

    def check(self, analysis: "AnalysisResult") -> Iterator[Diagnostic]:
        design = analysis.design
        writes = _signal_writes(design)
        for name in sorted(_signal_reads(design) - writes):
            info = design.signals.get(name)
            if info is None or info.is_input:
                # Input ports are driven by the environment by definition.
                continue
            yield self.diagnostic(
                f"signal '{name}' is read but no process ever drives it; "
                "it is stuck at its initial value",
                source=name,
                target=name,
            )


@rule
class DeadProcessRule(LintRule):
    """A process whose writes reach no output port cannot affect the world."""

    code = "IFA104"
    title = "dead process (no write reaches an output port)"
    default_severity = "warning"
    requires = ("cfg", "flow_graph")

    def check(self, analysis: "AnalysisResult") -> Iterator[Diagnostic]:
        design = analysis.design
        ports = design.output_ports
        if not ports:
            # Without output ports nothing can be observed; every process
            # would be trivially "dead", which is noise, not a finding.
            return
        graph = analysis.graph
        port_nodes: Set[str] = set(ports)
        port_nodes.update(outgoing_node(port) for port in ports)
        # One backward walk: every node with a path into an output port.
        live = port_nodes | graph.reaching(port_nodes)
        for process in design.processes:
            written = sorted(ast.written_signals(process.body))
            if any(
                node in live and graph.has_node(node)
                for signal in written
                for node in (signal, outgoing_node(signal))
            ):
                continue
            yield self.diagnostic(
                f"process '{process.name}' writes "
                f"{{{', '.join(written)}}} but none of it reaches an output "
                "port; the process cannot affect the design's outputs"
                if written
                else f"process '{process.name}' writes no signal at all; it "
                "cannot affect the design's outputs",
                source=process.name,
                target=process.name,
                path=tuple(written),
            )


@rule
class SensitivityRule(LintRule):
    """A signal read but absent from every wait set desynchronises the process."""

    code = "IFA105"
    title = "incomplete sensitivity list"
    default_severity = "warning"
    requires = ("cfg",)

    def check(self, analysis: "AnalysisResult") -> Iterator[Diagnostic]:
        for process in analysis.design.processes:
            if process.synthesized:
                # Concurrent assignments get their sensitivity synthesised
                # from their own expression; it is complete by construction.
                continue
            sensitivity = _wait_sensitivity(process)
            if not sensitivity:
                # No wait carries a signal set: there is no sensitivity list
                # to be incomplete (e.g. pure `wait until` synchronisation).
                continue
            for name in sorted(_expression_reads(process) - sensitivity):
                yield self.diagnostic(
                    f"process '{process.name}' reads signal '{name}' but no "
                    "wait statement is sensitive to it; the process will not "
                    "re-run when the signal changes",
                    source=process.name,
                    target=name,
                )


@rule
class CombinationalLoopRule(LintRule):
    """A signal cycle with no clocked driver oscillates combinationally."""

    code = "IFA106"
    title = "combinational feedback loop"
    default_severity = "error"
    requires = ("cfg", "flow_graph")

    def check(self, analysis: "AnalysisResult") -> Iterator[Diagnostic]:
        design = analysis.design
        graph = analysis.graph.collapse_environment_nodes().without_self_loops()
        signal_nodes = sorted(
            node for node in graph.nodes if node in design.signals
        )
        subgraph = graph.restricted_to(signal_nodes)
        adjacency = subgraph.to_adjacency()
        edges = {
            node: tuple(successors) for node, successors in adjacency.items()
        }
        _, components = _strongly_connected_components(adjacency, edges)
        processes = analysis.program_cfg.processes
        for component in components:
            if len(component) < 2:
                continue
            members = sorted(component)
            member_set = set(members)
            drivers = sorted(
                cfg.name
                for cfg in processes.values()
                if any(cfg.assignment_labels_of_signal(s) for s in members)
            )
            if any(
                self._is_clocked(processes[name], member_set)
                for name in drivers
            ):
                continue
            yield self.diagnostic(
                "combinational feedback loop through signals "
                f"{{{', '.join(members)}}} (driven by {', '.join(drivers)}); "
                "no driver is gated by a clock outside the loop",
                source=members[0],
                target=members[0],
                path=tuple(members),
            )

    @staticmethod
    def _is_clocked(cfg: ProcessCFG, loop_signals: Set[str]) -> bool:
        """True when the process only wakes on signals outside the loop."""
        sensitivity = _wait_sensitivity(cfg.process)
        return bool(sensitivity) and sensitivity.isdisjoint(loop_signals)


@rule
class UnreachableStatementRule(LintRule):
    """A CFG node with no path from the process entry never executes."""

    code = "IFA107"
    title = "unreachable statement"
    default_severity = "warning"
    requires = ("cfg",)

    def check(self, analysis: "AnalysisResult") -> Iterator[Diagnostic]:
        for name in sorted(analysis.program_cfg.processes):
            cfg = analysis.program_cfg.processes[name]
            for label in sorted(cfg.body_labels - self._reachable(cfg)):
                kind = cfg.blocks[label].kind.name.lower()
                yield self.diagnostic(
                    f"statement at label {label} ({kind}) in process "
                    f"'{name}' is unreachable from the process entry",
                    source=name,
                    target=f"L{label}",
                )

    @staticmethod
    def _reachable(cfg: ProcessCFG) -> FrozenSet[int]:
        successors: Dict[int, List[int]] = {}
        for src, dst in cfg.flow:
            successors.setdefault(src, []).append(dst)
        seen: Set[int] = {cfg.entry_label}
        stack: List[int] = [cfg.entry_label]
        while stack:
            for succ in successors.get(stack.pop(), ()):
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return frozenset(seen)


@rule
class ShadowedAssignmentRule(LintRule):
    """A variable definition killed before any use has no effect."""

    code = "IFA108"
    title = "shadowed variable assignment"
    default_severity = "info"
    requires = ("cfg", "reaching")

    def check(self, analysis: "AnalysisResult") -> Iterator[Diagnostic]:
        reaching = analysis.reaching
        for name in sorted(analysis.program_cfg.processes):
            cfg = analysis.program_cfg.processes[name]
            read_labels = self._variable_read_labels(cfg)
            for label in sorted(cfg.body_labels):
                block = cfg.blocks[label]
                if block.kind is not BlockKind.VARIABLE_ASSIGN:
                    continue
                variable = block.statement.target
                used = any(
                    (variable, label) in reaching.entry_of(read_label)
                    for read_label in sorted(read_labels.get(variable, ()))
                )
                if used:
                    continue
                yield self.diagnostic(
                    f"assignment to variable '{variable}' at label {label} "
                    f"in process '{name}' is shadowed: the definition never "
                    "reaches a use (killed by a later assignment, or the "
                    "variable is never read)",
                    source=name,
                    target=variable,
                    path=(f"L{label}",),
                )

    @staticmethod
    def _variable_read_labels(cfg: ProcessCFG) -> Dict[str, Set[int]]:
        """Variable name → the labels whose statement reads it."""
        reads_at: Dict[str, Set[int]] = {}
        for label, block in cfg.blocks.items():
            stmt = block.statement
            if block.kind in (BlockKind.VARIABLE_ASSIGN, BlockKind.SIGNAL_ASSIGN):
                reads = ast.free_variables_expr(stmt.value)
            elif block.kind in (BlockKind.IF_GUARD, BlockKind.WHILE_GUARD):
                reads = ast.free_variables_expr(stmt.condition)
            elif block.kind is BlockKind.WAIT:
                reads = ast.free_variables_expr(stmt.condition)
            else:
                reads = set()
            for variable in reads:
                reads_at.setdefault(variable, set()).add(label)
        return reads_at
