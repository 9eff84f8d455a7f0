"""Closure of the Resource Matrix driven by Reaching Definitions (Table 8).

The global Resource Matrix ``RM_gl`` is the least set closed under:

* **[Initialization]** — ``RM_lo ⊆ RM_gl``;
* **[Present values and local variables]** — if the construct at label ``l``
  uses a definition made at ``l'`` (``(n', l') ∈ RD†(l)``) then everything read
  at ``l'`` is also (indirectly) read at ``l``:
  ``(n, l', R0) ∈ RM_gl ⇒ (n, l, R0) ∈ RM_gl``;
* **[Synchronized values]** — if the present value used at ``l`` was defined at
  the synchronisation point ``l_i`` (``(s', l_i) ∈ RD†(l)``), and at a
  synchronisation point ``l_j`` that may synchronise with ``l_i`` the signal's
  active value may stem from the assignment at ``l''``
  (``(s', l'') ∈ RD†ϕ(l_j)``), then everything read at ``l''`` is also read at
  ``l``: ``(s, l'', R0) ∈ RM_gl ⇒ (s, l, R0) ∈ RM_gl``.

Both closure rules have the same shape — *copy every ``R0`` entry from a source
label to a target label* — so the implementation first derives the set of copy
edges from ``RD†``/``RD†ϕ`` (they do not change during the closure) and then
solves the fixpoint **per label, not per entry**: the Resource Matrix stores
each label's ``R0`` reads as a name-bitset (see
:mod:`repro.analysis.resource_matrix`), the copy-edge graph is condensed into
its strongly connected components (iterative Tarjan), and the component DAG is
swept once in topological order, ORing whole bitsets along each edge.  The
final ``R0`` column of a label is the union of the seed columns of every label
that reaches it — one bitset OR per edge visit, instead of one worklist item
per (name, label) pair.  The test suite cross-checks it against the original
entry-at-a-time fixpoint (``tests/oracles/closure.py``) and against the ALFP
encoding in :mod:`repro.analysis.alfp`, which states the rules literally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple, Union

from repro.analysis.resource_matrix import Access, Entry, ResourceMatrix
from repro.analysis.specialize import SpecializedRD
from repro.cfg.builder import ProgramCFG

CopyEdges = Dict[int, Set[int]]
"""Mapping ``source label -> set of target labels`` for ``R0`` propagation."""

Seeds = Union[ResourceMatrix, Iterable[Entry]]
"""Seeds of the closure: a matrix (preferred, no decoding) or loose entries."""


@dataclass
class ClosureResult:
    """The global Resource Matrix together with the derived copy relation."""

    rm_global: ResourceMatrix
    copy_edges: CopyEdges = field(default_factory=dict)

    def __iter__(self):
        return iter(self.rm_global)


# ---------------------------------------------------------------------------
# Copy-edge derivation
# ---------------------------------------------------------------------------


def present_value_edges(specialized: SpecializedRD) -> CopyEdges:
    """Copy edges contributed by rule [Present values and local variables].

    For every ``(n', l') ∈ RD†(l)`` the reads of label ``l'`` must be copied to
    label ``l``.
    """
    edges: CopyEdges = {}
    for target, definitions in specialized.present.items():
        for _, source in definitions:
            edges.setdefault(source, set()).add(target)
    return edges


def synchronized_value_edges(
    program_cfg: ProgramCFG, specialized: SpecializedRD
) -> CopyEdges:
    """Copy edges contributed by rule [Synchronized values].

    For ``(s', l_i) ∈ RD†(l)`` with ``l_i`` a wait label, and every wait label
    ``l_j`` co-occurring with ``l_i`` in the cross-flow relation, each active
    definition ``(s', l'') ∈ RD†ϕ(l_j)`` yields the copy edge ``l'' → l``.
    """
    edges: CopyEdges = {}
    wait_labels = program_cfg.wait_labels
    for target, definitions in specialized.present.items():
        for signal, def_label in definitions:
            if def_label not in wait_labels:
                continue
            for sync_label in sorted(wait_labels):
                if not program_cfg.labels_cooccur_in_cross_flow(def_label, sync_label):
                    continue
                for active_signal, assign_label in specialized.active_at(sync_label):
                    if active_signal != signal:
                        continue
                    edges.setdefault(assign_label, set()).add(target)
    return edges


def merge_edges(*edge_maps: CopyEdges) -> CopyEdges:
    """Union several copy-edge maps."""
    merged: CopyEdges = {}
    for edges in edge_maps:
        for source, targets in edges.items():
            merged.setdefault(source, set()).update(targets)
    return merged


# ---------------------------------------------------------------------------
# Fixpoint
# ---------------------------------------------------------------------------


def _strongly_connected_components(
    nodes: Iterable[int], edge_lists: Dict[int, Tuple[int, ...]]
) -> Tuple[Dict[int, int], List[List[int]]]:
    """Iterative Tarjan over the copy-edge graph.

    Returns the component index of every node and the member lists, emitted in
    reverse topological order of the condensation (every component appears
    after all components reachable from it).
    """
    index: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    counter = 0
    stack: List[int] = []
    on_stack: Set[int] = set()
    comp_of: Dict[int, int] = {}
    components: List[List[int]] = []

    for root in sorted(nodes):
        if root in index:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            descended = False
            children = edge_lists.get(node, ())
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if child not in index:
                    work[-1] = (node, child_index)
                    work.append((child, 0))
                    descended = True
                    break
                if child in on_stack and index[child] < lowlink[node]:
                    lowlink[node] = index[child]
            if descended:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                members: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp_of[member] = len(components)
                    members.append(member)
                    if member == node:
                        break
                components.append(members)
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
    return comp_of, components


def _as_matrix(seeds: Seeds) -> ResourceMatrix:
    if isinstance(seeds, ResourceMatrix):
        return seeds.copy()
    return ResourceMatrix(seeds)


def propagate(seeds: Seeds, copy_edges: CopyEdges) -> ResourceMatrix:
    """Close ``seeds`` under ``R0`` propagation along ``copy_edges``.

    Non-``R0`` entries are kept unchanged.  The least fixpoint assigns every
    label the union of the seed ``R0`` name-bitsets of all labels that reach
    it in the copy-edge graph (including itself); it is computed by one
    topological sweep over the SCC condensation, ORing whole columns.
    """
    # Matrix seeds keep their (per-session) name universe via copy(); loose
    # entry seeds are interned into a private fresh one.
    matrix = _as_matrix(seeds)
    if not copy_edges:
        return matrix

    nodes: Set[int] = set(copy_edges)
    for targets in copy_edges.values():
        nodes |= targets
    edge_lists = {src: tuple(sorted(targets)) for src, targets in copy_edges.items()}
    comp_of, components = _strongly_connected_components(nodes, edge_lists)

    comp_successors: List[Set[int]] = [set() for _ in components]
    for src, targets in copy_edges.items():
        src_comp = comp_of[src]
        for dst in targets:
            dst_comp = comp_of[dst]
            if dst_comp != src_comp:
                comp_successors[src_comp].add(dst_comp)

    seed_r0 = matrix.column(Access.R0)
    comp_value: List[int] = [0] * len(components)
    # Tarjan emits components in reverse topological order, so iterating the
    # emission order backwards visits every component before its successors.
    for comp in reversed(range(len(components))):
        bits = comp_value[comp]
        for label in components[comp]:
            bits |= seed_r0.get(label, 0)
        comp_value[comp] = bits
        if bits:
            for successor in comp_successors[comp]:
                comp_value[successor] |= bits

    for comp, members in enumerate(components):
        bits = comp_value[comp]
        if bits:
            for label in members:
                matrix.or_bits(label, Access.R0, bits)
    return matrix


def global_resource_matrix(
    program_cfg: ProgramCFG,
    rm_lo: ResourceMatrix,
    specialized: SpecializedRD,
) -> ClosureResult:
    """Compute ``RM_gl`` from ``RM_lo`` and the specialised RD results (Table 8)."""
    copy_edges = merge_edges(
        present_value_edges(specialized),
        synchronized_value_edges(program_cfg, specialized),
    )
    rm_global = propagate(rm_lo, copy_edges)
    return ClosureResult(rm_global=rm_global, copy_edges=copy_edges)
