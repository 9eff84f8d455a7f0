"""Set-based reference construction of the information-flow graph.

:meth:`repro.analysis.flowgraph.FlowGraph.from_resource_matrix` ORs each
label's read bitset into the predecessor rows of its modified names and never
builds an edge tuple.  This module keeps the original construction: the
cartesian product of decoded read and modified names per label, loaded into a
graph from the explicit edge set.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Set

from repro.analysis.flowgraph import Adjacency, Edge, FlowGraph
from repro.analysis.resource_matrix import ResourceMatrix
from repro.dataflow.universe import FactUniverse


def resource_matrix_edges(
    matrix: ResourceMatrix, include_self_loops: bool = True
) -> Set[Edge]:
    """The explicit edge set of a Resource Matrix: for every label, each
    decoded read name paired with each decoded modified name."""
    universe = matrix.universe
    decoded: Dict[int, List[str]] = {}

    def names_of(bits: int) -> List[str]:
        names = decoded.get(bits)
        if names is None:
            names = decoded[bits] = universe.decode_list(bits)
        return names

    edges: Set[Edge] = set()
    for _, row in matrix.iter_rows():
        mods_bits = row[0] | row[1]
        reads_bits = row[2] | row[3]
        if not mods_bits or not reads_bits:
            continue
        pairs = itertools.product(names_of(reads_bits), names_of(mods_bits))
        if include_self_loops:
            edges.update(pairs)
        else:
            edges.update((r, m) for r, m in pairs if r != m)
    return edges


def graph_from_edges(edges: Iterable[Edge], nodes: Iterable[str] = ()) -> FlowGraph:
    """A graph over a private universe holding exactly ``edges`` (plus any
    isolated ``nodes``)."""
    universe: FactUniverse = FactUniverse()
    node_bits = 0
    succ: Adjacency = {}
    for name in nodes:
        node_bits |= 1 << universe.intern(name)
    for src, dst in edges:
        src_index = universe.intern(src)
        dst_index = universe.intern(dst)
        node_bits |= (1 << src_index) | (1 << dst_index)
        succ[src_index] = succ.get(src_index, 0) | (1 << dst_index)
    return FlowGraph(universe, node_bits, successors=succ)
